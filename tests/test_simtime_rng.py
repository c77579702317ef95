"""Tests for repro.simtime.rng — determinism and stream isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.rng import (
    RngStream,
    StreamBank,
    WeightedSampler,
    derive_seed,
    spawn,
    stable_bucket,
    stable_hash01,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_path_sensitive(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "ab")

    def test_master_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_64_bit(self):
        assert 0 <= derive_seed(7, "x") < 2 ** 64


class TestRngStream:
    def test_same_path_same_sequence(self):
        a = RngStream(7, "workload")
        b = RngStream(7, "workload")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_paths_diverge(self):
        a = RngStream(7, "workload")
        b = RngStream(7, "rdap")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_child_derivation(self):
        parent = RngStream(7, "a")
        child = parent.child("b")
        direct = RngStream(7, "a", "b")
        assert child.path == ("a", "b")
        assert [child.random() for _ in range(3)] == [
            direct.random() for _ in range(3)]

    def test_bernoulli_extremes(self):
        stream = RngStream(1, "t")
        assert stream.bernoulli(1.0) is True
        assert stream.bernoulli(0.0) is False

    def test_bernoulli_rate(self):
        stream = RngStream(1, "t")
        hits = sum(stream.bernoulli(0.25) for _ in range(20000))
        assert 0.22 < hits / 20000 < 0.28

    def test_exponential_mean(self):
        stream = RngStream(1, "exp")
        mean = sum(stream.exponential(100.0) for _ in range(20000)) / 20000
        assert 90 < mean < 110

    def test_lognormal_median(self):
        stream = RngStream(1, "ln")
        samples = sorted(stream.lognormal_from_median(600, 0.9)
                         for _ in range(20001))
        median = samples[10000]
        assert 540 < median < 660

    def test_truncated_within_bounds(self):
        stream = RngStream(1, "tr")
        for _ in range(200):
            value = stream.truncated(lambda: stream.gauss(0, 100), -10, 10)
            assert -10 <= value <= 10

    def test_weighted_choice_respects_weights(self):
        stream = RngStream(1, "w")
        counts = {"a": 0, "b": 0}
        for _ in range(10000):
            counts[stream.weighted_choice(["a", "b"], [9, 1])] += 1
        assert counts["a"] > counts["b"] * 5

    def test_poisson_small_lambda_mean(self):
        stream = RngStream(1, "p")
        mean = sum(stream.poisson(3.0) for _ in range(10000)) / 10000
        assert 2.8 < mean < 3.2

    def test_poisson_large_lambda_mean(self):
        stream = RngStream(1, "p2")
        mean = sum(stream.poisson(200.0) for _ in range(2000)) / 2000
        assert 190 < mean < 210

    def test_poisson_zero(self):
        assert RngStream(1, "p3").poisson(0.0) == 0

    def test_zipf_rank_range(self):
        stream = RngStream(1, "z")
        ranks = [stream.zipf_rank(10) for _ in range(1000)]
        assert all(0 <= r < 10 for r in ranks)
        # Rank 0 must dominate rank 9.
        assert ranks.count(0) > ranks.count(9) * 2


class TestSeedBank:
    def test_memoises_streams(self):
        bank = StreamBank(7)
        assert bank.stream("a") is bank.stream("a")

    def test_memoised_stream_advances(self):
        bank = StreamBank(7)
        first = bank.stream("x").random()
        second = bank.stream("x").random()
        assert first != second


class TestStableHash:
    def test_range(self):
        for text in ("a", "b", "example.com"):
            assert 0.0 <= stable_hash01(text) < 1.0

    def test_deterministic_across_calls(self):
        assert stable_hash01("example.com", "s") == stable_hash01("example.com", "s")

    def test_salt_changes_value(self):
        assert stable_hash01("x", "a") != stable_hash01("x", "b")

    def test_bucket_range(self):
        for i in range(100):
            assert 0 <= stable_bucket(f"d{i}.com", 16) < 16

    def test_bucket_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stable_bucket("x", 0)

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_bucket_stable_property(self, text):
        assert stable_bucket(text, 7) == stable_bucket(text, 7)

    def test_spawn_equivalent_to_stream(self):
        assert spawn(7, "q").random() == RngStream(7, "q").random()

    def test_bucket_distribution_roughly_uniform(self):
        counts = [0] * 8
        for i in range(8000):
            counts[stable_bucket(f"domain{i}.net", 8)] += 1
        assert min(counts) > 800  # expected 1000 each


class TestWeightedSampler:
    """The fast-path sampler must be bit-identical to random.choices."""

    @given(seed=st.integers(0, 2 ** 32),
           weights=st.lists(st.one_of(
               st.integers(min_value=0, max_value=1000),
               st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)),
               min_size=1, max_size=40),
           draws=st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_pick_matches_random_choices(self, seed, weights, draws):
        from hypothesis import assume
        assume(sum(weights) > 0)
        items = list(range(len(weights)))
        sampler = WeightedSampler(items, weights)
        a = RngStream(seed, "sampler")
        b = RngStream(seed, "sampler")
        got = [sampler.pick(a) for _ in range(draws)]
        want = [b.choices(items, weights=weights, k=1)[0]
                for _ in range(draws)]
        assert got == want
        # Both consumed the same number of underlying draws.
        assert a.random() == b.random()

    @given(seed=st.integers(0, 2 ** 32),
           weights=st.lists(st.floats(min_value=0.001, max_value=10.0,
                                      allow_nan=False),
                            min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_weighted_choice_matches_random_choices(self, seed, weights):
        items = [f"item{i}" for i in range(len(weights))]
        a = RngStream(seed, "wc")
        b = RngStream(seed, "wc")
        got = [a.weighted_choice(items, weights) for _ in range(10)]
        want = [b.choices(list(items), weights=list(weights), k=1)[0]
                for _ in range(10)]
        assert got == want

    def test_from_pairs(self):
        sampler = WeightedSampler.from_pairs([("a", 1.0), ("b", 3.0)])
        rng = RngStream(7, "pairs")
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[sampler.pick(rng)] += 1
        assert counts["b"] > counts["a"]

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            WeightedSampler([], [])
        with pytest.raises(ValueError):
            WeightedSampler(["a"], [0.0])
        with pytest.raises(ValueError):
            WeightedSampler(["a", "b"], [1.0])

    def test_weighted_choice_rejects_zero_total(self):
        rng = RngStream(7, "zero")
        with pytest.raises(ValueError):
            rng.weighted_choice(["a", "b"], [0.0, 0.0])

    def test_pick_is_one_draw(self):
        # One pick consumes exactly one random() draw, so swapping a
        # sampler for per-call weighted_choice never shifts a stream.
        sampler = WeightedSampler(["a", "b", "c"], [0.2, 0.3, 0.5])
        picked = RngStream(7, "cap")
        walked = RngStream(7, "cap")
        for _ in range(25):
            sampler.pick(picked)
            walked.random()
        assert picked.random() == walked.random()


class TestStableHashMemo:
    def test_memo_returns_identical_values(self):
        # Same digest on every call for the same (text, salt) pair.
        first = stable_hash01("memo-domain.com", "saltx")
        again = stable_hash01("memo-domain.com", "saltx")
        assert first == again
        # Ground truth: one-shot blake2b over salt\x00text.
        import hashlib
        h = hashlib.blake2b(digest_size=8)
        h.update(b"saltx\x00memo-domain.com")
        assert first == int.from_bytes(h.digest(), "big") / 2.0 ** 64

    def test_distinct_keys_retain_nothing(self):
        # Keys almost never repeat, so no per-key result may outlive
        # its call (only the per-salt hasher is cached).
        import tracemalloc
        stable_hash01("warm.example", "retain")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(10_000):
                stable_hash01(f"host-{i}.example", "retain")
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024

    def test_bucket_stability(self):
        assert (stable_bucket("x.com", 16, "s")
                == stable_bucket("x.com", 16, "s"))
