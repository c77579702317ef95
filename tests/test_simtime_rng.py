"""Tests for repro.simtime.rng — determinism and stream isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.rng import (
    CountingStream,
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

    def test_fresh_streams_restart(self):
        bank = StreamBank(7)
        first = bank.fresh("x").random()
        again = bank.fresh("x").random()
        assert first == again

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


class TestFastForward:
    """fast_forward(k) must land on exactly the post-k-draws state.

    This is the contract the multi-core world build stands on: a worker
    that fast-forwards the shared capick stream by the counting pass's
    offset must produce the same picks a serial build would have — for
    every draw kind the planner consumes.
    """

    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 200),
           tail=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_random_kind_equals_discarded_draws(self, seed, k, tail):
        skipped = RngStream(seed, "ff").fast_forward(k)
        manual = RngStream(seed, "ff")
        for _ in range(k):
            manual.random()
        assert ([skipped.random() for _ in range(tail)]
                == [manual.random() for _ in range(tail)])

    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 200),
           a=st.floats(-1e6, 1e6, allow_nan=False),
           b=st.floats(0.0, 1e6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_uniform_kind_equals_discarded_uniforms(self, seed, k, a, b):
        skipped = RngStream(seed, "ffu").fast_forward(k, kind="uniform")
        manual = RngStream(seed, "ffu")
        for _ in range(k):
            manual.uniform(a, a + b)
        assert skipped.random() == manual.random()

    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 200),
           population=st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_choice_kind_equals_discarded_choices(self, seed, k, population):
        skipped = RngStream(seed, "ffc").fast_forward(
            k, kind="choice", population=population)
        manual = RngStream(seed, "ffc")
        pool = list(range(population))
        for _ in range(k):
            manual.choice(pool)
        assert skipped.random() == manual.random()

    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 200),
           mu=st.floats(-5.0, 10.0, allow_nan=False),
           sigma=st.floats(0.01, 3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_lognormvariate_kind_equals_discarded_draws(self, seed, k,
                                                        mu, sigma):
        # Consumption of the normal-variate rejection loop is
        # independent of (mu, sigma), so the fast-forward need not know
        # the parameters the serial build used.
        skipped = RngStream(seed, "ffl").fast_forward(
            k, kind="lognormvariate")
        manual = RngStream(seed, "ffl")
        for _ in range(k):
            manual.lognormvariate(mu, sigma)
        assert skipped.random() == manual.random()

    def test_zero_is_a_noop(self):
        assert (RngStream(7, "z").fast_forward(0).random()
                == RngStream(7, "z").random())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            RngStream(7, "x").fast_forward(-1)
        with pytest.raises(ValueError):
            RngStream(7, "x").fast_forward(1, kind="gauss")
        with pytest.raises(ValueError):
            RngStream(7, "x").fast_forward(1, kind="choice", population=0)

    def test_weighted_sampler_pick_is_one_draw(self):
        # The capick contract: one WeightedSampler pick == one random()
        # draw, so counting picks counts fast-forward units.
        sampler = WeightedSampler(["a", "b", "c"], [0.2, 0.3, 0.5])
        picked = RngStream(7, "cap")
        for _ in range(25):
            sampler.pick(picked)
        assert picked.random() == RngStream(7, "cap").fast_forward(25).random()

    @given(seed=st.integers(0, 2 ** 32),
           counts=st.lists(st.integers(0, 40), min_size=1, max_size=12),
           kind=st.sampled_from(["random", "uniform", "choice",
                                 "lognormvariate"]))
    @settings(max_examples=60, deadline=None)
    def test_sharded_split_reproduces_serial_sequence(self, seed, counts,
                                                      kind):
        """The per-(tld, month) relayout contract: partition a shared
        stream's draws into per-shard counts, give every shard a FRESH
        stream fast-forwarded to its prefix-sum offset, and the
        concatenation of the shards' draws equals the serial sequence —
        for every fast-forwardable draw kind, any shard sizes, any
        shard count (the build's ~60 shards are one instance).
        """
        def draw(stream):
            if kind == "random":
                return stream.random()
            if kind == "uniform":
                return stream.uniform(2.0, 9.0)
            if kind == "choice":
                return stream.choice(list(range(17)))
            return stream.lognormvariate(1.0, 0.5)

        serial = RngStream(seed, "capick")
        expected = [draw(serial) for _ in range(sum(counts))]
        pieces = []
        offset = 0
        for count in counts:
            shard = RngStream(seed, "capick")
            shard.fast_forward(offset, kind=kind,
                               **({"population": 17}
                                  if kind == "choice" else {}))
            pieces.extend(draw(shard) for _ in range(count))
            offset += count
        assert pieces == expected


class TestCountingStream:
    def test_draw_identical_to_plain_stream(self):
        counting = CountingStream(7, "c")
        plain = RngStream(7, "c")
        got = [counting.random(), counting.choice([1, 2, 3]),
               counting.lognormvariate(0, 1), counting.randrange(100)]
        want = [plain.random(), plain.choice([1, 2, 3]),
                plain.lognormvariate(0, 1), plain.randrange(100)]
        assert got == want

    def test_counts_random_draws(self):
        stream = CountingStream(7, "c2")
        for _ in range(13):
            stream.random()
        stream.uniform(0, 1)
        assert stream.random_draws == 14

    def test_counts_getrandbits(self):
        stream = CountingStream(7, "c3")
        stream.getrandbits(8)
        stream.getrandbits(64)
        assert stream.getrandbits_draws == 2


class TestStreamBank:
    def test_fast_forward_matches_stream_method(self):
        jumped = StreamBank(7)
        jumped.fast_forward(("capick",), 17)
        walked = StreamBank(7)
        for _ in range(17):
            walked.stream("capick").random()
        assert jumped.stream("capick").random() == walked.stream("capick").random()

    def test_fast_forward_memoises_the_stream(self):
        bank = StreamBank(7)
        stream = bank.fast_forward(("x",), 3)
        assert bank.stream("x") is stream

    def test_adopt_installs_counting_stream(self):
        bank = StreamBank(7)
        counter = bank.adopt(CountingStream(7, "capick"), "capick")
        assert bank.stream("capick") is counter
        bank.stream("capick").random()
        assert counter.random_draws == 1


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
