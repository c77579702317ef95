"""Tests for the topic broker and the columnar store."""

import copy
import pickle

import pytest

from repro.bus.broker import Broker, TOPIC_CANDIDATES
from repro.bus.columnar import ColumnStore, Dataset
from repro.errors import BusError, OffsetError, UnknownTopicError


class TestBroker:
    def test_create_and_produce(self):
        broker = Broker()
        broker.create_topic("events", partitions=2)
        message = broker.produce("events", "key1", {"v": 1}, timestamp=100)
        assert message.offset == 0
        assert broker.topic("events").total_messages() == 1

    def test_message_is_slotted_and_still_copies(self):
        # Every produced message is kept for the run, so none carries a
        # __dict__; the frozen slots must still pickle and copy.
        message = Broker().produce("events", "key1", {"v": 1}, timestamp=100)
        assert not hasattr(message, "__dict__")
        assert pickle.loads(pickle.dumps(message)) == message
        assert copy.deepcopy(message) == message
        with pytest.raises(AttributeError):
            message.offset = 1

    def test_duplicate_topic_rejected(self):
        broker = Broker()
        broker.create_topic("t")
        with pytest.raises(BusError):
            broker.create_topic("t")

    def test_unknown_topic(self):
        with pytest.raises(UnknownTopicError):
            Broker().topic("nope")

    def test_ensure_topic(self):
        broker = Broker()
        t1 = broker.ensure_topic("x")
        assert broker.ensure_topic("x") is t1

    def test_key_routing_is_stable(self):
        broker = Broker()
        broker.create_topic("t", partitions=4)
        p1 = broker.produce("t", "example.com", 1, 0).partition
        p2 = broker.produce("t", "example.com", 2, 1).partition
        assert p1 == p2

    def test_poll_commits_and_orders(self):
        broker = Broker()
        broker.create_topic("t", partitions=3)
        for i in range(10):
            broker.produce("t", f"k{i}", i, timestamp=i)
        batch = broker.poll("group", "t")
        assert [m.value for m in batch] == list(range(10))
        assert broker.poll("group", "t") == []
        assert broker.lag("group", "t") == 0

    def test_independent_consumer_groups(self):
        broker = Broker()
        broker.create_topic("t", partitions=1)
        broker.produce("t", "k", 1, 0)
        assert len(broker.poll("g1", "t")) == 1
        assert len(broker.poll("g2", "t")) == 1

    def test_poll_respects_max_messages(self):
        broker = Broker()
        broker.create_topic("t", partitions=1)
        for i in range(10):
            broker.produce("t", "k", i, i)
        assert len(broker.poll("g", "t", max_messages=4)) == 4
        assert broker.lag("g", "t") == 6

    def test_commit_bounds(self):
        broker = Broker()
        broker.create_topic("t", partitions=1)
        broker.produce("t", "k", 1, 0)
        with pytest.raises(OffsetError):
            broker.commit("g", "t", 0, 5)

    def test_all_messages_sorted_by_time(self):
        broker = Broker()
        broker.create_topic("t", partitions=4)
        for i, ts in enumerate([50, 10, 30, 20]):
            broker.produce("t", f"k{i}", i, ts)
        times = [m.timestamp for m in broker.topic("t").all_messages()]
        assert times == sorted(times)

    def test_pipeline_topic_names(self):
        assert TOPIC_CANDIDATES == "nrd.candidates"

    def test_rejects_zero_partitions(self):
        broker = Broker()
        with pytest.raises(BusError):
            broker.create_topic("t", partitions=0)


class TestColumnStore:
    def _store(self):
        store = ColumnStore("obs", ["domain", "tld", "count"])
        store.append({"domain": "a.com", "tld": "com", "count": 1})
        store.append({"domain": "b.xyz", "tld": "xyz", "count": 2})
        return store

    def test_append_and_len(self):
        assert len(self._store()) == 2

    def test_missing_column_is_none(self):
        store = ColumnStore("t", ["a", "b"])
        store.append({"a": 1})
        assert store.row(0) == {"a": 1, "b": None}

    def test_extra_column_rejected(self):
        store = ColumnStore("t", ["a"])
        with pytest.raises(BusError):
            store.append({"a": 1, "zzz": 2})

    def test_requires_columns(self):
        with pytest.raises(BusError):
            ColumnStore("t", [])

    def test_column_access(self):
        assert self._store().column("tld") == ["com", "xyz"]
        with pytest.raises(BusError):
            self._store().column("nope")

    def test_rows_roundtrip(self):
        rows = list(self._store().rows())
        assert rows[1]["domain"] == "b.xyz"

    def test_filter(self):
        filtered = self._store().filter(lambda r: r["tld"] == "com")
        assert len(filtered) == 1

    def test_select(self):
        assert self._store().select("domain", "count") == [
            ("a.com", 1), ("b.xyz", 2)]

    def test_group_count(self):
        store = self._store()
        store.append({"domain": "c.com", "tld": "com", "count": 3})
        assert store.group_count("tld") == {"com": 2, "xyz": 1}

    def test_save_load_roundtrip(self, tmp_path):
        store = self._store()
        path = tmp_path / "obs.json"
        store.save(path)
        loaded = ColumnStore.load(path)
        assert list(loaded.rows()) == list(store.rows())
        assert loaded.name == "obs"

    def test_extend(self):
        store = ColumnStore("t", ["a"])
        count = store.extend(iter([{"a": i} for i in range(5)]))
        assert count == 5 and len(store) == 5


class TestDataset:
    def test_create_get(self):
        ds = Dataset()
        table = ds.create("t1", ["a"])
        assert ds.get("t1") is table
        assert ds.ensure("t1", ["a"]) is table

    def test_duplicate_rejected(self):
        ds = Dataset()
        ds.create("t", ["a"])
        with pytest.raises(BusError):
            ds.create("t", ["a"])

    def test_unknown_rejected(self):
        with pytest.raises(BusError):
            Dataset().get("none")

    def test_save_all(self, tmp_path):
        ds = Dataset()
        ds.create("x", ["a"]).append({"a": 1})
        ds.create("y", ["b"]).append({"b": 2})
        ds.save_all(tmp_path)
        assert (tmp_path / "x.json").exists()
        assert (tmp_path / "y.json").exists()


class TestBrokerFastPath:
    def test_produce_many_equals_sequential_produce(self):
        items = [(f"key{i % 7}", {"i": i}, 100 + i) for i in range(50)]
        a, b = Broker(), Broker()
        for key, value, ts in items:
            a.produce("t", key, value, ts)
        assert b.produce_many("t", items) == 50
        for pa, pb in zip(a.topic("t").partitions, b.topic("t").partitions):
            la = pa.read(0, pa.end_offset)
            lb = pb.read(0, pb.end_offset)
            assert [(m.key, m.offset, m.timestamp) for m in la] == \
                   [(m.key, m.offset, m.timestamp) for m in lb]

    def test_all_messages_ordered_log_uses_merge(self):
        broker = Broker()
        for i in range(40):
            broker.produce("t", f"k{i}", i, timestamp=1000 + i)
        topic = broker.topic("t")
        assert all(p.time_ordered for p in topic.partitions)
        messages = topic.all_messages()
        keys = [(m.timestamp, m.partition, m.offset) for m in messages]
        assert keys == sorted(keys)
        assert len(messages) == 40

    def test_all_messages_out_of_order_falls_back_to_sort(self):
        broker = Broker(default_partitions=2)
        broker.produce("t", "a", 1, timestamp=500)
        broker.produce("t", "b", 2, timestamp=100)  # clock going backwards
        broker.produce("t", "c", 3, timestamp=300)
        topic = broker.topic("t")
        messages = topic.all_messages()
        keys = [(m.timestamp, m.partition, m.offset) for m in messages]
        assert keys == sorted(keys)
        assert len(messages) == 3

    def test_single_partition_ordered_short_circuit(self):
        broker = Broker(default_partitions=1)
        for i in range(5):
            broker.produce("t", "k", i, timestamp=i)
        assert [m.value for m in broker.topic("t").all_messages()] == \
               [0, 1, 2, 3, 4]


class TestColumnarPartitions:
    """Partitions keep keys, values and timestamps as columns and build
    a Message on read; what a reader gets must equal what produce()
    returned."""

    def _produced(self):
        broker = Broker(default_partitions=3)
        stamps = [100, 105, 90, 110, 110, 120, 95, 130]
        produced = [broker.produce("t", f"k{i % 5}", {"i": i}, ts)
                    for i, ts in enumerate(stamps)]
        return broker, produced

    @staticmethod
    def _order(messages):
        return sorted(messages,
                      key=lambda m: (m.timestamp, m.partition, m.offset))

    def test_read_returns_the_produced_messages(self):
        broker, produced = self._produced()
        for partition in broker.topic("t").partitions:
            mine = [m for m in produced if m.partition == partition.index]
            assert [m.offset for m in mine] == list(range(len(mine)))
            assert partition.read(0, 100) == mine
            assert partition.read(1, 1) == mine[1:2]
            assert partition.read(len(mine), 5) == []
            assert partition.end_offset == len(partition) == len(mine)

    def test_poll_and_all_messages_return_the_produced_messages(self):
        broker, produced = self._produced()
        assert broker.topic("t").all_messages() == self._order(produced)
        assert broker.poll("g", "t", max_messages=100) == \
            self._order(produced)

    def test_time_ordered_tracks_each_column(self):
        broker, produced = self._produced()
        partitions = broker.topic("t").partitions
        assert {p.time_ordered for p in partitions} == {True, False}
        for partition in partitions:
            stamps = [m.timestamp for m in produced
                      if m.partition == partition.index]
            assert partition.time_ordered == (stamps == sorted(stamps))

    def test_produce_many_reads_back_like_produce(self):
        items = [(f"key{i % 7}", {"i": i}, 100 + (i * 37) % 11)
                 for i in range(30)]
        a, b = Broker(), Broker()
        produced = [a.produce("t", *item) for item in items]
        assert b.produce_many("t", items) == len(items)
        assert b.topic("t").all_messages() == self._order(produced)
        assert [p.time_ordered for p in b.topic("t").partitions] == \
            [p.time_ordered for p in a.topic("t").partitions]
