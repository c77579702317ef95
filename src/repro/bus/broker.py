"""In-process topic broker modelled on the paper's Kafka deployment.

The measurement system is structured as producers and consumers over
topics ("we feed the results of each measurement into Kafka topics",
§3): Certstream candidates flow into one topic, RDAP collectors consume
it, monitor observations land in another, and the storage sink archives
everything.  This broker reproduces the semantics the pipeline relies
on: partitioned, offset-addressed, replayable logs with consumer groups
committing per-partition offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as _heap_merge
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import BusError, OffsetError, UnknownTopicError
from repro.heap import frozen_slots
from repro.simtime.rng import stable_bucket


@frozen_slots
@dataclass(frozen=True)
class Message:
    """One record on a topic partition.

    Built on demand by :class:`Partition` for the reader or producer
    that asks for one; slotted so that building one allocates no
    per-instance ``__dict__`` (see :func:`~repro.heap.frozen_slots`).
    """

    topic: str
    partition: int
    offset: int
    timestamp: int
    key: str
    value: Any


class Partition:
    """An append-only message log, held as three parallel columns.

    A run keeps every record it produced (about 136 k at 1/200 with
    ccTLDs) but reads few of them back, so the log stores each record's
    key, value and timestamp in lists indexed by offset and builds a
    :class:`Message` only for the reader that asks for one.
    """

    def __init__(self, topic: str, index: int) -> None:
        self.topic = topic
        self.index = index
        self._keys: List[str] = []
        self._values: List[Any] = []
        self._timestamps: List[int] = []
        #: Producer clocks may run out of order; track whether this log
        #: happens to be time-ordered so readers can skip re-sorting.
        self._time_ordered = True

    def push(self, key: str, value: Any, timestamp: int) -> int:
        """Append one record without building a :class:`Message`;
        returns its offset."""
        timestamps = self._timestamps
        if self._time_ordered and timestamps and timestamp < timestamps[-1]:
            self._time_ordered = False
        timestamps.append(timestamp)
        self._keys.append(key)
        self._values.append(value)
        return len(timestamps) - 1

    def append(self, key: str, value: Any, timestamp: int) -> Message:
        return Message(self.topic, self.index,
                       self.push(key, value, timestamp), timestamp, key, value)

    @property
    def time_ordered(self) -> bool:
        """True while appended timestamps have been non-decreasing."""
        return self._time_ordered

    def read(self, offset: int, max_messages: int) -> List[Message]:
        if offset < 0:
            raise OffsetError(f"negative offset {offset}")
        stop = min(offset + max_messages, len(self._timestamps))
        topic = self.topic
        index = self.index
        return [Message(topic, index, at, timestamp, key, value)
                for at, timestamp, key, value in zip(
                    range(offset, stop), self._timestamps[offset:stop],
                    self._keys[offset:stop], self._values[offset:stop])]

    @property
    def end_offset(self) -> int:
        return len(self._timestamps)

    def __len__(self) -> int:
        return len(self._timestamps)


class Topic:
    """A named set of partitions; keys route deterministically."""

    def __init__(self, name: str, partitions: int = 4) -> None:
        if partitions <= 0:
            raise BusError("topics need at least one partition")
        self.name = name
        self.partitions = [Partition(name, i) for i in range(partitions)]

    def partition_for(self, key: str) -> Partition:
        return self.partitions[stable_bucket(key, len(self.partitions), self.name)]

    def append(self, key: str, value: Any, timestamp: int) -> Message:
        return self.partition_for(key).append(key, value, timestamp)

    def append_many(self, items: Iterable[Tuple[str, Any, int]]) -> int:
        """Batched produce: route and append ``(key, value, timestamp)``
        triples in one pass, preserving the iteration order per
        partition (exactly what repeated :meth:`append` calls yield,
        without a routing-dict lookup per record or a :class:`Message`
        nobody reads).
        """
        partitions = self.partitions
        n = len(partitions)
        name = self.name
        count = 0
        for key, value, timestamp in items:
            partitions[stable_bucket(key, n, name)].push(key, value, timestamp)
            count += 1
        return count

    def total_messages(self) -> int:
        return sum(len(p) for p in self.partitions)

    def all_messages(self) -> List[Message]:
        """All messages across partitions, ordered by (timestamp, part, off).

        When every partition log is already time-ordered (the common
        case — pipeline stages produce in event order), an O(n) k-way
        merge replaces the full concatenate-and-sort.
        """
        logs = [p.read(0, p.end_offset) for p in self.partitions]
        if all(p.time_ordered for p in self.partitions):
            if len(logs) == 1:
                return logs[0]
            return list(_heap_merge(
                *logs, key=lambda m: (m.timestamp, m.partition, m.offset)))
        out: List[Message] = []
        for log in logs:
            out.extend(log)
        out.sort(key=lambda m: (m.timestamp, m.partition, m.offset))
        return out


class Broker:
    """Topic registry + consumer-group offset tracking."""

    def __init__(self, default_partitions: int = 4) -> None:
        self.default_partitions = default_partitions
        self._topics: Dict[str, Topic] = {}
        # (group, topic, partition) -> committed offset
        self._commits: Dict[Tuple[str, str, int], int] = {}

    # -- topics ---------------------------------------------------------------

    def create_topic(self, name: str, partitions: Optional[int] = None) -> Topic:
        if name in self._topics:
            raise BusError(f"topic {name!r} already exists")
        count = self.default_partitions if partitions is None else partitions
        topic = Topic(name, count)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"no topic {name!r}") from None

    def ensure_topic(self, name: str, partitions: Optional[int] = None) -> Topic:
        found = self._topics.get(name)
        return found if found is not None else self.create_topic(name, partitions)

    def topics(self) -> List[str]:
        return sorted(self._topics)

    # -- produce / consume --------------------------------------------------------

    def produce(self, topic: str, key: str, value: Any, timestamp: int) -> Message:
        return self.ensure_topic(topic).append(key, value, timestamp)

    def produce_many(self, topic: str,
                     items: Iterable[Tuple[str, Any, int]]) -> int:
        """Batched :meth:`produce`; returns the number of messages appended.

        One topic lookup for the whole batch — the shape the pipeline's
        per-step fan-in wants (publish all candidates / observations of
        a run in one call).
        """
        return self.ensure_topic(topic).append_many(items)

    def committed(self, group: str, topic: str, partition: int) -> int:
        return self._commits.get((group, topic, partition), 0)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        end = self.topic(topic).partitions[partition].end_offset
        if not 0 <= offset <= end:
            raise OffsetError(f"commit {offset} outside [0, {end}]")
        self._commits[(group, topic, partition)] = offset

    def poll(self, group: str, topic_name: str,
             max_messages: int = 500) -> List[Message]:
        """Fetch-and-commit the next batch for a consumer group.

        Round-robins partitions, commits as it reads (at-most-once is
        fine for a deterministic simulation), and returns messages in
        (timestamp, partition, offset) order.
        """
        topic = self.topic(topic_name)
        batch: List[Message] = []
        budget = max_messages
        for partition in topic.partitions:
            if budget <= 0:
                break
            start = self.committed(group, topic_name, partition.index)
            messages = partition.read(start, budget)
            if messages:
                self.commit(group, topic_name, partition.index,
                            messages[-1].offset + 1)
                batch.extend(messages)
                budget -= len(messages)
        batch.sort(key=lambda m: (m.timestamp, m.partition, m.offset))
        return batch

    def lag(self, group: str, topic_name: str) -> int:
        """Messages not yet consumed by the group across all partitions."""
        topic = self.topic(topic_name)
        return sum(p.end_offset - self.committed(group, topic_name, p.index)
                   for p in topic.partitions)


#: Topic names used by the DarkDNS pipeline (mirrors the paper's design).
TOPIC_CANDIDATES = "nrd.candidates"
TOPIC_RDAP = "nrd.rdap"
TOPIC_OBSERVATIONS = "nrd.dns-observations"
TOPIC_FEED = "nrd.public-feed"
