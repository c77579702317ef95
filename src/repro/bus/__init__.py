"""Streaming substrate: topic broker and columnar storage."""

from repro.bus.broker import (
    Broker,
    Message,
    Partition,
    TOPIC_CANDIDATES,
    TOPIC_FEED,
    TOPIC_OBSERVATIONS,
    TOPIC_RDAP,
    Topic,
)
from repro.bus.columnar import ColumnStore

__all__ = [
    "Broker", "Topic", "Partition", "Message",
    "TOPIC_CANDIDATES", "TOPIC_RDAP", "TOPIC_OBSERVATIONS", "TOPIC_FEED",
    "ColumnStore",
]
