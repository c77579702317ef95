"""IPv4/IPv6 address arithmetic and per-provider address pools.

Pure-stdlib address handling (no ``ipaddress`` heavyweight objects in
hot paths): addresses are ints internally and dotted/colon text at the
API surface.  Each hosting provider owns prefixes and hands out
deterministic addresses for hosted domains, so the web-hosting ASN
attribution of Table 5 can be recomputed from observed A records alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigError
from repro.simtime.rng import stable_hash01


def parse_ipv4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ConfigError(f"bad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ConfigError(f"bad IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ConfigError(f"bad IPv4 octet in: {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    if not 0 <= value < 2 ** 32:
        raise ConfigError(f"IPv4 int out of range: {value}")
    return (f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}"
            f".{(value >> 8) & 0xFF}.{value & 0xFF}")


def format_ipv6(value: int) -> str:
    """Render a 128-bit int as full (uncompressed-groups) IPv6 text."""
    if not 0 <= value < 2 ** 128:
        raise ConfigError(f"IPv6 int out of range: {value}")
    groups = [(value >> (112 - 16 * i)) & 0xFFFF for i in range(8)]
    return ":".join(f"{g:x}" for g in groups)


def parse_ipv6(text: str) -> int:
    """Parse (possibly ``::``-compressed) IPv6 text to an int."""
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 0:
            raise ConfigError(f"bad IPv6 address: {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise ConfigError(f"bad IPv6 address: {text!r}")
    value = 0
    for group in groups:
        try:
            part = int(group, 16)
        except ValueError:
            raise ConfigError(f"bad IPv6 group in: {text!r}") from None
        if part > 0xFFFF:
            raise ConfigError(f"bad IPv6 group in: {text!r}")
        value = (value << 16) | part
    return value


@dataclass(frozen=True)
class Prefix:
    """An IPv4 or IPv6 prefix (network int, mask length, family)."""

    network: int
    length: int
    family: int  # 4 or 6

    def __post_init__(self) -> None:
        bits = 32 if self.family == 4 else 128
        if self.family not in (4, 6):
            raise ConfigError(f"bad address family: {self.family}")
        if not 0 <= self.length <= bits:
            raise ConfigError(f"bad prefix length /{self.length}")
        host_bits = bits - self.length
        if self.network & ((1 << host_bits) - 1):
            raise ConfigError("network has host bits set")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise ConfigError(f"prefix needs a /length: {text!r}")
        family = 6 if ":" in addr_text else 4
        addr = parse_ipv6(addr_text) if family == 6 else parse_ipv4(addr_text)
        return cls(network=addr, length=int(len_text), family=family)

    @property
    def bits(self) -> int:
        return 32 if self.family == 4 else 128

    @property
    def size(self) -> int:
        return 1 << (self.bits - self.length)

    def __contains__(self, address: int) -> bool:
        host_bits = self.bits - self.length
        return (address >> host_bits) == (self.network >> host_bits)

    def contains_text(self, text: str) -> bool:
        family = 6 if ":" in text else 4
        if family != self.family:
            return False
        addr = parse_ipv6(text) if family == 6 else parse_ipv4(text)
        return addr in self

    def address_at(self, offset: int) -> int:
        if not 0 <= offset < self.size:
            raise ConfigError(f"offset {offset} outside /{self.length}")
        return self.network + offset

    def format(self, address: int) -> str:
        return format_ipv6(address) if self.family == 6 else format_ipv4(address)

    def __str__(self) -> str:
        return f"{self.format(self.network)}/{self.length}"


class AddressPool:
    """Deterministic address assignment out of a list of prefixes.

    ``address_for(key)`` hashes the key into the pool, so the same
    domain always maps to the same address — stable across runs and
    across the analytic/event-driven monitor implementations.
    """

    def __init__(self, prefixes: List[Prefix]) -> None:
        if not prefixes:
            raise ConfigError("address pool needs at least one prefix")
        families = {p.family for p in prefixes}
        if len(families) != 1:
            raise ConfigError("pool prefixes must share a family")
        self.family = prefixes[0].family
        self.prefixes = list(prefixes)
        # Cumulative prefix sizes: hashing a key into the pool is one
        # bisect instead of a linear walk re-reading each prefix's size.
        self._cum_sizes: List[int] = []
        total = 0
        for prefix in self.prefixes:
            total += prefix.size
            self._cum_sizes.append(total)
        self._total = total

    @classmethod
    def parse(cls, texts: List[str]) -> "AddressPool":
        return cls([Prefix.parse(t) for t in texts])

    def address_for(self, key: str, salt: str = "") -> str:
        offset = int(stable_hash01(key, salt or "addrpool") * self._total)
        index = bisect_right(self._cum_sizes, offset)
        if index >= len(self.prefixes):
            # Unreachable given the modulus, but keep a defensive fallback.
            last = self.prefixes[-1]
            return last.format(last.address_at(last.size - 1))
        prefix = self.prefixes[index]
        base = self._cum_sizes[index - 1] if index else 0
        return prefix.format(prefix.address_at(offset - base))

    def __contains__(self, text: str) -> bool:
        return any(p.contains_text(text) for p in self.prefixes)
