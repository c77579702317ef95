"""RFC 1035 wire format: encode/decode DNS messages.

The simulation's hot paths stay on the object model, but the library
ships a real codec so messages can cross process boundaries (the
examples' feed consumers, packet-level tests, pcap-style tooling):

* header encoding with QR/AA/TC/RD/RA flags, opcode and rcode;
* domain-name encoding with full compression-pointer support (and a
  pointer-loop guard on decode);
* rdata codecs for A, AAAA, NS, CNAME, MX, TXT and SOA.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.message import Query, Response
from repro.dnscore.records import RRType, ResourceRecord, SOA
from repro.errors import DNSError
from repro.netsim.addr import format_ipv4, format_ipv6, parse_ipv4, parse_ipv6

_TYPE_CODES: Dict[RRType, int] = {
    RRType.A: 1, RRType.NS: 2, RRType.CNAME: 5, RRType.SOA: 6,
    RRType.MX: 15, RRType.TXT: 16, RRType.AAAA: 28,
}
_CODE_TYPES = {code: rtype for rtype, code in _TYPE_CODES.items()}

CLASS_IN = 1
_POINTER_MASK = 0xC0
_MAX_POINTER_HOPS = 64


class WireError(DNSError):
    """Malformed wire-format data."""


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

def encode_name(name: str, buffer: bytearray,
                offsets: Optional[Dict[str, int]] = None) -> None:
    """Append ``name`` in wire format, using compression pointers.

    ``offsets`` maps already-emitted suffixes to their buffer offsets;
    passing the same dict across calls compresses the whole message.
    """
    norm = dnsname.normalize(name)
    labels = dnsname.labels(norm)
    for i in range(len(labels)):
        suffix = ".".join(labels[i:])
        if offsets is not None and suffix in offsets:
            pointer = offsets[suffix]
            buffer.extend(struct.pack("!H", 0xC000 | pointer))
            return
        if offsets is not None and len(buffer) < 0x3FFF:
            offsets[suffix] = len(buffer)
        label = labels[i].encode("ascii")
        buffer.append(len(label))
        buffer.extend(label)
    buffer.append(0)


def decode_name(data: bytes, offset: int) -> Tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next_offset)."""
    labels: List[str] = []
    jumped = False
    next_offset = offset
    hops = 0
    while True:
        if offset >= len(data):
            raise WireError("name runs past end of message")
        length = data[offset]
        if length & _POINTER_MASK == _POINTER_MASK:
            if offset + 1 >= len(data):
                raise WireError("truncated compression pointer")
            pointer = struct.unpack_from("!H", data, offset)[0] & 0x3FFF
            if not jumped:
                next_offset = offset + 2
                jumped = True
            offset = pointer
            hops += 1
            if hops > _MAX_POINTER_HOPS:
                raise WireError("compression pointer loop")
            continue
        if length & _POINTER_MASK:
            raise WireError(f"reserved label type 0x{length:02x}")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise WireError("label runs past end of message")
        labels.append(data[offset:offset + length].decode("ascii"))
        offset += length
    if not jumped:
        next_offset = offset
    return ".".join(labels), next_offset


# ---------------------------------------------------------------------------
# rdata codecs
# ---------------------------------------------------------------------------

def _encode_rdata(record: ResourceRecord, buffer: bytearray,
                  offsets: Dict[str, int]) -> None:
    rtype = record.rtype
    if rtype is RRType.A:
        buffer.extend(struct.pack("!I", parse_ipv4(record.rdata)))
    elif rtype is RRType.AAAA:
        buffer.extend(parse_ipv6(record.rdata).to_bytes(16, "big"))
    elif rtype in (RRType.NS, RRType.CNAME):
        encode_name(record.rdata, buffer, offsets)
    elif rtype is RRType.MX:
        parts = record.rdata.split()
        preference = int(parts[0]) if len(parts) == 2 else 10
        host = parts[-1]
        buffer.extend(struct.pack("!H", preference))
        encode_name(host, buffer, offsets)
    elif rtype is RRType.TXT:
        text = record.rdata.encode("utf-8")
        for i in range(0, len(text), 255):
            chunk = text[i:i + 255]
            buffer.append(len(chunk))
            buffer.extend(chunk)
        if not text:
            buffer.append(0)
    elif rtype is RRType.SOA:
        soa = SOA.from_rdata(record.rdata)
        encode_name(soa.mname, buffer, offsets)
        encode_name(soa.rname, buffer, offsets)
        buffer.extend(struct.pack("!IIIII", soa.serial, soa.refresh,
                                  soa.retry, soa.expire, soa.minimum))
    else:  # pragma: no cover - all supported types handled above
        raise WireError(f"no rdata codec for {rtype}")


def _decode_rdata(rtype: RRType, data: bytes, offset: int,
                  rdlength: int) -> str:
    end = offset + rdlength
    if end > len(data):
        raise WireError("rdata runs past end of message")
    if rtype is RRType.A:
        if rdlength != 4:
            raise WireError(f"A rdata must be 4 bytes, got {rdlength}")
        return format_ipv4(struct.unpack_from("!I", data, offset)[0])
    if rtype is RRType.AAAA:
        if rdlength != 16:
            raise WireError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return format_ipv6(int.from_bytes(data[offset:end], "big"))
    if rtype in (RRType.NS, RRType.CNAME):
        host, _ = decode_name(data, offset)
        return host
    if rtype is RRType.MX:
        # The object model stores the exchange hostname only; the
        # 16-bit preference is carried on the wire but dropped here.
        host, _ = decode_name(data, offset + 2)
        return host
    if rtype is RRType.TXT:
        chunks: List[bytes] = []
        cursor = offset
        while cursor < end:
            length = data[cursor]
            cursor += 1
            chunks.append(data[cursor:cursor + length])
            cursor += length
        return b"".join(chunks).decode("utf-8")
    if rtype is RRType.SOA:
        mname, cursor = decode_name(data, offset)
        rname, cursor = decode_name(data, cursor)
        serial, refresh, retry, expire, minimum = struct.unpack_from(
            "!IIIII", data, cursor)
        return (f"{mname}. {rname}. {serial} {refresh} {retry} "
                f"{expire} {minimum}")
    raise WireError(f"no rdata codec for type {rtype}")


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WireMessage:
    """A decoded DNS message."""

    msg_id: int
    is_response: bool
    rcode: int
    authoritative: bool
    recursion_desired: bool
    questions: Tuple[Tuple[str, RRType], ...]
    answers: Tuple[ResourceRecord, ...]


def _encode_record(record: ResourceRecord, buffer: bytearray,
                   offsets: Dict[str, int]) -> None:
    encode_name(record.owner, buffer, offsets)
    buffer.extend(struct.pack("!HHI", _TYPE_CODES[record.rtype], CLASS_IN,
                              record.ttl))
    length_at = len(buffer)
    buffer.extend(b"\x00\x00")
    _encode_rdata(record, buffer, offsets)
    rdlength = len(buffer) - length_at - 2
    struct.pack_into("!H", buffer, length_at, rdlength)


def encode_query(query: Query, msg_id: int = 0,
                 recursion_desired: bool = True) -> bytes:
    """Encode one question as a wire-format query message."""
    buffer = bytearray()
    flags = 0x0100 if recursion_desired else 0
    buffer.extend(struct.pack("!HHHHHH", msg_id, flags, 1, 0, 0, 0))
    offsets: Dict[str, int] = {}
    encode_name(query.qname, buffer, offsets)
    buffer.extend(struct.pack("!HH", _TYPE_CODES[query.qtype], CLASS_IN))
    return bytes(buffer)


def encode_response(response: Response, msg_id: int = 0) -> bytes:
    """Encode a :class:`~repro.dnscore.message.Response` on the wire."""
    buffer = bytearray()
    rcode = response.rcode.value if response.rcode.value >= 0 else 2
    flags = 0x8000 | (0x0400 if response.authoritative else 0) | rcode
    buffer.extend(struct.pack("!HHHHHH", msg_id, flags, 1,
                              len(response.records), 0, 0))
    offsets: Dict[str, int] = {}
    encode_name(response.query.qname, buffer, offsets)
    buffer.extend(struct.pack("!HH", _TYPE_CODES[response.query.qtype],
                              CLASS_IN))
    for record in response.records:
        _encode_record(record, buffer, offsets)
    return bytes(buffer)


def decode_message(data: bytes) -> WireMessage:
    """Decode a wire-format message (questions + answer section)."""
    if len(data) < 12:
        raise WireError("message shorter than header")
    msg_id, flags, qdcount, ancount, _ns, _ar = struct.unpack_from(
        "!HHHHHH", data, 0)
    offset = 12
    questions: List[Tuple[str, RRType]] = []
    for _ in range(qdcount):
        qname, offset = decode_name(data, offset)
        if offset + 4 > len(data):
            raise WireError("truncated question")
        qtype_code, qclass = struct.unpack_from("!HH", data, offset)
        offset += 4
        if qclass != CLASS_IN:
            raise WireError(f"unsupported class {qclass}")
        if qtype_code not in _CODE_TYPES:
            raise WireError(f"unsupported qtype {qtype_code}")
        questions.append((qname, _CODE_TYPES[qtype_code]))
    answers: List[ResourceRecord] = []
    for _ in range(ancount):
        owner, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise WireError("truncated record header")
        type_code, rclass, ttl, rdlength = struct.unpack_from(
            "!HHIH", data, offset)
        offset += 10
        if type_code not in _CODE_TYPES:
            raise WireError(f"unsupported rrtype {type_code}")
        rtype = _CODE_TYPES[type_code]
        rdata = _decode_rdata(rtype, data, offset, rdlength)
        offset += rdlength
        answers.append(ResourceRecord(owner, rtype, rdata, ttl))
    return WireMessage(
        msg_id=msg_id,
        is_response=bool(flags & 0x8000),
        rcode=flags & 0x000F,
        authoritative=bool(flags & 0x0400),
        recursion_desired=bool(flags & 0x0100),
        questions=tuple(questions),
        answers=tuple(answers))
