"""Wire codecs: the binary format the real transport subsystem
(:mod:`repro.transport`) ships between processes: a length-prefixed
*frame* carrying one tagged binary *message*.  Databases are persisted
by :mod:`repro.store`, not here.  Design constraints, in order:

exactness
    grades must round-trip bit-for-bit -- ``-0.0``, subnormals and NaN
    payloads included -- because the differential suite compares floats
    with ``==``, never a tolerance.  Floats travel as their 8 IEEE-754
    bytes (``struct '<d'``), and float64/int64 arrays travel as raw
    little-endian buffers.
no trust
    every decoder bound-checks before it reads; truncated frames,
    oversized frames, unknown type tags and trailing bytes all raise
    :class:`~repro.middleware.errors.WireFormatError` instead of
    yielding garbage.
no dependencies
    the codec is ``struct`` + ``numpy`` (both already required) + the
    standard library's ``zlib``, so a server process needs nothing
    beyond this package.

Large frames may optionally travel zlib-compressed: bit 31 of the
length prefix flags a compressed payload (see
:data:`FRAME_FLAG_COMPRESSED`), applied only above a size threshold
and only when it actually shrinks the bytes.  Decoding is transparent
and bit-exact -- the inflated payload is byte-identical to the raw
encoding, so exactness is untouched -- and bounded: a frame that
inflates past the frame limit is a protocol violation, not an
allocation.

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision),
``float``, ``str``, ``bytes``, lists/tuples (decoded as lists), dicts
with ``str`` keys, and one-dimensional ``float64``/``int64`` numpy
arrays (``intp`` is sent as ``int64``).  Object ids in this repository
are ints or strings, both covered exactly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import WireFormatError

__all__ = [
    "MAX_FRAME_BYTES",
    "FRAME_HEADER_BYTES",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
    "frame_payload_size",
    "frame_header_info",
    "decompress_frame_payload",
    "FRAME_FLAG_COMPRESSED",
    "COMPRESS_THRESHOLD_BYTES",
]


#: hard ceiling on one frame's payload; a peer announcing more is
#: broken or hostile and the connection is torn down before allocating
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: the length prefix: one unsigned 32-bit little-endian payload size
FRAME_HEADER_BYTES = 4
#: maximum container nesting either codec direction will follow; the
#: protocol's messages are at most ~3 deep, and the cap turns a
#: hostile deeply-nested frame into WireFormatError, not RecursionError
MAX_NESTING_DEPTH = 32
#: bit 31 of the length prefix marks a zlib-compressed payload.  Free
#: for the taking: payload sizes are capped far below 2**31, so the
#: bit is always zero in uncompressed frames and old decoders reject a
#: compressed frame cleanly as an oversized announcement rather than
#: misreading it.  The announced size is the *wire* (compressed) byte
#: count -- the reader still knows exactly how much to read before
#: touching zlib -- and the decompressed size is re-checked against
#: the same frame limit, so compression can never smuggle an oversized
#: message past the cap.
FRAME_FLAG_COMPRESSED = 0x8000_0000
#: default minimum payload size before compression is attempted;
#: protocol chatter (submits, statuses, pings) stays raw, bulk result
#: and trace frames shrink.  Compression is also skipped whenever it
#: does not actually help: the wire carries whichever form is smaller.
COMPRESS_THRESHOLD_BYTES = 4096

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: wire dtypes for array values: tag byte -> numpy little-endian dtype
_ARRAY_DTYPES = {b"d": "<f8", b"q": "<i8"}


def _encode_into(value, out: list[bytes], depth: int = 0) -> None:
    if depth > MAX_NESTING_DEPTH:
        raise WireFormatError(
            f"message nests deeper than {MAX_NESTING_DEPTH} levels"
        )
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            # arbitrary-precision escape hatch: decimal digits
            digits = str(value).encode("ascii")
            out.append(b"n")
            out.append(_U32.pack(len(digits)))
            out.append(digits)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(b"b")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise WireFormatError(
                f"only one-dimensional arrays travel on the wire, "
                f"got shape {value.shape}"
            )
        if value.dtype.kind == "f":
            tag, dtype = b"d", "<f8"
        elif value.dtype.kind == "i":
            tag, dtype = b"q", "<i8"
        else:
            raise WireFormatError(
                f"unsupported array dtype {value.dtype} on the wire"
            )
        raw = np.ascontiguousarray(value, dtype=dtype).tobytes()
        out.append(b"a")
        out.append(tag)
        out.append(_U32.pack(len(value)))
        out.append(raw)
    elif isinstance(value, np.integer):
        out.append(b"i")
        out.append(_I64.pack(int(value)))
    elif isinstance(value, np.floating):
        out.append(b"f")
        out.append(_F64.pack(float(value)))
    elif isinstance(value, (list, tuple)):
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(b"m")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(
                    f"message keys must be str, got {type(key).__name__}"
                )
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _encode_into(item, out, depth + 1)
    else:
        raise WireFormatError(
            f"value of type {type(value).__name__} cannot travel on the "
            "wire (object ids must be int, str, float, bool, bytes or None)"
        )


def encode_message(value) -> bytes:
    """Encode one message value to its tagged binary form (no frame
    header; see :func:`encode_frame`)."""
    out: list[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


class _Reader:
    """Bounds-checked cursor over one message's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireFormatError(
                f"truncated message: wanted {n} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} remain"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def take_u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def _decode_from(reader: _Reader, depth: int = 0):
    if depth > MAX_NESTING_DEPTH:
        raise WireFormatError(
            f"message nests deeper than {MAX_NESTING_DEPTH} levels"
        )
    tag = reader.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return _I64.unpack(reader.take(8))[0]
    if tag == b"n":
        digits = reader.take(reader.take_u32())
        try:
            return int(digits.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireFormatError(f"corrupt bigint payload: {exc}") from None
    if tag == b"f":
        return _F64.unpack(reader.take(8))[0]
    if tag == b"s":
        data = reader.take(reader.take_u32())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"corrupt utf-8 string: {exc}") from None
    if tag == b"b":
        return reader.take(reader.take_u32())
    if tag == b"a":
        dtype = _ARRAY_DTYPES.get(reader.take(1))
        if dtype is None:
            raise WireFormatError("unknown array dtype tag")
        count = reader.take_u32()
        raw = reader.take(count * 8)
        return np.frombuffer(raw, dtype=dtype).copy()
    if tag == b"l":
        count = reader.take_u32()
        return [_decode_from(reader, depth + 1) for _ in range(count)]
    if tag == b"m":
        count = reader.take_u32()
        message = {}
        for _ in range(count):
            key_data = reader.take(reader.take_u32())
            try:
                key = key_data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireFormatError(
                    f"corrupt utf-8 key: {exc}"
                ) from None
            message[key] = _decode_from(reader, depth + 1)
        return message
    raise WireFormatError(f"unknown wire tag {tag!r}")


def decode_message(data: bytes):
    """Decode one message; trailing bytes are an error, not padding."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise WireFormatError(
            f"{len(data) - reader.pos} trailing byte(s) after message"
        )
    return value


def encode_frame(
    value,
    max_frame: int = MAX_FRAME_BYTES,
    *,
    compress_threshold: int | None = None,
) -> bytes:
    """Encode ``value`` as one wire frame: a 4-byte little-endian
    payload length followed by the tagged message bytes.

    With ``compress_threshold`` set, payloads at least that many bytes
    long are zlib-compressed and flagged via
    :data:`FRAME_FLAG_COMPRESSED` in the length prefix -- but only
    when compression actually shrinks the payload; otherwise the raw
    form goes on the wire unflagged.  The size cap applies to the
    *message*: a payload over ``max_frame`` is rejected even if its
    compressed form would fit, keeping "what fits in a frame"
    independent of entropy.
    """
    payload = encode_message(value)
    if len(payload) > max_frame:
        raise WireFormatError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte limit"
        )
    if (
        compress_threshold is not None
        and len(payload) >= compress_threshold
    ):
        compressed = zlib.compress(payload)
        if len(compressed) < len(payload):
            return (
                _U32.pack(len(compressed) | FRAME_FLAG_COMPRESSED)
                + compressed
            )
    return _U32.pack(len(payload)) + payload


def frame_header_info(
    header: bytes, max_frame: int = MAX_FRAME_BYTES
) -> tuple[int, bool]:
    """Parse a frame header into ``(payload_size, compressed)``.

    ``payload_size`` is the number of *wire* bytes that follow the
    header (the compressed size for flagged frames).  Rejects short
    headers and oversized announcements before any payload is
    allocated.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise WireFormatError(
            f"truncated frame header: got {len(header)} of "
            f"{FRAME_HEADER_BYTES} bytes"
        )
    word = _U32.unpack(header)[0]
    compressed = bool(word & FRAME_FLAG_COMPRESSED)
    size = word & ~FRAME_FLAG_COMPRESSED
    if size > max_frame:
        raise WireFormatError(
            f"frame announces {size} bytes, over the {max_frame}-byte limit"
        )
    return size, compressed


def frame_payload_size(header: bytes, max_frame: int = MAX_FRAME_BYTES) -> int:
    """Parse a frame header; rejects short headers and oversized
    announcements before any payload is allocated.  Callers that must
    handle compressed frames use :func:`frame_header_info` instead."""
    return frame_header_info(header, max_frame)[0]


def decompress_frame_payload(
    payload: bytes, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """Inflate a compressed frame payload, bounded by ``max_frame``.

    The no-trust rules hold through zlib: corrupt streams, truncated
    streams, trailing bytes after the stream, and decompression bombs
    (anything inflating past ``max_frame``) all raise
    :class:`~repro.middleware.errors.WireFormatError` -- the bomb
    check caps the inflater itself, so the oversized plaintext is
    never materialised.
    """
    inflater = zlib.decompressobj()
    try:
        message = inflater.decompress(payload, max_frame + 1)
    except zlib.error as exc:
        raise WireFormatError(
            f"corrupt compressed frame payload: {exc}"
        ) from None
    if len(message) > max_frame:
        raise WireFormatError(
            f"compressed frame inflates past the {max_frame}-byte limit"
        )
    if not inflater.eof:
        raise WireFormatError("truncated compressed frame payload")
    if inflater.unused_data:
        raise WireFormatError(
            f"{len(inflater.unused_data)} trailing byte(s) after "
            "compressed frame payload"
        )
    return message


def decode_frame(data: bytes, max_frame: int = MAX_FRAME_BYTES):
    """Decode one complete frame (header + payload) from ``data``,
    transparently inflating compressed frames.

    Returns ``(message, remainder)`` so stream parsers can consume a
    buffer frame by frame; raises
    :class:`~repro.middleware.errors.WireFormatError` when the buffer
    holds less than one whole frame.
    """
    size, compressed = frame_header_info(data[:FRAME_HEADER_BYTES], max_frame)
    end = FRAME_HEADER_BYTES + size
    if len(data) < end:
        raise WireFormatError(
            f"truncated frame: header announces {size} payload bytes, "
            f"{len(data) - FRAME_HEADER_BYTES} present"
        )
    payload = data[FRAME_HEADER_BYTES:end]
    if compressed:
        payload = decompress_frame_payload(payload, max_frame)
    return decode_message(payload), data[end:]
