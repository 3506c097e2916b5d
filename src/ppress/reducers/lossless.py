"""Byte-level lossless coding: zlib with a stored-raw escape, and the
bounds-checked section reader of every codec stream.

A frame is `u8 kind` (0 = stored, 1 = zlib), `u64` decoded length, then
the body.  The encoder stores the data raw whenever zlib would not make it
smaller, so a frame never exceeds the data by more than its 9-byte header.
A frame knows where it ends, so frames can follow one another in a stream.
"""

from __future__ import annotations

import struct
import zlib

from ..errors import CodecError

_HEAD = struct.Struct("<BQ")  # kind, decoded length
_STORED, _ZLIB = 0, 1
_LEVEL = zlib.Z_DEFAULT_COMPRESSION


def lossless_encode(
    data: bytes, strategy: int = zlib.Z_DEFAULT_STRATEGY, level: int = _LEVEL
) -> bytes:
    """Frame `data`, deflated (zlib `level` and `strategy`) unless that would
    not make it smaller."""
    deflater = zlib.compressobj(level, zlib.DEFLATED, zlib.MAX_WBITS, 8, strategy)
    body = deflater.compress(data) + deflater.flush()
    if len(body) < len(data):
        return _HEAD.pack(_ZLIB, len(data)) + body
    return _HEAD.pack(_STORED, len(data)) + data


def lossless_decode(buf: bytes) -> bytes:
    """Inverse of lossless_encode; a malformed frame, or bytes after it, raise CodecError."""
    data, end = read_frame(buf, 0)
    if end != len(buf):
        raise CodecError(f"{len(buf) - end} bytes after the lossless frame")
    return data


def read_frame(buf: bytes, off: int, length: int | None = None) -> tuple[bytes, int]:
    """The data of the lossless frame at buf[off:], and the offset after it.
    With `length`, a frame declaring another length raises CodecError before
    it is inflated; so does any malformed frame."""
    head, off = section(buf, off, _HEAD.size, "lossless frame header")
    kind, declared = _HEAD.unpack(head)
    if length is not None and declared != length:
        raise CodecError(f"lossless frame declares {declared} bytes, not {length}")
    if kind == _STORED:
        return section(buf, off, declared, "stored frame body")
    if kind != _ZLIB:
        raise CodecError(f"unknown lossless frame kind {kind}")
    inflater = zlib.decompressobj()
    try:
        # inflate at most one byte past the declared length, so a damaged
        # frame cannot make the output grow without bound
        out = inflater.decompress(memoryview(buf)[off:], declared + 1)
    except (zlib.error, OverflowError) as exc:
        raise CodecError(f"damaged zlib body: {exc}") from None
    if not inflater.eof:
        raise CodecError("zlib body does not end where the frame does")
    if len(out) != declared:
        raise CodecError(f"zlib body inflates to {len(out)} bytes, declares {declared}")
    return out, len(buf) - len(inflater.unused_data)


def section(buf: bytes, off: int, size: int, what: str, last: bool = False) -> tuple[bytes, int]:
    """The `size` bytes of a stream buf at `off`, and the offset after them;
    CodecError if buf is shorter, or if the `last` section does not end it."""
    end = off + size
    if end > len(buf):
        raise CodecError(f"stream truncated in its {what}")
    if last and end != len(buf):
        raise CodecError(f"{len(buf) - end} bytes after the stream's {what}")
    return buf[off:end], end
