"""Byte-level lossless coding: zlib with a stored-raw escape.

A frame is `u8 kind` (0 = stored, 1 = zlib), `u64` decoded length, then
the body.  The encoder stores the data raw whenever zlib would not make it
smaller, so a frame never exceeds the data by more than its 9-byte header.
"""

from __future__ import annotations

import struct
import zlib

from ..errors import CodecError

_HEAD = struct.Struct("<BQ")  # kind, decoded length
_STORED, _ZLIB = 0, 1
_LEVEL = zlib.Z_DEFAULT_COMPRESSION


def lossless_encode(data: bytes, strategy: int = zlib.Z_DEFAULT_STRATEGY) -> bytes:
    """Frame `data`, deflated (zlib `strategy`) unless that would not make it smaller."""
    deflater = zlib.compressobj(_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS, 8, strategy)
    body = deflater.compress(data) + deflater.flush()
    if len(body) < len(data):
        return _HEAD.pack(_ZLIB, len(data)) + body
    return _HEAD.pack(_STORED, len(data)) + data


def lossless_decode(buf: bytes) -> bytes:
    """Inverse of lossless_encode; a malformed frame raises CodecError."""
    if len(buf) < _HEAD.size:
        raise CodecError(f"lossless frame of {len(buf)} bytes is shorter than its header")
    kind, length = _HEAD.unpack_from(buf)
    body = buf[_HEAD.size :]
    if kind == _STORED:
        if len(body) != length:
            raise CodecError(f"stored frame holds {len(body)} bytes, declares {length}")
        return body
    if kind != _ZLIB:
        raise CodecError(f"unknown lossless frame kind {kind}")
    inflater = zlib.decompressobj()
    try:
        # inflate at most one byte past the declared length, so a damaged
        # frame cannot make the output grow without bound
        out = inflater.decompress(body, length + 1)
    except (zlib.error, OverflowError) as exc:
        raise CodecError(f"damaged zlib body: {exc}") from None
    if not inflater.eof or inflater.unused_data:
        raise CodecError("zlib body does not end where the frame does")
    if len(out) != length:
        raise CodecError(f"zlib body inflates to {len(out)} bytes, declares {length}")
    return out
