"""Byte-level lossless codecs behind a small named registry.

The built-in "pprslz" codec factors the input into literal runs and
back-references.  Match candidates come from a single-probe hash over 4-byte
windows; literals are entropy-coded with the canonical Huffman coder.  Token
framing is LEB128 varints, and a stored-raw escape bounds expansion on
incompressible input.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import CodecError
from . import huffman

_MAGIC = b"PZ"
_VERSION = 1
_MIN_MATCH = 4
_STORED, _PACKED = 0, 1
_HASH_MULT = np.uint32(2654435761)


def _write_varint(out: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    v = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise CodecError("truncated varint")
        b = buf[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint longer than 64 bits")


def _pack_literals(lits: bytes) -> bytes:
    out = bytearray()
    _write_varint(out, len(lits))
    if lits:
        arr = np.frombuffer(lits, np.uint8)
        table = huffman.HuffmanTable.from_symbols(arr)
        payload, n_bits = huffman.encode(arr, table)
        out += table.to_bytes()
        _write_varint(out, n_bits)
        out += payload
    return bytes(out)


def _unpack_literals(buf: bytes, pos: int) -> tuple[bytes, int]:
    n_lits, pos = _read_varint(buf, pos)
    if n_lits == 0:
        return b"", pos
    table, pos = huffman.HuffmanTable.from_bytes(buf, pos)
    if table.symbols.max() > 255:
        raise CodecError("literal table holds a symbol that is not a byte")
    n_bits, pos = _read_varint(buf, pos)
    n_bytes = (n_bits + 7) // 8
    syms = huffman.decode(buf[pos : pos + n_bytes], n_bits, n_lits, table)
    return syms.astype(np.uint8).tobytes(), pos + n_bytes


def _factorize(data: bytes, level: int) -> tuple[bytearray, bytes]:
    """Greedy LZ parse; returns (ops varint stream, literal bytes)."""
    n = len(data)
    arr = np.frombuffer(data, np.uint8)
    grams = (
        arr[: n - 3].astype(np.uint32)
        | (arr[1 : n - 2].astype(np.uint32) << 8)
        | (arr[2 : n - 1].astype(np.uint32) << 16)
        | (arr[3:n].astype(np.uint32) << 24)
    )
    table_bits = 14 + min(level, 4)
    hashes = ((grams * _HASH_MULT) >> np.uint32(32 - table_bits)).astype(np.int64)
    table = np.full(1 << table_bits, -1, dtype=np.int64)
    step_shift = 4 + min(level, 3)

    ops = bytearray()
    lit_parts = []
    pos = 0
    lit_start = 0
    misses = 0
    limit = n - _MIN_MATCH
    while pos <= limit:
        h = hashes[pos]
        cand = int(table[h])
        table[h] = pos
        if cand >= 0 and grams[cand] == grams[pos]:
            a = arr[cand + _MIN_MATCH : cand + (n - pos)]
            b = arr[pos + _MIN_MATCH : n]
            neq = a != b
            ext = int(neq.argmax()) if neq.any() else b.size
            mlen = _MIN_MATCH + ext
            _write_varint(ops, pos - lit_start)
            lit_parts.append(data[lit_start:pos])
            _write_varint(ops, mlen - _MIN_MATCH + 1)
            _write_varint(ops, pos - cand)
            pos += mlen
            lit_start = pos
            misses = 0
        else:
            misses += 1
            pos += 1 + (misses >> step_shift)
    _write_varint(ops, n - lit_start)
    lit_parts.append(data[lit_start:])
    _write_varint(ops, 0)
    return ops, b"".join(lit_parts)


def _pprslz_encode(data: bytes, level: int) -> bytes:
    head = bytearray(_MAGIC)
    head.append(_VERSION)
    n = len(data)
    if n > _MIN_MATCH:
        ops, lits = _factorize(data, max(1, int(level)))
        body = bytearray()
        _write_varint(body, len(ops))
        body += ops
        body += _pack_literals(lits)
        if len(body) + 8 < n:
            out = head
            out.append(_PACKED)
            _write_varint(out, n)
            out += body
            return bytes(out)
    out = head
    out.append(_STORED)
    _write_varint(out, n)
    out += data
    return bytes(out)


def _copy_match(out: bytearray, dist: int, length: int) -> None:
    start = len(out) - dist
    remaining = length
    while remaining:
        avail = len(out) - start
        chunk = min(avail, remaining)
        out += out[start : start + chunk]
        remaining -= chunk


def _pprslz_decode(buf: bytes) -> bytes:
    if buf[:2] != _MAGIC or len(buf) < 4:
        raise CodecError("bad lossless stream header")
    if buf[2] != _VERSION:
        raise CodecError(f"unsupported lossless stream version {buf[2]}")
    kind = buf[3]
    raw_len, pos = _read_varint(buf, 4)
    if kind == _STORED:
        if len(buf) != pos + raw_len:
            raise CodecError(f"stored stream holds {len(buf) - pos} bytes, declares {raw_len}")
        return buf[pos:]
    if kind != _PACKED:
        raise CodecError(f"unknown lossless frame kind {kind}")
    ops_len, pos = _read_varint(buf, pos)
    ops = buf[pos : pos + ops_len]
    if len(ops) != ops_len:
        raise CodecError("lossless token section truncated")
    lits, end = _unpack_literals(buf, pos + ops_len)
    if end != len(buf):
        raise CodecError(f"{len(buf) - end} bytes after the lossless stream")

    out = bytearray()
    op = 0
    li = 0
    while True:
        run, op = _read_varint(ops, op)
        if li + run > len(lits):
            raise CodecError("literal run past the decoded literals")
        out += lits[li : li + run]
        li += run
        mtok, op = _read_varint(ops, op)
        if mtok == 0:
            break
        dist, op = _read_varint(ops, op)
        if not 0 < dist <= len(out):
            raise CodecError("back-reference outside decoded data")
        if len(out) + mtok - 1 + _MIN_MATCH > raw_len:
            raise CodecError("match runs past the declared length")
        _copy_match(out, dist, mtok - 1 + _MIN_MATCH)
    if op != len(ops) or li != len(lits):
        raise CodecError("lossless stream holds unused tokens or literals")
    if len(out) != raw_len:
        raise CodecError("decoded length mismatch")
    return bytes(out)


_REGISTRY: dict[str, tuple[Callable[[bytes, int], bytes], Callable[[bytes], bytes]]] = {}


def register_codec(
    name: str,
    encode_fn: Callable[[bytes, int], bytes],
    decode_fn: Callable[[bytes], bytes],
    replace: bool = False,
) -> None:
    """Add a codec; encode_fn(data, level) -> bytes, decode_fn(bytes) -> bytes."""
    if not name or len(name) > 255 or not name.isascii():
        raise CodecError(f"codec name {name!r} must be short ascii")
    if name in _REGISTRY and not replace:
        raise CodecError(f"codec {name!r} already registered")
    _REGISTRY[name] = (encode_fn, decode_fn)


def registered_codecs() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def lossless_encode(data: bytes, codec: str = "pprslz", level: int = 1) -> bytes:
    """Frame `data` under the named codec; the frame records the codec."""
    if codec not in _REGISTRY:
        raise CodecError(f"unknown codec {codec!r}")
    name = codec.encode("ascii")
    return bytes([len(name)]) + name + _REGISTRY[codec][0](data, level)


def lossless_decode(buf: bytes) -> bytes:
    if not buf:
        raise CodecError("empty lossless frame")
    name_len = buf[0]
    name = buf[1 : 1 + name_len].decode("ascii", errors="replace")
    if name not in _REGISTRY:
        raise CodecError(f"stream needs codec {name!r}, which is not registered")
    return _REGISTRY[name][1](buf[1 + name_len :])


register_codec("pprslz", _pprslz_encode, _pprslz_decode)
