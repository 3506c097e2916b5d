"""Canonical Huffman coding over small sparse integer alphabets.

A table holds at most MAX_SYMBOLS symbols.  A Huffman tree over k symbols
is at most k - 1 deep, so no code is longer than MAX_LENGTH bits and the
decoder's flat window-indexed table never exceeds 2^MAX_LENGTH entries.
Wider alphabets are the caller's to code some other way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError

MAX_SYMBOLS = 16
MAX_LENGTH = MAX_SYMBOLS - 1  # the deepest tree: one leaf per level, two at the bottom


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    k = counts.size
    if k == 1:
        return np.ones(1, dtype=np.int64)
    # merge tree with parent pointers; leaves are 0..k-1, internal nodes
    # get increasing ids so every parent id exceeds its children
    parent = [0] * (2 * k - 1)
    heap = [(f, i, i) for i, f in enumerate(counts.tolist())]
    heapq.heapify(heap)
    next_id = k
    while len(heap) > 1:
        fa, ta, a = heapq.heappop(heap)
        fb, tb, b = heapq.heappop(heap)
        parent[a] = next_id
        parent[b] = next_id
        heapq.heappush(heap, (fa + fb, min(ta, tb), next_id))
        next_id += 1
    depth = [0] * (2 * k - 1)
    for node in range(2 * k - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return np.array(depth[:k], dtype=np.int64)


@dataclass(frozen=True)
class HuffmanTable:
    """Canonical code book plus its wire form (symbol, length) pairs."""

    symbols: np.ndarray  # present symbols in canonical order
    lengths: np.ndarray  # code length per symbol, same order

    @classmethod
    def from_symbols(
        cls,
        stream: np.ndarray,
        histogram: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "HuffmanTable":
        """Build the table for a stream.

        histogram: (distinct symbols ascending, their counts) of stream,
        as np.unique returns them, when the caller has them already.
        """
        if histogram is None:
            histogram = np.unique(stream, return_counts=True)
        syms, counts = histogram
        if syms.size > MAX_SYMBOLS:
            raise CodecError(
                f"{syms.size} distinct symbols, a Huffman table holds at most {MAX_SYMBOLS}"
            )
        lengths = _huffman_lengths(counts)
        order = np.lexsort((syms, lengths))
        return cls(syms[order].astype(np.uint32), lengths[order].astype(np.uint8))

    def codes(self) -> np.ndarray:
        """Canonical codeword of each symbol, in table order.

        In (length, symbol) order each codeword is the previous one plus
        one, shifted left by the growth in length: left-justified to the
        longest length, a codeword sits at the sum of 2^(longest - length)
        over the codewords before it.
        """
        lengths = self.lengths.astype(np.int64)
        width = int(lengths[-1])
        left = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(1 << (width - lengths[:-1]), out=left[1:])
        return left >> (width - lengths)

    # wire form: u32 count, then per symbol u32 symbol + u8 length
    def to_bytes(self) -> bytes:
        head = np.uint32(self.symbols.size).tobytes()
        return head + self.symbols.astype("<u4").tobytes() + self.lengths.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int) -> tuple["HuffmanTable", int]:
        if len(buf) < offset + 4:
            raise CodecError("truncated Huffman table")
        (count,) = np.frombuffer(buf, "<u4", count=1, offset=offset)
        count = int(count)
        offset += 4
        if count > MAX_SYMBOLS:
            raise CodecError(f"Huffman table of {count} entries, at most {MAX_SYMBOLS} allowed")
        if len(buf) < offset + 5 * count:
            raise CodecError("truncated Huffman table")
        syms = np.frombuffer(buf, "<u4", count=count, offset=offset).astype(np.uint32)
        offset += 4 * count
        lens = np.frombuffer(buf, "u1", count=count, offset=offset).astype(np.uint8)
        offset += count
        if count == 0:
            raise CodecError("empty Huffman table")
        if not (lens[:-1] <= lens[1:]).all():
            raise CodecError("Huffman table lengths not in canonical order")
        if lens[0] < 1 or lens[-1] > MAX_LENGTH:
            raise CodecError(f"Huffman code lengths must be 1..{MAX_LENGTH} bits")
        same = lens[:-1] == lens[1:]
        if (syms[:-1][same] >= syms[1:][same]).any():
            raise CodecError("Huffman table symbols not in canonical order")
        # canonical codes must fill the code space exactly, except the
        # degenerate one-symbol code, which claims half of it
        width = int(lens[-1])
        room = int((1 << (width - lens.astype(np.int64))).sum())
        if room != 1 << width and not (count == 1 and width == 1):
            raise CodecError("Huffman table does not form a complete code")
        return cls(syms, lens), offset


def encode(stream: np.ndarray, table: HuffmanTable) -> tuple[bytes, int]:
    """Pack a symbol stream with the table's canonical code, MSB first."""
    if stream.size == 0:
        return b"", 0
    order = np.argsort(table.symbols)
    ranked = table.symbols[order]
    inverse = np.searchsorted(ranked, stream)
    missing = inverse >= ranked.size
    missing[~missing] = ranked[inverse[~missing]] != stream[~missing]
    if missing.any():
        bad = stream[np.flatnonzero(missing)[0]]
        raise CodecError(f"symbol {bad} missing from Huffman table")
    codes = table.codes()[order]
    lengths = table.lengths.astype(np.int64)[order]
    lens = lengths[inverse]
    # each codeword left-justified in a big-endian 16-bit word (codes are
    # at most MAX_LENGTH bits): the first `len` bits of each row, read row
    # by row, are the packed stream
    words = (codes[inverse] << (16 - lens)).astype(">u2")
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 2), axis=1)
    bits = bits[np.arange(16) < lens[:, None]]
    return np.packbits(bits).tobytes(), int(bits.size)


def section_bytes(table: HuffmanTable, n_bits: int) -> int:
    """Size of the section `pack` writes for a payload of n_bits bits."""
    return len(table.to_bytes()) + 1 + (n_bits + 7) // 8


def pack(stream: np.ndarray, table: HuffmanTable) -> bytes:
    """A Huffman section that runs to the end of its buffer: the table, one
    byte counting the unused low bits of the payload's last byte, the payload."""
    payload, n_bits = encode(stream, table)
    return table.to_bytes() + bytes([-n_bits % 8]) + payload


def unpack(buf: bytes, offset: int, n_symbols: int) -> np.ndarray:
    """The n_symbols of the section `pack` wrote at buf[offset:]."""
    table, offset = HuffmanTable.from_bytes(buf, offset)
    if offset >= len(buf) or buf[offset] > 7:
        raise CodecError("Huffman section lacks a pad byte of 0 to 7")
    # an empty payload with pad bits gives a negative count, which decode rejects
    n_bits = 8 * (len(buf) - offset - 1) - buf[offset]
    return decode(buf[offset + 1 :], n_bits, n_symbols, table)


# bits decoded per pass: bounds the decoder's working memory
_CHUNK = 1 << 15


def _lookup(table: HuffmanTable) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat decode tables indexed by the next `width` bits of the stream."""
    width = int(table.lengths[-1])
    if table.symbols.size == 1:
        # the one-symbol code: every bit decodes to it
        return np.repeat(table.symbols, 2), np.ones(2, dtype=np.intp), 1
    spans = 1 << (width - table.lengths.astype(np.int64))
    return (
        np.repeat(table.symbols, spans),
        np.repeat(table.lengths.astype(np.intp), spans),
        width,
    )


def decode(buf: bytes, n_bits: int, n_symbols: int, table: HuffmanTable) -> np.ndarray:
    """Decode n_symbols from a packed MSB-first bitstream of n_bits bits.

    The bits are walked one chunk at a time.  Within a chunk every bit
    position gets the position of the codeword after the one starting
    there; the codeword starts reachable from the chunk's first one follow
    by pointer doubling: after k rounds the first 2^k starts are known and
    the jump table spans 2^k codewords.
    """
    if len(buf) != (n_bits + 7) // 8:
        raise CodecError(
            f"Huffman payload is {len(buf)} bytes, {n_bits} bits need "
            f"{(n_bits + 7) // 8}"
        )
    if n_symbols > n_bits or (n_symbols == 0) != (n_bits == 0):
        raise CodecError(f"{n_symbols} symbols cannot take {n_bits} bits")
    out = np.empty(n_symbols, dtype=np.int64)
    if n_symbols == 0:
        return out
    tsym, tlen, width = _lookup(table)
    # zero bytes past the end so every window read stays in bounds
    data = np.frombuffer(bytes(buf) + b"\0\0\0", np.uint8)
    shifts = 32 - width - np.arange(8, dtype=np.uint32)
    mask = np.uint32((1 << width) - 1)
    pos = count = 0
    while pos < n_bits:
        end = min(n_bits, pos + _CHUNK)
        b0, b1 = pos >> 3, ((end - 1) >> 3) + 1
        d = data[b0 : b1 + 3].astype(np.uint32)
        words = (d[:-3] << 24) | (d[1:-2] << 16) | (d[2:-1] << 8) | d[3:]
        windows = ((words[:, None] >> shifts) & mask).ravel()
        windows = windows[pos - 8 * b0 : end - 8 * b0]
        size = end - pos
        # jump[p]: the next codeword start after one at local bit p;
        # `size` marks leaving the chunk and maps to itself
        jump = np.empty(size + 1, dtype=np.intp)
        np.minimum(np.arange(size) + tlen[windows], size, out=jump[:-1])
        jump[-1] = size
        starts = np.zeros(1, dtype=np.intp)
        while starts[-1] < size:
            starts = np.concatenate((starts, jump[starts]))
            if starts[-1] < size:
                jump = jump[jump]
        starts = starts[: np.searchsorted(starts, size)]
        if count + starts.size > n_symbols:
            raise CodecError(f"Huffman stream holds more than {n_symbols} symbols")
        last = windows[starts[-1]]
        out[count : count + starts.size] = tsym[windows[starts]]
        count += starts.size
        pos += int(starts[-1] + tlen[last])
    if pos != n_bits or count != n_symbols:
        raise CodecError(
            f"Huffman stream decoded {count} symbols in {pos} bits, "
            f"expected {n_symbols} in {n_bits}"
        )
    return out
