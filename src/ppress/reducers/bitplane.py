"""Block bit-plane codec with exponent alignment and integer lifting.

Values are grouped into blocks of 4 (ZFP's 1-D block).  Each block is
aligned to a common fixed-point scale chosen from its largest
exponent, decorrelated with a reversible integer Haar lifting cascade, and
emitted as sign-magnitude bit planes, most significant first.

Three truncation policies:
  prec  keep a fixed number of planes everywhere,
  rate  spend exactly c bits per value per block (stream size is a pure
        function of shape, never of content),
  acc   keep the planes that the block exponent and the absolute bound call
        for (ZFP's fixed-accuracy mode); a block that breaks the bound at
        that count is stored raw.

A stream holds only what the decoder cannot derive: the mode, the bound and
the value count come from the container, and every block's bit budget
follows from them and the block exponents.  All-zero blocks carry a
sentinel exponent and, outside rate mode, no plane bits at all.  A stream
whose coding would be larger than the raw values stores the values instead.

A block's payload is a row of 4-bit cells (nibbles), one bit per value in
each: the sign nibble, then one nibble per magnitude plane from plane 55
down.  A block sends the first `budget` bits of its row, which alone say
the planes each value keeps: prec and acc send whole nibbles; a rate
budget, round(4c) bits, may end inside a nibble or run past plane 0 into
zero nibbles.  Two 256-entry lookup tables transpose between the values'
magnitude bytes and the plane nibbles (_SPREAD one way, _GATHER back), so
no step of the packing expands a block to one byte per bit unless a budget
ends inside a nibble.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CodecError
from ..tabular import WIDTH_DTYPES, round_to_width
from .lossless import section

_ALIGN_BITS = 54  # aligned integers fit |i| <= 2^54
TOTAL_PLANES = 56  # two extra planes absorb lifting growth
_ZERO_EXP = -(1 << 15)  # sentinel exponent for all-zero blocks
_BLOCK = 4  # values per block
_LANES = np.arange(_BLOCK)

_CODED, _STORED = 0, 1  # the stream's kind byte


def _to_blocks(x: np.ndarray) -> np.ndarray:
    """Pad with edge replication to a whole number of blocks."""
    pad = -x.size % _BLOCK
    if pad:
        x = np.concatenate([x, np.full(pad, x[-1])])
    return x.reshape(-1, _BLOCK)


def _block_max(a: np.ndarray) -> np.ndarray:
    """Each block's largest entry.  Rows of four are too short for
    .max(axis=1), which costs about ten times as much here."""
    return np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3]))


def _lift(ints: np.ndarray) -> np.ndarray:
    """Reversible integer Haar cascade across each block, widest span last.
    The block width must be a power of two."""
    out = ints.copy()
    span = 1
    while span < out.shape[1]:
        a, b = out[:, :: 2 * span], out[:, span :: 2 * span]  # views into out
        b -= a
        a += b >> 1
        span *= 2
    return out


def _unlift(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs.copy()
    span = out.shape[1] // 2
    while span >= 1:
        s, d = out[:, :: 2 * span], out[:, span :: 2 * span]
        s -= d >> 1
        d += s
        span //= 2
    return out


def _forward(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Align to the block exponent and lift; returns (coeffs, exponents)."""
    peak = _block_max(np.abs(blocks))
    if not np.isfinite(peak).all():
        raise CodecError("bit-plane codec requires finite values")
    # frexp's exponent never falls as |x| grows, so the peak's is the
    # block's largest; frexp(0) gives 0, which zero blocks keep
    e = np.frexp(peak)[1].astype(np.int32)
    scaled = np.ldexp(blocks, (_ALIGN_BITS - e)[:, None])
    ints = np.rint(scaled).astype(np.int64)
    coeffs = _lift(ints)
    exps_out = np.where(peak == 0.0, _ZERO_EXP, e).astype(np.int16)
    return coeffs, exps_out


def _reconstruct(coeffs: np.ndarray, exps: np.ndarray) -> np.ndarray:
    vals = _unlift(coeffs).astype(np.float64)
    e = exps.astype(np.int32)
    zero = e == _ZERO_EXP
    vals = np.ldexp(vals, np.where(zero, 0, e - _ALIGN_BITS)[:, None])
    vals[zero] = 0.0
    return vals


def _truncate_coeffs(coeffs: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """What a decoder rebuilds from each block's first `budget` bits: value
    j's bit of plane nibble i (the sign nibble is 0) is bit 4i + j of its
    row, so it keeps clip((budget - 1 - j) >> 2, 0, 56) planes."""
    kept = np.minimum(np.maximum((budget[:, None] - 1 - _LANES) >> 2, 0), TOTAL_PLANES)
    shift = (TOTAL_PLANES - kept).astype(np.uint64)
    mags = ((np.abs(coeffs).astype(np.uint64) >> shift) << shift).astype(np.int64)
    return np.where(coeffs < 0, -mags, mags)


def plane_bound(mode: str, c: float) -> int:
    """All the coder reads of a bound c that passed `check_fields`: prec
    keeps min(c, TOTAL_PLANES) planes, acc derives plane counts from c's
    binary exponent p (2^(p-1) <= c < 2^p), and rate spends round(4c) bits
    a block.  Bounds with one plane_bound decode a stream alike."""
    if mode == "prec":
        return min(int(c), TOTAL_PLANES)
    if mode == "acc":
        return math.frexp(c)[1]
    return round(_BLOCK * c)


def unit_bounds(mode: str, lo: float, hi: float) -> tuple[float, ...]:
    """One bound in [lo, hi] for each plane_bound (unit) there, least
    compressing first.  An acc unit p is represented by the tightest bound
    of its octave there, max(lo, 2^(p-1)): encode stores raw each block that
    breaks the bound c itself, so that bound's stream meets every bound of
    the octave.  A prec or rate unit is represented by what the decoder
    reads, a plane count or k/4 bits a value, moved into [lo, hi]."""
    first, last = plane_bound(mode, lo), plane_bound(mode, hi)
    if mode == "acc":
        return tuple(float(max(lo, math.ldexp(1.0, p - 1))) for p in range(first, last + 1))
    # more planes, or more bits, compress less
    per_unit = _BLOCK if mode == "rate" else 1
    return tuple(float(min(max(k / per_unit, lo), hi)) for k in range(last, first - 1, -1))


def _budget(mode: str, bound: int, exps: np.ndarray) -> np.ndarray:
    """Payload bits of each block, from the plane_bound and the block
    exponents alone: the encoder and the decoder both call this.  rate
    spends round(4c) everywhere; prec and acc send the sign nibble and a
    nibble per kept plane, and nothing for an all-zero block (nor, the
    caller sees to it, for an acc raw block)."""
    if mode == "rate":
        return np.full(exps.size, bound, dtype=np.int64)
    keep = bound
    if mode == "acc":
        # dropping the planes below the top k costs about 2^(e - k + 4), and
        # k = e - p + 5 makes that 2^(p - 1) <= c.  Integer arithmetic, so
        # no two machines disagree; np.minimum/np.maximum beat np.clip here
        k = exps.astype(np.int64) - (bound - 5)
        keep = np.minimum(np.maximum(k, 0), TOTAL_PLANES)
    return np.where(exps == _ZERO_EXP, 0, _BLOCK * (1 + keep))


# payload nibbles handled per pass: bounds the coder's per-pass grids (the
# whole stream is held at one byte per nibble, or per bit)
_CHUNK = 1 << 18


def _transpose_tables() -> tuple[np.ndarray, np.ndarray]:
    """The two lookup tables that turn a block's magnitude bytes into plane
    nibbles and back.

    _SPREAD[x] puts bit k of byte x, counting from its top bit, at bit
    31 - 4k of a word.  Shifting a block's four spreads right by 0..3 and
    or-ing them gives one big-endian word of 8 nibbles, one per plane of
    the byte, each holding value 0's bit at its top.  _GATHER[p][x] undoes
    that for byte p of such a word: it puts the planes of that byte's two
    nibbles back into their values' magnitude bytes, value j in byte lane j
    (bits 8j..8j+7) of the result.
    """
    x = np.arange(256, dtype=np.uint32)[:, None]
    k = np.arange(8, dtype=np.uint32)
    bits = (x >> (7 - k)) & 1  # bits[x, k]: bit k of x from the top
    spread = (bits << (31 - 4 * k)).sum(axis=1, dtype=np.uint32)
    # in byte p of a word, bit k from the top belongs to value k mod 4 and
    # to plane 2p + k // 4 of the word
    p = np.arange(4, dtype=np.uint32)[:, None]
    shift = 8 * (k % 4) + 7 - (2 * p + k // 4)
    gather = (bits[None] << shift[:, None, :]).sum(axis=2, dtype=np.uint32)
    return spread, gather


_SPREAD, _GATHER = _transpose_tables()


def _layout(budget: np.ndarray) -> tuple[int, int, bool, np.ndarray]:
    """Each block's payload as a row of 4-bit cells: the sign nibble, then
    one nibble per magnitude plane from plane 55 down, then zero nibbles.
    A nibble holds one bit per value, value 0's at its top.  A block sends
    the first `budget` bits of its row.

    Returns the nibbles of a row that holds every budget, a sign nibble and
    8 per magnitude byte; how many bytes of each magnitude it shows,
    starting at the big-endian byte that opens with plane 55; whether every
    budget is whole nibbles; and where each block starts in the stream, in
    nibbles if so and in bits if not.
    """
    plane_nibbles = -(-int(budget.max()) // 4) - 1
    n_bytes = -(-plane_nibbles // 8)
    whole = not (budget & 3).any()
    starts = np.concatenate(([0], np.cumsum(budget) // (4 if whole else 1)))
    return 1 + 8 * n_bytes, min(n_bytes, 7), whole, starts


def _cells(budget: np.ndarray, width: int,
           whole: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The nibbles of each row that its budget reaches, as a mask over the
    rows, and, unless the stream's budgets are all whole nibbles, how many
    bits of each of those nibbles it sends."""
    cols = np.arange(width)
    # row q of `first` marks a row's first q nibbles; taking rows of it
    # beats a broadcast compare, which pays per row for rows this short
    first = cols < np.arange(width + 1)[:, None]
    sent = first.take((budget + 3) >> 2, axis=0)
    if whole:
        return sent, None
    return sent, np.minimum(budget[:, None] - 4 * cols, 4)[sent]


def _emit(coeffs: np.ndarray, budget: np.ndarray) -> bytes:
    """Pack each block's first `budget` bits, its sign nibble and then its
    planes from plane 55 down, as far as the budget reaches.

    Blocks follow each other in order, each sending the first `budget` bits
    of its nibble row (see _layout).  A chunk of blocks builds its rows at
    once: the _SPREAD table turns each magnitude byte into 8 plane nibbles,
    one bit per value.  When every budget is whole nibbles the rows' sent
    nibbles are the stream, two to a byte; otherwise each sent nibble is cut
    to its budget's bits and the bits are the stream.
    """
    n_blocks = coeffs.shape[0]
    if not budget.any():
        return b""
    width, n_bytes, whole, starts = _layout(budget)
    # one nibble or one bit per byte, up to the end of the last byte
    stream = np.zeros(-(-int(budget.sum()) // 8) * (2 if whole else 8), np.uint8)
    step = max(1, _CHUNK // width)
    for r0 in range(0, n_blocks, step):
        part = coeffs[r0 : r0 + step]
        mags = np.abs(part).astype(np.uint64)
        # byte t of every value's magnitude, counted from the one that opens
        # with plane 55 (little-endian byte 6), spread and merged into the
        # word of planes 55-8t..48-8t
        le = mags.astype("<u8", copy=False).view(np.uint8).reshape(*part.shape, 8)
        spread = _SPREAD.take(le[..., 7 - n_bytes : 7][..., ::-1])
        words = spread[:, 0]
        for j in range(1, _BLOCK):
            words |= spread[:, j] >> j
        rows = np.zeros((part.shape[0], width), np.uint8)
        rows[:, 0] = (part < 0) @ (8 >> _LANES)  # the sign nibble
        planes = words.astype(">u4").view(np.uint8)
        rows[:, 1 : 1 + 8 * n_bytes : 2] = planes >> 4
        rows[:, 2 : 2 + 8 * n_bytes : 2] = planes & 15
        sent, bits = _cells(budget[r0 : r0 + step], width, whole)
        cells = rows[sent]
        if bits is not None:
            # a nibble's top `bits` bits
            cells = np.unpackbits(cells[:, None], axis=1)[:, 4:][_LANES < bits[:, None]]
        stream[starts[r0] : starts[r0 + part.shape[0]]] = cells
    if whole:
        return ((stream[0::2] << 4) | stream[1::2]).tobytes()
    return np.packbits(stream).tobytes()


def _absorb(payload: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Inverse of _emit: each block's coefficients from its first `budget`
    bits, every plane past them 0, as _truncate_coeffs cuts them.  The
    _GATHER tables turn each 8-plane word of nibbles back into the four
    values' magnitude bytes."""
    n_blocks = budget.size
    coeffs = np.zeros((n_blocks, _BLOCK), dtype=np.int64)
    if n_blocks == 0 or not budget.any():
        return coeffs
    width, n_bytes, whole, starts = _layout(budget)
    if whole:
        stream = np.empty(2 * payload.size, np.uint8)
        stream[0::2], stream[1::2] = payload >> 4, payload & 15
    else:
        stream = np.unpackbits(payload)
    step = max(1, _CHUNK // width)
    for r0 in range(0, n_blocks, step):
        r1 = min(n_blocks, r0 + step)
        sent, bits = _cells(budget[r0:r1], width, whole)
        cells = stream[starts[r0] : starts[r1]]
        if bits is not None:
            cut = np.zeros((bits.size, 4), np.uint8)
            cut[_LANES < bits[:, None]] = cells
            cells = np.packbits(cut, axis=1)[:, 0] >> 4
        rows = np.zeros((r1 - r0, width), np.uint8)
        rows[sent] = cells
        # bytes of the plane nibbles, four to a word; each word's bytes
        # gathered back give the values' bytes, value j in lane j
        planes = (rows[:, 1 : 1 + 8 * n_bytes : 2] << 4) | rows[:, 2 : 2 + 8 * n_bytes : 2]
        planes = planes.reshape(r1 - r0, n_bytes, 4)
        words = _GATHER[0].take(planes[..., 0])
        for p in range(1, 4):
            words |= _GATHER[p].take(planes[..., p])
        le = np.zeros((r1 - r0, _BLOCK, 8), np.uint8)
        le[..., 7 - n_bytes : 7] = words.astype("<u4", copy=False).view(np.uint8).reshape(
            r1 - r0, n_bytes, _BLOCK).transpose(0, 2, 1)[..., ::-1]
        mags = le.view("<u8")[..., 0].astype(np.int64)
        negative = np.unpackbits(rows[:, :1], axis=1)[:, 4:].view(bool)
        coeffs[r0:r1] = np.where(negative, -mags, mags)
    return coeffs


def _rebuild_finite(coeffs: np.ndarray, exps: np.ndarray, width: int) -> np.ndarray:
    """Reconstructed blocks in the stream's width; CodecError if any overflows."""
    try:
        with np.errstate(over="raise"):
            return round_to_width(_reconstruct(coeffs, exps), width)
    except FloatingPointError:
        raise CodecError("bit-plane reconstruction overflows the float range") from None


def encode(x: np.ndarray, mode: str, c: float, width: int) -> tuple[bytes, np.ndarray]:
    """Encode one stream; returns (bytes, reconstruction)."""
    bound = plane_bound(mode, c)
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.size
    fdt = WIDTH_DTYPES[width]
    blocks = _to_blocks(x64)
    coeffs, exps = _forward(blocks)
    budget = _budget(mode, bound, exps)
    # what the decoder rebuilds, in every mode
    trunc = _truncate_coeffs(coeffs, budget)
    parts = [bytes([_CODED]), exps.astype("<i2").tobytes()]
    recon_blocks = None
    if mode == "acc":
        # one verify pass: a block that breaks the bound at its derived
        # plane count is stored raw
        with np.errstate(over="ignore"):  # an overflowing block breaks the bound
            recon_blocks = round_to_width(_reconstruct(trunc, exps), width)
        raw_mask = _block_max(np.abs(blocks - recon_blocks)) > c
        budget[raw_mask] = 0
        recon_blocks[raw_mask] = blocks[raw_mask]  # raw blocks replay exactly
        parts.append(np.packbits(raw_mask).tobytes())
        parts.append(blocks[raw_mask].astype(fdt).tobytes())

    coded = sum(map(len, parts)) + (int(budget.sum()) + 7) // 8
    if coded > 1 + n * width:
        # in rate mode the coded size, and so this choice, is a function of
        # the shape alone
        stored = x64.astype(fdt).tobytes()
        return bytes([_STORED]) + stored, np.frombuffer(stored, fdt).astype(np.float64)

    # rate writes the lifted values' signs, also of a value its cut leaves
    # no planes; prec and acc write the truncated values' signs
    payload = _emit(coeffs if mode == "rate" else trunc, budget)
    if recon_blocks is None:  # acc reconstructed already, in its verify pass
        # values within a truncation step of the float maximum can round up
        # past it; refuse them, since the decoder treats overflow as damage
        recon_blocks = _rebuild_finite(trunc, exps, width)
    return b"".join(parts) + payload, recon_blocks.reshape(-1)[:n]


def _finite(vals: np.ndarray, what: str) -> np.ndarray:
    # the encoder takes only finite values
    if not np.isfinite(vals).all():
        raise CodecError(f"non-finite value in {what}")
    return vals


def decode(buf: bytes, mode: str, c: float, n: int, width: int) -> np.ndarray:
    """Decode one stream of n values produced by encode(x, mode, c, width).

    Every section is bounds-checked and the stream must end exactly where
    its payload does; anything else raises CodecError.
    """
    bound = plane_bound(mode, c)
    fdt = WIDTH_DTYPES[width]
    kind, off = section(buf, 0, 1, "kind byte")
    if kind[0] == _STORED:
        vals, _ = section(buf, off, n * width, "stored values", last=True)
        return _finite(np.frombuffer(vals, fdt).astype(np.float64), "a stored bit-plane stream")
    if kind[0] != _CODED:
        raise CodecError(f"unknown bit-plane stream kind {kind[0]}")
    n_blocks = -(-n // _BLOCK)
    exps, off = section(buf, off, 2 * n_blocks, "exponents")
    exps = np.frombuffer(exps, "<i2").astype(np.int64)
    budget = _budget(mode, bound, exps)
    raw_mask = np.zeros(n_blocks, dtype=bool)
    if mode == "acc":
        mask, off = section(buf, off, (n_blocks + 7) // 8, "raw-block mask")
        raw_mask = np.unpackbits(np.frombuffer(mask, np.uint8), count=n_blocks).astype(bool)
        n_raw = int(raw_mask.sum())
        raw, off = section(buf, off, n_raw * _BLOCK * width, "raw blocks")
        raw_vals = _finite(np.frombuffer(raw, fdt).astype(np.float64), "a raw bit-plane block")
        budget[raw_mask] = 0
    packed, _ = section(buf, off, (int(budget.sum()) + 7) // 8, "payload", last=True)
    coeffs = _absorb(np.frombuffer(packed, np.uint8), budget)
    # the encoder writes only finite reconstructions, so overflow means damage
    recon = _rebuild_finite(coeffs, exps, width)
    if raw_mask.any():
        recon[raw_mask] = raw_vals.reshape(-1, _BLOCK)  # stored at full width, replay exactly
    return recon.reshape(-1)[:n]
