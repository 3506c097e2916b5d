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
the value count come from the container, and every block's plane count and
bit budget follow from them and the block exponents.  All-zero blocks carry
a sentinel exponent and, outside rate mode, no plane bits at all.  A stream
whose coding would be larger than the raw values stores the values instead.
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

_CODED, _STORED = 0, 1  # the stream's kind byte


def _to_blocks(x: np.ndarray) -> np.ndarray:
    """Pad with edge replication to a whole number of blocks."""
    pad = -x.size % _BLOCK
    if pad:
        x = np.concatenate([x, np.full(pad, x[-1])])
    return x.reshape(-1, _BLOCK)


def _lift(ints: np.ndarray) -> np.ndarray:
    """Reversible integer Haar cascade across each block, widest span last."""
    out = ints.copy()
    block = ints.shape[1]
    span = 1
    while span < block:
        idx_a = np.arange(0, block, 2 * span)
        idx_b = idx_a + span
        a = out[:, idx_a]
        b = out[:, idx_b]
        d = b - a
        out[:, idx_a] = a + (d >> 1)
        out[:, idx_b] = d
        span *= 2
    return out


def _unlift(coeffs: np.ndarray) -> np.ndarray:
    out = coeffs.copy()
    block = coeffs.shape[1]
    span = block // 2
    while span >= 1:
        idx_a = np.arange(0, block, 2 * span)
        idx_b = idx_a + span
        s = out[:, idx_a]
        d = out[:, idx_b]
        a = s - (d >> 1)
        out[:, idx_a] = a
        out[:, idx_b] = d + a
        span //= 2
    return out


def _forward(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Align to the block exponent and lift; returns (coeffs, exponents)."""
    if not np.isfinite(blocks).all():
        raise CodecError("bit-plane codec requires finite values")
    _, exps = np.frexp(blocks)
    exps = np.where(blocks == 0.0, np.iinfo(np.int32).min, exps)
    zero_blocks = np.abs(blocks).max(axis=1) == 0.0
    e = np.where(zero_blocks, 0, exps.max(axis=1)).astype(np.int32)
    scaled = np.ldexp(blocks, (_ALIGN_BITS - e)[:, None])
    ints = np.rint(scaled).astype(np.int64)
    coeffs = _lift(ints)
    exps_out = np.where(zero_blocks, _ZERO_EXP, e).astype(np.int16)
    return coeffs, exps_out


def _reconstruct(coeffs: np.ndarray, exps: np.ndarray) -> np.ndarray:
    vals = _unlift(coeffs).astype(np.float64)
    e = exps.astype(np.int32)
    zero = e == _ZERO_EXP
    vals = np.ldexp(vals, np.where(zero, 0, e - _ALIGN_BITS)[:, None])
    vals[zero] = 0.0
    return vals


def _truncate_coeffs(coeffs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    out = _clear_below(np.abs(coeffs).astype(np.uint64), keep).astype(np.int64)
    out[coeffs < 0] *= -1
    return out


def _check(mode: str, c: float, width: int) -> None:
    """CodecError unless c is a bound that mode can take at this width."""
    if mode == "prec":
        if not (0 <= c < math.inf and float(c).is_integer()):
            raise CodecError(f"plane count must be a non-negative integer, got {c}")
    elif mode == "acc":
        if not 0 < c < math.inf:
            raise CodecError(f"error bound must be positive and finite, got {c}")
    elif mode == "rate":
        # a rate past the value width would always be stored raw
        if not 0 < c <= 8 * width:
            raise CodecError(f"rate must be in (0, {8 * width}], got {c}")
    else:
        raise CodecError(f"unknown bit-plane mode {mode!r}")


def plane_bound(mode: str, c: float) -> int:
    """All the coder reads of a bound c that passed _check: prec keeps
    min(c, TOTAL_PLANES) planes, acc derives plane counts from c's binary
    exponent p (2^(p-1) <= c < 2^p), and rate spends round(4c) bits a block.
    Bounds with one plane_bound decode a stream alike."""
    if mode == "prec":
        return min(int(c), TOTAL_PLANES)
    if mode == "acc":
        return math.frexp(c)[1]
    return round(_BLOCK * c)


def _keep(mode: str, bound: int, exps: np.ndarray) -> np.ndarray:
    """Magnitude planes each block keeps, from the plane_bound and the block
    exponents alone: the encoder and the decoder both call this."""
    if mode == "prec":
        return np.full(exps.size, bound, dtype=np.int64)
    if mode == "rate":
        return np.full(exps.size, TOTAL_PLANES, dtype=np.int64)
    # acc: dropping the planes below the top k costs about 2^(e - k + 4),
    # and k = e - p + 5 makes that 2^(p - 1) <= c.  Integer arithmetic, so
    # no two machines disagree; np.minimum/np.maximum beat np.clip here
    k = exps.astype(np.int64) - (bound - 5)
    return np.minimum(np.maximum(k, 0), TOTAL_PLANES)


def _budget(mode: str, bound: int, exps: np.ndarray, keep: np.ndarray,
            raw_mask: np.ndarray) -> np.ndarray:
    """Payload bits of each block: rate spends its plane_bound, round(4c),
    everywhere; prec and acc send the sign and every kept plane, and nothing
    for all-zero or raw blocks."""
    if mode == "rate":
        return np.full(exps.size, bound, dtype=np.int64)
    return np.where((exps == _ZERO_EXP) | raw_mask, 0, _BLOCK * (1 + keep))


# payload cells handled per pass: bounds the coder's working memory
_CHUNK = 1 << 18
# 2^(7-k): weights that pack eight 0/1 bytes, one per plane, into one byte
_BYTE_WEIGHTS = 1 << np.arange(7, -1, -1)


def _layout(budget: np.ndarray) -> tuple[int, int]:
    """Each block's payload as rows of _BLOCK cells: the sign row, then one
    row per magnitude plane from plane 55 down, then zero rows.  A block
    sends its first `budget` cells.

    Returns the rows that hold every budget, a sign row and 8 per byte, and
    how many bytes of each magnitude they show, starting at the big-endian
    byte that opens with plane 55.
    """
    plane_rows = -(-int(budget.max()) // _BLOCK) - 1
    n_bytes = -(-plane_rows // 8)
    return 1 + 8 * n_bytes, min(n_bytes, 7)


def _clear_below(mags: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero every magnitude plane below the top `keep` of each block."""
    shift = (np.uint64(TOTAL_PLANES) - keep.astype(np.uint64))[:, None]
    return (mags >> shift) << shift


def _emit(coeffs: np.ndarray, keep: np.ndarray, budget: np.ndarray) -> bytes:
    """Pack sign plane + top `keep` planes per block into its bit budget.

    Blocks follow each other in order; a block's bits are its cells read
    row by row, cut at its budget.  Whole chunks of blocks are laid out at
    once, and the bits past the last whole byte carry into the next chunk.
    """
    n_blocks = coeffs.shape[0]
    if not budget.any():
        return b""
    rows, n_bytes = _layout(budget)
    width = rows * _BLOCK
    cells = np.arange(width)
    step = max(1, _CHUNK // width)
    out = []
    carry = np.empty(0, np.uint8)
    for r0 in range(0, n_blocks, step):
        part = coeffs[r0 : r0 + step]
        mags = _clear_below(np.abs(part).astype(np.uint64), keep[r0 : r0 + step])
        # per block: a sign byte (0 or 1), then the magnitudes' bytes from
        # the one that opens with plane 55, each byte spread over the block's
        # values; unpacking down the byte axis turns bytes into plane rows
        # and leaves the sign in the eighth row, just above plane 55
        spread = np.zeros((part.shape[0], rows // 8 + 1, _BLOCK), np.uint8)
        spread[:, 0] = part < 0
        spread[:, 1 : 1 + n_bytes] = (
            mags.astype(">u8").view(np.uint8).reshape(*part.shape, 8)[..., 1 : 1 + n_bytes]
        ).transpose(0, 2, 1)
        grid = np.unpackbits(spread, axis=1)[:, 7:].reshape(-1, width)
        bits = np.concatenate((carry, grid[cells < budget[r0 : r0 + step, None]]))
        whole = bits.size & ~7
        out.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    out.append(np.packbits(carry).tobytes())
    return b"".join(out)


def _absorb(payload: np.ndarray, keep: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Inverse of _emit: rebuild truncated coefficients from packed bytes."""
    n_blocks = keep.size
    coeffs = np.zeros((n_blocks, _BLOCK), dtype=np.int64)
    if n_blocks == 0 or not budget.any():
        return coeffs
    rows, n_bytes = _layout(budget)
    width = rows * _BLOCK
    cells = np.arange(width)
    # a row's four cells read as one word; one 0/1 byte per value
    weights = _BYTE_WEIGHTS.astype(np.uint32)
    step = max(1, _CHUNK // width)
    offs = np.concatenate(([0], np.cumsum(budget)))
    for r0 in range(0, n_blocks, step):
        r1 = min(n_blocks, r0 + step)
        lo, hi = int(offs[r0]), int(offs[r1])
        grid = np.zeros((r1 - r0, rows, _BLOCK), np.uint8)
        grid.reshape(-1, width)[cells < budget[r0:r1, None]] = np.unpackbits(
            payload[lo >> 3 : (hi + 7) >> 3]
        )[lo & 7 : hi - (lo & ~7)]
        # eight plane rows of 0/1 bytes weighted and summed give the
        # magnitude byte holding those planes, for every value at once
        planes = grid[:, 1 : 1 + 8 * n_bytes].view(np.uint32).reshape(r1 - r0, n_bytes, 8, 1)
        be = np.zeros((r1 - r0, _BLOCK, 8), np.uint8)
        be[..., 1 : 1 + n_bytes] = (weights @ planes).view(np.uint8).transpose(0, 2, 1)
        mags = _clear_below(be.view(">u8")[..., 0], keep[r0:r1]).astype(np.int64)
        coeffs[r0:r1] = np.where(grid[:, 0].astype(bool), -mags, mags)
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
    _check(mode, c, width)
    bound = plane_bound(mode, c)
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.size
    fdt = WIDTH_DTYPES[width]
    blocks = _to_blocks(x64)
    coeffs, exps = _forward(blocks)
    keep = _keep(mode, bound, exps)
    trunc = _truncate_coeffs(coeffs, keep)
    raw_mask = np.zeros(exps.size, dtype=bool)
    parts = [bytes([_CODED]), exps.astype("<i2").tobytes()]
    recon_blocks = None
    if mode == "acc":
        # one verify pass: a block that breaks the bound at its derived
        # plane count is stored raw
        with np.errstate(over="ignore"):  # an overflowing block breaks the bound
            recon_blocks = round_to_width(_reconstruct(trunc, exps), width)
        raw_mask = np.abs(blocks - recon_blocks).max(axis=1) > c
        trunc[raw_mask] = 0
        recon_blocks[raw_mask] = blocks[raw_mask]  # raw blocks replay exactly
        parts.append(np.packbits(raw_mask).tobytes())
        parts.append(blocks[raw_mask].astype(fdt).tobytes())
    budget = _budget(mode, bound, exps, keep, raw_mask)

    coded = sum(map(len, parts)) + (int(budget.sum()) + 7) // 8
    if coded > 1 + n * width:
        # in rate mode the coded size, and so this choice, is a function of
        # the shape alone
        stored = x64.astype(fdt).tobytes()
        return bytes([_STORED]) + stored, np.frombuffer(stored, fdt).astype(np.float64)

    payload = _emit(trunc, keep, budget)
    if mode == "rate":
        # the budget cut can split a plane mid-block: reconstruct from the
        # emitted bits so it lands exactly where the decoder will see it
        trunc = _absorb(np.frombuffer(payload, np.uint8), keep, budget)
    # a prec budget holds every kept plane, so trunc is what the decoder
    # rebuilds; acc reconstructed it already, in its verify pass
    if recon_blocks is None:
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
    _check(mode, c, width)
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
    keep = _keep(mode, bound, exps)

    raw_mask = np.zeros(n_blocks, dtype=bool)
    if mode == "acc":
        mask, off = section(buf, off, (n_blocks + 7) // 8, "raw-block mask")
        raw_mask = np.unpackbits(np.frombuffer(mask, np.uint8), count=n_blocks).astype(bool)
        n_raw = int(raw_mask.sum())
        raw, off = section(buf, off, n_raw * _BLOCK * width, "raw blocks")
        raw_vals = _finite(np.frombuffer(raw, fdt).astype(np.float64), "a raw bit-plane block")
    budget = _budget(mode, bound, exps, keep, raw_mask)
    packed, _ = section(buf, off, (int(budget.sum()) + 7) // 8, "payload", last=True)
    coeffs = _absorb(np.frombuffer(packed, np.uint8), keep, budget)
    # the encoder writes only finite reconstructions, so overflow means damage
    recon = _rebuild_finite(coeffs, exps, width)
    if raw_mask.any():
        recon[raw_mask] = raw_vals.reshape(-1, _BLOCK)  # stored at full width, replay exactly
    return recon.reshape(-1)[:n]
