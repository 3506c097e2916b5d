"""Block bit-plane codec with exponent alignment and integer lifting.

Values are grouped into blocks of 4 (ZFP's 1-D block).  Each block is
aligned to a common fixed-point scale chosen from its largest
exponent, decorrelated with a reversible integer Haar lifting cascade, and
emitted as sign-magnitude bit planes, most significant first.

Three truncation policies:
  prec  keep a fixed number of planes everywhere,
  rate  spend exactly c bits per value per block (stream size is a pure
        function of shape, never of content),
  acc   choose planes per block so the reconstruction error stays within an
        absolute bound; blocks that cannot meet the bound even with every
        plane (extreme exponent spread) are stored raw.

All-zero blocks carry a sentinel exponent and, outside rate mode, no plane
bits at all.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import CodecError

_ALIGN_BITS = 54  # aligned integers fit |i| <= 2^54
TOTAL_PLANES = 56  # two extra planes absorb lifting growth
_ZERO_EXP = -(1 << 15)  # sentinel exponent for all-zero blocks
_BLOCK = 4  # values per block

_HEAD = struct.Struct("<BQBdI")  # flags, n_values, mode_code, c, n_blocks
_BITS = struct.Struct("<Q")

_MODE_PREC, _MODE_ACC, _MODE_RATE = 0, 1, 2
_MODE_CODE = {"prec": _MODE_PREC, "acc": _MODE_ACC, "rate": _MODE_RATE}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}

_F32 = np.dtype("<f4")
_F64 = np.dtype("<f8")


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


def _planes_for_bound(eb: float, exps: np.ndarray) -> np.ndarray:
    """First guess at planes per block; encode() verifies and adjusts."""
    e = exps.astype(np.float64)
    # dropped planes cost < (4 * 2^(TOTAL_PLANES - k) + 3) * 2^(e - ALIGN_BITS)
    budget = np.log2(eb) - (e - _ALIGN_BITS)
    k = np.ceil(TOTAL_PLANES + 2.0 - budget)
    return np.clip(k, 0, TOTAL_PLANES).astype(np.int64)


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


def _emit(coeffs: np.ndarray, keep: np.ndarray, budget: np.ndarray) -> tuple[bytes, int]:
    """Pack sign plane + top `keep` planes per block into its bit budget.

    Blocks follow each other in order; a block's bits are its cells read
    row by row, cut at its budget.  Whole chunks of blocks are laid out at
    once, and the bits past the last whole byte carry into the next chunk.
    """
    n_blocks = coeffs.shape[0]
    total = int(budget.sum())
    if total == 0:
        return b"", 0
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
    return b"".join(out), total


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


def _narrow(vals: np.ndarray, width: int) -> np.ndarray:
    return vals.astype(_F32).astype(np.float64) if width == 4 else vals


def _rebuild_finite(coeffs: np.ndarray, exps: np.ndarray, width: int) -> np.ndarray:
    """Reconstructed blocks in the stream's width; CodecError if any overflows."""
    try:
        with np.errstate(over="raise"):
            return _narrow(_reconstruct(coeffs, exps), width)
    except FloatingPointError:
        raise CodecError("bit-plane reconstruction overflows the float range") from None


def encode(x: np.ndarray, mode: str, c: float, width: int) -> tuple[bytes, np.ndarray]:
    """Encode one stream; returns (bytes, reconstruction)."""
    if mode not in _MODE_CODE:
        raise CodecError(f"unknown bit-plane mode {mode!r}")
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.size
    blocks = _to_blocks(x64)
    coeffs, exps = _forward(blocks)
    n_blocks = coeffs.shape[0]
    raw_mask = np.zeros(n_blocks, dtype=bool)
    recon_blocks = None

    if mode == "prec":
        if c < 0 or c != int(c):
            raise CodecError(f"plane count must be a non-negative integer, got {c}")
        keep = np.full(n_blocks, min(int(c), TOTAL_PLANES), dtype=np.int64)
        budget = np.where(exps == _ZERO_EXP, 0, _BLOCK * (1 + keep))
    elif mode == "rate":
        if c <= 0:
            raise CodecError(f"rate must be positive, got {c}")
        keep = np.full(n_blocks, TOTAL_PLANES, dtype=np.int64)
        budget = np.full(n_blocks, int(round(_BLOCK * c)), dtype=np.int64)
    else:  # acc
        if c <= 0:
            raise CodecError(f"error bound must be positive, got {c}")
        keep = _planes_for_bound(c, exps)
        keep[exps == _ZERO_EXP] = 0
        # every pass that finds a violation gives each violating block one
        # more plane or stores it raw, so the loop ends, and it ends on a
        # pass whose reconstruction matches the final plan
        while True:
            with np.errstate(over="ignore"):  # an overflowing block violates the bound
                recon_blocks = _narrow(_reconstruct(_truncate_coeffs(coeffs, keep), exps), width)
            err = np.abs(blocks - recon_blocks).max(axis=1)
            violated = (err > c) & ~raw_mask
            if not violated.any():
                break
            grow = violated & (keep < TOTAL_PLANES)
            keep[grow] += 1
            raw_mask |= violated & ~grow
        budget = np.where(exps == _ZERO_EXP, 0, _BLOCK * (1 + keep))
        budget[raw_mask] = 0

    trunc = _truncate_coeffs(coeffs, keep)
    if raw_mask.any():
        trunc[raw_mask] = 0
    payload, n_bits = _emit(trunc, keep, budget)

    parts = [
        _HEAD.pack(0, n, _MODE_CODE[mode], float(c), n_blocks),
        exps.astype("<i2").tobytes(),
    ]
    if mode == "prec":
        parts.append(np.uint8(int(keep[0]) if n_blocks else 0).tobytes())
    elif mode == "acc":
        parts.append(keep.astype(np.uint8).tobytes())
        parts.append(np.packbits(raw_mask).tobytes())
        fdt = _F32 if width == 4 else _F64
        parts.append(np.ascontiguousarray(blocks[raw_mask]).astype(fdt).tobytes())
    parts.append(_BITS.pack(n_bits))
    parts.append(payload)

    if mode == "rate":
        # the budget cut can split a plane mid-block: reconstruct from the
        # emitted bits so it lands exactly where the decoder will see it
        trunc = _absorb(np.frombuffer(payload, np.uint8), keep, budget)
    # a prec budget holds every kept plane, so trunc is what the decoder
    # rebuilds; acc reconstructed it already, in its last pass
    if recon_blocks is None:
        # values within a truncation step of the float maximum can round up
        # past it; refuse them, since the decoder treats overflow as damage
        recon_blocks = _rebuild_finite(trunc, exps, width)
    if raw_mask.any():
        recon_blocks[raw_mask] = blocks[raw_mask]  # raw blocks replay exactly
    recon = recon_blocks.reshape(-1)[:n]
    return b"".join(parts), recon


def _section(buf: bytes, off: int, size: int, what: str) -> tuple[bytes, int]:
    """The `size` bytes of buf at `off`, and the offset after them."""
    end = off + size
    if end > len(buf):
        raise CodecError(f"bit-plane stream truncated in its {what}")
    return buf[off:end], end


def decode(buf: bytes, width: int) -> np.ndarray:
    """Decode one stream produced by encode().

    Every section is bounds-checked and the stream must end exactly where
    its payload does; anything else raises CodecError.
    """
    head, off = _section(buf, 0, _HEAD.size, "header")
    flags, n, mode_code, c, n_blocks = _HEAD.unpack(head)
    mode = _CODE_MODE.get(mode_code)
    if flags:
        raise CodecError(f"unknown bit-plane stream flags {flags:#x}")
    if mode is None:
        raise CodecError(f"unknown bit-plane mode code {mode_code}")
    if n_blocks != -(-n // _BLOCK):
        raise CodecError(f"{n_blocks} blocks of {_BLOCK} cannot hold {n} values")
    exps, off = _section(buf, off, 2 * n_blocks, "exponents")
    exps = np.frombuffer(exps, "<i2").astype(np.int64)

    raw_mask = np.zeros(n_blocks, dtype=bool)
    raw_vals = None
    if mode == "prec":
        k, off = _section(buf, off, 1, "plane count")
        keep = np.full(n_blocks, k[0], dtype=np.int64)
        budget = np.where(exps == _ZERO_EXP, 0, _BLOCK * (1 + keep))
    elif mode == "rate":
        if not 0.0 < c < math.inf:
            raise CodecError(f"invalid bit-plane rate {c}")
        keep = np.full(n_blocks, TOTAL_PLANES, dtype=np.int64)
        per_block = round(_BLOCK * c)
    else:
        keep, off = _section(buf, off, n_blocks, "plane counts")
        keep = np.frombuffer(keep, np.uint8).astype(np.int64)
        mask, off = _section(buf, off, (n_blocks + 7) // 8, "raw-block mask")
        raw_mask = np.unpackbits(np.frombuffer(mask, np.uint8), count=n_blocks).astype(bool)
        n_raw = int(raw_mask.sum())
        raw, off = _section(buf, off, n_raw * _BLOCK * width, "raw blocks")
        fdt = _F32 if width == 4 else _F64
        raw_vals = np.frombuffer(raw, fdt).astype(np.float64).reshape(n_raw, _BLOCK)
        budget = np.where(exps == _ZERO_EXP, 0, _BLOCK * (1 + keep))
        budget[raw_mask] = 0
    if n_blocks and keep.max() > TOTAL_PLANES:
        raise CodecError(f"more than {TOTAL_PLANES} bit planes in a block")

    head, off = _section(buf, off, _BITS.size, "payload length")
    (n_bits,) = _BITS.unpack(head)
    packed, off = _section(buf, off, (n_bits + 7) // 8, "payload")
    if off != len(buf):
        raise CodecError(f"{len(buf) - off} bytes after the bit-plane stream")
    if mode == "rate":  # checked before the budget array can overflow
        if per_block * n_blocks != n_bits:
            raise CodecError("bit-plane stream length mismatch")
        budget = np.full(n_blocks, per_block, dtype=np.int64)
    elif int(budget.sum()) != n_bits:
        raise CodecError("bit-plane stream length mismatch")
    coeffs = _absorb(np.frombuffer(packed, np.uint8), keep, budget)
    # the encoder takes only finite values and writes only finite
    # reconstructions, so overflow or a non-finite raw block means damage
    recon = _rebuild_finite(coeffs, exps, width)
    if raw_vals is not None and raw_mask.any():
        if not np.isfinite(raw_vals).all():
            raise CodecError("non-finite value in a raw bit-plane block")
        recon[raw_mask] = raw_vals  # stored at full width, replay exactly
    return recon.reshape(-1)[:n]
