"""Block bit-plane codec with exponent alignment and integer lifting.

Values are grouped into fixed-size blocks (power of two, default 4).  Each
block is aligned to a common fixed-point scale chosen from its largest
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

_HEAD = struct.Struct("<BQBdI")  # flags, n_values, mode_code, c, n_blocks
_BITS = struct.Struct("<Q")

_MODE_PREC, _MODE_ACC, _MODE_RATE = 0, 1, 2
_MODE_CODE = {"prec": _MODE_PREC, "acc": _MODE_ACC, "rate": _MODE_RATE}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}

_F32 = np.dtype("<f4")
_F64 = np.dtype("<f8")


def _to_blocks(x: np.ndarray, block: int) -> np.ndarray:
    """Pad with edge replication to a whole number of blocks."""
    n = x.size
    n_blocks = (n + block - 1) // block
    if n_blocks * block != n:
        pad = np.full(n_blocks * block - n, x[-1], dtype=np.float64)
        x = np.concatenate([x, pad])
    return x.reshape(n_blocks, block)


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
    shift = (np.uint64(TOTAL_PLANES) - keep.astype(np.uint64))[:, None]
    mags = np.abs(coeffs).astype(np.uint64)
    mags = (mags >> shift) << shift
    out = mags.astype(np.int64)
    out[coeffs < 0] *= -1
    return out


def _planes_for_bound(eb: float, exps: np.ndarray) -> np.ndarray:
    """First guess at planes per block; encode() verifies and adjusts."""
    e = exps.astype(np.float64)
    # dropped planes cost < (4 * 2^(TOTAL_PLANES - k) + 3) * 2^(e - ALIGN_BITS)
    budget = np.log2(eb) - (e - _ALIGN_BITS)
    k = np.ceil(TOTAL_PLANES + 2.0 - budget)
    return np.clip(k, 0, TOTAL_PLANES).astype(np.int64)


def _groups(keep: np.ndarray, budget: np.ndarray):
    """Iterate blocks grouped by (planes kept, bit budget)."""
    key = keep * (1 << 20) + budget
    for k in np.unique(key):
        rows = np.flatnonzero(key == k)
        yield int(keep[rows[0]]), int(budget[rows[0]]), rows


def _emit(coeffs: np.ndarray, keep: np.ndarray, budget: np.ndarray) -> tuple[bytes, int]:
    """Pack sign plane + top `keep` planes per block into its bit budget."""
    block = coeffs.shape[1]
    signs = (coeffs < 0).astype(np.uint8)
    mags = np.abs(coeffs).astype(np.uint64)
    total = int(budget.sum())
    bits = np.zeros(total, dtype=np.uint8)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for k, b, rows in _groups(keep, budget):
        if b == 0:
            continue
        want = block + block * k
        planes = [signs[rows]]
        for p in range(TOTAL_PLANES - 1, TOTAL_PLANES - 1 - k, -1):
            planes.append(((mags[rows] >> np.uint64(p)) & np.uint64(1)).astype(np.uint8))
        chunk = np.concatenate(planes, axis=1)
        use = min(b, want)
        pos = offs[rows][:, None] + np.arange(use)[None, :]
        bits[pos.ravel()] = chunk[:, :use].ravel()
    return np.packbits(bits).tobytes(), total


def _absorb(bits: np.ndarray, keep: np.ndarray, budget: np.ndarray, block: int) -> np.ndarray:
    """Inverse of _emit: rebuild truncated coefficients."""
    coeffs = np.zeros((keep.size, block), dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for k, b, rows in _groups(keep, budget):
        if b == 0:
            continue
        want = block + block * k
        use = min(b, want)
        pos = offs[rows][:, None] + np.arange(use)[None, :]
        chunk = np.zeros((rows.size, want), dtype=np.uint8)
        chunk[:, :use] = bits[pos.ravel()].reshape(rows.size, use)
        signs = chunk[:, :block].astype(bool)
        mags = np.zeros((rows.size, block), dtype=np.uint64)
        for i, p in enumerate(range(TOTAL_PLANES - 1, TOTAL_PLANES - 1 - k, -1)):
            plane = chunk[:, block * (i + 1) : block * (i + 2)].astype(np.uint64)
            mags |= plane << np.uint64(p)
        vals = mags.astype(np.int64)
        vals[signs] *= -1
        coeffs[rows] = vals
    return coeffs


def _narrow(vals: np.ndarray, width: int) -> np.ndarray:
    return vals.astype(_F32).astype(np.float64) if width == 4 else vals


def encode(x: np.ndarray, mode: str, c: float, block: int, width: int) -> tuple[bytes, np.ndarray]:
    """Encode one stream; returns (bytes, reconstruction)."""
    if mode not in _MODE_CODE:
        raise CodecError(f"unknown bit-plane mode {mode!r}")
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.size
    blocks = _to_blocks(x64, block)
    coeffs, exps = _forward(blocks)
    n_blocks = coeffs.shape[0]
    raw_mask = np.zeros(n_blocks, dtype=bool)

    if mode == "prec":
        if c < 0 or c != int(c):
            raise CodecError(f"plane count must be a non-negative integer, got {c}")
        keep = np.full(n_blocks, min(int(c), TOTAL_PLANES), dtype=np.int64)
        budget = np.where(exps == _ZERO_EXP, 0, block + block * keep)
    elif mode == "rate":
        if c <= 0:
            raise CodecError(f"rate must be positive, got {c}")
        keep = np.full(n_blocks, TOTAL_PLANES, dtype=np.int64)
        budget = np.full(n_blocks, int(round(block * c)), dtype=np.int64)
    else:  # acc
        if c <= 0:
            raise CodecError(f"error bound must be positive, got {c}")
        keep = _planes_for_bound(c, exps)
        keep[exps == _ZERO_EXP] = 0
        for _ in range(TOTAL_PLANES + 1):
            recon = _narrow(_reconstruct(_truncate_coeffs(coeffs, keep), exps), width)
            err = np.abs(blocks - recon).max(axis=1)
            violated = (err > c) & ~raw_mask
            if not violated.any():
                break
            grow = violated & (keep < TOTAL_PLANES)
            keep[grow] += 1
            raw_mask |= violated & ~grow
        budget = np.where(exps == _ZERO_EXP, 0, block + block * keep)
        budget[raw_mask] = 0

    trunc = _truncate_coeffs(coeffs, keep)
    if raw_mask.any():
        trunc[raw_mask] = 0
    payload, n_bits = _emit(trunc, keep, budget)

    parts = [
        _HEAD.pack(0, n, _MODE_CODE[mode], float(c), n_blocks),
        np.uint8(block).tobytes(),
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

    # reconstruct from the emitted bits so the budget cut lands exactly where
    # the decoder will see it (rate mode can split a plane mid-block)
    bits = (
        np.unpackbits(np.frombuffer(payload, np.uint8), count=n_bits)
        if n_bits
        else np.empty(0, np.uint8)
    )
    recon_blocks = _narrow(_reconstruct(_absorb(bits, keep, budget, block), exps), width)
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
    head, off = _section(buf, 0, _HEAD.size + 1, "header")
    flags, n, mode_code, c, n_blocks = _HEAD.unpack_from(head)
    block = head[-1]
    mode = _CODE_MODE.get(mode_code)
    if flags:
        raise CodecError(f"unknown bit-plane stream flags {flags:#x}")
    if mode is None:
        raise CodecError(f"unknown bit-plane mode code {mode_code}")
    if block < 2 or block & (block - 1):
        raise CodecError(f"invalid block size {block}")
    if n_blocks != -(-n // block):
        raise CodecError(f"{n_blocks} blocks of {block} cannot hold {n} values")
    exps, off = _section(buf, off, 2 * n_blocks, "exponents")
    exps = np.frombuffer(exps, "<i2").astype(np.int64)

    raw_mask = np.zeros(n_blocks, dtype=bool)
    raw_vals = None
    if mode == "prec":
        k, off = _section(buf, off, 1, "plane count")
        keep = np.full(n_blocks, k[0], dtype=np.int64)
        budget = np.where(exps == _ZERO_EXP, 0, block + block * keep)
    elif mode == "rate":
        if not 0.0 < c < math.inf:
            raise CodecError(f"invalid bit-plane rate {c}")
        keep = np.full(n_blocks, TOTAL_PLANES, dtype=np.int64)
        per_block = round(block * c)
    else:
        keep, off = _section(buf, off, n_blocks, "plane counts")
        keep = np.frombuffer(keep, np.uint8).astype(np.int64)
        mask, off = _section(buf, off, (n_blocks + 7) // 8, "raw-block mask")
        raw_mask = np.unpackbits(np.frombuffer(mask, np.uint8), count=n_blocks).astype(bool)
        n_raw = int(raw_mask.sum())
        raw, off = _section(buf, off, n_raw * block * width, "raw blocks")
        fdt = _F32 if width == 4 else _F64
        raw_vals = np.frombuffer(raw, fdt).astype(np.float64).reshape(n_raw, block)
        budget = np.where(exps == _ZERO_EXP, 0, block + block * keep)
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
    bits = (
        np.unpackbits(np.frombuffer(packed, np.uint8), count=n_bits)
        if n_bits
        else np.empty(0, np.uint8)
    )

    coeffs = _absorb(bits, keep, budget, block)
    recon = _narrow(_reconstruct(coeffs, exps), width)
    if raw_vals is not None and raw_mask.any():
        recon[raw_mask] = raw_vals  # stored at full width, replay exactly
    return recon.reshape(-1)[:n]
