"""Prediction-based error-bounded column codec.

Each value x snaps to grid index s = floor((x - o)/step + 1/2) on one grid
of spacing step = 2*eb from the stream's first finite value o, and rebuilds
as o + step*s, within eb of x.  The code is the jump between consecutive
indices, a previous-value predictor's residual on integers (cuSZ's dual
quantization), so all codes come from one array pass.  Jumps reaching
quant_bin_cap, and values whose reconstruction would break the bound after
floating-point rounding, are stored verbatim as literals, so the error
contract is exact by construction, never just approximate.

The code stream (literal marker, quantizer codes, zero marker) is entropy
coded per stream: a canonical Huffman table when it uses at most
huffman.MAX_SYMBOLS distinct symbols, otherwise zigzag codes laid out as
four byte planes in a lossless (zlib) frame.

Pointwise-relative mode runs the same machinery on log-magnitudes with step
2*log1p(pw): a reconstruction within log1p(pw) of log|x| lands within a
factor (1+pw) of x.  Signs travel as a separate bitmask and exact zeros (or
magnitudes below the zero floor) get a dedicated symbol.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from ..errors import CodecError
from . import huffman, lossless

LIT_SYM = 0  # quantizer codes map to [1, 2*cap-1]; 2*cap marks a zero

_FLAG_VERBATIM = 1
_FLAG_SIGNS = 2
_FLAG_DEFLATED = 4

_HEAD = struct.Struct("<BQ")          # flags, n_values
VERBATIM_HEAD = _HEAD.size            # a verbatim stream is this plus the raw values
_QHEAD = struct.Struct("<dII")        # step, cap, n_literals
_BITS = struct.Struct("<Q")           # n_bits

_F32 = np.dtype("<f4")
_F64 = np.dtype("<f8")


def _origin(targets: np.ndarray) -> float:
    """Where the grid starts: the first finite target (0 if none).  It is a
    literal, as are position 0 and every successor of a non-finite target,
    so the decoder finds it as the first finite literal target."""
    finite = np.flatnonzero(np.isfinite(targets))
    return float(targets[finite[0]]) if finite.size else 0.0


def quantize(
    target: np.ndarray,
    verify: Callable[[np.ndarray], np.ndarray],
    step: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize a stream on one grid of spacing step, in one array pass.

    target: f64 values to quantize (data values, or log-magnitudes).
    verify(recon) -> bool mask checking the error contract for every
    candidate reconstruction in the original value domain.

    Returns (symbols, reconstructed targets, literal positions).  Target k
    snaps to grid index s_k = floor((t_k - o)/step + 1/2), o = _origin(target),
    reconstructs as o + step·s_k and codes the jump s_k - s_(k-1).  It is a
    literal when k == 0, when s_k or s_(k-1) is non-finite or beyond 2^52
    (indices stay exact in f64), when the jump reaches cap, or when verify
    rejects o + step·s_k.  A literal keeps its exact value; the decoder
    recomputes its grid index with the same expression.
    """
    origin = _origin(target)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.floor((target - origin) / step + 0.5)
        recon = origin + step * s
        on_grid = np.abs(s) <= 2.0**52
        q = np.diff(s, prepend=np.nan)  # position 0 has no index to jump from
        coded = on_grid & (np.abs(q) < cap) & verify(recon)
    coded[1:] &= on_grid[:-1]
    lits = np.flatnonzero(~coded)
    syms = np.where(coded, q, 0.0).astype(np.int64) + cap
    syms[lits] = LIT_SYM
    recon[lits] = target[lits]
    return syms, recon, lits


def dequantize(
    syms: np.ndarray, lit_targets: np.ndarray, step: float, cap: int
) -> np.ndarray:
    """Rebuild reconstructed targets from symbols and literal targets.

    Each literal's grid index plus the running code sum of its segment
    gives the grid index of every coded value after it, all in int64.
    """
    n = syms.size
    lit_pos = np.flatnonzero(syms == LIT_SYM)
    if lit_pos.size != lit_targets.size or (lit_pos.size == 0 and n > 0):
        raise CodecError("literal count does not match symbol stream")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if lit_pos[0] != 0:
        raise CodecError("symbol stream must open with a literal")
    origin = _origin(lit_targets)
    s_lit = np.floor((lit_targets - origin) / step + 0.5)
    # an index off the grid anchors no code: the encoder puts a literal next
    s_lit = np.where(np.abs(s_lit) <= 2.0**52, s_lit, 0.0).astype(np.int64)
    # segmented cumsum: each literal slot holds the step from the previous
    # segment's last grid index to its own, so the running total is s_k
    q = syms - cap
    q[lit_pos] = 0
    seg_ends = s_lit + np.add.reduceat(q, lit_pos)
    q[lit_pos] = s_lit
    q[lit_pos[1:]] -= seg_ends[:-1]
    recon = origin + step * np.cumsum(q).astype(np.float64)
    recon[lit_pos] = lit_targets
    return recon


def _cast_like(r: np.ndarray, width: int) -> np.ndarray:
    # the decoder's final cast to the dataset dtype is part of the contract
    return r.astype(_F32).astype(np.float64) if width == 4 else r


def _raw(x: np.ndarray, width: int) -> bytes:
    """Values as stored on the wire: the dataset dtype, little-endian."""
    return np.ascontiguousarray(x).astype(_F32 if width == 4 else _F64).tobytes()


def _signed_exp(recon_t: np.ndarray, nz: np.ndarray, neg: np.ndarray, width: int) -> np.ndarray:
    """pw_rel values: exp of the log-magnitudes at positions nz, signed zeros
    elsewhere, signs from neg, cast like the dataset; encoder and decoder
    both build their reconstruction here."""
    recon = np.where(neg, -0.0, 0.0)
    with np.errstate(over="ignore"):
        mag = np.exp(recon_t)
    recon[nz] = np.where(neg[nz], -mag, mag)
    return _cast_like(recon, width)


def _pack_symbols(syms: np.ndarray, cap: int) -> tuple[int, bytes]:
    """Entropy-code a symbol stream; returns (header flags, tail bytes).

    Narrow alphabets get a canonical Huffman table.  A wide one would pay
    about five table bytes per distinct symbol, so its codes are zigzagged
    around cap (small jumps become small numbers) and their four bytes are
    split into planes, which zlib deflates about a fifth smaller than the
    interleaved words on rough tables.
    """
    if 2 * cap > 0xFFFFFFFF:
        raise CodecError(f"quantizer cap {cap} does not fit 32-bit symbols")
    uniq, counts = np.unique(syms, return_counts=True)
    if uniq.size > huffman.MAX_SYMBOLS:
        q = syms - cap
        zigzag = np.where(q < 0, -2 * q - 1, 2 * q).astype("<u4")
        planes = zigzag.view(np.uint8).reshape(-1, 4).T
        return _FLAG_DEFLATED, lossless.lossless_encode(planes.tobytes())
    table = huffman.HuffmanTable.from_symbols(syms, histogram=(uniq, counts))
    packed, n_bits = huffman.encode(syms, table)
    return 0, b"".join((table.to_bytes(), _BITS.pack(n_bits), packed))


def _unpack_deflated(buf: bytes, n: int, cap: int) -> np.ndarray:
    """Symbols of a deflated code section; inverse of _pack_symbols' wide form."""
    planes = lossless.lossless_decode(buf)
    if len(planes) != 4 * n:
        raise CodecError(f"deflated codes hold {len(planes)} bytes, {n} symbols need {4 * n}")
    words = np.frombuffer(planes, np.uint8).reshape(4, n).T.copy().view("<u4")
    zigzag = words.ravel().astype(np.int64)
    return cap + np.where(zigzag & 1, -(zigzag + 1) // 2, zigzag // 2)


def encode_abs(
    x: np.ndarray, eb: float, cap: int, width: int
) -> tuple[bytes, np.ndarray]:
    """Encode one stream under an absolute bound; returns (bytes, recon)."""
    if eb <= 0:
        raise CodecError(f"absolute bound must be positive, got {eb}")
    x64 = np.asarray(x, dtype=np.float64)
    step = 2.0 * eb

    def verify(r: np.ndarray) -> np.ndarray:
        return np.abs(x64 - _cast_like(r, width)) <= eb

    syms, recon, lits = quantize(x64, verify, step, cap)
    flags, tail = _pack_symbols(syms, cap)
    out = b"".join(
        (
            _HEAD.pack(flags, x64.size),
            _QHEAD.pack(step, cap, len(lits)),
            _raw(x[lits], width),
            tail,
        )
    )
    return out, _cast_like(recon, width)


def encode_pwrel(
    x: np.ndarray, pw: float, cap: int, width: int, zero_floor: float | None
) -> tuple[bytes, np.ndarray]:
    """Encode one stream under a pointwise-relative bound."""
    if not 0 < pw < 1:
        raise CodecError(f"pointwise-relative bound must be in (0, 1), got {pw}")
    x64 = np.asarray(x, dtype=np.float64)
    n = x64.size
    if zero_floor is None:
        zero_floor = float(np.finfo(_F32 if width == 4 else _F64).tiny)
    neg = np.signbit(x64)
    nz = np.flatnonzero(~(np.abs(x64) < zero_floor))  # NaN is not a zero
    xnz = x64[nz]
    negnz = neg[nz]
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.log(np.abs(xnz))
    step = 2.0 * float(np.log1p(pw))

    def verify(r: np.ndarray) -> np.ndarray:
        mag = np.exp(r)
        val = _cast_like(np.where(negnz, -mag, mag), width)
        return np.abs(xnz - val) <= pw * np.abs(xnz)

    syms_nz, recon_t, lits = quantize(target, verify, step, cap)
    syms = np.full(n, 2 * cap, dtype=np.int64)
    syms[nz] = syms_nz

    recon = _signed_exp(recon_t, nz, neg, width)
    lit_rows = nz[lits]
    recon[lit_rows] = x64[lit_rows]  # literals are exact even under f32 rounding

    sign_bytes = np.packbits(neg).tobytes()
    flags, tail = _pack_symbols(syms, cap)
    out = b"".join(
        (
            _HEAD.pack(_FLAG_SIGNS | flags, n),
            _QHEAD.pack(step, cap, len(lits)),
            _raw(x[lit_rows], width),
            sign_bytes,
            tail,
        )
    )
    return out, recon


def encode_verbatim(x: np.ndarray, width: int) -> bytes:
    """Store a stream untouched: zero-range columns under REL/PSNR, and
    streams whose coded form would be larger."""
    return _HEAD.pack(_FLAG_VERBATIM, x.size) + _raw(x, width)


def _section(buf: bytes, off: int, size: int, what: str) -> tuple[bytes, int]:
    """The `size` bytes of buf at `off`, and the offset after them."""
    end = off + size
    if end > len(buf):
        raise CodecError(f"predictive stream truncated in its {what}")
    return buf[off:end], end


def decode(buf: bytes, width: int) -> np.ndarray:
    """Decode one stream produced by any of the encoders above.

    Every section is bounds-checked and the stream must end exactly where
    its last section does; anything else raises CodecError.
    """
    head, off = _section(buf, 0, _HEAD.size, "header")
    flags, n = _HEAD.unpack(head)
    if flags & ~(_FLAG_VERBATIM | _FLAG_SIGNS | _FLAG_DEFLATED):
        raise CodecError(f"unknown predictive stream flags {flags:#x}")
    fdt = _F32 if width == 4 else _F64
    if flags & _FLAG_VERBATIM:
        vals, off = _section(buf, off, n * width, "values")
        if off != len(buf):
            raise CodecError(f"{len(buf) - off} bytes after the predictive stream")
        return np.frombuffer(vals, fdt).astype(np.float64)
    head, off = _section(buf, off, _QHEAD.size, "quantizer header")
    step, cap, n_lit = _QHEAD.unpack(head)
    lits, off = _section(buf, off, n_lit * width, "literals")
    lit_vals = np.frombuffer(lits, fdt).astype(np.float64)
    neg = None
    if flags & _FLAG_SIGNS:
        mask, off = _section(buf, off, (n + 7) // 8, "sign mask")
        neg = np.unpackbits(np.frombuffer(mask, np.uint8), count=n).astype(bool)
    if flags & _FLAG_DEFLATED:
        syms = _unpack_deflated(buf[off:], n, cap)
    else:
        table, off = huffman.HuffmanTable.from_bytes(buf, off)
        head, off = _section(buf, off, _BITS.size, "code header")
        (n_bits,) = _BITS.unpack(head)
        syms = huffman.decode(buf[off:], n_bits, n, table)

    # a damaged step or code run can overflow here; the check below turns
    # that into a CodecError instead of a NumPy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if neg is None:
            # dequantize puts the literals in place, and the cast keeps them
            recon = _cast_like(dequantize(syms, lit_vals, step, cap), width)
        else:
            # pointwise-relative: zeros, then the log-domain grid over the rest
            nzpos = np.flatnonzero(syms != 2 * cap)
            recon_t = dequantize(syms[nzpos], np.log(np.abs(lit_vals)), step, cap)
            recon = _signed_exp(recon_t, nzpos, neg, width)
            recon[syms == LIT_SYM] = lit_vals
    # the encoder codes a value only when its reconstruction meets the
    # bound, so only a literal may be non-finite
    bad = ~np.isfinite(recon)
    if bad.any() and (syms[bad] != LIT_SYM).any():
        raise CodecError("a coded value decodes to a non-finite number")
    return recon
