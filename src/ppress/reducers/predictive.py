"""Prediction-based error-bounded column codec.

Each value is predicted by the previous reconstructed value; the prediction
residual is quantized to an integer code with step 2*eb, so reconstruction
stays within eb of the input.  Codes whose magnitude reaches quant_bin_cap,
and values whose reconstruction would violate the bound after floating-point
rounding, are stored verbatim as literals.  The error contract is therefore
exact by construction, never just approximate.

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

# values coded per quantizer pass; bounds the work a mispredicted literal wastes
_MIN_WINDOW = 16
_MAX_WINDOW = 1 << 16

_F32 = np.dtype("<f4")
_F64 = np.dtype("<f8")


def quantize(
    target: np.ndarray,
    verify: Callable[[int, int, np.ndarray], np.ndarray],
    step: float,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize a stream against its own reconstruction.

    target: f64 values to quantize (data values, or log-magnitudes).
    verify(i, j, recon) -> bool mask checking the error contract for the
    candidate reconstruction of target[i:j] in the original value domain.

    Returns (symbols, reconstructed targets, literal positions).  The
    reconstruction is computed exactly as the decoder will compute it, so
    the two are bit-identical by construction.

    Position k is a literal when k == 0, when the value before it is a
    literal and k is far from it (the first code after a fresh literal
    would already overflow the alphabet), or when coding it against the
    latest literal fails: a non-finite or overflowing code, or a
    reconstruction that breaks the contract.  A literal becomes the anchor
    the codes after it chain from.  Rather than step through that rule one
    value at a time, each pass guesses the literals (the far values, the
    non-finite ones and their successors), codes a whole window against
    the anchors that guess implies, and keeps everything up to the first
    position where the rule disagrees with the guess.  That position is
    decided by the rule too, so each pass keeps at least one value.
    """
    n = target.size
    syms = np.empty(n, dtype=np.int64)
    recon = np.empty(n, dtype=np.float64)
    if n == 0:
        return syms, recon, np.empty(0, dtype=np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        far = np.zeros(n, dtype=bool)
        far[1:] = np.abs(np.diff(target)) >= step * cap
    nonfinite = ~np.isfinite(target)
    guess = far | nonfinite
    guess[1:] |= nonfinite[:-1]  # a non-finite anchor cannot code its successor
    guess[0] = True
    # under the guess: the latest literal before each position, and whether
    # the run rule alone makes a position a literal
    prior = np.zeros(n, dtype=np.int64)
    prior[1:] = np.maximum.accumulate(np.where(guess, np.arange(n), 0))[:-1]
    forced = far.copy()
    forced[1:] &= guess[:-1]
    syms[0] = LIT_SYM
    recon[0] = target[0]
    # chain state after position i-1: the latest literal, the previous
    # code's running sum, and whether position i-1 was itself a literal
    anchor, prev_s, after_lit = 0, 0.0, True
    i = 1
    width = _MAX_WINDOW
    while i < n:
        j = min(n, i + width)
        base = prior[i:j]
        base = np.where(base >= i, base, anchor)
        a = target[base]
        with np.errstate(invalid="ignore", over="ignore"):
            v = (target[i:j] - a) / step
            s = np.floor(v + 0.5)
            r = a + step * s
            q = s - np.concatenate(([prev_s], np.where(guess[i : j - 1], 0.0, s[:-1])))
            ok = np.isfinite(v)
            ok &= np.abs(s) <= 2.0**52  # keep chain sums exact in f64
            ok &= np.abs(q) < cap
            ok &= verify(i, j, r)
        lit = ~ok
        lit |= forced[i:j]
        lit[0] = not ok[0] or (after_lit and far[i])
        miss = np.flatnonzero(lit != guess[i:j])
        e = j - i if miss.size == 0 else int(miss[0]) + 1
        lit = lit[:e]
        codes = np.where(lit, 0.0, q[:e]).astype(np.int64) + cap
        codes[lit] = LIT_SYM
        syms[i : i + e] = codes
        recon[i : i + e] = np.where(lit, target[i : i + e], r[:e])
        after_lit = bool(lit[-1])
        anchor = i + e - 1 if after_lit else int(base[e - 1])
        prev_s = 0.0 if after_lit else float(s[e - 1])
        i += e
        # a miss ends the pass early: size the next window to what this
        # one kept, so dense misses cost little more than the values kept
        if miss.size:
            width = max(_MIN_WINDOW, 2 * e)
        else:
            width = min(2 * width, _MAX_WINDOW)
    return syms, recon, np.flatnonzero(syms == LIT_SYM)


def dequantize(
    syms: np.ndarray, lit_targets: np.ndarray, step: float, cap: int
) -> np.ndarray:
    """Rebuild reconstructed targets from symbols and literal anchors."""
    n = syms.size
    lit_pos = np.flatnonzero(syms == LIT_SYM)
    if lit_pos.size != lit_targets.size or (lit_pos.size == 0 and n > 0):
        raise CodecError("literal count does not match symbol stream")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if lit_pos[0] != 0:
        raise CodecError("symbol stream must open with a literal")
    # segmented cumsum, all in int64 so every partial total is exact: zero
    # the literal slots, then rebase each literal so the running total
    # restarts from zero there instead of accumulating across segments
    q = syms - cap
    q[lit_pos] = 0
    seg_sums = np.add.reduceat(q, lit_pos)
    q[lit_pos[1:]] = -seg_sums[:-1]
    totals = np.cumsum(q)
    segment = np.cumsum(syms == LIT_SYM) - 1
    recon = lit_targets[segment] + step * totals.astype(np.float64)
    recon[lit_pos] = lit_targets
    return recon


def _cast_like(r: np.ndarray, width: int) -> np.ndarray:
    # the decoder's final cast to the dataset dtype is part of the contract
    return r.astype(_F32).astype(np.float64) if width == 4 else r


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

    def verify(i: int, j: int, r: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.abs(x64[i:j] - _cast_like(r, width)) <= eb

    syms, recon, lits = quantize(x64, verify, step, cap)
    lit_bytes = np.ascontiguousarray(x[lits]).astype(
        _F32 if width == 4 else _F64
    ).tobytes()
    recon[lits] = x64[lits]
    flags, tail = _pack_symbols(syms, cap)
    out = b"".join(
        (
            _HEAD.pack(flags, x64.size),
            _QHEAD.pack(step, cap, len(lits)),
            lit_bytes,
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
    with np.errstate(invalid="ignore"):
        is_zero = np.abs(x64) < zero_floor
        is_zero &= ~np.isnan(x64)
    nz = np.flatnonzero(~is_zero)
    xnz = x64[nz]
    negnz = neg[nz]
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.log(np.abs(xnz))
    step = 2.0 * float(np.log1p(pw))

    def verify(i: int, j: int, r: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            mag = np.exp(r)
            val = _cast_like(np.where(negnz[i:j], -mag, mag), width)
            return np.abs(xnz[i:j] - val) <= pw * np.abs(xnz[i:j])

    syms_nz, recon_t, lits = quantize(target, verify, step, cap)
    syms = np.full(n, 2 * cap, dtype=np.int64)
    syms[nz] = syms_nz

    recon = np.empty(n, dtype=np.float64)
    recon[is_zero] = np.where(neg[is_zero], -0.0, 0.0)
    with np.errstate(over="ignore"):
        mag = np.exp(recon_t)
    recon[nz] = np.where(negnz, -mag, mag)
    lit_rows = nz[lits]
    recon = _cast_like(recon, width)
    recon[lit_rows] = x64[lit_rows]  # literals are exact even under f32 rounding

    lit_bytes = np.ascontiguousarray(x[lit_rows]).astype(
        _F32 if width == 4 else _F64
    ).tobytes()
    sign_bytes = np.packbits(neg).tobytes()
    flags, tail = _pack_symbols(syms, cap)
    out = b"".join(
        (
            _HEAD.pack(_FLAG_SIGNS | flags, n),
            _QHEAD.pack(step, cap, len(lits)),
            lit_bytes,
            sign_bytes,
            tail,
        )
    )
    return out, recon


def encode_verbatim(x: np.ndarray, width: int) -> bytes:
    """Store a stream untouched: zero-range columns under REL/PSNR, and
    streams whose coded form would be larger."""
    body = np.ascontiguousarray(x).astype(_F32 if width == 4 else _F64).tobytes()
    return _HEAD.pack(_FLAG_VERBATIM, x.size) + body


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
            # pointwise-relative: zeros, then the log-domain chain over the rest
            is_zero = syms == 2 * cap
            nzpos = np.flatnonzero(~is_zero)
            recon_t = dequantize(syms[nzpos], np.log(np.abs(lit_vals)), step, cap)
            recon = np.empty(n, dtype=np.float64)
            recon[is_zero] = np.where(neg[is_zero], -0.0, 0.0)
            mag = np.exp(recon_t)
            recon[nzpos] = np.where(neg[nzpos], -mag, mag)
            recon = _cast_like(recon, width)
            recon[syms == LIT_SYM] = lit_vals
    # the encoder codes a value only when its reconstruction meets the
    # bound, so only a literal may be non-finite
    bad = ~np.isfinite(recon)
    if bad.any() and (syms[bad] != LIT_SYM).any():
        raise CodecError("a coded value decodes to a non-finite number")
    return recon
