"""Prediction-based error-bounded codec over a block of columns.

A block is n_cols columns of n_rows values (the matrix layout: one column
of every value), quantized, coded and stored as one stream.  Each column
snaps its values x to grid indices s = floor((x - o)/step + 1/2) of spacing
step = 2*eb from its first finite value o, rebuilds them as o + step*s and
codes the jump between consecutive indices (cuSZ's dual quantization).  A
column's first value, jumps of JUMP_LIMIT (2^30) grid steps or more, and
values whose rebuilt form breaks the bound after rounding are literals,
stored exactly, so the error contract holds by construction.  Each value
becomes a code (0 a literal, 2q+1 a jump q >= 0, -2q a jump q < 0), so
every code fits four byte planes.  All coded columns share one code
section.  Codes of 256 and up take the fewest little-endian byte planes
that hold the largest, one zlib frame per plane, at the level that plane
pays for; smaller codes take one frame: codes below 16 packed 8, 4 or 2 to
a byte (1, 2 or 4 bits each) or, at 4 bits, kept one to a byte, and codes
16-255 one to a byte, whichever candidate frame is shortest.  A column
whose literals cost at least its raw values, as any column under a zero
bound, is stored raw, and so is a block whose coding does not pay: a
stream never exceeds the raw values plus its 9-byte header.

Pointwise-relative mode runs the same machinery on log-magnitudes with step
2*log1p(pw), so a value rebuilds within a factor (1+pw) of itself.  Signs
travel as one bitmask.  In a block with zeros (magnitudes below the dtype's
smallest normal) a zero takes the code 1 and every jump code moves up by
one to make room.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

import numpy as np

from ..errors import CodecError
from ..tabular import WIDTH_DTYPES, round_to_width
from . import lossless
from .lossless import section

LITERAL = 0  # a literal's code; a jump q codes as 2q+1 (q >= 0) or -2q (q < 0)
ZERO = 1  # under _FLAG_ZEROS: an exact zero; every jump code is one higher
JUMP_LIMIT = 1 << 30  # jumps this long or longer are literals

_FLAG_VERBATIM = 1  # the whole block, raw
_FLAG_SIGNS = 2
_FLAG_DEFLATED = 4
_FLAG_ZEROS = 8  # pw_rel, with _FLAG_SIGNS: the block codes zeros as ZERO
# bits 4-5, with _FLAG_DEFLATED: 0 for byte planes, p for codes packed 8 >> p bits each
_PACK_SHIFT = 4
_PACK_FLAGS = 3 << _PACK_SHIFT
# bits 6-7, with _FLAG_DEFLATED and pack 0: the number of byte planes less one
_PLANES_SHIFT = 6
_PLANES_FLAGS = 3 << _PLANES_SHIFT

# zlib levels of the code section (docs/container_format.md's table): byte
# plane 0 and the planes above it, for codes of 256 and up; for packed codes
# below 16, the first deflate, and a second one tried only when the first
# is shorter than _PROBE_SLACK times the shortest Huffman-only frame
_LOW_PLANE_LEVEL = 5
_HIGH_PLANE_LEVEL = 4
_PROBE_LEVEL = 1
_PACKED_LEVEL = 6
_PROBE_SLACK = 1.15

_HEAD = struct.Struct("<BII")  # flags, n_rows, n_cols
_COLUMN = np.dtype([("step", "<f8"), ("n_lit", "<u4")])  # per column; step 0: verbatim
_U32 = 0xFFFFFFFF


def _firsts(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The first finite value of each range values[start:end], 0 if none."""
    finite = np.flatnonzero(np.isfinite(values))
    lo, hi = np.searchsorted(finite, starts), np.searchsorted(finite, ends)
    firsts = np.zeros(starts.shape)
    firsts[lo < hi] = values[finite[lo[lo < hi]]]
    return firsts


def quantize(
    target: np.ndarray, verify: Callable[[np.ndarray], np.ndarray], step, lengths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize streams laid end to end, each on its own grid, in one array pass.

    target: f64 values (data, or log-magnitudes) of streams `lengths` long;
    step: the grid spacing, one or one per stream; verify(recon): the error
    contract of each candidate reconstruction.  Returns (codes, recon,
    literal positions).  Target k snaps to s_k = floor((t_k - o)/step + 1/2),
    o its stream's first finite target (0 if none), rebuilds as o + step·s_k
    and codes the jump q = s_k - s_(k-1) as ((q << 1) ^ (q >> 63)) + 1 in
    int64, that is 2q+1 (q >= 0) or -2q (q < 0).  It is a literal (code 0),
    kept exact, when it opens its stream, when s_k or s_(k-1) is non-finite
    or beyond 2^52 (where f64 indices stop being exact), when the jump
    reaches JUMP_LIMIT, or when verify rejects o + step·s_k.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    origin = np.repeat(_firsts(target, starts, ends), lengths)
    step = np.repeat(np.full(ends.shape, step), lengths)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.floor((target - origin) / step + 0.5)
        recon = origin + step * s
        on_grid = np.abs(s) <= 2.0**52
        q = np.empty_like(s)
        np.subtract(s[1:], s[:-1], out=q[1:])
        q[starts[starts < ends]] = np.nan  # no stream jumps from the one before
        coded = on_grid & (np.abs(q) < JUMP_LIMIT) & verify(recon)
    coded[1:] &= on_grid[:-1]
    lits = np.flatnonzero(~coded)
    q[lits] = 0.0
    q = q.astype(np.int64)
    codes = ((q << 1) ^ (q >> 63)) + 1
    codes[lits] = LITERAL
    recon[lits] = target[lits]
    return codes, recon, lits


def dequantize(codes: np.ndarray, lit_targets: np.ndarray, step, lengths) -> np.ndarray:
    """Rebuild reconstructed targets from codes and literal targets, with
    streams and steps as in quantize: each literal's grid index plus the
    running jump sum (int64) after it; every stream opens with a literal.
    A code c reads as the jump ((c >> 1) ^ ((c & 1) - 1)) + (1 - (c & 1)):
    c>>1 for an odd c, -(c>>1) for an even one and 0 for a literal."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    lit_pos = np.flatnonzero(codes == LITERAL)
    if lit_pos.size != lit_targets.size:
        raise CodecError("literal count does not match code stream")
    if (codes[starts[starts < ends]] != LITERAL).any():
        raise CodecError("a column does not open with a literal")
    step = np.full(ends.shape, step)
    origin = _firsts(lit_targets, np.searchsorted(lit_pos, starts), np.searchsorted(lit_pos, ends))
    stream = np.searchsorted(ends, lit_pos, side="right")
    s_lit = np.floor((lit_targets - origin[stream]) / step[stream] + 0.5)
    # an index off the grid anchors no code: the encoder puts a literal next
    s_lit = np.where(np.abs(s_lit) <= 2.0**52, s_lit, 0.0).astype(np.int64)
    # segmented cumsum: each literal slot holds the step from the previous
    # segment's last grid index to its own, so the running total is s_k
    m = (codes & 1) - 1  # ((c >> 1) ^ m) - m is the form above
    q = ((codes >> 1) ^ m) - m
    seg_ends = s_lit + np.add.reduceat(q, lit_pos)
    q[lit_pos] = s_lit
    q[lit_pos[1:]] -= seg_ends[:-1]
    recon = np.repeat(origin, lengths) + np.repeat(step, lengths) * np.cumsum(q).astype(float)
    recon[lit_pos] = lit_targets
    return recon


def _raw(x: np.ndarray, width: int) -> bytes:
    """Values as stored on the wire: the dataset dtype, little-endian."""
    return np.ascontiguousarray(x).astype(WIDTH_DTYPES[width], copy=False).tobytes()


def _columns(x: np.ndarray) -> np.ndarray:
    """A block as (n_cols, n_rows) f64, one column per row; 1-D x is one column."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x).T), dtype=np.float64)


def _signed_exp(recon_t: np.ndarray, nz: np.ndarray, neg: np.ndarray, width: int) -> np.ndarray:
    """pw_rel values, as encoder and decoder both build them: exp of the
    log-magnitudes at positions nz, signed zeros elsewhere, cast like the data."""
    recon = np.where(neg, -0.0, 0.0)
    with np.errstate(over="ignore"):
        mag = np.exp(recon_t)
    recon[nz] = np.where(neg[nz], -mag, mag)
    return round_to_width(recon, width)


def _planes(codes: np.ndarray, top: int) -> bytes:
    """Codes split into as few little-endian byte planes as the largest, top, needs."""
    n_planes = max(1, (top.bit_length() + 7) // 8)
    return codes.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :n_planes].T.tobytes()


def _shifts(bits: int) -> np.ndarray:
    """Where each of a byte's 8 // bits packed codes sits, the first highest."""
    return np.arange(8 - bits, -1, -bits, dtype=np.uint8)


def _pack(codes: np.ndarray, bits: int) -> bytes:
    """Codes below 2^bits (bits 1, 2 or 4), 8 // bits to a byte, the first in
    the high bits; the last byte is zero-padded."""
    per = 8 // bits
    padded = np.zeros(-(-codes.size // per) * per, np.uint8)
    padded[: codes.size] = codes
    slots = padded.reshape(-1, per)
    out = slots[:, 0] << (8 - bits)
    for k, shift in enumerate(_shifts(bits)[1:], 1):
        out |= slots[:, k] << shift
    return out.tobytes()


def _unpack(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of _pack: count int64 codes; CodecError on a length other than
    ceil(count * bits / 8) or a set pad bit."""
    if len(data) != -(-count * bits // 8):
        raise CodecError(f"packed codes hold {len(data)} bytes, not {count} codes of {bits} bits")
    packed = np.frombuffer(data, np.uint8)
    slots = np.empty((packed.size, 8 // bits), np.uint8)
    for k, shift in enumerate(_shifts(bits)):
        np.right_shift(packed, shift, out=slots[:, k])
    codes = (slots & (1 << bits) - 1).ravel()
    if codes[count:].any():
        raise CodecError("a pad bit after the last packed code is set")
    return codes[:count].astype(np.int64)


def _code(codes: np.ndarray, lit_bits: np.ndarray, raw_bits: int):
    """Deflate the codes of the columns of codes (one per row) whose literal
    (and sign) bits stay below raw_bits.  The codes are not costed per
    column: deflate codes the columns together, and _write's check on the
    whole stream bounds them.  Codes of 256 and up take one frame per byte
    plane, byte 0 at _LOW_PLANE_LEVEL and the rest at _HIGH_PLANE_LEVEL:
    each plane gets its own Huffman tables, and the upper planes, mostly
    runs, gain little from long match searches.  Smaller codes keep the
    shortest of a few one-frame candidates, the first on a tie.  Codes below
    16 pack at the narrowest of 1, 2 or 4 bits; the packed bytes are
    deflated at _PROBE_LEVEL and Huffman-only, 4-bit codes also try one byte
    plane Huffman-only, and the packed bytes are deflated again at
    _PACKED_LEVEL only when the probe came within _PROBE_SLACK of the
    shortest Huffman-only frame.  Codes 16-255 take one byte plane, deflated
    and Huffman-only.  Returns (flags, section bytes, mask of the coded
    columns).
    """
    keep = lit_bits < raw_bits
    if not keep.any():
        return 0, b"", keep
    coded = codes[keep].ravel()
    top = int(coded.max())
    if top >= 256:
        planes, n = memoryview(_planes(coded, top)), coded.size
        levels = [_LOW_PLANE_LEVEL] + [_HIGH_PLANE_LEVEL] * (len(planes) // n - 1)
        section = b"".join(
            lossless.lossless_encode(planes[k * n : (k + 1) * n], level=level)
            for k, level in enumerate(levels)
        )
        return _FLAG_DEFLATED | (len(levels) - 1) << _PLANES_SHIFT, section, keep
    if top < 16:  # (frame, pack field) candidates, in order of preference
        pack = 3 if top < 2 else 2 if top < 4 else 1
        packed = _pack(coded, 8 >> pack)
        frames = [(lossless.lossless_encode(packed, level=_PROBE_LEVEL), pack)]
        huffman = [(lossless.lossless_encode(packed, zlib.Z_HUFFMAN_ONLY), pack)]
        if pack == 1:
            huffman.append((lossless.lossless_encode(_planes(coded, top), zlib.Z_HUFFMAN_ONLY), 0))
        if len(frames[0][0]) < _PROBE_SLACK * min(len(f) for f, _ in huffman):
            frames.append((lossless.lossless_encode(packed, level=_PACKED_LEVEL), pack))
        frames += huffman
    else:
        planes = _planes(coded, top)
        frames = [(lossless.lossless_encode(planes), 0),
                  (lossless.lossless_encode(planes, zlib.Z_HUFFMAN_ONLY), 0)]
    frame, pack = min(frames, key=lambda f: len(f[0]))
    return _FLAG_DEFLATED | pack << _PACK_SHIFT, frame, keep


def _write(cols, step, codes, recon, width: int, neg=None, flags=0) -> tuple[bytes, np.ndarray]:
    """A block's stream (header, column table, literals, [signs], codes) and
    its decoded values, from the block cols (n_cols, n_rows) and each
    column's step, codes, reconstructions and (pw_rel) signs and flags."""
    n_cols, n = cols.shape
    if max(n, n_cols) > _U32:
        raise CodecError(f"a {n}x{n_cols} block does not fit 32-bit fields")
    codes = codes.reshape(cols.shape)
    is_lit = codes == LITERAL
    n_lit = is_lit.sum(axis=1)
    lit_bits = 8 * width * n_lit + (0 if neg is None else n)
    flag, section, coded = _code(codes, lit_bits, 8 * width * n)
    table = np.zeros(n_cols, _COLUMN)
    table["step"] = np.where(coded, step, 0.0)
    table["n_lit"] = np.where(coded, n_lit, n)
    signs = b"" if neg is None else np.packbits(neg.reshape(cols.shape)[coded]).tobytes()
    head = _HEAD.pack(flag | flags, n, n_cols)
    literals = _raw(cols[is_lit | ~coded[:, None]], width)
    stream = b"".join((head, table.tobytes(), literals, signs, section))
    if len(stream) > _HEAD.size + cols.size * width:
        return encode_verbatim(cols.T, width), cols.ravel()
    return stream, np.where(coded[:, None], recon.reshape(cols.shape), cols).ravel()


def encode_abs(x: np.ndarray, eb, width: int) -> tuple[bytes, np.ndarray]:
    """Encode a block (1-D x: one column) under an absolute bound, one or one
    per column; returns (bytes, the decoded values column after column)."""
    cols = _columns(x)
    eb = np.full(cols.shape[:1], eb, dtype=np.float64)
    bound = eb[:, None]

    # the decoder's final cast to the dataset dtype is part of the contract
    def verify(r: np.ndarray) -> np.ndarray:
        return (np.abs(cols - round_to_width(r, width).reshape(cols.shape)) <= bound).ravel()

    codes, recon, _ = quantize(cols.ravel(), verify, 2.0 * eb, np.full(eb.size, cols.shape[1]))
    return _write(cols, 2.0 * eb, codes, round_to_width(recon, width), width)


def encode_pwrel(x: np.ndarray, pw: float, width: int) -> tuple[bytes, np.ndarray]:
    """Encode a block (1-D x: one column) under a pointwise-relative bound."""
    cols = _columns(x)
    xf = cols.ravel()
    neg = np.signbit(xf)
    # below the smallest normal is a zero; NaN is not
    nonzero = ~(np.abs(cols) < np.finfo(WIDTH_DTYPES[width]).tiny)
    nz = np.flatnonzero(nonzero)
    xnz, negnz = xf[nz], neg[nz]
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.log(np.abs(xnz))
    step = 2.0 * float(np.log1p(pw))

    def verify(r: np.ndarray) -> np.ndarray:
        mag = np.exp(r)
        val = round_to_width(np.where(negnz, -mag, mag), width)
        return np.abs(xnz - val) <= pw * np.abs(xnz)

    codes_nz, recon_t, lits = quantize(target, verify, step, nonzero.sum(axis=1))
    shift = int(nz.size < xf.size)  # make room for ZERO only where it is used
    codes = np.full(xf.size, ZERO, dtype=np.int64)
    codes[nz] = codes_nz + shift * (codes_nz != LITERAL)
    recon = _signed_exp(recon_t, nz, neg, width)
    lit_rows = nz[lits]
    recon[lit_rows] = xf[lit_rows]  # literals are exact even under f32 rounding
    return _write(cols, step, codes, recon, width, neg, _FLAG_SIGNS | _FLAG_ZEROS * shift)


def encode_verbatim(x: np.ndarray, width: int) -> bytes:
    """Store a block (1-D x: one column) raw, column after column."""
    cols = _columns(x)
    return _HEAD.pack(_FLAG_VERBATIM, cols.shape[1], cols.shape[0]) + _raw(cols, width)


def _read_planes(buf: bytes, off: int, count: int, n_planes: int) -> list[bytes]:
    """The n_planes byte planes of count codes, one lossless frame each from
    off, the last ending buf; CodecError unless each holds count bytes."""
    planes = []
    for _ in range(n_planes):
        plane, off = lossless.read_frame(buf, off, count)
        planes.append(plane)
    if off != len(buf):
        raise CodecError(f"{len(buf) - off} bytes after the {n_planes} code planes")
    return planes


def decode(buf: bytes, width: int, n_values: int) -> np.ndarray:
    """The `n_values` values of a block stream, column after column.  A header
    of another shape, a section out of bounds, or bytes after the last
    section raise CodecError."""
    head, off = section(buf, 0, _HEAD.size, "header")
    flags, n, n_cols = _HEAD.unpack(head)
    if n * n_cols != n_values:
        raise CodecError(f"predictive stream declares {n}x{n_cols} values, not {n_values}")
    known = (_FLAG_SIGNS | _FLAG_DEFLATED | (_FLAG_ZEROS if flags & _FLAG_SIGNS else 0)
             | (_PACK_FLAGS if flags & _FLAG_DEFLATED else 0))
    if flags & _FLAG_DEFLATED and not flags & _PACK_FLAGS:
        known |= _PLANES_FLAGS
    if flags == _FLAG_VERBATIM:
        count = 0
        vals, off = section(buf, off, n * n_cols * width, "values", last=True)
    elif flags & ~known:
        raise CodecError(f"unknown predictive stream flags {flags:#x}")
    else:
        head, off = section(buf, off, _COLUMN.itemsize * n_cols, "column table")
        table = np.frombuffer(head, _COLUMN)
        step, n_lit = table["step"], table["n_lit"].astype(np.int64)
        coded = step != 0
        bad = ~np.isfinite(step) | (step < 0) | (n_lit > n) | (~coded & (n_lit != n))
        if bad.any():
            raise CodecError(f"column {np.argmax(bad)}'s step or literal count is out of range")
        count = int(coded.sum()) * n  # coded values; with none, the literals end the stream
        vals, off = section(buf, off, int(n_lit.sum()) * width, "literals", last=count == 0)
    with np.errstate(invalid="ignore"):  # a signalling NaN is a value like any other
        vals = np.frombuffer(vals, WIDTH_DTYPES[width]).astype(np.float64)
    if bool(flags & _FLAG_DEFLATED) != (count > 0):
        raise CodecError("flag 4 (deflated codes) is set unless the block codes no column")
    if count == 0:
        return vals
    neg = None
    if flags & _FLAG_SIGNS:
        mask, off = section(buf, off, (count + 7) // 8, "sign mask")
        neg = np.unpackbits(np.frombuffer(mask, np.uint8), count=count).astype(bool)
    pack = (flags & _PACK_FLAGS) >> _PACK_SHIFT
    if pack:
        codes = _unpack(lossless.lossless_decode(buf[off:]), 8 >> pack, count)
    else:
        codes = 0  # int64 codes from their byte planes, the most significant first
        n_planes = 1 + ((flags & _PLANES_FLAGS) >> _PLANES_SHIFT)
        for plane in _read_planes(buf, off, count, n_planes)[::-1]:
            codes = codes << 8 | np.frombuffer(plane, np.uint8).astype(np.int64)
    # the longest jump codes as 2*JUMP_LIMIT - 1, one higher with zeros
    shift = 1 if flags & _FLAG_ZEROS else 0
    top = 2 * JUMP_LIMIT - 1 + shift
    if codes.max() > top:
        raise CodecError(f"code {codes.max()} is beyond the largest the encoder writes, {top}")
    is_lit = codes == LITERAL
    if (is_lit.reshape(-1, n).sum(axis=1) != n_lit[coded]).any():
        raise CodecError("literal codes do not match the column table")
    verbatim = np.repeat(~coded, n_lit)
    lit_vals = vals[~verbatim]

    # a damaged step or code run can overflow; the check below raises then
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if neg is None:
            lengths = np.full(count // n, n)
            recon = round_to_width(dequantize(codes, lit_vals, step[coded], lengths), width)
        else:
            nonzero = codes != ZERO if shift else np.ones(count, bool)
            lengths = nonzero.reshape(-1, n).sum(axis=1)
            nz = np.flatnonzero(nonzero)
            jumps = codes[nz] - shift * (codes[nz] != LITERAL)
            recon_t = dequantize(jumps, np.log(np.abs(lit_vals)), step[coded], lengths)
            recon = _signed_exp(recon_t, nz, neg, width)
            recon[is_lit] = lit_vals
    # the encoder codes a value only when its reconstruction meets the
    # bound, so only a literal may be non-finite
    if not (np.isfinite(recon) | is_lit).all():
        raise CodecError("a coded value decodes to a non-finite number")
    out = np.empty((n_cols, n))
    out[~coded] = vals[verbatim].reshape(-1, n)
    out[coded] = recon.reshape(-1, n)
    return out.ravel()
