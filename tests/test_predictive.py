import hashlib
import math
import re
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppress.errors import CodecError
from ppress.reducers import lossless, predictive


def enc_dec_abs(x, eb, width=8):
    buf, recon = predictive.encode_abs(x, eb, width)
    out = predictive.decode(buf, width, np.size(x))
    assert out.tobytes() == recon.tobytes(), "decode must match encoder reconstruction"
    return buf, out


def extract_codes(x, eb, width=8):
    # the codes encode_abs quantizes x to, before any verbatim escape
    (call,) = quantize_calls(predictive.encode_abs, x, eb, width)
    return predictive.quantize(*call)[0]


def test_ramp_codes_and_drift():
    # hand-simulated recurrence: first value verbatim, then each unit step
    # quantizes to a jump of 1 (code 3) with step 1.2; drift stays within
    # the bound
    x = np.array([0.0, 1.0, 2.0, 3.0])
    buf, out = enc_dec_abs(x, 0.6)
    codes = extract_codes(x, 0.6)
    assert codes.tolist() == [predictive.LITERAL, 3, 3, 3]
    assert np.all(np.abs(x - out) <= 0.6)
    assert out[0] == 0.0


def test_constant_column_codes():
    x = np.full(4, 5.0)
    buf, out = enc_dec_abs(x, 0.1)
    codes = extract_codes(x, 0.1)
    assert codes.tolist() == [predictive.LITERAL, 1, 1, 1]  # jumps of 0
    assert np.array_equal(out, x)


def test_constant_column_stream_is_small():
    x = np.full(4096, 5.0)
    buf, _ = enc_dec_abs(x, 1e-3)
    # verbatim would be 32768 bytes; the coded stream must stay well under
    # 1/50th of that to leave room for container overhead
    assert len(buf) < 600


def test_alternating_extremes_fall_back_to_literals():
    x = np.empty(4096)
    x[0::2] = 1e9
    x[1::2] = -1e9
    buf, out = enc_dec_abs(x, 1e-9)
    assert np.all(extract_codes(x, 1e-9) == predictive.LITERAL)
    assert np.array_equal(out, x)  # literals are exact
    assert len(buf) <= 1.05 * x.nbytes


def test_bound_holds_on_rough_data_all_bounds():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2048) * 10
    for eb in [1e-1, 1e-3, 1e-6, 1e-9]:
        _, out = enc_dec_abs(x, eb)
        assert np.max(np.abs(x - out)) <= eb


def test_first_value_stored_verbatim():
    x = np.array([3.14159, 10.0, 20.0])
    _, out = enc_dec_abs(x, 0.5)
    assert out[0] == x[0]


def test_f32_contract_checked_after_narrowing():
    rng = np.random.default_rng(1)
    x = (rng.normal(size=512) * 100).astype(np.float32)
    eb = 1e-3
    buf, recon = predictive.encode_abs(x, eb, 4)
    out = predictive.decode(buf, 4, x.size)
    assert out.tobytes() == recon.tobytes()
    narrowed = out.astype(np.float32)
    assert np.max(np.abs(x.astype(np.float64) - narrowed.astype(np.float64))) <= eb


def test_pwrel_contract_and_zeros():
    rng = np.random.default_rng(2)
    mags = 10.0 ** rng.uniform(-30, 30, size=2000)
    signs = rng.choice([-1.0, 1.0], size=2000)
    x = mags * signs
    x[::17] = 0.0
    for pw in [1e-1, 1e-3, 1e-6]:
        buf, recon = predictive.encode_pwrel(x, pw, 8)
        out = predictive.decode(buf, 8, x.size)
        assert out.tobytes() == recon.tobytes()
        nz = x != 0
        assert np.all(np.abs(x[nz] - out[nz]) <= pw * np.abs(x[nz]))
        assert np.all(out[~nz] == 0.0)
        assert np.array_equal(np.signbit(out[nz]), np.signbit(x[nz]))


def test_pwrel_subnormals_collapse_to_zero():
    # repeated, so that coding pays and the stream is not stored verbatim
    x = np.tile([1.0, 5e-324, -3e-310, 2.0], 64)
    buf, recon = predictive.encode_pwrel(x, 1e-2, 8)
    out = predictive.decode(buf, 8, x.size)
    assert not buf[0] & predictive._FLAG_VERBATIM
    assert np.all(out[1::4] == 0.0) and np.all(out[2::4] == 0.0)
    assert np.signbit(out[2::4]).all()
    assert np.all(np.abs(out[0::4] - 1.0) <= 1e-2) and np.all(np.abs(out[3::4] - 2.0) <= 2e-2)


def test_pwrel_all_zero_column():
    x = np.zeros(64)
    buf, recon = predictive.encode_pwrel(x, 1e-3, 8)
    out = predictive.decode(buf, 8, x.size)
    assert np.array_equal(out, x)


def test_verbatim_stream_round_trip():
    x = np.array([1.5, -2.5, 3.5])
    buf = predictive.encode_verbatim(x, 8)
    out = predictive.decode(buf, 8, x.size)
    assert np.array_equal(out, x)


def test_monotone_error_on_mixed_signal():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 8 * np.pi, 4096)
    x = np.sin(t) * 5 + rng.normal(size=4096) * 0.3
    errs = []
    for eb in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]:
        _, out = enc_dec_abs(x, eb)
        errs.append(np.max(np.abs(x - out)))
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_quantization_error_distribution_matches_uniform_model():
    # on high-entropy data the measured mse approaches eb^2/3
    rng = np.random.default_rng(4)
    x = rng.uniform(size=32768)
    eb = 1e-4
    _, out = enc_dec_abs(x, eb)
    mse = np.mean((x - out) ** 2)
    assert mse == pytest.approx(eb**2 / 3, rel=0.05)


@settings(max_examples=60, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(1, 200),
        elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
    ),
    eb=st.floats(1e-12, 1e3, allow_nan=False),
)
def test_abs_contract_property(x, eb):
    _, out = enc_dec_abs(x, eb)
    assert np.all(np.abs(x - out) <= eb)


@settings(max_examples=40, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(1, 150),
        elements=st.one_of(
            st.floats(1e-8, 1e8),
            st.floats(-1e8, -1e-8),
            st.just(0.0),
        ),
    ),
    pw=st.floats(1e-9, 0.5),
)
def test_pwrel_contract_property(x, pw):
    buf, recon = predictive.encode_pwrel(x, pw, 8)
    out = predictive.decode(buf, 8, x.size)
    assert out.tobytes() == recon.tobytes()
    nz = x != 0
    assert np.all(np.abs(x[nz] - out[nz]) <= pw * np.abs(x[nz]))
    assert np.all(out[~nz] == 0.0)


def reference_quantize(target, verify, step):
    """Per-value quantizer: the grid literal rule, one position at a time.

    The grid starts at the first finite target o (0 if there is none).
    Position k snaps to grid index s_k = floor((t_k - o)/step + 1/2) and
    codes the jump s_k - s_(k-1).  It is a literal when k == 0, when s_k or
    s_(k-1) is non-finite or beyond 2^52, when the jump reaches 2^30, or when
    verify rejects o + step*s_k.  A literal codes as 0, a jump q >= 0 as
    2q + 1 and a jump q < 0 as -2q.  verify is elementwise, so it runs once
    over every candidate reconstruction.
    """
    n = target.size
    origin = next((t for t in target if np.isfinite(t)), 0.0)
    grid = np.empty(n, dtype=np.float64)
    cand = np.empty(n, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            grid[k] = np.floor((target[k] - origin) / step + 0.5)
            cand[k] = origin + step * grid[k]
        ok = verify(cand)
    codes = np.empty(n, dtype=np.int64)
    recon = np.empty(n, dtype=np.float64)
    for k in range(n):
        s = grid[k]
        prev = grid[k - 1] if k else np.nan
        coded = (
            k > 0
            and abs(s) <= 2.0**52
            and abs(prev) <= 2.0**52
            and abs(s - prev) < 2**30
            and ok[k]
        )
        if coded:
            q = int(s - prev)
            codes[k], recon[k] = 2 * q + 1 if q >= 0 else -2 * q, cand[k]
        else:
            codes[k], recon[k] = 0, target[k]
    return codes, recon, np.flatnonzero(codes == 0)


def quantize_calls(encode, *args):
    """The argument tuples an encoder passes to predictive.quantize."""
    calls = []
    real = predictive.quantize

    def spy(*a):
        calls.append(a)
        return real(*a)

    predictive.quantize = spy
    try:
        encode(*args)
    finally:
        predictive.quantize = real
    return calls


def assert_quantize_matches_reference(encode, *args):
    # each stream of the block quantizes as reference_quantize does it alone
    (call,) = quantize_calls(encode, *args)
    target, verify, step, lengths = call
    codes, recon, lits = predictive.quantize(*call)
    ends = np.cumsum(lengths)
    for lo, hi, st in zip(ends - lengths, ends, np.broadcast_to(step, lengths.shape)):

        def alone(r, lo=lo, hi=hi):  # verify checks the whole block at once
            full = recon.copy()
            full[lo:hi] = r
            return verify(full)[lo:hi]

        want = reference_quantize(target[lo:hi], alone, st)
        got = (codes[lo:hi], recon[lo:hi], lits[(lits >= lo) & (lits < hi)] - lo)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    buf, recon = encode(*args)
    assert predictive.decode(buf, args[2], np.size(args[0])).tobytes() == recon.tobytes()


SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])


@st.composite
def walks(draw, max_size=150):
    """Random walks in units of the quantizer step: codes within reach,
    exact half-step rounding edges, far jumps and jumps on either side of
    the 2^30 jump limit, on an offset where f32 spacing rivals the bound or
    (None) with every value after the first near grid index 2^52, where
    int64 and f64 part, with NaN, infinities and zeros mixed in."""
    n = draw(st.integers(1, max_size))
    moves = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.floats(-3, 3),
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 16.0,
                         2.0**30 - 1, 2.0**30, -(2.0**30) + 1, -(2.0**30)]),
        st.floats(-1e5, 1e5),
    )))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, -1e9, None]))
    special = draw(hnp.arrays(np.int8, n, elements=st.integers(-40, 4)))
    return moves, offset, special


def place(moves, offset, special, unit):
    x = np.cumsum(moves * unit)
    if offset is None:
        x[1:] += 2.0**52 * unit
    else:
        x += offset
    hit = special >= 0
    x[hit] = SPECIALS[special[hit]]
    return x


@settings(max_examples=150, deadline=None)
@given(
    case=walks(),
    width=st.sampled_from([4, 8]),
    eb=st.sampled_from([1e-3, 0.05, 2.0]),
)
def test_quantize_abs_matches_per_value_reference(case, width, eb):
    x = place(*case, unit=2 * eb)
    if width == 4:
        with np.errstate(over="ignore"):
            x = x.astype(np.float32)
    assert_quantize_matches_reference(predictive.encode_abs, x, eb, width)


@settings(max_examples=100, deadline=None)
@given(
    case=walks(),
    width=st.sampled_from([4, 8]),
    pw=st.sampled_from([1e-7, 1e-4, 0.01, 0.3]),
)
def test_quantize_pwrel_matches_per_value_reference(case, width, pw):
    # log-magnitudes walk in quantizer steps; signs and zeros come along.
    # They never reach 2^52 steps (that needs log|x| > 709), so the grid
    # edge offset starts them at 1
    moves, offset, special = case
    offset = offset or 0.0
    logs = np.cumsum(moves * 2 * np.log1p(pw)) + np.log1p(abs(offset))
    with np.errstate(over="ignore"):
        x = np.exp(logs) * np.where(np.arange(moves.size) % 3, 1.0, -1.0)
    hit = special >= 0
    x[hit] = SPECIALS[special[hit]]
    if width == 4:
        with np.errstate(over="ignore"):
            x = x.astype(np.float32)
    assert_quantize_matches_reference(predictive.encode_pwrel, x, pw, width)


def test_quantize_long_stream_matches_reference():
    # a long stream with f32 rounding misses near the bound, NaN literals
    # and values far off the grid between long coded runs
    rng = np.random.default_rng(7)
    x = (np.cumsum(rng.normal(size=150_000)) + 3e3).astype(np.float32)
    x[::997] = np.nan
    x[5::1201] = 1e30
    assert_quantize_matches_reference(predictive.encode_abs, x, 1.2e-4, 4)


def test_bound_miss_literal_does_not_reanchor():
    # f32 rounding makes x[1]'s grid point miss the bound, so x[1] is a
    # literal; x[2] still codes its jump from x[1]'s grid index (-16 minus -13,
    # the code 6), not from the literal's exact value (which would give -2)
    x = np.array([999.9992065429688, 999.9978637695312, 999.9976196289062], np.float32)
    eb = 5e-5
    (call,) = quantize_calls(predictive.encode_abs, x, eb, 4)
    codes, _, lits = predictive.quantize(*call)
    assert lits.tolist() == [0, 1]
    assert codes[2] == 6
    buf, recon = predictive.encode_abs(x, eb, 4)
    out = predictive.decode(buf, 4, x.size)
    assert out.tobytes() == recon.tobytes()
    assert out[1] == x[1]
    assert np.all(np.abs(x.astype(np.float64) - out) <= eb)


def test_value_past_the_grid_edge_is_a_literal_and_so_is_its_successor():
    # 1e20 / 1.0 is beyond 2^52 grid steps, so its index cannot anchor a
    # chain; 1.0 after it is a literal too, and 2.0 codes again.  The same
    # holds for 2^52 - 1 after 2^52 + 2, although their jump is small
    x = np.array([0.0, 1e20, 1.0, 2.0, 2.0**52 + 2, 2.0**52 - 1, 2.0**52 - 2])
    (call,) = quantize_calls(predictive.encode_abs, x, 0.5, 8)
    assert predictive.quantize(*call)[2].tolist() == [0, 1, 2, 4, 5]
    _, out = enc_dec_abs(x, 0.5)
    assert np.array_equal(out, x)


def reference_codes(jumps):
    """The code of each jump, one at a time: 0 for a literal (None), 2q + 1
    for a jump q >= 0, -2q for a jump q < 0."""
    return [0 if q is None else 2 * q + 1 if q >= 0 else -2 * q for q in jumps]


def reference_planes(codes, width=None):
    """Codes as little-endian byte planes, as few as the largest code needs."""
    width = width or max(1, (max(codes).bit_length() + 7) // 8)
    return bytes((c >> 8 * i) & 0xFF for i in range(width) for c in codes)


def frames_of(planes):
    """Byte planes framed as the encoder frames them, one lossless frame
    each: byte 0 deflated at zlib level 5, the planes above it at level 4."""
    return b"".join(
        lossless.lossless_encode(plane, level=5 if k == 0 else 4) for k, plane in enumerate(planes)
    )


def plane_frames(codes, width=None):
    """Codes in `width` little-endian byte planes (default: as few as fit),
    framed by frames_of."""
    planes, n = reference_planes(codes, width), len(codes)
    return frames_of([planes[i : i + n] for i in range(0, len(planes), n)])


def code_frames(section):
    """The lossless frames of a code section, in order."""
    frames, off = [], 0
    while off < len(section):
        _, end = lossless.read_frame(section, off)
        frames.append(section[off:end])
        off = end
    return frames


def code_stream(codes, lits, step, width=None, flags=predictive._FLAG_DEFLATED, signs=False):
    """An f64 one-column stream holding exactly the given codes and literals
    in `width` byte planes (default: as few as fit), one frame each; with
    signs, a pw_rel stream of positive values."""
    return b"".join((
        predictive._HEAD.pack(flags | (predictive._FLAG_SIGNS if signs else 0), len(codes), 1),
        np.array([(step, len(lits))], predictive._COLUMN).tobytes(),
        np.asarray(lits, "<f8").tobytes(),
        bytes((len(codes) + 7) // 8) if signs else b"",
        plane_frames(codes, width),
    ))


def hand_stream(jumps, lits, step):
    """An abs-mode f64 one-column stream holding exactly the given jumps
    (None: a literal) and literals."""
    return code_stream(reference_codes(jumps), lits, step)


def test_literal_on_a_half_step_decodes_with_floor():
    # literals 2.75 and -1.25 on the grid from 0.25 at step 1, each followed
    # by a +1 jump.  floor((t - 0.25)/step + 1/2) puts them on indices 3 and
    # -1, so the jumps land on 4.25 and 0.25; round-half-even would give
    # 3.25 and -0.75, and re-anchoring at the literal 3.75 and -0.25
    buf = hand_stream([None, None, 1, None, 1], [0.25, 2.75, -1.25], 1.0)
    assert predictive.decode(buf, 8, 5).tolist() == [0.25, 2.75, 4.25, -1.25, 0.25]


def code_planes(buf, width=8):
    """A byte-plane code section's planes, one per frame, and the codes
    they hold."""
    _, count, off = sections(buf, width)
    planes = [lossless.lossless_decode(f) for f in code_frames(buf[off:])]
    assert all(len(plane) == count for plane in planes)
    codes = [sum(plane[i] << 8 * k for k, plane in enumerate(planes)) for i in range(count)]
    return planes, codes


def code_form(buf, width=8):
    """How a coded stream's code section was deflated: "huffman" for one
    frame at zlib's Huffman-only strategy, "deflated" for the default one:
    one frame at level 1 or 6, or one per byte plane as frames_of writes
    them."""
    flags, _, off = sections(buf, width)
    assert flags & predictive._FLAG_DEFLATED
    frames = code_frames(buf[off:])
    data = [lossless.lossless_decode(f) for f in frames]
    if len(frames) > 1:
        assert buf[off:] == frames_of(data)
        return "deflated"
    if buf[off:] in (lossless.lossless_encode(data[0]), lossless.lossless_encode(data[0], level=1)):
        return "deflated"
    assert buf[off:] == lossless.lossless_encode(data[0], zlib.Z_HUFFMAN_ONLY)
    return "huffman"


WALK = 3000  # values in each stream_of stream


def stream_of(kind):
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=WALK))
    if kind == "huffman":  # one-byte codes: Huffman-only deflate wins
        buf, _ = predictive.encode_abs(walk, 0.5, 8)
    elif kind == "deflated":
        buf, _ = predictive.encode_abs(walk, 1e-4, 8)
    elif kind == "pw_rel":
        buf, _ = predictive.encode_pwrel(walk, 1e-3, 8)
    else:
        buf = predictive.encode_verbatim(walk, 8)
    return buf


@pytest.mark.parametrize("kind", ["huffman", "deflated", "pw_rel", "verbatim"])
@pytest.mark.parametrize(
    "damage",
    [lambda b: b[: len(b) // 2], lambda b: b[:-3], lambda b: b[:40], lambda b: b + b"junk"],
    ids=["halved", "minus3", "first40", "junk"],
)
def test_damaged_stream_raises_codec_error(kind, damage):
    buf = stream_of(kind)
    flags = buf[0]
    assert bool(flags & predictive._FLAG_VERBATIM) == (kind == "verbatim")
    if kind in ("huffman", "deflated"):
        assert code_form(buf) == kind
    assert bool(flags & predictive._FLAG_SIGNS) == (kind == "pw_rel")
    predictive.decode(buf, 8, WALK)
    with pytest.raises(CodecError):
        predictive.decode(damage(buf), 8, WALK)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["huffman", "deflated", "pw_rel", "verbatim"]),
    cut=st.integers(0, 10**6),
)
def test_every_truncation_raises_codec_error(kind, cut):
    buf = stream_of(kind)
    with pytest.raises(CodecError):
        predictive.decode(buf[: cut % len(buf)], 8, WALK)


def sections(buf, width=8):
    """(flags, code count, offset of the code section) of a coded block
    stream, read as docs/container_format.md lays it out."""
    flags, n, k = predictive._HEAD.unpack_from(buf, 0)
    assert not flags & predictive._FLAG_VERBATIM
    off = predictive._HEAD.size
    table = np.frombuffer(buf, predictive._COLUMN, count=k, offset=off)
    off += table.nbytes + int(table["n_lit"].sum()) * width
    count = n * int(np.count_nonzero(table["step"]))
    if flags & predictive._FLAG_SIGNS:
        off += (count + 7) // 8
    return flags, count, off


def coded_codes(encode, *args):
    """An encoder's stream and the codes it offered the code section."""
    seen = []
    real = predictive._code

    def spy(codes, *rest):
        seen.append(codes.ravel().copy())
        return real(codes, *rest)

    predictive._code = spy
    try:
        buf, recon = encode(*args)
    finally:
        predictive._code = real
    (codes,) = seen
    return buf, recon, codes


def reference_pack(codes, bits):
    """Codes `bits` wide, 8 // bits to a byte, the first in the high bits;
    the last byte is zero-padded."""
    per = 8 // bits
    out = bytearray(-(-len(codes) // per))
    for i, c in enumerate(codes):
        out[i // per] |= c << 8 - bits * (i % per + 1)
    return bytes(out)


PACK_FIELD = {4: 1, 2: 2, 1: 3}  # flag bits 4-5 of codes packed this many bits each


def pack_field(flags):
    return (flags & 0x30) >> 4


def reference_code_section(codes):
    """(section, flag bits 4-5) the encoder writes for codes.  From 256 up:
    one frame per byte plane, plane_frames.  Otherwise the shortest of these
    one-frame candidates, the first on a tie.  Below 16: the packed bytes
    deflated at level 1; at level 6, only when the level-1 frame is shorter
    than 1.15 times the shortest Huffman-only candidate; the packed bytes
    Huffman-only; for 4-bit codes, one byte plane Huffman-only.  From 16 to
    255: the byte plane deflated, then Huffman-only."""
    top = max(codes)
    if top >= 256:
        return plane_frames(codes), 0
    planes = reference_planes(codes)
    huffman = lossless.lossless_encode(planes, zlib.Z_HUFFMAN_ONLY)
    if top >= 16:
        frames = [(lossless.lossless_encode(planes), 0), (huffman, 0)]
    else:
        bits = 1 if top < 2 else 2 if top < 4 else 4
        field = PACK_FIELD[bits]
        packed = reference_pack(codes, bits)
        probe = lossless.lossless_encode(packed, level=1)
        huffmans = [(lossless.lossless_encode(packed, zlib.Z_HUFFMAN_ONLY), field)]
        huffmans += [(huffman, 0)] * (bits == 4)
        frames = [(probe, field)]
        if len(probe) < 1.15 * min(len(f) for f, _ in huffmans):
            frames.append((lossless.lossless_encode(packed, level=6), field))
        frames += huffmans
    return min(frames, key=lambda f: len(f[0]))


def assert_form_and_round_trip(encode, *args):
    # a coded stream's code section is the one reference_code_section
    # picks, and flag bits 4-5 say how its codes are laid out; returns the
    # decode and the codes offered to the code section
    width = args[2]
    buf, recon, codes = coded_codes(encode, *args)
    out = predictive.decode(buf, width, np.size(args[0]))
    assert out.tobytes() == recon.tobytes()
    if buf[0] & predictive._FLAG_VERBATIM:
        return out, codes
    flags, count, off = sections(buf, width)
    assert flags & predictive._FLAG_DEFLATED
    assert predictive._planes(codes, int(codes.max())) == reference_planes(codes.tolist())
    code_section, field = reference_code_section(codes.tolist())
    assert pack_field(flags) == field
    assert buf[off:] == code_section
    data = b"".join(lossless.lossless_decode(f) for f in code_frames(code_section))
    assert len(data) == (-(-count * (8 >> field) // 8) if field else len(reference_planes(codes.tolist())))
    return out, codes


@settings(max_examples=80, deadline=None)
@given(
    alphabet=st.integers(1, 30).flatmap(
        lambda k: st.lists(
            st.one_of(st.integers(-8, 8), st.integers(-130, 130)),
            min_size=k, max_size=k, unique=True,
        )
    ),
    picks=st.lists(st.integers(0, 29), max_size=300),
    zeros=st.lists(st.integers(0, 299), max_size=4),
    width=st.sampled_from([4, 8]),
)
def test_round_trip_on_both_sides_of_the_huffman_line(alphabet, picks, zeros, width):
    # integer walks at step 1 (abs) and log-walks at the pw_rel step code
    # exactly the drawn jumps, so a stream's alphabet is the drawn one plus
    # the literal (and, for pw_rel, the zero code 1).  Jumps 127 and -128
    # have the codes 255 and 256 (256 and 257 under pw_rel), so the codes
    # straddle the line between one byte plane (where Huffman-only deflate
    # is tried) and two frames, one per plane; jumps 7 and -8 have the
    # codes 15 and 16, so they straddle the line below which codes are
    # packed
    jumps = np.array(alphabet + [alphabet[p % len(alphabet)] for p in picks], dtype=np.float64)
    x = np.cumsum(jumps)
    if width == 4:
        x = x.astype(np.float32)
    out, _ = assert_form_and_round_trip(predictive.encode_abs, x, 0.5, width)
    assert np.all(np.abs(x.astype(np.float64) - out) <= 0.5)

    pw = 1e-3
    y = np.exp(np.cumsum(jumps) * 2 * np.log1p(pw)) * np.where(jumps > 0, 1.0, -1.0)
    y[[z % y.size for z in zeros]] = 0.0
    if width == 4:
        y = y.astype(np.float32)
    out, _ = assert_form_and_round_trip(predictive.encode_pwrel, y, pw, width)
    y = y.astype(np.float64)
    assert np.all(np.abs(y - out) <= pw * np.abs(y))


def deflated_section(buf, width=8):
    """Code count and offset of a deflated stream's code section."""
    flags, count, off = sections(buf, width)
    assert flags & predictive._FLAG_DEFLATED
    return count, off


def test_pwrel_zeros_beside_short_jumps_pack_four_bits_a_code():
    # a pw_rel block with zeros (flag 8) codes a zero as 1 and its jumps
    # one higher, so zeros put among jumps of a few steps keep every code
    # below 16, and the codes pack two to a byte; without zeros its codes
    # are the jumps' codes under abs
    pw = 1e-3
    x = np.exp(np.cumsum(np.tile([1, -2, 3, 5], 100)) * 2 * np.log1p(pw))
    buf, _, plain = coded_codes(predictive.encode_pwrel, x, pw, 8)
    assert buf[0] & 0xF == predictive._FLAG_SIGNS | predictive._FLAG_DEFLATED
    assert plain.tolist() == reference_codes([None] + ([1, -2, 3, 5] * 100)[1:])
    x = np.insert(x, np.arange(3, x.size, 7), 0.0)
    buf, recon, codes = coded_codes(predictive.encode_pwrel, x, pw, 8)
    assert buf[0] & predictive._FLAG_ZEROS
    assert np.array_equal(codes == predictive.ZERO, x == 0.0)
    assert codes.max() == 12  # the jump 5 codes as 11, one higher beside zeros
    n, off = deflated_section(buf)
    assert pack_field(buf[0]) == PACK_FIELD[4]
    assert lossless.lossless_decode(buf[off:]) == reference_pack(codes.tolist(), 4)
    assert len(lossless.lossless_decode(buf[off:])) == -(-n // 2)
    out = predictive.decode(buf, 8, x.size)
    assert out.tobytes() == recon.tobytes()
    assert np.array_equal(out == 0.0, x == 0.0)


def code_jumps(codes):
    """The jump each nonzero code stands for (the inverse of reference_codes)."""
    return [(c - 1) // 2 if c % 2 else -(c // 2) for c in codes]


@st.composite
def narrow_walks(draw, tops=(1, 2, 3, 4, 5, 15, 16, 17, 255, 256, 257)):
    """(jump codes, width, zero positions): one-column integer walks whose
    largest jump code lies on either side of 2, 4, 16 and 256, of every
    code count mod 8."""
    top = draw(st.sampled_from(tops))
    n = 8 * draw(st.integers(0, 12)) + draw(st.integers(0, 7))
    codes = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    codes.insert(draw(st.integers(0, n)), top)
    zeros = draw(st.lists(st.integers(0, n + 1), max_size=5))
    return codes, draw(st.sampled_from([4, 8])), zeros


@settings(max_examples=150, deadline=None)
@given(case=narrow_walks())
def test_round_trip_of_codes_around_every_packing_width(case):
    # abs: a unit walk at step 1 codes exactly the drawn codes after its
    # opening literal.  pw_rel: the same walk in log-magnitude steps, with
    # zeros put between its values, codes a zero as 1 and every jump one
    # higher (flag 8); without zeros its codes are the abs ones
    jump_codes, width, zeros = case
    dtype = np.float32 if width == 4 else np.float64
    x = np.cumsum([0.0] + code_jumps(jump_codes)).astype(dtype)
    out, codes = assert_form_and_round_trip(predictive.encode_abs, x, 0.5, width)
    assert codes.tolist() == [0] + jump_codes
    assert out.tolist() == x.tolist()

    pw = 1e-3
    y = np.exp(np.cumsum([0.0] + code_jumps(jump_codes)) * 2 * np.log1p(pw))
    y *= np.where(np.arange(y.size) % 3, 1.0, -1.0)
    y = np.insert(y, sorted(z % (y.size + 1) for z in zeros), 0.0).astype(dtype)
    buf, _ = predictive.encode_pwrel(y, pw, width)
    out, codes = assert_form_and_round_trip(predictive.encode_pwrel, y, pw, width)
    shift = int(bool(zeros))
    if not buf[0] & predictive._FLAG_VERBATIM:
        assert bool(buf[0] & predictive._FLAG_ZEROS) == bool(zeros)
    assert codes[y != 0].tolist() == [0] + [c + shift for c in jump_codes]
    assert (codes[y == 0] == predictive.ZERO).all()
    y = y.astype(np.float64)
    assert np.all(np.abs(y - out) <= pw * np.abs(y))
    assert np.array_equal(out == 0.0, y == 0.0)


@settings(max_examples=80, deadline=None)
@given(case=narrow_walks(tops=(1, 2, 3, 4, 5, 9, 15, 16, 17, 100, 255)))
def test_code_frame_is_never_longer_than_one_byte_plane_huffman_only(case):
    jump_codes, width, _ = case
    x = np.cumsum([0.0] + code_jumps(jump_codes))
    buf, _ = predictive.encode_abs(x, 0.5, width)
    if buf[0] & predictive._FLAG_VERBATIM:
        return
    _, off = deflated_section(buf, width)
    plane = lossless.lossless_encode(reference_planes([0] + jump_codes), zlib.Z_HUFFMAN_ONLY)
    assert len(buf) - off <= len(plane)


def deflate_calls(monkeypatch, codes):
    """_code's lossless_encode calls on one column of codes, each as (zlib
    level, strategy, data, frame); the default level is zlib's 6."""
    calls = []
    real = lossless.lossless_encode

    def spy(data, strategy=zlib.Z_DEFAULT_STRATEGY, level=-1):
        frame = real(data, strategy, level)
        calls.append((6 if level == -1 else level, strategy, bytes(data), frame))
        return frame

    codes = np.asarray(codes, np.int64)[None, :]
    with monkeypatch.context() as patched:
        patched.setattr(lossless, "lossless_encode", spy)
        predictive._code(codes, np.zeros(1, np.int64), 64 * codes.size)
    return calls


@pytest.mark.parametrize("top, planes", [(256, 2), (1 << 16, 3), (1 << 24, 4), ((1 << 31) - 1, 4)])
def test_large_codes_deflate_once_per_plane_at_levels_5_then_4(monkeypatch, top, planes):
    codes = np.random.default_rng(top % 1000).integers(1, 40, 3000)
    codes[1234] = top
    calls = deflate_calls(monkeypatch, codes)
    assert [(level, strategy) for level, strategy, _, _ in calls] == \
        [(5, zlib.Z_DEFAULT_STRATEGY)] + [(4, zlib.Z_DEFAULT_STRATEGY)] * (planes - 1)
    assert b"".join(data for _, _, data, _ in calls) == reference_planes(codes.tolist())


@pytest.mark.parametrize("bits", [1, 2])
def test_one_and_two_bit_codes_try_no_byte_plane(monkeypatch, bits):
    rng = np.random.default_rng(bits)
    for codes in (rng.integers(0, 1 << bits, 5000), np.tile([0, (1 << bits) - 1], 500)):
        calls = deflate_calls(monkeypatch, codes)
        packed = reference_pack(codes.tolist(), bits)
        assert calls and all(data == packed for _, _, data, _ in calls)


def test_packed_codes_deflate_at_level_6_only_within_the_slack(monkeypatch):
    # the level-1 probe runs first; level 6 follows only when the probe is
    # shorter than 1.15 times the shortest Huffman-only frame.  Skewed
    # memoryless codes, which LZ matching cannot use, leave the probe above
    # that; uniform ones and repeated patterns below it
    rng = np.random.default_rng(5)
    seen = set()
    for codes in (np.minimum(rng.geometric(0.5, 8000) - 1, 15), (rng.random(8000) < 0.1) * 1,
                  rng.integers(0, 16, 4000), rng.integers(0, 4, 4000), rng.integers(0, 2, 4000),
                  np.tile(np.arange(16), 300), np.tile([1, 3, 0, 2], 900), np.arange(4000) % 2):
        calls = deflate_calls(monkeypatch, codes)
        assert calls[0][:2] == (1, zlib.Z_DEFAULT_STRATEGY)
        probe = len(calls[0][3])
        huffman = [len(f) for _, strategy, _, f in calls if strategy == zlib.Z_HUFFMAN_ONLY]
        slack = probe < 1.15 * min(huffman)
        level_6 = [lv for lv, strategy, _, _ in calls[1:] if strategy == zlib.Z_DEFAULT_STRATEGY]
        assert level_6 == ([6] if slack else [])
        assert len(calls) == 1 + slack + len(huffman)
        seen.add(slack)
    assert seen == {True, False}


def test_container_doc_names_the_code_section_levels():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "container_format.md").read_text()
    table = doc[doc.index("| largest code |"):].split("\n\n")[0]
    named = {name: float(value) for value, name in re.findall(r"([\d.]+) \(`(_[A-Z_]+)`\)", table)}
    constants = ("_PROBE_LEVEL", "_PACKED_LEVEL", "_PROBE_SLACK",
                 "_LOW_PLANE_LEVEL", "_HIGH_PLANE_LEVEL")
    assert named == {name: getattr(predictive, name) for name in constants}


def packed_stream(codes, bits, flags=predictive._FLAG_DEFLATED, data=None):
    """An f64 one-column abs stream on a unit grid from 0, whose codes (a
    literal first) are packed `bits` wide, or given as the frame's data."""
    data = reference_pack(codes, bits) if data is None else data
    return b"".join((
        predictive._HEAD.pack(flags | PACK_FIELD[bits] << 4, len(codes), 1),
        np.array([(1.0, 1)], predictive._COLUMN).tobytes(),
        np.zeros(1, "<f8").tobytes(),
        lossless.lossless_encode(data),
    ))


@pytest.mark.parametrize("bits", [1, 2, 4])
def test_hand_packed_codes_decode_high_bits_first(bits):
    # codes 1 (a jump of 0) and 2**bits - 1, after the literal 0: a count
    # that leaves pad slots in the last byte, which hold zeros
    codes = [0] + [1, (1 << bits) - 1] * 4 + [1]
    out = predictive.decode(packed_stream(codes, bits), 8, len(codes))
    assert out.tolist() == np.cumsum([0.0] + code_jumps(codes[1:])).tolist()
    assert reference_pack([1] + [0] * (8 // bits - 1), bits) == bytes([1 << 8 - bits])


@pytest.mark.parametrize("bits", [1, 2, 4])
@pytest.mark.parametrize(
    "damage",
    ["short", "long", "pad-bit", "no-flag-4", "no-flag-4-no-codes", "flag-4-no-codes",
     "flag-4-pack-no-codes", "verbatim"],
)
def test_damaged_packed_codes_raise_codec_error(bits, damage):
    codes = [0] + [1] * 10  # 11 codes: the last byte has pad slots at every width
    packed = reference_pack(codes, bits)
    assert predictive.decode(packed_stream(codes, bits), 8, len(codes)).tolist() == [0.0] * 11
    if damage == "short":
        bad = packed_stream(codes, bits, data=packed[:-1])
    elif damage == "long":
        bad = packed_stream(codes, bits, data=packed + b"\0")
    elif damage == "pad-bit":
        bad = packed_stream(codes, bits, data=packed[:-1] + bytes([packed[-1] | 1]))
    elif damage == "no-flag-4":
        bad = packed_stream(codes, bits, flags=0)
    elif damage.endswith("no-codes"):  # the one column stored raw: no code section
        flags = {"no-flag-4-no-codes": PACK_FIELD[bits] << 4, "flag-4-no-codes": 4,
                 "flag-4-pack-no-codes": 4 | PACK_FIELD[bits] << 4}[damage]
        bad = b"".join((
            predictive._HEAD.pack(flags, len(codes), 1),
            np.array([(0.0, len(codes))], predictive._COLUMN).tobytes(),
            np.zeros(len(codes), "<f8").tobytes(),
        ))
        assert predictive.decode(bytes([0]) + bad[1:], 8, len(codes)).tolist() == [0.0] * 11
    else:  # pack bits on a block stored raw
        raw = predictive.encode_verbatim(np.arange(11.0), 8)
        bad = bytes([raw[0] | PACK_FIELD[bits] << 4]) + raw[1:]
    with pytest.raises(CodecError):
        predictive.decode(bad, 8, len(codes))


def refit_frame(buf, section):
    _, off = deflated_section(buf)
    return buf[:off] + section


def two_planes():
    """stream_of("deflated"), its code count and its two byte planes."""
    buf = stream_of("deflated")
    n, off = deflated_section(buf)
    planes, _ = code_planes(buf)
    assert [len(plane) for plane in planes] == [n, n]  # the walk's codes take two planes
    # byte 0 does not deflate, so it is stored; byte 1 is deflated
    assert [f[0] for f in code_frames(buf[off:])] == [0, 1]
    assert refit_frame(buf, frames_of(planes)) == buf
    return buf, n, planes


@pytest.mark.parametrize(
    "damage",
    [
        lambda planes: frames_of([plane[:-4] for plane in planes]),
        lambda planes: frames_of([plane + b"\0\0\0\0" for plane in planes]),
        lambda planes: frames_of([planes[0], planes[1][:-1]]),
        lambda planes: frames_of(planes)[:-6] + b"garbage",
        lambda planes: frames_of(planes) + b"junk",
    ],
    ids=["short", "long", "ragged", "corrupt-zlib", "junk-after-frame"],
)
def test_damaged_deflated_section_raises_codec_error(damage):
    buf, _, planes = two_planes()
    with pytest.raises(CodecError):
        predictive.decode(refit_frame(buf, damage(planes)), 8, WALK)


def test_code_section_without_a_frame_raises_codec_error():
    buf, _, _ = two_planes()
    with pytest.raises(CodecError, match="truncated in its lossless frame header"):
        predictive.decode(refit_frame(buf, b""), 8, WALK)


def test_fifth_code_plane_raises_codec_error():
    # four planes hold every code; a fifth frame, even of zeros, is damage
    buf, n, planes = two_planes()
    four = refit_frame(buf, frames_of(planes + [bytes(n)] * 2))
    assert predictive.decode(four, 8, WALK).tobytes() == predictive.decode(buf, 8, WALK).tobytes()
    with pytest.raises(CodecError, match="bytes after the 4 code planes"):
        predictive.decode(refit_frame(buf, frames_of(planes + [bytes(n)] * 3)), 8, WALK)


def test_code_plane_of_another_length_raises_codec_error_before_inflating():
    # the second frame declares one byte too many over a body that is not
    # zlib at all: the length check, not inflate, rejects it
    buf, n, planes = two_planes()
    bad = frames_of(planes[:1]) + lossless._HEAD.pack(1, n + 1) + b"\xff" * 40
    with pytest.raises(CodecError, match=f"declares {n + 1} bytes, not {n}"):
        predictive.decode(refit_frame(buf, bad), 8, WALK)


def test_later_code_plane_cut_short_raises_codec_error():
    buf, _, planes = two_planes()
    first, second = frames_of(planes[:1]), frames_of(planes[1:])
    for cut in range(1, len(second)):
        with pytest.raises(CodecError):
            predictive.decode(refit_frame(buf, first + second[:cut]), 8, WALK)


@pytest.mark.parametrize(
    "tail", [b"\0", b"junk" * 3, lossless.lossless_encode(b"")], ids=["zero", "junk", "empty-frame"]
)
def test_bytes_after_the_last_code_plane_raise_codec_error(tail):
    # after four planes any byte is damage; after two, a tail that is not a
    # whole frame of one byte per code
    buf, n, planes = two_planes()
    with pytest.raises(CodecError, match="1 bytes after the 4 code planes"):
        predictive.decode(refit_frame(buf, frames_of(planes + [bytes(n)] * 2) + tail[:1]), 8, WALK)
    with pytest.raises(CodecError):
        predictive.decode(refit_frame(buf, frames_of(planes) + tail), 8, WALK)


def test_jumps_below_the_limit_code_and_longer_ones_are_literals():
    # on a unit grid the jumps 2^30 - 1 and -(2^30 - 1) take the largest
    # codes, 2^31 - 1 and 2^31 - 2, in four byte planes; jumps of 2^30
    # either way are literals
    limit = predictive.JUMP_LIMIT
    at = [500, 1000, 1500, 1700]
    moves = np.ones(2000)
    moves[at] = [limit - 1, limit, -limit, 1 - limit]
    x = np.cumsum(moves)
    codes = extract_codes(x, 0.5)
    assert codes[at].tolist() == [2 * limit - 1, 0, 0, 2 * limit - 2]
    assert np.flatnonzero(codes == predictive.LITERAL).tolist() == [0, 1000, 1500]
    buf, out = enc_dec_abs(x, 0.5)
    planes, got = code_planes(buf)
    assert len(planes) == 4
    assert got == codes.tolist() and code_form(buf) == "deflated"
    assert out.tobytes() == x.tobytes()


def cast_like(r, width):
    return r.astype(np.float32).astype(np.float64) if width == 4 else r


def reference_column(x, mode, bound, width):
    """What one column decodes to when reference_quantize codes it alone."""
    x = x.astype(np.float64)
    if mode == "abs":
        def verify(r):
            return np.abs(x - cast_like(r, width)) <= bound

        return cast_like(reference_quantize(x, verify, 2.0 * bound)[1], width)
    tiny = np.finfo(np.float32 if width == 4 else np.float64).tiny
    nz = np.flatnonzero(~(np.abs(x) < tiny))
    neg = np.signbit(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.log(np.abs(x[nz]))

    def signed(r):
        with np.errstate(over="ignore"):
            mag = np.exp(r)
        return cast_like(np.where(neg[nz], -mag, mag), width)

    def verify(r):
        return np.abs(x[nz] - signed(r)) <= bound * np.abs(x[nz])

    _, recon_t, lits = reference_quantize(target, verify, 2.0 * np.log1p(bound))
    out = np.where(neg, -0.0, 0.0)
    out[nz] = signed(recon_t)
    out[nz[lits]] = x[nz[lits]]
    return out


@st.composite
def blocks(draw):
    """A block of 1-20 columns, each a walk with specials, a zero-range
    column, a column of literals only, or (pw_rel) a column of zeros."""
    n_cols = draw(st.integers(1, 20))
    n = draw(st.integers(1, 80))
    width = draw(st.sampled_from([4, 8]))
    mode = draw(st.sampled_from(["abs", "pw_rel"]))
    pw = draw(st.sampled_from([1e-4, 0.01, 0.3]))
    cols, bounds = [], []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["walk", "walk", "constant", "literals", "zeros"]))
        eb = draw(st.sampled_from([1e-3, 0.05, 2.0]))
        if kind == "walk":
            moves = draw(hnp.arrays(np.float64, n, elements=st.floats(-40, 40)))
            special = draw(hnp.arrays(np.int8, n, elements=st.integers(-40, 4)))
            col = place(moves, 1.0, special, 2 * eb)
        elif kind == "constant":
            col, eb = np.full(n, draw(st.sampled_from([2.5, 0.0, -1e9]))), 0.0
        elif kind == "literals":  # NaN at every other value: all literals
            col = np.where(np.arange(n) % 2, np.arange(n) + 1.0, np.nan)
        else:
            col = np.zeros(n)
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, 3.0, -1e-3]))
        cols.append(col)
        bounds.append(eb)
    x = np.column_stack(cols)
    if width == 4:
        with np.errstate(over="ignore"):
            x = x.astype(np.float32)
    return x, mode, (bounds if mode == "abs" else pw), width


@settings(max_examples=150, deadline=None)
@given(case=blocks())
def test_block_columns_decode_as_each_column_alone(case):
    x, mode, bound, width = case
    if mode == "abs":
        buf, recon = predictive.encode_abs(x, bound, width)
    else:
        buf, recon = predictive.encode_pwrel(x, bound, width)
    out = predictive.decode(buf, width, x.size)
    assert out.tobytes() == recon.tobytes()
    n, k = x.shape
    if buf[0] & predictive._FLAG_VERBATIM:
        verbatim = [True] * k
    else:
        table = np.frombuffer(buf, predictive._COLUMN, count=k, offset=predictive._HEAD.size)
        verbatim = table["step"] == 0
    for j in range(k):
        col = x[:, j].astype(np.float64)
        eb = bound[j] if mode == "abs" else bound
        if verbatim[j]:
            want = col
        else:
            assert eb > 0
            want = reference_column(x[:, j], mode, eb, width)
        assert out[j * n : (j + 1) * n].tobytes() == want.tobytes()
        if mode == "abs" and eb == 0:
            assert verbatim[j]


def block_stream(form):
    """A three-column stream in the given form, every column coded."""
    rng = np.random.default_rng(17)
    x = np.cumsum(rng.normal(size=(400, 3)), axis=0)
    if form == "huffman":  # one-byte codes: Huffman-only deflate wins
        buf, _ = predictive.encode_abs(x, 0.5, 8)
    elif form == "deflated":
        buf, _ = predictive.encode_abs(x, 1e-4, 8)
    else:
        buf, _ = predictive.encode_pwrel(x, 1e-3, 8)
    return buf


def declared(buf):
    """The value count a block stream's header declares, n_rows x n_cols."""
    _, n, n_cols = predictive._HEAD.unpack_from(buf)
    return n * n_cols


def patch(buf, offset, fmt, value):
    return buf[:offset] + struct.pack(fmt, value) + buf[offset + struct.calcsize(fmt) :]


def code_offset(buf):
    return sections(buf)[2]


# every field of the block header and column table, each damaged so the
# decoder must notice: (offset or offset function, format, value)
HEADER_DAMAGE = {
    "flags-unknown": (0, "<B", 8),
    "flags-verbatim": (0, "<B", 1),
    "flags-deflated-toggled": (0, "<B", None),
    "flags-zeros-without-signs": (0, "<B", 12),
    "n_rows-longer": (1, "<I", 401),
    "n_rows-shorter": (1, "<I", 399),
    "n_rows-zero": (1, "<I", 0),
    "n_cols-more": (5, "<I", 4),
    "n_cols-fewer": (5, "<I", 2),
    "n_cols-huge": (5, "<I", 0xFFFFFFFF),
    "step-negative": (9, "<d", -0.5),
    "step-nan": (9, "<d", math.nan),
    "step-inf": (9, "<d", math.inf),
    "step-zero-on-a-coded-column": (21, "<d", 0.0),
    "n_lit-more": (17, "<I", None),
    "n_lit-fewer": (41, "<I", None),
    "n_lit-past-the-column": (17, "<I", 401),
    "n_lit-moved-between-columns": (17, "<I", None),
}


@pytest.mark.parametrize("form", ["huffman", "deflated", "pw_rel"])
@pytest.mark.parametrize("field", sorted(HEADER_DAMAGE))
def test_damaged_block_header_raises_codec_error(form, field):
    buf = block_stream(form)
    flags = buf[0]
    if form != "pw_rel":
        assert code_form(buf) == form
    assert bool(flags & predictive._FLAG_SIGNS) == (form == "pw_rel")
    table = np.frombuffer(buf, predictive._COLUMN, count=3, offset=9)
    assert (table["step"] > 0).all()  # every column coded
    offset, fmt, value = HEADER_DAMAGE[field]
    if field == "flags-deflated-toggled":
        value = flags ^ predictive._FLAG_DEFLATED
    elif field.startswith("n_lit-"):
        column = (offset - 17) // 12
        value = value or int(table["n_lit"][column]) + (-1 if field == "n_lit-fewer" else 1)
    bad = patch(buf, offset, fmt, value)
    if field == "n_lit-moved-between-columns":  # the literal section keeps its size
        bad = patch(bad, 29, "<I", int(table["n_lit"][1]) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CodecError):
            # the count the damaged header declares, so the checks behind the
            # shape check are the ones that must catch it
            predictive.decode(bad, 8, declared(bad))


@pytest.mark.parametrize("count", [0, 400, 1199, 1201, 3 * 401])
def test_header_of_another_shape_raises_codec_error(count):
    buf = block_stream("deflated")
    assert declared(buf) == 1200
    with pytest.raises(CodecError, match="declares 400x3 values"):
        predictive.decode(buf, 8, count)


SECTION_DAMAGE = [
    (form, damage)
    for form in ("huffman", "deflated", "pw_rel")
    for damage in ("code-cut", "code-junk")
    + (("huffman-count",) if form == "huffman" else ())
    + (("signs-cut",) if form == "pw_rel" else ())
]


@pytest.mark.parametrize("form, damage", SECTION_DAMAGE)
def test_damaged_block_sections_raise_codec_error(form, damage):
    buf = block_stream(form)
    off = code_offset(buf)
    if damage == "huffman-count":
        # the first deflate block after the frame and zlib headers is a
        # dynamic Huffman block (BTYPE 2); its 5-bit HLIT claims 257 + 31
        # literal/length codes, more than the 286 that deflate has
        deflate_at = off + lossless._HEAD.size + 2
        assert buf[deflate_at] >> 1 & 3 == 2
        bad = patch(buf, deflate_at, "<B", buf[deflate_at] | 31 << 3)
    elif damage == "signs-cut":
        bad = buf[: off - 1]
    elif damage == "code-cut":
        bad = buf[: off + (len(buf) - off) // 2]
    else:
        bad = buf + b"\x00junk"
    with pytest.raises(CodecError):
        predictive.decode(bad, 8, 1200)


def test_narrow_codes_deflate_when_that_is_smaller():
    # one repeated jump: Huffman-only coding spends a bit per value, LZ
    # matching far less, so the default frame wins although the codes fit
    # one byte
    x = np.arange(8000.0)
    buf, recon = predictive.encode_abs(x, 0.25, 8)
    assert code_form(buf) == "deflated"
    assert len(buf) < 8000 // 8
    assert predictive.decode(buf, 8, x.size).tobytes() == recon.tobytes()


@pytest.mark.parametrize(
    "jump, code, planes",
    [(127, 255, 1), (-128, 256, 2), (32767, 65535, 2), (-32768, 65536, 3),
     ((1 << 23) - 1, (1 << 24) - 1, 3), (-(1 << 23), 1 << 24, 4)],
)
def test_code_width_follows_the_largest_code(jump, code, planes):
    # one far jump in a unit walk sets how many byte planes every code takes
    x = np.cumsum(np.insert(np.ones(1999), 1000, jump))
    buf, recon = predictive.encode_abs(x, 0.5, 8)
    _, off = deflated_section(buf)
    got_planes, got = code_planes(buf)
    assert len(got_planes) == planes  # one frame per plane from two planes up
    want = extract_codes(x, 0.5).tolist()
    assert max(want) == code and got == want
    assert buf[off:] == (plane_frames(want) if planes > 1 else reference_code_section(want)[0])
    assert predictive.decode(buf, 8, x.size).tobytes() == recon.tobytes() == x.tobytes()


def test_wider_planes_than_needed_decode_alike():
    # the decoder takes the plane count from the number of frames, so codes
    # written wider than they need, with all-zero upper planes, decode to
    # the same values
    codes = reference_codes([None, 1, -2, 0, None])
    want = predictive.decode(code_stream(codes, [0.5, 9.0], 1.0), 8, len(codes))
    assert want.tolist() == [0.5, 1.5, -0.5, -0.5, 9.0]
    for width in (2, 3, 4):
        wide = code_stream(codes, [0.5, 9.0], 1.0, width)
        _, off = deflated_section(wide)
        assert len(code_frames(wide[off:])) == width
        assert predictive.decode(wide, 8, len(codes)).tolist() == want.tolist()


# the code of the longest jump, 2^30 - 1 steps; one higher in a pw_rel
# block with zeros
TOP = 2 * predictive.JUMP_LIMIT - 1
WITH_ZEROS = predictive._FLAG_DEFLATED | predictive._FLAG_ZEROS


def test_the_longest_jumps_decode():
    # 1 is a jump of 0, except in a pw_rel block with zeros, where it is a
    # zero and 2 is a jump of 0
    limit = predictive.JUMP_LIMIT
    out = predictive.decode(code_stream([0, 3, TOP, 1], [1.0], 1.0), 8, 4)
    assert out.tolist() == [1.0, 2.0, 1.0 + limit, 1.0 + limit]
    out = predictive.decode(code_stream([0, 2, TOP, 1], [1.0], 1e-10, signs=True), 8, 4)
    assert out[0] == 1.0 and out[1] == pytest.approx(1.0 - 1e-10, abs=1e-15)
    assert out[2] == out[3] == pytest.approx(math.exp((limit - 2) * 1e-10))
    zeros = code_stream([0, 2, TOP + 1, 1], [1.0], 1e-10, flags=WITH_ZEROS, signs=True)
    out = predictive.decode(zeros, 8, 4)
    assert out[:2].tolist() == [1.0, 1.0] and out[3] == 0.0
    assert out[2] == pytest.approx(math.exp((limit - 1) * 1e-10))


@pytest.mark.parametrize(
    "extra, signs, flags",
    [
        (TOP + 1, True, predictive._FLAG_DEFLATED),  # the longest jump with zeros, without
        (TOP + 2, True, WITH_ZEROS),
        (0xFFFFFFFF, True, WITH_ZEROS),
        (3, False, 0),  # a valid code without flag 4
    ],
    ids=["past-the-top", "past-the-top-with-zeros", "u32-max", "no-flag-4"],
)
def test_code_the_encoder_cannot_write_raises_codec_error(extra, signs, flags):
    # a block that codes a column always sets flag 4
    bad = code_stream([0, 3, extra, 1], [1.0], 1e-10, flags=flags, signs=signs)
    with pytest.raises(CodecError):
        predictive.decode(bad, 8, 4)


def test_whole_block_verbatim_stream_layout():
    x = np.arange(12.0).reshape(4, 3)
    buf = predictive.encode_verbatim(x, 4)
    assert buf[: predictive._HEAD.size] == predictive._HEAD.pack(predictive._FLAG_VERBATIM, 4, 3)
    assert buf[predictive._HEAD.size :] == x.T.astype("<f4").tobytes()
    assert predictive.decode(buf, 4, x.size).tolist() == x.T.ravel().tolist()
    for bad in (buf[:-1], buf + b"\0", patch(buf, 5, "<I", 4)):
        with pytest.raises(CodecError):
            predictive.decode(bad, 4, x.size)


def test_signalling_nan_literal_decodes_without_a_warning():
    # a stored f32 literal may hold any bit pattern, a signalling NaN too;
    # widening it must not raise NumPy's invalid-value warning
    x = np.cumsum(np.random.default_rng(9).normal(size=(300, 2)), axis=0).astype(np.float32)
    buf, _ = predictive.encode_abs(x, 0.05, 4)
    assert not buf[0] & predictive._FLAG_VERBATIM
    first_literal = predictive._HEAD.size + 2 * predictive._COLUMN.itemsize
    bad = patch(buf, first_literal, "<I", 0x7F800001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = predictive.decode(bad, 4, x.size)
    assert np.isnan(out[0]) and np.isfinite(out[1:300]).all()


GOLDEN_BOUNDS = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]


def golden_inputs():
    """(name, encoder, block, per-column bound scale) per golden case."""
    rng = np.random.default_rng(2020)
    walk = np.cumsum(rng.normal(size=3000))
    walk[[100, 1500]] = np.nan
    walk[[2000, 2001]] = [np.inf, -np.inf]
    block = np.cumsum(rng.normal(size=(400, 16)), axis=0) * 10.0 ** np.arange(-4, 4, 0.5)
    scale = 10.0 ** np.arange(-4, 4, 0.5)
    scale[5] = 0.0  # a zero bound: that column is stored raw
    noise = rng.normal(size=(64, 3)) * 1e12  # jumps past the limit: the whole block raw
    mags = 10.0 ** rng.uniform(-5, 5, size=(500, 4)) * rng.choice([-1.0, 1.0], size=(500, 4))
    mags[::13, 0] = 0.0
    mags[::29, 1] = -0.0
    mags[::7, 2] = 0.0
    mags[[7, 11, 19], [0, 1, 2]] = [np.nan, np.inf, -np.inf]  # column 3 has no zero
    tame = np.cumsum(np.abs(rng.normal(size=2000))) + 1.0
    tame[::17] = -tame[::17]
    slow = np.cumsum(rng.normal(size=2000)) * 1e-3  # codes below 16, 4 and 2 at 1e-3..1e-1
    return [
        ("abs-one-column", predictive.encode_abs, walk, 1.0),
        ("abs-16-columns", predictive.encode_abs, block, scale),
        ("abs-verbatim-block", predictive.encode_abs, noise, 1.0),
        ("pwrel-ragged-block", predictive.encode_pwrel, mags, None),
        ("pwrel-one-column", predictive.encode_pwrel, tame, None),
        ("abs-narrow-codes", predictive.encode_abs, slow, 1.0),
    ]


def predictive_digests():
    out = {}
    for name, encode, x, scale in golden_inputs():
        for width in (4, 8):
            xw = x.astype(np.float32).astype(np.float64) if width == 4 else x
            for c in GOLDEN_BOUNDS:
                buf, recon = encode(xw, c if scale is None else c * scale, width)
                h = hashlib.sha256(buf)
                h.update(recon.tobytes())
                h.update(predictive.decode(buf, width, xw.size).tobytes())
                out[f"{name} f{8 * width} {c:g}"] = h.hexdigest()[:16]
    return out


# sha256 of (stream, encoder reconstruction, decode) per case, from the
# container-version-11 predictive format
PREDICTIVE_DIGESTS = {
    "abs-one-column f32 1e-07": "e059c9c549576ee8",
    "abs-one-column f32 1e-06": "45705380d7c8295e",
    "abs-one-column f32 1e-05": "f7d9f0f95b736c0f",
    "abs-one-column f32 0.0001": "0291920304fb2c09",
    "abs-one-column f32 0.001": "3de06fe1a6d59707",
    "abs-one-column f32 0.01": "d0b105f51ff3a927",
    "abs-one-column f32 0.1": "461d7b987fefe502",
    "abs-one-column f64 1e-07": "65d32df416a55258",
    "abs-one-column f64 1e-06": "b6d7ee9e7c932ca4",
    "abs-one-column f64 1e-05": "6f16f6153381a743",
    "abs-one-column f64 0.0001": "361411878f25b75b",
    "abs-one-column f64 0.001": "be891806a833dc75",
    "abs-one-column f64 0.01": "f8cb473a717038fb",
    "abs-one-column f64 0.1": "4e4c25732f613f78",
    "abs-16-columns f32 1e-07": "d2a72bb5fec2ec34",
    "abs-16-columns f32 1e-06": "f00ad4d6079b6681",
    "abs-16-columns f32 1e-05": "3550e91c497149e8",
    "abs-16-columns f32 0.0001": "daf8f5a4e57795b0",
    "abs-16-columns f32 0.001": "1aac782ee7ac0825",
    "abs-16-columns f32 0.01": "e977cb8e467bf287",
    "abs-16-columns f32 0.1": "ed05c5b3b69b49f4",
    "abs-16-columns f64 1e-07": "2daee799dbf2a533",
    "abs-16-columns f64 1e-06": "d80244da2b345458",
    "abs-16-columns f64 1e-05": "a7d81c932b0df625",
    "abs-16-columns f64 0.0001": "5cb7bfa97676457e",
    "abs-16-columns f64 0.001": "3569398a818d8626",
    "abs-16-columns f64 0.01": "37c56de61eb58a52",
    "abs-16-columns f64 0.1": "a7f44e8ab68598d8",
    "abs-verbatim-block f32 1e-07": "58b92a1caf22ff30",
    "abs-verbatim-block f32 1e-06": "58b92a1caf22ff30",
    "abs-verbatim-block f32 1e-05": "58b92a1caf22ff30",
    "abs-verbatim-block f32 0.0001": "58b92a1caf22ff30",
    "abs-verbatim-block f32 0.001": "58b92a1caf22ff30",
    "abs-verbatim-block f32 0.01": "58b92a1caf22ff30",
    "abs-verbatim-block f32 0.1": "58b92a1caf22ff30",
    "abs-verbatim-block f64 1e-07": "54c3de7c406301c7",
    "abs-verbatim-block f64 1e-06": "54c3de7c406301c7",
    "abs-verbatim-block f64 1e-05": "54c3de7c406301c7",
    "abs-verbatim-block f64 0.0001": "54c3de7c406301c7",
    "abs-verbatim-block f64 0.001": "54c3de7c406301c7",
    "abs-verbatim-block f64 0.01": "54c3de7c406301c7",
    "abs-verbatim-block f64 0.1": "54c3de7c406301c7",
    "pwrel-ragged-block f32 1e-07": "a15f53d65d357d40",
    "pwrel-ragged-block f32 1e-06": "5c6de9b2b6c06993",
    "pwrel-ragged-block f32 1e-05": "ddd380ad3fb2b45e",
    "pwrel-ragged-block f32 0.0001": "84bf1efaa5585309",
    "pwrel-ragged-block f32 0.001": "a9f98ec76cbec04f",
    "pwrel-ragged-block f32 0.01": "095f7a5a4be3294d",
    "pwrel-ragged-block f32 0.1": "3d0a1ce53c3f6910",
    "pwrel-ragged-block f64 1e-07": "8bc00295e7e0b19b",
    "pwrel-ragged-block f64 1e-06": "0f2c99f301c71ecc",
    "pwrel-ragged-block f64 1e-05": "0a0f7c455c4c4d63",
    "pwrel-ragged-block f64 0.0001": "0f4f2fb6088f48f7",
    "pwrel-ragged-block f64 0.001": "d93309edf8d8622e",
    "pwrel-ragged-block f64 0.01": "877ec3c0f59268e1",
    "pwrel-ragged-block f64 0.1": "681844b023a816b2",
    "pwrel-one-column f32 1e-07": "ec5138b7355ca488",
    "pwrel-one-column f32 1e-06": "bb2d6b5bb107a6fb",
    "pwrel-one-column f32 1e-05": "459f946e9ec6834b",
    "pwrel-one-column f32 0.0001": "695478fcc5739e8a",
    "pwrel-one-column f32 0.001": "15e76b7864c8c2b9",
    "pwrel-one-column f32 0.01": "e94178f2ab389dfa",
    "pwrel-one-column f32 0.1": "033ac8947eb06907",
    "pwrel-one-column f64 1e-07": "aa206bd7a47b10ba",
    "pwrel-one-column f64 1e-06": "cc5386754d7b0fcf",
    "pwrel-one-column f64 1e-05": "01c196838448d18c",
    "pwrel-one-column f64 0.0001": "cd2d0ac8f10c3fc0",
    "pwrel-one-column f64 0.001": "dcca88fe451f112b",
    "pwrel-one-column f64 0.01": "1a71821251b6cb32",
    "pwrel-one-column f64 0.1": "c5bd3ab4ee3b5c39",
    "abs-narrow-codes f32 1e-07": "b325fed7ad12d60d",
    "abs-narrow-codes f32 1e-06": "1550afe1dc6b2f5e",
    "abs-narrow-codes f32 1e-05": "8442884a6715d509",
    "abs-narrow-codes f32 0.0001": "d248994ee657620f",
    "abs-narrow-codes f32 0.001": "ae6a563b1a2f3169",
    "abs-narrow-codes f32 0.01": "1441254c09f001c2",
    "abs-narrow-codes f32 0.1": "3ae865ac729b4fc6",
    "abs-narrow-codes f64 1e-07": "e766d4db1592b232",
    "abs-narrow-codes f64 1e-06": "7955ef464fed35d9",
    "abs-narrow-codes f64 1e-05": "89ec3832acbb1cef",
    "abs-narrow-codes f64 0.0001": "21ef7787617147cb",
    "abs-narrow-codes f64 0.001": "c255ce13c715e27b",
    "abs-narrow-codes f64 0.01": "e9bc2c4e700bea95",
    "abs-narrow-codes f64 0.1": "6b7c43ac9709efb1",
}


def test_predictive_streams_match_golden_digests():
    assert predictive_digests() == PREDICTIVE_DIGESTS


def test_golden_narrow_codes_reach_every_packing():
    # the narrow-codes case packs its codes 4, 2 and 1 bits each at 1e-3,
    # 1e-2 and 1e-1, so the digests pin each packed form
    (x,) = [x for name, _, x, _ in golden_inputs() if name == "abs-narrow-codes"]
    for c, field in ((1e-3, PACK_FIELD[4]), (1e-2, PACK_FIELD[2]), (1e-1, PACK_FIELD[1])):
        for width in (4, 8):
            buf, _ = predictive.encode_abs(x, c, width)
            assert buf[0] & predictive._FLAG_DEFLATED and pack_field(buf[0]) == field


def test_golden_inputs_reach_the_verbatim_paths():
    # the golden cases cover a raw column inside a coded block and a raw block
    cases = {name: (encode, x, scale) for name, encode, x, scale in golden_inputs()}
    encode, x, scale = cases["abs-16-columns"]
    buf, _ = encode(x, 1e-3 * scale, 8)
    n_cols = x.shape[1]
    table = np.frombuffer(
        buf[predictive._HEAD.size : predictive._HEAD.size + n_cols * predictive._COLUMN.itemsize],
        predictive._COLUMN,
    )
    assert not buf[0] & predictive._FLAG_VERBATIM
    assert (table["step"] == 0).tolist() == [j == 5 for j in range(n_cols)]
    encode, x, scale = cases["abs-verbatim-block"]
    assert predictive.encode_abs(x, 1e-3, 8)[0][0] == predictive._FLAG_VERBATIM
    encode, x, _ = cases["pwrel-ragged-block"]
    assert predictive.encode_pwrel(x, 1e-3, 8)[0][0] & predictive._FLAG_ZEROS
