import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppress.errors import CodecError, ConfigError
from ppress.reducers import Method, Mode, ReducerConfig, bitplane, compress
from ppress.tabular import from_array


def enc_dec(x, mode, c, width=8):
    buf, recon = bitplane.encode(x, mode, c, width)
    out = bitplane.decode(buf, mode, c, np.size(x), width)
    assert out.tobytes() == recon.tobytes(), "decode must match encoder reconstruction"
    return buf, out


def test_lifting_is_reversible():
    rng = np.random.default_rng(0)
    for block in (2, 4, 8, 16):
        ints = rng.integers(-(2**54), 2**54, size=(100, block))
        back = bitplane._unlift(bitplane._lift(ints))
        assert np.array_equal(back, ints)


def test_lifted_coefficients_stay_in_plane_budget():
    rng = np.random.default_rng(1)
    for block in (2, 4, 8):
        ints = rng.integers(-(2**54), 2**54, size=(500, block))
        coeffs = bitplane._lift(ints)
        assert np.abs(coeffs).max() < 2**bitplane.TOTAL_PLANES


def test_prec_full_planes_lossless_on_aligned_data():
    rng = np.random.default_rng(2)
    x = rng.integers(-1000, 1000, size=4096).astype(np.float64)
    _, out = enc_dec(x, "prec", bitplane.TOTAL_PLANES)
    assert np.array_equal(out, x)


def test_prec_zero_planes_reconstructs_zero():
    x = np.array([1.5, -2.25, 3.0, 4.0])
    _, out = enc_dec(x, "prec", 0)
    assert np.array_equal(out, np.zeros(4))


def test_prec_error_shrinks_with_planes():
    rng = np.random.default_rng(3)
    x = rng.normal(size=4096) * 37.0
    errs = []
    for c in (4, 8, 16, 32, 52):
        _, out = enc_dec(x, "prec", c)
        errs.append(np.abs(x - out).max())
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-9


def test_rate_stream_size_independent_of_content():
    rng = np.random.default_rng(4)
    a = rng.normal(size=4099) * 1e5
    b = rng.uniform(-1e-3, 1e-3, size=4099)
    b[:100] = 0.0  # zero blocks must not shrink the stream in rate mode
    for c in (3, 8.63, 16):
        buf_a, _ = bitplane.encode(a, "rate", c, 8)
        buf_b, _ = bitplane.encode(b, "rate", c, 8)
        assert len(buf_a) == len(buf_b)
        n_blocks = (4099 + 3) // 4
        plane_bits = n_blocks * int(round(4 * c))
        header = 1 + 2 * n_blocks  # kind byte, exponents
        assert len(buf_a) == header + (plane_bits + 7) // 8


def test_rate_error_shrinks_with_rate():
    rng = np.random.default_rng(5)
    x = rng.normal(size=2048)
    errs = []
    for c in (2, 6, 12, 24):
        _, out = enc_dec(x, "rate", c)
        errs.append(np.abs(x - out).max())
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_acc_bound_holds_mixed_magnitudes():
    rng = np.random.default_rng(6)
    x = rng.normal(size=4096) * 10.0 ** rng.integers(-3, 4, size=4096)
    x[::31] = 0.0
    for eb in (1e-1, 1e-3, 1e-6, 1e-9):
        _, out = enc_dec(x, "acc", eb)
        assert np.abs(x - out).max() <= eb


def test_acc_bound_holds_f32():
    rng = np.random.default_rng(7)
    x = (rng.normal(size=1024) * 50).astype(np.float32)
    for eb in (1e-1, 1e-3):
        buf, recon = bitplane.encode(x, "acc", eb, 4)
        out = bitplane.decode(buf, "acc", eb, x.size, 4)
        assert out.tobytes() == recon.tobytes()
        assert np.abs(x.astype(np.float64) - out).max() <= eb


def test_acc_extreme_exponent_spread_uses_raw_blocks():
    # no plane count can keep 1.0 beside 1e300 within 1e-3, so that block is
    # stored verbatim inside a coded stream
    x = np.concatenate([[1e300, 1.0, -1e300, 2.0], np.linspace(0.0, 1.0, 400)])
    buf, out = enc_dec(x, "acc", 1e-3)
    assert buf[0] == bitplane._CODED
    raw_mask = np.unpackbits(np.frombuffer(buf, np.uint8, count=13, offset=1 + 2 * 101))
    assert raw_mask.tolist() == [1] + [0] * 103
    assert np.array_equal(out[:4], x[:4])
    assert np.abs(x - out).max() <= 1e-3
    # alignment alone cannot hit this bound anywhere, so the stream stores
    # the values
    x = np.array([1e300, 1e-300, 1e300, 1e-300, 1.0, 2.0, 3.0, 4.0])
    buf, out = enc_dec(x, "acc", 1e-310)
    assert buf[0] == bitplane._STORED
    assert np.array_equal(out, x)


def test_near_float_max_never_decodes_to_inf():
    # prec keeps 4 planes here, and the truncated block rebuilds past the
    # float maximum: encode refuses rather than write a stream whose decode
    # would be ±inf.  acc meets its bound, full precision is exact.
    top = np.finfo(np.float64).max
    x = np.array([top, 0.99 * top, 0.0, -top])
    with pytest.raises(CodecError, match="overflows"):
        bitplane.encode(x, "prec", 4, 8)
    _, out = enc_dec(x, "acc", 1e300)
    assert np.abs(x - out).max() <= 1e300
    _, out = enc_dec(x, "prec", 56)
    assert np.array_equal(out, x)


def test_all_zero_column_minimal_stream():
    x = np.zeros(4096)
    buf, out = enc_dec(x, "acc", 1e-6)
    assert np.array_equal(out, x)
    n_blocks = 4096 // 4
    # header + exponent sentinels + per-block planes + raw mask, no plane bits
    assert len(buf) < n_blocks * 4 + 64


def test_partial_final_block():
    x = np.arange(10, dtype=np.float64)
    _, out = enc_dec(x, "acc", 1e-6)
    assert out.size == 10
    assert np.abs(x - out).max() <= 1e-6


def raw_size_inputs(width):
    """A walk, a scaled-normal table and a rough table in the width, column
    after column, one of them with a block of zeros, and no values at all."""
    rng = np.random.default_rng(61)
    walk = np.cumsum(rng.normal(size=3001))
    normal = rng.normal(size=(500, 3)) * [1e-3, 1.0, 1e4]
    rough = rng.standard_t(df=2.0, size=(400, 4)) * 10.0 ** np.arange(-1, 3)
    rough[rng.random(size=rough.shape) < 0.02] = 0.0
    rough[100:108, 2] = 0.0
    dt = np.float32 if width == 4 else np.float64
    tables = [walk, normal.ravel(order="F"), rough.ravel(order="F"), np.empty(0)]
    return [t.astype(dt).astype(np.float64) for t in tables]


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize(
    "mode, c",
    [("prec", 0), ("prec", 20), ("prec", 32), ("prec", 56),
     ("acc", 1e-20), ("acc", 1e-12), ("acc", 1e-7), ("acc", 1e-3),
     ("rate", 0.75), ("rate", 12.0), ("rate", None)],
)
def test_no_stream_exceeds_raw_by_more_than_its_kind_byte(mode, c, width):
    c = 8 * width if c is None else c
    for x in raw_size_inputs(width):
        buf, out = enc_dec(x, mode, c, width)
        assert len(buf) <= x.size * width + 1
        if buf[0] == bitplane._STORED:
            assert out.tobytes() == x.tobytes()
        if mode == "acc":
            assert np.abs(x - out).max(initial=0.0) <= c


def test_nonfinite_rejected():
    with pytest.raises(CodecError):
        bitplane.encode(np.array([1.0, np.inf, 2.0, 3.0]), "acc", 1e-3, 8)


@settings(max_examples=50, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(1, 120),
        elements=st.floats(-1e15, 1e15, allow_nan=False, width=64),
    ),
    eb=st.floats(1e-12, 1e2),
)
def test_acc_contract_property(x, eb):
    _, out = enc_dec(x, "acc", eb)
    assert np.abs(x - out).max() <= eb


WALK_BOUND = {"acc": 1e-3, "prec": 20, "rate": 12.0}


def walk_stream(mode):
    rng = np.random.default_rng(12)
    walk = np.cumsum(rng.normal(size=4000))
    buf, recon = bitplane.encode(walk, mode, WALK_BOUND[mode], 8)
    assert buf[0] == bitplane._CODED
    assert walk_decode(buf, mode).tobytes() == recon.tobytes()
    return buf


def walk_decode(buf, mode, c=None, n=4000):
    return bitplane.decode(buf, mode, WALK_BOUND[mode] if c is None else c, n, 8)


@pytest.mark.parametrize("mode", ["acc", "prec", "rate"])
@pytest.mark.parametrize(
    "damage",
    [lambda b: b[: len(b) // 2], lambda b: b[:-3], lambda b: b[:20], lambda b: b + b"junk"],
    ids=["halved", "minus3", "first20", "junk"],
)
def test_damaged_stream_raises_codec_error(mode, damage):
    with pytest.raises(CodecError):
        walk_decode(damage(walk_stream(mode)), mode)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["acc", "prec", "rate"]), cut=st.integers(0, 10**6))
def test_every_truncation_raises_codec_error(mode, cut):
    buf = walk_stream(mode)
    with pytest.raises(CodecError):
        walk_decode(buf[: cut % len(buf)], mode)


@pytest.mark.parametrize(
    "mode, c, n",
    [
        ("rel", 1e-3, 4000),
        ("acc", float("nan"), 4000),
        ("acc", float("inf"), 4000),
        ("acc", 0.0, 4000),
        ("acc", -1.0, 4000),
        ("prec", 2.5, 4000),
        ("rate", 64.5, 4000),
        ("acc", None, 3996),
        ("prec", None, 4004),
        ("rate", None, 4100),
    ],
)
def test_decode_arguments_the_stream_contradicts_raise_codec_error(mode, c, n):
    # the stream stores no mode, bound or value count: the container's
    # must be ones the mode takes, and they set every section's size
    buf = walk_stream("acc" if mode == "rel" else mode)
    with pytest.raises(CodecError):
        walk_decode(buf, mode, c if c is not None else WALK_BOUND[mode], n)


@pytest.mark.parametrize("mode", ["acc", "prec", "rate"])
def test_unknown_stream_kind_raises_codec_error(mode):
    buf = walk_stream(mode)
    with pytest.raises(CodecError, match="kind"):
        walk_decode(b"\x02" + buf[1:], mode)


def reference_groups(budget):
    """Blocks grouped by bit budget."""
    for b in np.unique(budget):
        yield int(b), np.flatnonzero(budget == b)


def reference_emit(coeffs, budget):
    """The packing one budget group and one plane at a time: each block's
    sign bits, then its planes from 55 down, then zeros, cut to its budget."""
    block = coeffs.shape[1]
    signs = (coeffs < 0).astype(np.uint8)
    mags = np.abs(coeffs).astype(np.uint64)
    total = int(budget.sum())
    bits = np.zeros(total, dtype=np.uint8)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for b, rows in reference_groups(budget):
        if b == 0:
            continue
        planes = [signs[rows]]
        for p in range(bitplane.TOTAL_PLANES - 1, -1, -1):
            planes.append(((mags[rows] >> np.uint64(p)) & np.uint64(1)).astype(np.uint8))
        planes.append(np.zeros((rows.size, b), dtype=np.uint8))
        chunk = np.concatenate(planes, axis=1)
        pos = offs[rows][:, None] + np.arange(b)[None, :]
        bits[pos.ravel()] = chunk[:, :b].ravel()
    return np.packbits(bits).tobytes(), total


def reference_absorb(bits, budget):
    """Inverse of reference_emit, from the unpacked bits."""
    block = bitplane._BLOCK
    full = block * (1 + bitplane.TOTAL_PLANES)
    coeffs = np.zeros((budget.size, block), dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for b, rows in reference_groups(budget):
        if b == 0:
            continue
        use = min(b, full)
        pos = offs[rows][:, None] + np.arange(use)[None, :]
        chunk = np.zeros((rows.size, full), dtype=np.uint8)
        chunk[:, :use] = bits[pos.ravel()].reshape(rows.size, use)
        signs = chunk[:, :block].astype(bool)
        mags = np.zeros((rows.size, block), dtype=np.uint64)
        for i, p in enumerate(range(bitplane.TOTAL_PLANES - 1, -1, -1)):
            plane = chunk[:, block * (i + 1) : block * (i + 2)].astype(np.uint64)
            mags |= plane << np.uint64(p)
        vals = mags.astype(np.int64)
        vals[signs] *= -1
        coeffs[rows] = vals
    return coeffs


@st.composite
def packing_cases(draw):
    block = bitplane._BLOCK
    n_blocks = draw(st.integers(0, 40))
    coeffs = draw(
        hnp.arrays(np.int64, (n_blocks, block), elements=st.integers(-(2**56) + 1, 2**56 - 1))
    )
    planes = draw(hnp.arrays(np.int64, n_blocks, elements=st.integers(0, bitplane.TOTAL_PLANES)))
    whole = block * (1 + planes)
    # per block: nothing, whole nibbles (prec and acc), a cut inside a
    # nibble, or a run past plane 0 into zeros (rate can ask for both)
    kind = draw(hnp.arrays(np.int64, n_blocks, elements=st.integers(0, 3)))
    frac = draw(hnp.arrays(np.float64, n_blocks, elements=st.floats(0.0, 1.0)))
    cut = (frac * whole).astype(np.int64)
    full = block * (1 + bitplane.TOTAL_PLANES)
    over = full + (frac * 3 * full).astype(np.int64)
    budget = np.choose(kind, [np.zeros_like(whole), whole, cut, over])
    return coeffs, budget


@settings(max_examples=300, deadline=None)
@given(
    case=packing_cases(),
    chunk=st.sampled_from([1, 7, 64, 1000, 1 << 18]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packing_matches_reference(case, chunk, seed):
    coeffs, budget = case
    payload, n_bits = reference_emit(coeffs, budget)
    # random bits, also where a block's budget runs past plane 0
    noise = np.random.default_rng(seed).integers(0, 256, len(payload), dtype=np.uint8)
    with patch.object(bitplane, "_CHUNK", chunk):
        assert bitplane._emit(coeffs, budget) == payload
        for packed in (np.frombuffer(payload, np.uint8), noise):
            bits = np.unpackbits(packed, count=n_bits)
            assert np.array_equal(
                bitplane._absorb(packed, budget),
                reference_absorb(bits, budget),
            )


def test_a_budget_rebuilds_as_its_truncation():
    # the encoder's reconstruction is _truncate_coeffs, with no decode: a
    # block's first B bits must rebuild exactly that, for every budget a
    # rate can ask for (up to 256 bits) and past it, uniform or mixed
    rng = np.random.default_rng(30)
    budgets = np.arange(261)

    def check(budget):
        coeffs = rng.integers(-(2**56) + 1, 2**56, size=(budget.size, 4))
        coeffs[rng.random(coeffs.shape) < 0.1] = 0
        payload = np.frombuffer(bitplane._emit(coeffs, budget), np.uint8)
        assert np.array_equal(bitplane._absorb(payload, budget),
                              bitplane._truncate_coeffs(coeffs, budget))

    for b in budgets:
        check(np.full(20, b))
    check(budgets)
    check(rng.permutation(budgets))
    check(rng.choice(budgets, 500))
    check(4 * rng.integers(1, 1 + bitplane.TOTAL_PLANES, 500))


def test_transpose_tables_match_a_scalar_loop():
    # _SPREAD[x]: nibble n of the word, from the top, holds bit n of x,
    # counted from the top, in its top bit (value 0's place)
    for x in range(256):
        want = 0
        for n in range(8):
            want |= ((x >> (7 - n)) & 1) << (31 - 4 * n)
        assert int(bitplane._SPREAD[x]) == want
    # _GATHER[p][x]: byte p of a word of plane nibbles, back in the values'
    # magnitude bytes, value j in bits 8j..8j+7 and plane n at bit 7 - n
    for p in range(4):
        for x in range(256):
            word = x << (8 * (3 - p))
            want = 0
            for n in range(8):
                nibble = (word >> (28 - 4 * n)) & 15
                for j in range(4):
                    want |= ((nibble >> (3 - j)) & 1) << (8 * j + 7 - n)
            assert int(bitplane._GATHER[p][x]) == want


def test_block_exponents_are_the_largest_per_value_exponent():
    top = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    blocks = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -0.0, -0.0, 0.0],
        [tiny, -tiny, 0.0, -0.0],
        [tiny, 3 * tiny, 2.0**-1030, -(2.0**-1040)],
        [2.0**-1022, -(2.0**-1023), 0.0, tiny],
        [1.0, 2.0, -4.0, 0.5],
        [-8.0, 7.999999999999999, 0.25, 0.0],
        [2.0**-1074, 2.0**-1073, 2.0**-1072, -(2.0**-1071)],
        [top, -top, 0.0, 1.0],
        [np.nextafter(top, 0), 2.0**1023, -(2.0**1023), 1e308],
        [-1.5, 1.5, -0.0, 3.0],
    ])
    rng = np.random.default_rng(40)
    mixed = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, size=(200, 4))
    mixed[rng.random(size=mixed.shape) < 0.2] = 0.0
    blocks = np.concatenate([blocks, mixed, -blocks])
    _, exps = bitplane._forward(blocks)
    per_value = np.where(blocks == 0.0, np.iinfo(np.int32).min, np.frexp(blocks)[1])
    zero = (blocks == 0.0).all(axis=1)
    want = np.where(zero, bitplane._ZERO_EXP, per_value.max(axis=1))
    assert exps.tolist() == want.tolist()


@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("c, bits", [(10.25, 41), (58.25, 233), (60.25, 241)])
def test_rates_that_end_inside_a_nibble_round_trip(width, c, bits):
    # 41 bits a block end one bit into the tenth plane nibble; 233 and 241
    # run past plane 0 into zero nibbles
    x = raw_size_inputs(width)[1]
    n_blocks = -(-x.size // 4)
    if c > 8 * width:
        # check_fields refuses a rate past the value width before any codec runs
        ds = from_array(x, dtype=f"f{8 * width}")
        with pytest.raises(ConfigError, match="rate"):
            compress(ds, ReducerConfig(Method.EBLC_BITPLANE, Mode.RATE, (c,)))
        return
    buf, out = enc_dec(x, "rate", c, width)
    assert bitplane.plane_bound("rate", c) == bits
    if 1 + 2 * n_blocks + -(-n_blocks * bits // 8) > 1 + x.size * width:
        # a coding larger than the values stores them
        assert buf[0] == bitplane._STORED and out.tobytes() == x.tobytes()
    else:
        assert buf[0] == bitplane._CODED
        assert len(buf) == 1 + 2 * n_blocks + -(-n_blocks * bits // 8)


@pytest.mark.parametrize("bits", [41, 233, 241])
def test_budgets_that_end_inside_a_nibble_pack_as_the_reference(bits):
    rng = np.random.default_rng(bits)
    coeffs = rng.integers(-(2**56) + 1, 2**56, size=(300, 4))
    budget = np.full(300, bits)
    payload, n_bits = reference_emit(coeffs, budget)
    assert bitplane._emit(coeffs, budget) == payload
    packed = np.frombuffer(payload, np.uint8)
    assert np.array_equal(bitplane._absorb(packed, budget),
                          reference_absorb(np.unpackbits(packed, count=n_bits), budget))


def hash_inputs():
    rng = np.random.default_rng(2024)
    walk = np.cumsum(rng.normal(size=60_000))  # 15 000 blocks: several chunks
    mixed = rng.normal(size=6_001) * 10.0 ** rng.integers(-3, 4, size=6_001)
    mixed[::31] = 0.0
    # an exponent spread no plane count can bound: acc stores such blocks raw
    spread = np.tile([1e300, 1e-300, 1e300, 1e-300, 1.0, 2.0, 3.0, 4.0], 50)
    return [
        ("walk-f64", walk, 8),
        ("walk-f32", walk.astype(np.float32).astype(np.float64), 4),
        ("mixed-f64", mixed, 8),
        ("mixed-f32", mixed.astype(np.float32).astype(np.float64), 4),
        ("spread-f64", spread, 8),
    ]


HASH_CONFIGS = [
    ("prec", 0),
    ("prec", 9),
    ("prec", 20),
    ("prec", 56),
    ("rate", 0.75),
    ("rate", 10.25),
    ("rate", 12.0),
    ("rate", 58.5),
    ("rate", 60.25),
    ("acc", 1e-3),
    ("acc", 1e-9),
    ("acc", 1e-310),
]


def stream_digests():
    out = {}
    for name, x, width in hash_inputs():
        for mode, c in HASH_CONFIGS:
            if mode == "rate" and c > 8 * width:
                continue  # a rate past the value width is refused
            buf, recon = bitplane.encode(x, mode, c, width)
            h = hashlib.sha256(buf)
            h.update(recon.tobytes())
            h.update(bitplane.decode(buf, mode, c, x.size, width).tobytes())
            out[f"{name} {mode} {c}"] = h.hexdigest()[:16]
    return out


# sha256 of (stream, encoder reconstruction, decode) per case, from the
# group-and-plane packing that reference_emit/reference_absorb keep.  Each
# is the container-version-9 stream: a coded one reconstructs bit for bit as
# its version-8 stream did, and the rest (version-8 streams longer than the
# raw values) store the values
STREAM_DIGESTS = {
    "walk-f64 prec 0": "27fd2a5ed3a4127e",
    "walk-f64 prec 9": "209de2f78becb657",
    "walk-f64 prec 20": "02f41c76d14d7eba",
    "walk-f64 prec 56": "53742d29800d9a58",
    "walk-f64 rate 0.75": "4b192e4087d9c9c9",
    "walk-f64 rate 10.25": "196c9a3fba8ce736",
    "walk-f64 rate 12.0": "b1921c256f8b58d0",
    "walk-f64 rate 58.5": "f81b869b2ab872a5",
    "walk-f64 rate 60.25": "71e7603ee36d222d",
    "walk-f64 acc 0.001": "ca5b72c00d9e8ff1",
    "walk-f64 acc 1e-09": "078601a030c663d1",
    "walk-f64 acc 1e-310": "3ddc6ee2fd72ab3e",
    "walk-f32 prec 0": "27fd2a5ed3a4127e",
    "walk-f32 prec 9": "209de2f78becb657",
    "walk-f32 prec 20": "53ac1a4bfa989395",
    "walk-f32 prec 56": "26f114410189277d",
    "walk-f32 rate 0.75": "4b192e4087d9c9c9",
    "walk-f32 rate 10.25": "196c9a3fba8ce736",
    "walk-f32 rate 12.0": "68e9720538258522",
    "walk-f32 acc 0.001": "64448a31945c5e82",
    "walk-f32 acc 1e-09": "26f114410189277d",
    "walk-f32 acc 1e-310": "26f114410189277d",
    "mixed-f64 prec 0": "a8d4cc952a8b8877",
    "mixed-f64 prec 9": "7b40c20e24e36268",
    "mixed-f64 prec 20": "97b244c24c34a5e8",
    "mixed-f64 prec 56": "8a7b28408ee50d26",
    "mixed-f64 rate 0.75": "4accd48bee7d7412",
    "mixed-f64 rate 10.25": "4fb63c61d1eefd4b",
    "mixed-f64 rate 12.0": "ef0586c980371286",
    "mixed-f64 rate 58.5": "09f72729c4a6cd73",
    "mixed-f64 rate 60.25": "97635f4b86935154",
    "mixed-f64 acc 0.001": "ef698e30c2f1a1a8",
    "mixed-f64 acc 1e-09": "7fa66b04930973ae",
    "mixed-f64 acc 1e-310": "97635f4b86935154",
    "mixed-f32 prec 0": "a8d4cc952a8b8877",
    "mixed-f32 prec 9": "7b40c20e24e36268",
    "mixed-f32 prec 20": "7c7875c74ccf30ce",
    "mixed-f32 prec 56": "36fcbd02b6a7eade",
    "mixed-f32 rate 0.75": "4accd48bee7d7412",
    "mixed-f32 rate 10.25": "4fb63c61d1eefd4b",
    "mixed-f32 rate 12.0": "ef0586c980371286",
    "mixed-f32 acc 0.001": "52112b42276a049b",
    "mixed-f32 acc 1e-09": "36fcbd02b6a7eade",
    "mixed-f32 acc 1e-310": "36fcbd02b6a7eade",
    "spread-f64 prec 0": "b976920c15bbc82d",
    "spread-f64 prec 9": "ae800000234afea5",
    "spread-f64 prec 20": "98de6531797135a9",
    "spread-f64 prec 56": "d957e29cf2dcba96",
    "spread-f64 rate 0.75": "3d097d3f976fe968",
    "spread-f64 rate 10.25": "3b4db3b2345fd2c9",
    "spread-f64 rate 12.0": "e855ebb2c87215b8",
    "spread-f64 rate 58.5": "d4d676d9598f9a06",
    "spread-f64 rate 60.25": "45712c4c1c22643d",
    "spread-f64 acc 0.001": "e02dace70b3353b4",
    "spread-f64 acc 1e-09": "be28261833ef0f1a",
    "spread-f64 acc 1e-310": "45712c4c1c22643d",
}


def test_streams_match_recorded_digests():
    assert stream_digests() == STREAM_DIGESTS
