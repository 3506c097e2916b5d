import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppress.errors import CodecError
from ppress.reducers import bitplane


def enc_dec(x, mode, c, width=8):
    buf, recon = bitplane.encode(x, mode, c, width)
    out = bitplane.decode(buf, width)
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
        header = bitplane._HEAD.size + 2 * n_blocks + bitplane._BITS.size
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
        out = bitplane.decode(buf, 4)
        assert out.tobytes() == recon.tobytes()
        assert np.abs(x.astype(np.float64) - out).max() <= eb


def test_acc_extreme_exponent_spread_uses_raw_blocks():
    # alignment alone cannot hit this bound, so blocks are stored verbatim
    x = np.array([1e300, 1e-300, 1e300, 1e-300, 1.0, 2.0, 3.0, 4.0])
    _, out = enc_dec(x, "acc", 1e-310)
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


def walk_stream(mode):
    rng = np.random.default_rng(12)
    walk = np.cumsum(rng.normal(size=4000))
    c = {"acc": 1e-3, "prec": 20, "rate": 12.0}[mode]
    buf, recon = bitplane.encode(walk, mode, c, 8)
    assert bitplane.decode(buf, 8).tobytes() == recon.tobytes()
    return buf


@pytest.mark.parametrize("mode", ["acc", "prec", "rate"])
@pytest.mark.parametrize(
    "damage",
    [lambda b: b[: len(b) // 2], lambda b: b[:-3], lambda b: b[:20], lambda b: b + b"junk"],
    ids=["halved", "minus3", "first20", "junk"],
)
def test_damaged_stream_raises_codec_error(mode, damage):
    with pytest.raises(CodecError):
        bitplane.decode(damage(walk_stream(mode)), 8)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["acc", "prec", "rate"]), cut=st.integers(0, 10**6))
def test_every_truncation_raises_codec_error(mode, cut):
    buf = walk_stream(mode)
    with pytest.raises(CodecError):
        bitplane.decode(buf[: cut % len(buf)], 8)


@pytest.mark.parametrize(
    "field, value",
    [("flags", 1), ("mode", 7), ("n_blocks", 2), ("c", float("nan"))],
)
def test_inconsistent_header_raises_codec_error(field, value):
    buf = walk_stream("rate")
    flags, n, mode_code, c, n_blocks = bitplane._HEAD.unpack_from(buf)
    head = {"flags": flags, "n": n, "mode": mode_code, "c": c, "n_blocks": n_blocks}
    head[field] = value
    bad = (
        bitplane._HEAD.pack(head["flags"], head["n"], head["mode"], head["c"], head["n_blocks"])
        + buf[bitplane._HEAD.size :]
    )
    with pytest.raises(CodecError):
        bitplane.decode(bad, 8)


def test_too_many_planes_raises_codec_error():
    buf = bytearray(walk_stream("prec"))
    n_blocks = 1000
    buf[bitplane._HEAD.size + 2 * n_blocks] = bitplane.TOTAL_PLANES + 1
    with pytest.raises(CodecError):
        bitplane.decode(bytes(buf), 8)


def reference_groups(keep, budget):
    """Blocks grouped by (planes kept, bit budget)."""
    key = keep * (1 << 20) + budget
    for k in np.unique(key):
        rows = np.flatnonzero(key == k)
        yield int(keep[rows[0]]), int(budget[rows[0]]), rows


def reference_emit(coeffs, keep, budget):
    """The packing one (planes kept, budget) group and one plane at a time."""
    block = coeffs.shape[1]
    signs = (coeffs < 0).astype(np.uint8)
    mags = np.abs(coeffs).astype(np.uint64)
    total = int(budget.sum())
    bits = np.zeros(total, dtype=np.uint8)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for k, b, rows in reference_groups(keep, budget):
        if b == 0:
            continue
        want = block + block * k
        planes = [signs[rows]]
        for p in range(bitplane.TOTAL_PLANES - 1, bitplane.TOTAL_PLANES - 1 - k, -1):
            planes.append(((mags[rows] >> np.uint64(p)) & np.uint64(1)).astype(np.uint8))
        chunk = np.concatenate(planes, axis=1)
        use = min(b, want)
        pos = offs[rows][:, None] + np.arange(use)[None, :]
        bits[pos.ravel()] = chunk[:, :use].ravel()
    return np.packbits(bits).tobytes(), total


def reference_absorb(bits, keep, budget):
    """Inverse of reference_emit, from the unpacked bits."""
    block = bitplane._BLOCK
    coeffs = np.zeros((keep.size, block), dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(budget)[:-1]])
    for k, b, rows in reference_groups(keep, budget):
        if b == 0:
            continue
        want = block + block * k
        use = min(b, want)
        pos = offs[rows][:, None] + np.arange(use)[None, :]
        chunk = np.zeros((rows.size, want), dtype=np.uint8)
        chunk[:, :use] = bits[pos.ravel()].reshape(rows.size, use)
        signs = chunk[:, :block].astype(bool)
        mags = np.zeros((rows.size, block), dtype=np.uint64)
        for i, p in enumerate(range(bitplane.TOTAL_PLANES - 1, bitplane.TOTAL_PLANES - 1 - k, -1)):
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
    keep = draw(hnp.arrays(np.int64, n_blocks, elements=st.integers(0, bitplane.TOTAL_PLANES)))
    want = block * (1 + keep)
    # per block: nothing, a cut inside its planes, exactly its planes, or
    # more than its planes (zeros past them, as rate mode can ask for)
    kind = draw(hnp.arrays(np.int64, n_blocks, elements=st.integers(0, 3)))
    frac = draw(hnp.arrays(np.float64, n_blocks, elements=st.floats(0.0, 1.0)))
    cut = (frac * want).astype(np.int64)
    over = want + (frac * 3 * block * bitplane.TOTAL_PLANES).astype(np.int64)
    budget = np.choose(kind, [np.zeros_like(want), cut, want, over])
    return coeffs, keep, budget


@settings(max_examples=300, deadline=None)
@given(
    case=packing_cases(),
    chunk=st.sampled_from([1, 7, 64, 1000, 1 << 18]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packing_matches_reference(case, chunk, seed):
    coeffs, keep, budget = case
    payload, n_bits = reference_emit(coeffs, keep, budget)
    # random bits, also where a block's budget runs past its kept planes
    noise = np.random.default_rng(seed).integers(0, 256, len(payload), dtype=np.uint8)
    with patch.object(bitplane, "_CHUNK", chunk):
        assert bitplane._emit(coeffs, keep, budget) == (payload, n_bits)
        for packed in (np.frombuffer(payload, np.uint8), noise):
            bits = np.unpackbits(packed, count=n_bits)
            assert np.array_equal(
                bitplane._absorb(packed, keep, budget),
                reference_absorb(bits, keep, budget),
            )


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
    ("rate", 12.0),
    ("rate", 60.25),
    ("acc", 1e-3),
    ("acc", 1e-9),
    ("acc", 1e-310),
]


def stream_digests():
    out = {}
    for name, x, width in hash_inputs():
        for mode, c in HASH_CONFIGS:
            buf, recon = bitplane.encode(x, mode, c, width)
            h = hashlib.sha256(buf)
            h.update(recon.tobytes())
            h.update(bitplane.decode(buf, width).tobytes())
            out[f"{name} {mode} {c}"] = h.hexdigest()[:16]
    return out


# sha256 of (stream, encoder reconstruction, decode) per case, from the
# group-and-plane packing that reference_emit/reference_absorb keep.  Each
# stream is the container-version-6 stream at block size 4 without its
# block-size byte, with the same reconstruction
STREAM_DIGESTS = {
    "walk-f64 prec 0": "958c2b9e718496c7",
    "walk-f64 prec 9": "f3171e9196005ff7",
    "walk-f64 prec 20": "f62e1d7cd407893f",
    "walk-f64 prec 56": "b18952a31fd35198",
    "walk-f64 rate 0.75": "23ac7405ee9f5820",
    "walk-f64 rate 12.0": "e4e3db280b834203",
    "walk-f64 rate 60.25": "59cc27300d5515e8",
    "walk-f64 acc 0.001": "f1fd5cd6d66b6e4d",
    "walk-f64 acc 1e-09": "82e3206d59ab3075",
    "walk-f64 acc 1e-310": "846a095b4f7c9030",
    "walk-f32 prec 0": "958c2b9e718496c7",
    "walk-f32 prec 9": "f3171e9196005ff7",
    "walk-f32 prec 20": "197d1e2df0e5c12d",
    "walk-f32 prec 56": "42f7404a32458260",
    "walk-f32 rate 0.75": "23ac7405ee9f5820",
    "walk-f32 rate 12.0": "1ef7c95aadc7cd02",
    "walk-f32 rate 60.25": "6265f16422d47dc8",
    "walk-f32 acc 0.001": "b22105ed6a84a241",
    "walk-f32 acc 1e-09": "e7f8f045847c1bdc",
    "walk-f32 acc 1e-310": "dcd3edf7bd96e2f6",
    "mixed-f64 prec 0": "7cf1b2fa88f118b4",
    "mixed-f64 prec 9": "a838cc1d0dce0d3d",
    "mixed-f64 prec 20": "e65621ec96367482",
    "mixed-f64 prec 56": "c16a9a2fc913f0b2",
    "mixed-f64 rate 0.75": "d0ea12b229615e5c",
    "mixed-f64 rate 12.0": "9a8757b4b6c94a9d",
    "mixed-f64 rate 60.25": "61252ca22c8bc0f1",
    "mixed-f64 acc 0.001": "14db8a22d0bc8394",
    "mixed-f64 acc 1e-09": "fc93c005798bbc12",
    "mixed-f64 acc 1e-310": "7c63225a1da14542",
    "mixed-f32 prec 0": "7cf1b2fa88f118b4",
    "mixed-f32 prec 9": "a838cc1d0dce0d3d",
    "mixed-f32 prec 20": "b2a06aa41a940192",
    "mixed-f32 prec 56": "abb32403a4145513",
    "mixed-f32 rate 0.75": "d0ea12b229615e5c",
    "mixed-f32 rate 12.0": "9a8757b4b6c94a9d",
    "mixed-f32 rate 60.25": "5519106aac9f90c8",
    "mixed-f32 acc 0.001": "37710de1511c4023",
    "mixed-f32 acc 1e-09": "e8bc5ed821a81380",
    "mixed-f32 acc 1e-310": "075e91c074d2c8a4",
    "spread-f64 prec 0": "3007906dbb5bdd93",
    "spread-f64 prec 9": "4a7d783d6492ca6f",
    "spread-f64 prec 20": "546925c1351b8f27",
    "spread-f64 prec 56": "8b6fcd8dd2e27cfd",
    "spread-f64 rate 0.75": "3a5d74cc866cb922",
    "spread-f64 rate 12.0": "5158d98a1539a491",
    "spread-f64 rate 60.25": "f794b7c9a9614194",
    "spread-f64 acc 0.001": "4e9d30c5ba784eda",
    "spread-f64 acc 1e-09": "59cf45974e2d20e7",
    "spread-f64 acc 1e-310": "251bebfc994da972",
}


def test_streams_match_recorded_digests():
    assert stream_digests() == STREAM_DIGESTS
