import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppress.errors import CodecError
from ppress.reducers import bitplane


def enc_dec(x, mode, c, block=4, width=8):
    buf, recon = bitplane.encode(x, mode, c, block, width)
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
        buf_a, _ = bitplane.encode(a, "rate", c, 4, 8)
        buf_b, _ = bitplane.encode(b, "rate", c, 4, 8)
        assert len(buf_a) == len(buf_b)
        n_blocks = (4099 + 3) // 4
        plane_bits = n_blocks * int(round(4 * c))
        header = bitplane._HEAD.size + 1 + 2 * n_blocks + bitplane._BITS.size
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
        buf, recon = bitplane.encode(x, "acc", eb, 4, 4)
        out = bitplane.decode(buf, 4)
        assert out.tobytes() == recon.tobytes()
        assert np.abs(x.astype(np.float64) - out).max() <= eb


def test_acc_extreme_exponent_spread_uses_raw_blocks():
    # alignment alone cannot hit this bound, so blocks are stored verbatim
    x = np.array([1e300, 1e-300, 1e300, 1e-300, 1.0, 2.0, 3.0, 4.0])
    _, out = enc_dec(x, "acc", 1e-310)
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
        bitplane.encode(np.array([1.0, np.inf, 2.0, 3.0]), "acc", 1e-3, 4, 8)


def test_block_sizes_other_than_four():
    rng = np.random.default_rng(8)
    x = rng.normal(size=777)
    for block in (2, 8, 16):
        _, out = enc_dec(x, "acc", 1e-4, block=block)
        assert np.abs(x - out).max() <= 1e-4


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
    buf, recon = bitplane.encode(walk, mode, c, 4, 8)
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
    [("flags", 1), ("mode", 7), ("block", 3), ("n_blocks", 2), ("c", float("nan"))],
)
def test_inconsistent_header_raises_codec_error(field, value):
    buf = walk_stream("rate")
    flags, n, mode_code, c, n_blocks = bitplane._HEAD.unpack_from(buf)
    head = {"flags": flags, "n": n, "mode": mode_code, "c": c, "n_blocks": n_blocks}
    head[field] = value
    block = value if field == "block" else buf[bitplane._HEAD.size]
    bad = (
        bitplane._HEAD.pack(head["flags"], head["n"], head["mode"], head["c"], head["n_blocks"])
        + bytes([block])
        + buf[bitplane._HEAD.size + 1 :]
    )
    with pytest.raises(CodecError):
        bitplane.decode(bad, 8)


def test_too_many_planes_raises_codec_error():
    buf = bytearray(walk_stream("prec"))
    n_blocks = 1000
    buf[bitplane._HEAD.size + 1 + 2 * n_blocks] = bitplane.TOTAL_PLANES + 1
    with pytest.raises(CodecError):
        bitplane.decode(bytes(buf), 8)
