"""Container round trips and the compress/decompress entry points."""

import math
import re
import struct
import warnings
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppress.errors import CodecError, ConfigError, DataFormatError
from ppress.reducers import (
    Artifact,
    Layout,
    Method,
    Mode,
    PER_VALUE,
    ReducerConfig,
    ReducerKnobs,
    compress,
    compression_ratio,
    decompress,
    error_report,
    pack,
    resolve_bound,
    retained_rows,
    unpack,
)
from ppress.reducers import bitplane, container, lossless, predictive
from ppress.tabular import ColumnStats, from_array


def stats(lo, hi):
    return ColumnStats(
        name="x", min=lo, max=hi, range=hi - lo, mean=0.0, variance=1.0
    )


def rand_ds(n=512, k=3, seed=0, dtype="f64"):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, k)) * [1.0, 50.0, 1e-3][:k]
    return from_array(vals, dtype=dtype)


def round_trip(ds, config):
    art, _, _ = compress(ds, config)
    art2 = unpack(pack(art))
    assert art2 == art
    out, _, _ = decompress(art2)
    return art, out


def test_resolve_bound_rel():
    assert resolve_bound(Mode.REL, 1e-2, stats(0.0, 10.0)) == pytest.approx(0.1)


def test_resolve_bound_abs():
    assert resolve_bound(Mode.ABS, 0.5) == 0.5


def test_resolve_bound_psnr():
    # eb = sqrt(3) * range * 10^(-psnr/20); at range 1 this pairs 164.77 dB
    # with an absolute bound of 1e-8
    eb = resolve_bound(Mode.PSNR, 164.77, stats(0.0, 1.0))
    assert eb == pytest.approx(1e-8, rel=1e-3)


def test_resolve_bound_pw_rel_sentinel():
    assert resolve_bound(Mode.PW_REL, 0.01) is PER_VALUE


def test_resolve_bound_zero_range_flags_verbatim():
    assert resolve_bound(Mode.REL, 0.1, stats(2.0, 2.0)) == 0.0


def test_container_round_trip_bytes():
    art = Artifact(
        method=Method.EBLC_PRED,
        mode=Mode.ABS,
        c=(1e-3,),
        layout=Layout.BY_COLUMN,
        dtype="f64",
        n_obs=7,
        n_feat=2,
        stream=b"alphabee",
    )
    buf = pack(art)
    assert buf[:4] == b"PPRS"
    assert len(buf) == art.comp_bytes
    assert unpack(buf) == art


def test_container_rejects_corruption():
    art = Artifact(
        method=Method.NONE,
        mode=Mode.NONE,
        c=(),
        layout=Layout.BY_COLUMN,
        dtype="f32",
        n_obs=1,
        n_feat=1,
        stream=b"0123456789",
    )
    good = pack(art)
    buf = bytearray(good)
    buf[-3] ^= 0xFF
    with pytest.raises(DataFormatError):
        unpack(bytes(buf))
    with pytest.raises(DataFormatError):
        unpack(b"XXXX" + bytes(buf[4:]))
    with pytest.raises(DataFormatError):
        unpack(bytes(buf[: len(buf) // 2]))
    # the stream runs to the end of the container: no bytes may follow it
    with pytest.raises(DataFormatError, match="follow the header"):
        unpack(good + b"garbage")
    # a buffer cut inside the stream's length and checksum (the 12 bytes
    # before the stream)
    for cut in (1, 7, 12):
        with pytest.raises(DataFormatError, match="header truncated"):
            unpack(good[: len(good) - len(art.stream) - cut])
    # a bound the method cannot take: the decoders would read c[0] or trust it
    for method, c in ((Method.TRUNC, ()), (Method.TRUNC, (math.nan,))):
        with pytest.raises(DataFormatError, match="container header"):
            unpack(pack(replace(art, method=method, c=c)))
    with pytest.raises(DataFormatError, match="container header"):
        unpack(pack(replace(art, method=Method.EBLC_BITPLANE, mode=Mode.ACC, c=())))


def test_none_method_is_identity_with_header_overhead():
    ds = rand_ds()
    art, out = round_trip(ds, ReducerConfig(Method.NONE))
    assert out.values.tobytes() == ds.values.tobytes()
    ratio = compression_ratio(art)
    assert 0.9 < ratio <= 1.0  # header only costs a sliver


def test_lossless_round_trip_bit_exact():
    ds = rand_ds(seed=5)
    for order in (0, 1, 2):
        cfg = ReducerConfig(
            Method.LOSSLESS, knobs=ReducerKnobs(delta_order=order)
        )
        _, out = round_trip(ds, cfg)
        assert out.values.tobytes() == ds.values.tobytes()


def test_lossless_smooth_data_compresses():
    t = np.linspace(0.0, 8 * np.pi, 1 << 14)
    ds = from_array(np.round(np.sin(t), 3)[:, None])
    cfg = ReducerConfig(Method.LOSSLESS, knobs=ReducerKnobs(delta_order=1))
    art, out = round_trip(ds, cfg)
    assert out.values.tobytes() == ds.values.tobytes()
    assert compression_ratio(art) > 2.0


def test_lossless_method_frame_is_plain_zlib():
    # a lossless stream is its order byte, the frame header and exactly
    # what zlib.compress writes for the table's bytes, column after column
    ds = walk_ds(n=3000, k=2)
    art, _, _ = compress(ds, ReducerConfig(Method.LOSSLESS))
    data = ds.values.ravel(order="F").astype("<f8").tobytes()
    assert art.stream == b"\0" + lossless._HEAD.pack(1, len(data)) + zlib.compress(data)


def test_trunc_32_halves_storage():
    ds = rand_ds()
    art, out = round_trip(ds, ReducerConfig(Method.TRUNC, c=(32,)))
    assert out.dtype == "f64"
    assert np.array_equal(out.values, ds.values.astype(np.float32).astype(np.float64))
    assert compression_ratio(art) == pytest.approx(2.0, rel=0.05)


def test_trunc_16_on_f32():
    ds = rand_ds(dtype="f32")
    art, out = round_trip(ds, ReducerConfig(Method.TRUNC, c=(16,)))
    assert out.dtype == "f32"
    assert compression_ratio(art) == pytest.approx(2.0, rel=0.05)


def test_trunc_same_width_rejected():
    ds = rand_ds(dtype="f32")
    with pytest.raises(ConfigError):
        compress(ds, ReducerConfig(Method.TRUNC, c=(32,)))


@pytest.mark.parametrize("dtype, rate", [("f64", 64.5), ("f64", 1e6), ("f64", math.inf),
                                         ("f32", 32.5), ("f32", 1e30)])
def test_bitplane_rate_above_the_value_width_rejected(dtype, rate):
    # a rate past the value's bits stores more than the raw values
    ds = walk_ds(n=200, dtype=dtype)
    with pytest.raises(ConfigError, match="rate"):
        compress(ds, ReducerConfig(Method.EBLC_BITPLANE, Mode.RATE, (rate,)))
    width = int(dtype[1:])
    art, out = round_trip(ds, ReducerConfig(Method.EBLC_BITPLANE, Mode.RATE, (width,)))
    assert np.abs(out.values - ds.values).max() < 1e-6


def test_sampling_naive_rows_and_ratio():
    ds = from_array(np.arange(12.0).reshape(6, 2))
    cfg = ReducerConfig(Method.SAMPLE_NAIVE, c=(2,))
    art, out = round_trip(ds, cfg)
    assert out.values.tolist() == [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]]
    assert art.n_obs == 6
    assert retained_rows(art) == 3
    assert compression_ratio(art) == pytest.approx(2.0)


def test_sampling_wor_deterministic():
    ds = rand_ds(n=1000)
    cfg = ReducerConfig(Method.SAMPLE_WOR, c=(0.25,), knobs=ReducerKnobs(seed=3))
    _, out1 = round_trip(ds, cfg)
    _, out2 = round_trip(ds, cfg)
    assert out1.values.tobytes() == out2.values.tobytes()
    assert out1.n_obs == 250
    assert compression_ratio(compress(ds, cfg)[0]) == pytest.approx(4.0)


def test_sampling_wr_matrix_layout():
    ds = rand_ds(n=200)
    cfg = ReducerConfig(Method.SAMPLE_WR, c=(0.5,), layout=Layout.MATRIX)
    art, out = round_trip(ds, cfg)
    assert out.n_obs == 100
    assert out.n_feat == ds.n_feat
    assert retained_rows(art) == 100


def test_eblc_pred_abs_contract_via_api():
    ds = rand_ds(seed=9)
    cfg = ReducerConfig(Method.EBLC_PRED, Mode.ABS, c=(1e-3,))
    art, out = round_trip(ds, cfg)
    rep = error_report(ds, out)
    assert rep.max_abs_err <= 1e-3
    assert compression_ratio(art) > 1.5


def test_eblc_pred_rel_matches_per_column_abs():
    ds = rand_ds(seed=11)
    r = 1e-4
    _, out_rel = round_trip(ds, ReducerConfig(Method.EBLC_PRED, Mode.REL, c=(r,)))
    cols = []
    for j in range(ds.n_feat):
        col = ds.values[:, j]
        eb = r * (col.max() - col.min())
        sub = from_array(col[:, None])
        _, out_j = round_trip(sub, ReducerConfig(Method.EBLC_PRED, Mode.ABS, c=(eb,)))
        cols.append(out_j.values[:, 0])
    assert out_rel.values.tobytes() == np.column_stack(cols).tobytes()


def test_eblc_pred_rel_zero_range_column_verbatim():
    vals = np.column_stack([np.full(64, 3.25), np.linspace(0, 1, 64)])
    ds = from_array(vals)
    cfg = ReducerConfig(Method.EBLC_PRED, Mode.REL, c=(1e-2,))
    _, out = round_trip(ds, cfg)
    assert np.array_equal(out.values[:, 0], vals[:, 0])
    assert np.abs(out.values[:, 1] - vals[:, 1]).max() <= 1e-2


def test_eblc_pred_pw_rel_via_api():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(400, 2)) * 10.0 ** rng.integers(-6, 7, size=(400, 2))
    vals[::17] = 0.0
    ds = from_array(vals)
    cfg = ReducerConfig(Method.EBLC_PRED, Mode.PW_REL, c=(1e-2,))
    _, out = round_trip(ds, cfg)
    nz = vals != 0
    assert np.all(np.abs(out.values[nz] - vals[nz]) <= 1e-2 * np.abs(vals[nz]))
    assert np.all(out.values[~nz] == 0.0)


def test_eblc_pred_psnr_meets_target():
    rng = np.random.default_rng(15)
    ds = from_array(rng.uniform(-1.0, 1.0, size=(4096, 2)))
    target = 80.0
    cfg = ReducerConfig(Method.EBLC_PRED, Mode.PSNR, c=(target,))
    _, out = round_trip(ds, cfg)
    rep = error_report(ds, out)
    assert rep.psnr_db >= target - 1.0


def test_eblc_bitplane_acc_via_api():
    ds = rand_ds(seed=17)
    cfg = ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, c=(1e-4,))
    art, out = round_trip(ds, cfg)
    assert error_report(ds, out).max_abs_err <= 1e-4
    assert compression_ratio(art) > 1.0


def test_eblc_bitplane_rate_size_function_of_shape():
    a = rand_ds(seed=19)
    b = rand_ds(seed=23)
    cfg = ReducerConfig(Method.EBLC_BITPLANE, Mode.RATE, c=(9.0,))
    assert compress(a, cfg)[0].comp_bytes == compress(b, cfg)[0].comp_bytes


def test_eblc_bitplane_prec_full_makes_near_lossless():
    # all planes kept: only fixed-point alignment noise remains (~2^-53 relative)
    ds = rand_ds(seed=29)
    cfg = ReducerConfig(Method.EBLC_BITPLANE, Mode.PREC, c=(56.0,))
    _, out = round_trip(ds, cfg)
    assert error_report(ds, out).max_rel_to_range_err < 1e-15


def test_matrix_layout_single_stream_global_bound():
    ds = rand_ds(seed=31)
    cfg = ReducerConfig(Method.EBLC_PRED, Mode.REL, c=(1e-3,), layout=Layout.MATRIX)
    _, out = round_trip(ds, cfg)
    grange = ds.values.max() - ds.values.min()
    assert error_report(ds, out).max_abs_err <= 1e-3 * grange


@pytest.mark.parametrize(
    "config",
    [
        ReducerConfig(Method.NONE),
        ReducerConfig(Method.LOSSLESS),
        ReducerConfig(Method.TRUNC, c=(32,)),
        ReducerConfig(Method.SAMPLE_WOR, c=(0.3,), knobs=ReducerKnobs(seed=4)),
    ],
    ids=["none", "lossless", "trunc", "sample_wor"],
)
def test_layout_only_orders_the_values(config):
    # by_column writes column after column, matrix row after row; both
    # decode to the same table
    ds = rand_ds(n=301, seed=41)
    by_column, out_column = round_trip(ds, config)
    matrix, out_matrix = round_trip(ds, replace(config, layout=Layout.MATRIX))
    assert out_column.values.tobytes() == out_matrix.values.tobytes()
    assert retained_rows(by_column) == retained_rows(matrix) == out_column.n_obs
    if config.method is Method.NONE:
        assert by_column.stream == ds.values.T.tobytes()
        assert matrix.stream == ds.values.tobytes()


@pytest.mark.parametrize("method", [Method.NONE, Method.SAMPLE_WOR])
def test_container_without_columns_is_a_format_error(method):
    art = Artifact(method, Mode.NONE, (), Layout.BY_COLUMN, "f64", n_obs=3, n_feat=0, stream=b"")
    with pytest.raises(DataFormatError, match="no columns"):
        unpack(pack(art))


def test_bitplane_acc_blocks_across_column_boundaries_meet_the_bound():
    # at 999 rows the 4-value blocks of a by-column stream straddle each
    # column boundary, mixing columns 5·10^4 apart in scale; acc checks
    # every block, so the bound still holds
    ds = rand_ds(n=999, seed=43)
    for bound in (1e-2, 1e-4, 1e-6, 1e-9):
        art, out = round_trip(ds, ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (bound,)))
        # one stream of every value
        assert bitplane.decode(art.stream, "acc", bound, 999 * 3, 8).size == 999 * 3
        assert error_report(ds, out).max_abs_err <= bound


def test_f32_datasets_round_trip():
    ds = rand_ds(seed=37, dtype="f32")
    for cfg in (
        ReducerConfig(Method.EBLC_PRED, Mode.ABS, c=(1e-2,)),
        ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, c=(1e-2,)),
        ReducerConfig(Method.LOSSLESS),
        ReducerConfig(Method.NONE),
    ):
        art, out = round_trip(ds, cfg)
        assert out.dtype == "f32"
        if cfg.method in (Method.LOSSLESS, Method.NONE):
            assert out.values.tobytes() == ds.values.tobytes()
        else:
            assert error_report(ds, out).max_abs_err <= 1e-2


def test_error_report_fields():
    ds = from_array(np.array([[0.0], [2.0], [4.0]]))
    out = from_array(np.array([[0.5], [2.0], [4.0]]))
    rep = error_report(ds, out)
    assert rep.max_abs_err == 0.5
    assert rep.max_rel_to_range_err == pytest.approx(0.125)
    assert rep.mse == pytest.approx(0.25 / 3)
    assert rep.psnr_db == pytest.approx(10 * math.log10(16 / (0.25 / 3)))
    rep2 = error_report(ds, ds)
    assert rep2.psnr_db == math.inf and rep2.mse == 0.0


def test_error_report_shape_mismatch():
    with pytest.raises(DataFormatError):
        error_report(rand_ds(n=8), rand_ds(n=9))


def test_decompress_accepts_names():
    ds = rand_ds(k=2)
    art, _, _ = compress(ds, ReducerConfig(Method.NONE))
    out, _, _ = decompress(art, names=("p", "q"))
    assert out.names == ("p", "q")
    out2, _, _ = decompress(art)
    assert out2.names == ("c0", "c1")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    method=st.sampled_from(
        [
            (Method.EBLC_PRED, Mode.ABS, (1e-3,)),
            (Method.EBLC_PRED, Mode.REL, (1e-3,)),
            (Method.EBLC_BITPLANE, Mode.ACC, (1e-3,)),
            (Method.LOSSLESS, Mode.NONE, ()),
        ]
    ),
)
def test_api_round_trip_property(seed, method):
    rng = np.random.default_rng(seed)
    ds = from_array(rng.normal(size=(rng.integers(1, 200), rng.integers(1, 4))))
    m, mode, c = method
    art, out = round_trip(ds, ReducerConfig(m, mode, c=c))
    buf = pack(art)
    assert unpack(buf) == art
    if m is Method.LOSSLESS:
        assert out.values.tobytes() == ds.values.tobytes()


def walk_ds(n=4000, k=1, dtype="f64"):
    rng = np.random.default_rng(12)
    return from_array(np.cumsum(rng.normal(size=(n, k)), axis=0), dtype=dtype)


@pytest.mark.parametrize(
    "config, dtype",
    [
        (ReducerConfig(Method.LOSSLESS), "f64"),
        (ReducerConfig(Method.LOSSLESS, knobs=ReducerKnobs(delta_order=1)), "f32"),
        (ReducerConfig(Method.TRUNC, c=(32,)), "f64"),
        (ReducerConfig(Method.TRUNC, c=(16,)), "f32"),
        (ReducerConfig(Method.NONE), "f64"),
    ],
    ids=["lossless", "lossless-delta1-f32", "trunc32", "trunc16", "none"],
)
@pytest.mark.parametrize(
    "damage",
    [lambda b: b[: len(b) // 2], lambda b: b[:-3], lambda b: b + b"junk", lambda b: b""],
    ids=["halved", "minus3", "junk", "empty"],
)
def test_damaged_stream_raises_codec_error(config, dtype, damage):
    art, _, _ = compress(walk_ds(dtype=dtype), config)
    with pytest.raises(CodecError):
        decompress(replace(art, stream=damage(art.stream)))


FUZZ_CONFIGS = [
    ReducerConfig(Method.EBLC_PRED, Mode.REL, (1e-3,)),
    ReducerConfig(Method.EBLC_PRED, Mode.REL, (1e-6,), Layout.MATRIX),
    ReducerConfig(Method.EBLC_PRED, Mode.PW_REL, (1e-3,)),
    ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-9,)),
    ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (1e-3,)),
    ReducerConfig(Method.EBLC_BITPLANE, Mode.PREC, (20,)),
    ReducerConfig(Method.EBLC_BITPLANE, Mode.RATE, (9.5,)),
    ReducerConfig(Method.TRUNC, c=(32,)),
    ReducerConfig(Method.SAMPLE_NAIVE, c=(3,)),
    ReducerConfig(Method.SAMPLE_WR, c=(0.5,), layout=Layout.MATRIX),
    ReducerConfig(Method.SAMPLE_WOR, c=(0.5,)),
    ReducerConfig(Method.LOSSLESS),
    ReducerConfig(Method.LOSSLESS, knobs=ReducerKnobs(delta_order=2)),
    ReducerConfig(Method.NONE),
    # one-byte codes, deflated with zlib's Huffman-only strategy
    ReducerConfig(Method.EBLC_PRED, Mode.ABS, (0.5,)),
    ReducerConfig(Method.EBLC_PRED, Mode.REL, (0.1,)),
    ReducerConfig(Method.EBLC_PRED, Mode.PW_REL, (0.1,)),
]
_FUZZ_ARTIFACTS = {}


def fuzz_artifact(i):
    if i not in _FUZZ_ARTIFACTS:
        _FUZZ_ARTIFACTS[i] = compress(walk_ds(n=300, k=2), FUZZ_CONFIGS[i])[0]
    return _FUZZ_ARTIFACTS[i]


@settings(max_examples=400, deadline=None)
@given(config=st.integers(0, len(FUZZ_CONFIGS) - 1), data=st.data())
def test_mutated_stream_decodes_or_raises_format_errors(config, data):
    art = fuzz_artifact(config)
    blob = art.stream
    how = data.draw(st.sampled_from(["truncate", "flip", "append"]), label="mutation")
    if how == "truncate":
        bad = blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    elif how == "flip":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        bad = bytearray(blob)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        bad = bytes(bad)
    else:
        bad = blob + data.draw(st.binary(min_size=1, max_size=16), label="tail")
    # an Artifact built in memory skips the container's CRC, so the decoders
    # see the damage; they must raise, not warn and return ±inf or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out, _, _ = decompress(replace(art, stream=bad))
        except (CodecError, DataFormatError):
            return
    if art.method is Method.EBLC_BITPLANE:
        assert np.isfinite(out.values).all()  # the walk is finite
    if art.method is Method.EBLC_PRED:
        # only a stored literal may be non-finite (damage can make one so),
        # so every non-finite value's bytes occur in the damaged stream
        for v in out.values[~np.isfinite(out.values)]:
            assert v.tobytes() in bad


def overwrite(blob, offset, fmt, value):
    return blob[:offset] + struct.pack(fmt, value) + blob[offset + struct.calcsize(fmt) :]


# case: (config, dtype, NaN literal in the data?, damage).  Each damage
# rewrites one header field of an in-memory artifact's stream so that
# decoding would overflow or turn NaN.  Offsets follow
# docs/container_format.md: predictive `flags u8, n_rows u32, n_cols u32`,
# then the first column's `step f64`,
# bit-plane `kind u8, exps`.
OVERFLOWS = {
    "pred-rel-step": (FUZZ_CONFIGS[0], "f64", False, lambda b: overwrite(b, 9, "<d", 1e308)),
    "pred-rel-step-nan": (FUZZ_CONFIGS[0], "f64", False, lambda b: overwrite(b, 9, "<d", math.nan)),
    "pred-rel-step-beside-nan-literal": (
        FUZZ_CONFIGS[0], "f64", True, lambda b: overwrite(b, 9, "<d", 1e308)
    ),
    "pred-pwrel-step": (FUZZ_CONFIGS[2], "f64", False, lambda b: overwrite(b, 9, "<d", 1e3)),
    "pred-rel-f32-step": (FUZZ_CONFIGS[0], "f32", False, lambda b: overwrite(b, 9, "<d", 1e300)),
    "bitplane-acc-exponent": (
        FUZZ_CONFIGS[4], "f64", False, lambda b: overwrite(b, 1, "<h", 32000)
    ),
    "bitplane-prec-exponent": (
        FUZZ_CONFIGS[5], "f64", False, lambda b: overwrite(b, 1, "<h", 2000)
    ),
    "bitplane-rate-f32-exponent": (
        FUZZ_CONFIGS[6], "f32", False, lambda b: overwrite(b, 1, "<h", 500)
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_stream_raises_codec_error(case):
    config, dtype, nan_literal, damage = OVERFLOWS[case]
    ds = walk_ds(n=300, k=2, dtype=dtype)
    if nan_literal:
        values = ds.values.copy()
        values[7, 0] = math.nan  # a literal that is non-finite by right
        ds = from_array(values, allow_nonfinite=True)
    art, _, _ = compress(ds, config)
    bad = replace(art, stream=damage(art.stream))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CodecError):
            decompress(bad)


def rough_ds(n=2000, k=4, dtype="f32"):
    # heavy-tailed, sign-mixed columns over four decades, some exact zeros
    rng = np.random.default_rng(5)
    values = rng.standard_t(df=2.0, size=(n, k)) * 10.0 ** np.linspace(-1, 3, k)
    values[rng.random(size=values.shape) < 0.02] = 0.0
    return from_array(values, dtype=dtype)


def verbatim_columns(blob, n_cols):
    """Which columns of a predictive block stream are stored verbatim."""
    if blob[0] & predictive._FLAG_VERBATIM:
        return [True] * n_cols
    table = np.frombuffer(blob, predictive._COLUMN, count=n_cols, offset=predictive._HEAD.size)
    return (table["step"] == 0).tolist()


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize(
    "mode, bound, layout",
    [
        (Mode.REL, 1e-7, Layout.BY_COLUMN),
        (Mode.REL, 1e-7, Layout.MATRIX),
        (Mode.REL, 1e-3, Layout.BY_COLUMN),
        (Mode.PW_REL, 1e-6, Layout.BY_COLUMN),
        (Mode.PW_REL, 1e-2, Layout.MATRIX),
        (Mode.ABS, 1e-12, Layout.BY_COLUMN),
    ],
)
def test_no_predictive_stream_exceeds_raw(dtype, mode, bound, layout):
    ds = rough_ds(dtype=dtype)
    k = ds.n_feat if layout is Layout.BY_COLUMN else 1
    art, _, _ = compress(ds, ReducerConfig(Method.EBLC_PRED, mode, (bound,), layout))
    blob = art.stream
    assert len(blob) <= predictive._HEAD.size + ds.values.nbytes
    out, _, _ = decompress(unpack(pack(art)))
    cols = [out.values.ravel()] if layout is Layout.MATRIX else out.values.T
    orig = [ds.values.ravel()] if layout is Layout.MATRIX else ds.values.T
    for stored, got, want in zip(verbatim_columns(blob, k), cols, orig):
        if stored:  # the escape keeps values exact
            assert got.tobytes() == want.tobytes()


def test_escape_fires_where_coding_does_not_pay():
    # a bound far below the f32 spacing leaves nearly every value a literal
    art, _, _ = compress(rough_ds(), ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-12,)))
    assert verbatim_columns(art.stream, 4) == [True] * 4
    # a column of literals (every other value NaN, so every value is one)
    # goes verbatim inside a block whose other columns code; so does the
    # zero-range column
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=2000))
    holes = np.where(np.arange(2000) % 2, rng.normal(size=2000), np.nan)
    values = np.column_stack([walk, holes, np.full(2000, 2.5), walk[::-1]])
    ds = from_array(values, allow_nonfinite=True)
    art, out = round_trip(ds, ReducerConfig(Method.EBLC_PRED, Mode.REL, (1e-3,)))
    assert verbatim_columns(art.stream, 4) == [False, True, True, False]
    assert out.values[:, 1:3].tobytes() == ds.values[:, 1:3].tobytes()


def test_container_doc_states_the_current_version():
    doc = Path(__file__).resolve().parent.parent / "docs" / "container_format.md"
    stated = re.findall(r"currently (\d+)", doc.read_text())
    assert stated == [str(container.VERSION)]


def test_campaign_doc_lists_exactly_the_knobs():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "campaign_schema.md").read_text()
    table = doc[doc.index("| knob "):].split("\n\n")[0]
    listed = re.findall(r"^\| `(\w+)` ", table, re.MULTILINE)
    assert listed == [f.name for f in fields(ReducerKnobs)]


def test_truncated_signalling_nan_decodes_without_a_warning():
    # a damaged (or stored) f32 signalling NaN must widen quietly; the
    # all-method fuzz treats NumPy's invalid-value warning as a failure
    art, _, _ = compress(walk_ds(n=300, k=2), ReducerConfig(Method.TRUNC, c=(32,)))
    bad = art.stream[:8] + struct.pack("<I", 0x7F800001) + art.stream[12:]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, _, _ = decompress(replace(art, stream=bad))
    assert np.isnan(out.values[2, 0]) and np.isfinite(out.values[3:, 0]).all()
