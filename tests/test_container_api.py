"""Container round trips and the compress/decompress entry points."""

import hashlib
import importlib
import math
import pkgutil
import re
import struct
import tracemalloc
import warnings
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ppress
from ppress.errors import CodecError, ConfigError, DataFormatError
from ppress.reducers import (
    Artifact,
    Layout,
    Method,
    Mode,
    ReducerConfig,
    ReducerKnobs,
    compress,
    compression_ratio,
    decoder_bound,
    decompress,
    error_report,
    pack,
    retained_rows,
    unpack,
)
from ppress.reducers import bitplane, container, lossless, predictive, sampling, truncation
from ppress.reducers.api import _abs_bounds
from ppress.reducers.config import _MODES_FOR
from ppress.tabular import from_array


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


API_BOUNDS = {"abs": (1e-4, 1e-2), "rel": (1e-6, 1e-3, 1e-1), "psnr": (30.0, 80.0, 140.0)}


def api_tables():
    """f64, f32 and non-finite tables, each with a zero-range column; the
    non-finite one also has a column with no finite value (a NaN range)."""
    rng = np.random.default_rng(2121)
    walk = np.cumsum(rng.normal(size=(600, 5)), axis=0) * [1e-3, 1.0, 0.0, 1e2, 1e5]
    walk[:, 2] = 4.5
    bad = np.column_stack([walk, np.full(600, np.nan)])
    bad[[10, 300], 0] = np.nan
    bad[50, 1], bad[51, 3] = np.inf, -np.inf
    bad[7, 2] = np.nan  # column 2 keeps a zero range over its finite values
    bad[::5, 5] = np.inf
    return {
        "f64": from_array(walk),
        "f32": from_array(walk, dtype="f32"),
        "nonfinite": from_array(bad, allow_nonfinite=True),
    }


def api_digests():
    out = {}
    for name, ds in api_tables().items():
        for mode, bounds in API_BOUNDS.items():
            for layout in Layout:
                for c in bounds:
                    config = ReducerConfig(Method.EBLC_PRED, mode, c=(c,), layout=layout)
                    stream = compress(ds, config)[0].stream
                    out[f"{name} {mode} {layout.value} {c:g}"] = (
                        hashlib.sha256(stream).hexdigest()[:16]
                    )
    return out


# sha256 of the predictive stream compress writes per case: pins how the
# mode's bound becomes each column's absolute bound, from the
# container-version-11 format
API_DIGESTS = {
    "f64 abs by_column 0.0001": "f4d5afe3d6cf1007",
    "f64 abs by_column 0.01": "f57fb92f5966d2a2",
    "f64 abs matrix 0.0001": "b5d160fa089bd5a3",
    "f64 abs matrix 0.01": "62f65c19a37525f6",
    "f64 rel by_column 1e-06": "16ba93edf82faed8",
    "f64 rel by_column 0.001": "14fb9061905c3528",
    "f64 rel by_column 0.1": "585438e528e73de4",
    "f64 rel matrix 1e-06": "043cbc6ae2295f25",
    "f64 rel matrix 0.001": "872a3997c901256d",
    "f64 rel matrix 0.1": "2f52cc6b135218eb",
    "f64 psnr by_column 30": "4dd3631bf62f9987",
    "f64 psnr by_column 80": "28a593cd267c6bf9",
    "f64 psnr by_column 140": "baf7cf520c056f1a",
    "f64 psnr matrix 30": "2d506e2fe8b8fbba",
    "f64 psnr matrix 80": "45cda12b69e6d6d0",
    "f64 psnr matrix 140": "a353bf6f7700ce72",
    "f32 abs by_column 0.0001": "9b577b7bf2417ea8",
    "f32 abs by_column 0.01": "41560cdb5ff569be",
    "f32 abs matrix 0.0001": "118732db4df7ecb5",
    "f32 abs matrix 0.01": "9f56d31d35eed8fd",
    "f32 rel by_column 1e-06": "4f5f91ae4e758fc3",
    "f32 rel by_column 0.001": "d617598f0400fd51",
    "f32 rel by_column 0.1": "4a6c7c6474c1f599",
    "f32 rel matrix 1e-06": "72d3cea93f0e20b9",
    "f32 rel matrix 0.001": "106b1b1ac88a9e6a",
    "f32 rel matrix 0.1": "d8acc6d5f4180897",
    "f32 psnr by_column 30": "1e1bb11d4ff83b59",
    "f32 psnr by_column 80": "98914da689e68c19",
    "f32 psnr by_column 140": "c4f40f4ca4f9ae1b",
    "f32 psnr matrix 30": "91c6c1d930b77a2a",
    "f32 psnr matrix 80": "4e79f79740db69a9",
    "f32 psnr matrix 140": "9e80ac01058e12e5",
    "nonfinite abs by_column 0.0001": "c9dbfb0d89c55c7d",
    "nonfinite abs by_column 0.01": "3c71c09f08e26345",
    "nonfinite abs matrix 0.0001": "ea9f8a76c1461b36",
    "nonfinite abs matrix 0.01": "87e25c02454bd8ff",
    "nonfinite rel by_column 1e-06": "2c812c267784c3df",
    "nonfinite rel by_column 0.001": "7cf1a4954a11370e",
    "nonfinite rel by_column 0.1": "173cd7b8621450f1",
    "nonfinite rel matrix 1e-06": "9cf08441c4650d7e",
    "nonfinite rel matrix 0.001": "e6286d5322384b57",
    "nonfinite rel matrix 0.1": "41b53e02ddbd8b22",
    "nonfinite psnr by_column 30": "cc91c340efd64b99",
    "nonfinite psnr by_column 80": "d021b0e3f6e8d99b",
    "nonfinite psnr by_column 140": "ae79900f7aa9b3cc",
    "nonfinite psnr matrix 30": "47938829d7fb0fef",
    "nonfinite psnr matrix 80": "4305cd7a822e204f",
    "nonfinite psnr matrix 140": "0edb8198872c555d",
}


def test_predictive_api_streams_match_golden_digests():
    assert api_digests() == API_DIGESTS


@pytest.mark.parametrize("mode, c, ranges, want, rtol", [
    pytest.param(Mode.REL, 1e-2, [10.0], [0.1], 1e-6, id="rel"),
    pytest.param(Mode.ABS, 0.5, [10.0, 0.0, np.nan], [0.5, 0.5, 0.5], 0.0, id="abs"),
    # eb = sqrt(3) * range * 10^(-psnr/20); at range 1 this pairs 164.77 dB
    # with an absolute bound of 1e-8
    pytest.param(Mode.PSNR, 164.77, [1.0, 0.0, np.nan], [1e-8, 0.0, np.nan], 1e-3, id="psnr"),
    # 0 stores the column verbatim; a column with no finite value has a NaN range
    pytest.param(Mode.REL, 0.1, [0.0, np.nan], [0.0, np.nan], 0.0,
                 id="zero_range_flags_verbatim"),
])
def test_abs_bounds(mode, c, ranges, want, rtol):
    got = _abs_bounds(mode, c, np.array(ranges))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def test_every_exported_name_resolves():
    for info in pkgutil.walk_packages(ppress.__path__, "ppress."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


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


def test_predictive_stream_of_another_shape_is_rejected_before_decoding():
    # a 9.8 KB container of a 1x1 table whose stream declares 10^7 rows of
    # one deflated code each: the decoder must refuse it from the header,
    # not inflate and dequantize ten million codes first
    n = 10**7
    stream = b"".join((
        predictive._HEAD.pack(predictive._FLAG_DEFLATED, n, 1),
        np.array([(1.0, 1)], predictive._COLUMN).tobytes(),
        np.array([0.0], "<f8").tobytes(),
        lossless.lossless_encode(b"\0" + b"\1" * (n - 1)),
    ))
    art = Artifact(Method.EBLC_PRED, Mode.ABS, (0.5,), Layout.BY_COLUMN, "f64", 1, 1, stream)
    blob = pack(art)
    assert len(blob) < 10_000
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="declares 10000000x1 values, not 1"):
            decompress(unpack(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# A valid bound of each method and mode, and each rule's case: (method,
# mode, bound, the value widths in bytes that refuse it).  None marks a rule
# that holds at every width, which ReducerConfig applies already.
BASE_BOUND = {Mode.ABS: 1e-3, Mode.REL: 1e-3, Mode.PSNR: 60.0, Mode.PW_REL: 1e-2,
              Mode.ACC: 1e-3, Mode.PREC: 20.0, Mode.RATE: 8.0, Method.TRUNC: 16.0,
              Method.SAMPLE_NAIVE: 2.0, Method.SAMPLE_WR: 0.5, Method.SAMPLE_WOR: 0.5}
BOUND_RULES = [
    *[(method, mode, bound, None)
      for method, mode in ((Method.EBLC_BITPLANE, Mode.ACC), (Method.EBLC_PRED, Mode.ABS),
                           (Method.EBLC_PRED, Mode.REL), (Method.EBLC_PRED, Mode.PSNR))
      for bound in (math.inf, math.nan)],
    (Method.EBLC_BITPLANE, Mode.PREC, 2.5, None),
    (Method.EBLC_PRED, Mode.PW_REL, 1.0, None),
    (Method.TRUNC, Mode.NONE, 24.0, None),
    (Method.TRUNC, Mode.NONE, 32.0, (4,)),
    (Method.EBLC_BITPLANE, Mode.RATE, 32.0, ()),
    (Method.EBLC_BITPLANE, Mode.RATE, 32.25, (4,)),
    (Method.EBLC_BITPLANE, Mode.RATE, 64.0, (4,)),
    (Method.EBLC_BITPLANE, Mode.RATE, 64.25, (4, 8)),
    (Method.SAMPLE_NAIVE, Mode.NONE, 1.5, None),
    (Method.SAMPLE_WR, Mode.NONE, 0.0, None),
    (Method.SAMPLE_WOR, Mode.NONE, 1.5, None),
]


def refused_codec(*args):
    raise AssertionError("a codec ran on a bound that check_fields refuses")


@pytest.mark.parametrize(
    "method, mode, bound, refused", BOUND_RULES,
    ids=[f"{m.value}-{mo.value}-{b:g}" for m, mo, b, _ in BOUND_RULES])
def test_check_fields_owns_every_bound_rule(monkeypatch, method, mode, bound, refused):
    # one rule set, applied by ReducerConfig, by compress before any codec
    # runs, and by unpack at the header's value width
    if refused is None:
        with pytest.raises(ConfigError):
            ReducerConfig(method, mode, (bound,))
    else:
        ReducerConfig(method, mode, (bound,))
    valid = ReducerConfig(method, mode, (BASE_BOUND[mode if mode is not Mode.NONE else method],))
    config = replace(valid)
    object.__setattr__(config, "c", (bound,))  # past ReducerConfig's own check
    for width in (4, 8):
        ds = walk_ds(n=64, k=2, dtype=f"f{8 * width}")
        header = pack(replace(compress(ds, valid)[0], c=(bound,)))
        if refused is None or width in refused:
            with pytest.raises(ConfigError), monkeypatch.context() as m:
                for module, name in ((bitplane, "encode"), (predictive, "encode_abs"),
                                     (predictive, "encode_pwrel"),
                                     (truncation, "narrow_values"),
                                     (sampling, "sample_indices")):
                    m.setattr(module, name, refused_codec)
                compress(ds, config)
            with pytest.raises(DataFormatError, match="container header"):
                unpack(header)
        else:
            art, _, _ = compress(ds, config)
            assert unpack(pack(art)) == art
            assert unpack(header).c == (bound,)


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


def formula_report(original, restored):
    """Each ErrorReport field, from the formula error_report keeps: f64
    differences, ranges as the original's max − min with NaN propagating."""
    x = original.values.astype(np.float64)
    y = restored.values.astype(np.float64)
    err = np.abs(x - y)
    col_max = err.max(axis=0)
    ranges = x.max(axis=0) - x.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_rel = np.where(col_max == 0.0, 0.0, col_max / ranges)
    mse = float(np.mean((x - y) ** 2))
    grange = float(x.max() - x.min())
    if mse == 0.0:
        psnr = math.inf
    elif grange == 0.0:
        psnr = -math.inf
    else:
        psnr = 10.0 * math.log10(grange * grange / mse)
    return {
        "max_abs_err": float(col_max.max()),
        "max_rel_to_range_err": float(col_rel.max()),
        "mse": mse,
        "psnr_db": psnr,
    }


def same_floats(a, b):
    # bit for bit, any NaN matching any NaN
    a, b = np.atleast_1d(np.asarray(a, np.float64)), np.atleast_1d(np.asarray(b, np.float64))
    return a.shape == b.shape and all(
        (math.isnan(u) and math.isnan(v)) or struct.pack("<d", u) == struct.pack("<d", v)
        for u, v in zip(a.tolist(), b.tolist())
    )


def report_cases():
    rng = np.random.default_rng(20)
    smooth = np.cumsum(rng.normal(size=(200, 3)), axis=0) * [1.0, 1e3, 1e-3]
    f32 = from_array(smooth, dtype="f32")
    f32_out = from_array(smooth * (1 + 1e-4), dtype="f32")
    bad = smooth.copy()
    bad[5, 0], bad[6, 1], bad[7, 2] = np.nan, np.inf, -np.inf
    flat = np.column_stack([np.full(200, 3.25), np.full(200, -1.5), smooth[:, 0]])
    flat_out = flat.copy()
    flat_out[10, 1] += 0.25  # error in a zero-range column: relative error inf
    flat_out[:, 2] += 1e-3
    const = np.full((50, 2), 7.0)
    nan_orig = smooth.copy()
    nan_orig[3, 1] = np.nan
    pred = ReducerConfig(Method.EBLC_PRED, Mode.REL, c=(1e-3,))
    return {
        "f32": (f32, f32_out),
        "f32-lossy-pred": (f32, round_trip(f32, pred)[1]),
        "restored-nan-and-inf": (from_array(smooth), from_array(bad, allow_nonfinite=True)),
        "zero-range-columns": (from_array(flat), from_array(flat_out)),
        "constant-table": (from_array(const), from_array(const + [[0.0, 0.5]])),
        "exact-restore": (from_array(smooth), from_array(smooth.copy())),
        "original-with-nan": (
            from_array(nan_orig, allow_nonfinite=True),
            from_array(nan_orig + 1e-6, allow_nonfinite=True),
        ),
    }


@pytest.mark.parametrize("case", list(report_cases()))
def test_error_report_edge_cases_match_the_formula(case):
    original, restored = report_cases()[case]
    rep = error_report(original, restored)
    want = formula_report(original, restored)
    for name, value in want.items():
        assert same_floats(getattr(rep, name), value), name


def test_error_report_edge_case_values():
    cases = report_cases()
    rep = error_report(*cases["zero-range-columns"])
    # error in a zero-range column is infinitely large relative to its range
    assert rep.max_abs_err == 0.25 and rep.max_rel_to_range_err == math.inf
    rep = error_report(*cases["constant-table"])
    assert rep.mse == 0.125 and rep.psnr_db == -math.inf
    assert rep.max_rel_to_range_err == math.inf
    rep = error_report(*cases["exact-restore"])
    assert rep.psnr_db == math.inf and rep.mse == 0.0 and rep.max_abs_err == 0.0
    rep = error_report(*cases["restored-nan-and-inf"])
    assert math.isnan(rep.max_abs_err) and math.isnan(rep.max_rel_to_range_err)
    assert math.isnan(rep.mse) and math.isnan(rep.psnr_db)
    rep = error_report(*cases["original-with-nan"])
    assert math.isnan(rep.max_rel_to_range_err)


def test_error_report_computes_the_reference_once_per_original(monkeypatch):
    from ppress import tabular

    calls = []
    real = tabular._compute_error_reference

    def counted(ds):
        calls.append(ds)
        return real(ds)

    monkeypatch.setattr(tabular, "_compute_error_reference", counted)
    ds = rand_ds(seed=3)
    first = error_report(ds, from_array(ds.values + 1e-3))
    again = error_report(ds, from_array(ds.values + 1e-3))
    error_report(ds, ds)
    assert calls == [ds] and first == again
    other = rand_ds(seed=3)
    error_report(other, ds)
    assert calls == [ds, other]  # a new original, even with equal values, is computed anew


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


# bounds each predictive mode takes, as (low, high)
PRED_BOUNDS = {Mode.ABS: (1e-6, 1.0), Mode.REL: (1e-7, 0.5), Mode.PW_REL: (1e-5, 0.5),
               Mode.PSNR: (20.0, 160.0)}


@st.composite
def nearby_bounds(draw, method, mode, width):
    """Two bounds of method and mode, often ones decoder_bound cannot tell
    apart: acc bounds in one binary octave or the next, prec plane counts
    one apart (past TOTAL_PLANES, any two), int beside float, rate bounds
    near the same or the next quarter, one truncation width, and any two
    bounds of the other methods."""
    if method in (Method.NONE, Method.LOSSLESS):
        return (), ()
    if method is Method.TRUNC:
        c = draw(st.sampled_from([16, 32] if width == 8 else [16]))
        return (c,), (float(c),)
    if method is Method.SAMPLE_NAIVE:
        return tuple((float(draw(st.integers(1, 9))),) for _ in "ab")
    if method in (Method.SAMPLE_WR, Method.SAMPLE_WOR):
        return tuple((draw(st.floats(0.05, 1.0)),) for _ in "ab")
    if method is Method.EBLC_PRED:
        lo, hi = PRED_BOUNDS[mode]
        return tuple((draw(st.floats(lo, hi)),) for _ in "ab")
    step = draw(st.sampled_from([0, 0, -1, 1]))
    if mode is Mode.ACC:
        e = draw(st.integers(-30, 8))
        mantissas = (draw(st.floats(0.5, 1.0, exclude_max=True)) for _ in "ab")
        return tuple((math.ldexp(m, e + d),) for m, d in zip(mantissas, (0, step)))
    if mode is Mode.PREC:
        k = draw(st.integers(2, 70))
        other = draw(st.integers(56, 90)) if k >= bitplane.TOTAL_PLANES else k + step
        return (k,), (float(other),)
    k = draw(st.integers(2, 32 * width - 2))  # rate: c near k/4
    return tuple(((q + draw(st.floats(-0.1, 0.1))) / 4,) for q in (k, k + step))


METHOD_MODES = [(m, mode) for m, modes in _MODES_FOR.items() for mode in sorted(modes)]


@settings(max_examples=200, deadline=None)
@given(
    method_mode=st.sampled_from(METHOD_MODES),
    dtype=st.sampled_from(["f32", "f64"]),
    layout=st.sampled_from(list(Layout)),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_bounds_with_one_decoder_bound_decode_a_stream_alike(method_mode, dtype, layout,
                                                             seed, data):
    method, mode = method_mode
    width = 8 if dtype == "f64" else 4
    c, other = data.draw(nearby_bounds(method, mode, width))
    first = ReducerConfig(method, mode, c, layout)
    second = ReducerConfig(method, mode, other, layout)
    assume(decoder_bound(method, mode, first.c) == decoder_bound(method, mode, second.c))
    rng = np.random.default_rng(seed)
    n, k = rng.integers(20, 60), rng.integers(1, 5)  # a sample keeps at least one row
    ds = from_array(rng.normal(size=(n, k)) * 10.0 ** rng.integers(-4, 5, size=k), dtype=dtype)
    art = compress(ds, first)[0]
    # the container of the same stream under the other bound
    moved = unpack(pack(replace(art, c=second.c)))
    assert decompress(moved)[0].values.tobytes() == decompress(art)[0].values.tobytes()


def test_decoder_bound_of_acc_is_the_binary_octave():
    acc = [decoder_bound(Method.EBLC_BITPLANE, Mode.ACC, (c,)) for c in (4.02, 4.59, 5.31, 3.99)]
    assert acc[0] == acc[1] == acc[2] != acc[3]
    assert decoder_bound(Method.EBLC_BITPLANE, Mode.PREC, (60.0,)) == bitplane.TOTAL_PLANES
    assert decoder_bound(Method.EBLC_BITPLANE, Mode.RATE, (6.1,)) == 24
    assert decoder_bound(Method.TRUNC, Mode.NONE, (16.0,)) == 16
    assert decoder_bound(Method.EBLC_PRED, Mode.REL, (1e-3,)) is None
    assert decoder_bound(Method.SAMPLE_WOR, Mode.NONE, (0.5,)) is None


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
    assert_decodes_or_raises_format_errors(art, bad)


def code_frame_starts(art):
    """Where each frame of a predictive stream's code section starts, and
    the stream's end; only the end for a verbatim block."""
    blob = art.stream
    flags, n, k = predictive._HEAD.unpack_from(blob)
    if flags & predictive._FLAG_VERBATIM:
        return [len(blob)]
    table = np.frombuffer(blob, predictive._COLUMN, count=k, offset=predictive._HEAD.size)
    off = predictive._HEAD.size + table.nbytes + int(table["n_lit"].sum()) * art.value_width
    if flags & predictive._FLAG_SIGNS:
        off += (n * int(np.count_nonzero(table["step"])) + 7) // 8
    starts = [off]
    while starts[-1] < len(blob):
        starts.append(lossless.read_frame(blob, starts[-1])[1])
    return starts


def test_predictive_stream_cut_at_every_frame_boundary_decodes_or_raises():
    # a byte-plane code section is one frame per plane, read to the end of
    # the stream, so a cut between frames leaves a well-formed frame
    # sequence: the decoder must still raise or decode within the fuzz rules
    most = 0
    for i in range(len(FUZZ_CONFIGS)):
        art = fuzz_artifact(i)
        if art.method is not Method.EBLC_PRED:
            continue
        starts = code_frame_starts(art)
        most = max(most, len(starts) - 1)
        for cut in starts[:-1]:
            assert_decodes_or_raises_format_errors(art, art.stream[:cut])
    assert most >= 3  # some stream's codes take three or more byte planes


def assert_decodes_or_raises_format_errors(art, bad):
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
