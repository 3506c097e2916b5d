import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppress import tabular
from ppress.errors import DataFormatError


def test_load_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    ds = tabular.load_csv(p, header=True)
    assert ds.names == ("a", "b")
    assert ds.n_obs == 3 and ds.n_feat == 2
    assert ds.column(0).tolist() == [1.0, 3.0, 5.0]
    assert ds.column(1).tolist() == [2.0, 4.0, 6.0]


def test_load_csv_header_is_the_first_non_blank_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\nc0,c1\n1,2\n")
    ds = tabular.load_csv(p, header=True)
    assert ds.names == ("c0", "c1")
    assert ds.values.tolist() == [[1.0, 2.0]]


def test_load_csv_without_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n")
    ds = tabular.load_csv(p, header=False)
    assert ds.names == ("c0", "c1")
    assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_ragged_row_reports_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError, match="row 1"):
        tabular.load_csv(p, header=False)


def test_load_csv_unparseable_cell_reports_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(DataFormatError, match="row 1, column 1"):
        tabular.load_csv(p, header=False)


def test_load_csv_rejects_nonfinite_unless_allowed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,nan\n2,3\n")
    with pytest.raises(DataFormatError, match="non-finite"):
        tabular.load_csv(p, header=False)
    ds = tabular.load_csv(p, header=False, allow_nonfinite=True)
    assert np.isnan(ds.values[0, 1])


def test_load_csv_f32_rounds_to_nearest(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.1\n")
    ds = tabular.load_csv(p, header=False, dtype="f32")
    assert ds.values[0, 0] == np.float32(0.1)


def test_raw_round_trip_bit_exact_f32(tmp_path):
    rng = np.random.default_rng(7)
    arr = rng.normal(size=(37, 5)).astype(np.float32)
    ds = tabular.from_array(arr, dtype="f32")
    p = tmp_path / "d.raw"
    tabular.save_raw(ds, p)
    back = tabular.load_raw(p, 37, 5, "f32")
    assert back.values.tobytes() == ds.values.tobytes()


def test_raw_col_major_round_trip(tmp_path):
    arr = np.arange(12, dtype=np.float64).reshape(4, 3)
    p = tmp_path / "d.raw"
    p.write_bytes(arr.tobytes(order="F"))  # the writers are row-major only
    back = tabular.load_raw(p, 4, 3, "f64", order="col_major")
    assert np.array_equal(back.values, arr)
    # the file itself is column-major: first 4 values are column 0
    flat = np.frombuffer(p.read_bytes(), dtype="<f8")
    assert flat[:4].tolist() == [0.0, 3.0, 6.0, 9.0]


def test_raw_size_mismatch(tmp_path):
    p = tmp_path / "d.raw"
    p.write_bytes(b"\x00" * 24)
    with pytest.raises(DataFormatError, match="24 bytes"):
        tabular.load_raw(p, 2, 2, "f64")


def test_descriptor_round_trip(tmp_path):
    ds = tabular.from_array(np.ones((3, 2)))
    p = tmp_path / "d.raw"
    tabular.save_raw_with_descriptor(ds, p)
    back = tabular.load_raw_with_descriptor(p)
    assert back.values.tobytes() == ds.values.tobytes()
    assert back.n_obs == 3 and back.n_feat == 2


def test_save_raw_with_descriptor_matches_golden_bytes(tmp_path):
    ds = tabular.from_array(np.arange(6.0).reshape(3, 2) / 7, dtype="f32")
    p = tmp_path / "d.raw"
    tabular.save_raw_with_descriptor(ds, p)
    assert p.read_bytes().hex() == "000000002549123e2549923eb76ddb3e2549123f6edb363f"
    assert (tmp_path / "d.raw.desc").read_text() == (
        "dtype=f32\nn_obs=3\nn_feat=2\norder=row_major\n"
    )


def test_dataset_id_sensitive_to_values_and_dtype():
    a = tabular.from_array(np.ones((4, 2)))
    b = tabular.from_array(np.ones((4, 2)))
    c = tabular.from_array(np.ones((4, 2)), dtype="f32")
    d = tabular.from_array(np.full((4, 2), 2.0))
    assert a.id == b.id
    assert a.id != c.id
    assert a.id != d.id
    assert len(a.id) == 64


def test_dataset_values_read_only():
    ds = tabular.from_array(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 5.0


def test_column_stats_against_naive_loop():
    rng = np.random.default_rng(11)
    arr = rng.normal(size=(101, 4)) * [1.0, 10.0, 0.1, 1000.0]
    ds = tabular.from_array(arr)
    stats = tabular.column_stats(ds)
    for j, s in enumerate(stats):
        col = arr[:, j]
        lo, hi, acc = np.inf, -np.inf, 0.0
        for x in col:
            lo = min(lo, x)
            hi = max(hi, x)
            acc += x
        mean = acc / len(col)
        var = sum((x - mean) ** 2 for x in col) / len(col)
        assert s.min == pytest.approx(lo, rel=0, abs=0)
        assert s.max == pytest.approx(hi, rel=0, abs=0)
        assert s.range == pytest.approx(hi - lo)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance == pytest.approx(var, rel=1e-9)
        assert not s.zero_range


def test_constant_column_zero_range():
    ds = tabular.from_array(np.full((10, 1), 3.5))
    s = tabular.column_stats(ds)[0]
    assert s.range == 0.0
    assert s.zero_range


def test_range_in_dataset_dtype_precision():
    # in f32 the range of [0, 16777217] collapses onto the f32 grid
    arr = np.array([[0.0], [16777217.0]])
    s64 = tabular.column_stats(tabular.from_array(arr))[0]
    s32 = tabular.column_stats(tabular.from_array(arr, dtype="f32"))[0]
    assert s64.range == 16777217.0
    assert s32.range == np.float32(16777216.0)


def test_range_histogram_counts_sum_to_n_feat():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(50, 8)) * [1, 2, 3, 4, 5, 6, 7, 8]
    arr[:, 2] = 1.25  # one constant column
    ds = tabular.from_array(arr)
    h = tabular.range_histogram(tabular.column_stats(ds), n_bins=5)
    assert h.zero_count == 1
    assert h.zero_count + int(h.counts.sum()) == ds.n_feat


def test_range_histogram_equal_ranges_single_bin():
    stats = [tabular.ColumnStats(f"c{i}", 0.0, 2.0, 2.0, 1.0, 0.5) for i in range(6)]
    h = tabular.range_histogram(stats, n_bins=4, scale="log10")
    assert int(h.counts.sum()) == 6
    assert (h.counts > 0).sum() == 1


def test_range_histogram_log10_scale():
    ranges = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]
    stats = [tabular.ColumnStats(f"c{i}", 0.0, r, r, 0.0, 0.0) for i, r in enumerate(ranges)]
    h = tabular.range_histogram(stats, n_bins=5, scale="log10")
    # log10 ranges are equally spaced over [-3, 2]: one per bin, two in the last
    assert h.counts.tolist() == [1, 1, 1, 1, 2]


def test_split_unshuffled_contiguous():
    ds = tabular.from_array(np.arange(10, dtype=np.float64))
    train, val = tabular.split(ds, tabular.SplitSpec(0.5, shuffled=False))
    assert train.values.ravel().tolist() == [0, 1, 2, 3, 4]
    assert val.values.ravel().tolist() == [5, 6, 7, 8, 9]


def test_split_deterministic_and_partitions():
    ds = tabular.from_array(np.arange(100, dtype=np.float64))
    spec = tabular.SplitSpec(0.8, seed=5)
    t1, v1 = tabular.split(ds, spec)
    t2, v2 = tabular.split(ds, spec)
    assert np.array_equal(t1.values, t2.values)
    assert np.array_equal(v1.values, v2.values)
    merged = sorted(t1.values.ravel().tolist() + v1.values.ravel().tolist())
    assert merged == list(range(100))
    t3, _ = tabular.split(ds, tabular.SplitSpec(0.8, seed=6))
    assert not np.array_equal(t1.values, t3.values)


def test_split_rejects_empty_part():
    ds = tabular.from_array(np.arange(3, dtype=np.float64))
    with pytest.raises(DataFormatError):
        tabular.split(ds, tabular.SplitSpec(0.01))
    with pytest.raises(DataFormatError):
        tabular.SplitSpec(0.0)
    with pytest.raises(DataFormatError):
        tabular.SplitSpec(1.0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(4, 60),
    frac=st.floats(0.2, 0.8),
    seed=st.integers(0, 2**31),
    shuffled=st.booleans(),
)
def test_split_partition_property(n, frac, seed, shuffled):
    ds = tabular.from_array(np.arange(n, dtype=np.float64))
    n_train = int(round(frac * n))
    if n_train < 1 or n_train >= n:
        return
    train, val = tabular.split(ds, tabular.SplitSpec(frac, seed, shuffled))
    assert train.n_obs == n_train
    assert val.n_obs == n - n_train
    merged = sorted(train.values.ravel().tolist() + val.values.ravel().tolist())
    assert merged == list(range(n))


def loop_column_stats(ds):
    """The per-column reductions column_stats is held to, one column at a time."""
    out = []
    for j in range(ds.n_feat):
        col = ds.column(j)
        finite = col[np.isfinite(col)]
        if finite.size == 0:
            out.append((np.nan,) * 5)
            continue
        lo, hi = finite.min(), finite.max()
        out.append((lo, hi, hi - lo, finite.mean(dtype=np.float64), finite.var(dtype=np.float64)))
    return [tuple(float(v) for v in row) for row in out]


def stats_bits(stats):
    return [np.array([s.min, s.max, s.range, s.mean, s.variance]).tobytes() for s in stats]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    k=st.integers(1, 12),
    dtype=st.sampled_from(["f32", "f64"]),
    seed=st.integers(0, 2**32 - 1),
    holes=st.sampled_from(["none", "some", "all-nan-column"]),
)
def test_column_stats_match_the_per_column_loop_bit_for_bit(n, k, dtype, seed, holes):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-6, 6, size=k) + rng.normal(size=k)
    if holes != "none":
        hit = rng.random(size=arr.shape) < 0.1
        arr[hit] = rng.choice([np.nan, np.inf, -np.inf], size=int(hit.sum()))
        if holes == "all-nan-column":
            arr[:, rng.integers(k)] = np.nan
    ds = tabular.from_array(arr, dtype=dtype, allow_nonfinite=holes != "none")
    want = [np.array(row).tobytes() for row in loop_column_stats(ds)]
    assert stats_bits(tabular.column_stats(ds)) == want


def test_stats_are_computed_once_per_dataset(monkeypatch):
    ds = tabular.from_array(np.arange(12.0).reshape(4, 3))
    calls = []
    for name in ("_compute_column_stats", "_compute_global_stats"):
        real = getattr(tabular, name)
        monkeypatch.setattr(tabular, name, lambda d, real=real: calls.append(d) or real(d))
    cols, whole = tabular.column_stats(ds), tabular.global_stats(ds)
    assert tabular.column_stats(ds) == cols and tabular.global_stats(ds) == whole
    assert calls == [ds, ds]

    with pytest.raises(TypeError):
        cols[0] = cols[1]
    with pytest.raises(AttributeError):
        cols[0].min = -1.0
    with pytest.raises(AttributeError):
        whole.max = -1.0
    assert tabular.column_stats(ds)[0].min == 0.0 and tabular.global_stats(ds).max == 11.0

    doubled = ds.with_values(2.0 * ds.values)
    assert [s.max for s in tabular.column_stats(doubled)] == [18.0, 20.0, 22.0]
    assert tabular.global_stats(ds.select_rows(np.array([0]))).max == 2.0
    assert len(calls) == 4
