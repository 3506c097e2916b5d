"""Tabular float datasets: ingestion, per-column statistics, splits.

A dataset is an immutable (n_obs, n_feat) matrix of f32 or f64 values with
named columns.  Values are validated at ingestion (finite unless explicitly
allowed) and never normalised or re-typed afterwards; reducers and
applications see exactly the bytes that were loaded.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataFormatError

DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# the one wire format of each value width in bytes, as codecs store values
WIDTH_DTYPES = {dt.itemsize: dt for dt in DTYPES.values()}


def dtype_width(dtype: str) -> int:
    if dtype not in DTYPES:
        raise DataFormatError(f"unknown dtype {dtype!r} (expected 'f32' or 'f64')")
    return DTYPES[dtype].itemsize


def round_to_width(values: np.ndarray, width: int) -> np.ndarray:
    """f64 values rounded to the dtype of `width` bytes and back to f64;
    width 8 returns `values` itself, uncopied."""
    return values if width == 8 else values.astype(WIDTH_DTYPES[width]).astype(np.float64)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable matrix of observations (rows) by features (columns)."""

    values: np.ndarray
    names: tuple[str, ...]
    dtype: str = "f64"
    allow_nonfinite: bool = False

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2:
            raise DataFormatError(f"dataset values must be 2-D, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DataFormatError(f"dataset must be non-empty, got shape {v.shape}")
        if self.dtype not in DTYPES:
            raise DataFormatError(f"unknown dtype {self.dtype!r}")
        if v.dtype != DTYPES[self.dtype] and v.dtype != np.dtype(DTYPES[self.dtype].str[1:]):
            v = np.ascontiguousarray(v, dtype=DTYPES[self.dtype])
        else:
            v = np.ascontiguousarray(v)
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if len(self.names) != v.shape[1]:
            raise DataFormatError(
                f"{len(self.names)} names for {v.shape[1]} columns"
            )
        if not self.allow_nonfinite and not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise DataFormatError(
                f"non-finite value at row {bad[0]}, column {bad[1]} "
                "(pass allow_nonfinite=True to accept)"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def id(self) -> str:
        """SHA-256 of the dtype, shape and value bytes; hashed on first use,
        so the many tables a search restores and never names cost nothing."""
        v = self.values
        h = hashlib.sha256()
        h.update(b"ppress-dataset-v1")
        h.update(self.dtype.encode())
        h.update(np.int64(v.shape[0]).tobytes())
        h.update(np.int64(v.shape[1]).tobytes())
        h.update(v.astype(DTYPES[self.dtype], copy=False).tobytes())
        return h.hexdigest()

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_feat(self) -> int:
        return self.values.shape[1]

    @property
    def n_bytes(self) -> int:
        return self.values.nbytes

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def select_rows(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            self.values[rows], self.names, self.dtype, allow_nonfinite=True
        )

    def with_values(self, values: np.ndarray) -> "Dataset":
        """Same names/dtype, new value matrix (used by reducers)."""
        return Dataset(values, self.names, self.dtype, allow_nonfinite=True)

    # the values never change, so their statistics are computed once
    @cached_property
    def _column_stats(self) -> tuple["ColumnStats", ...]:
        return _compute_column_stats(self)

    @cached_property
    def _global_stats(self) -> "ColumnStats":
        return _compute_global_stats(self)

    @cached_property
    def _error_reference(self) -> tuple[np.ndarray, np.ndarray, float]:
        return _compute_error_reference(self)

    def column_index(self, name_or_index: str | int) -> int:
        if isinstance(name_or_index, int):
            if not 0 <= name_or_index < self.n_feat:
                raise DataFormatError(f"column index {name_or_index} out of range")
            return name_or_index
        try:
            return self.names.index(name_or_index)
        except ValueError:
            raise DataFormatError(f"no column named {name_or_index!r}") from None


def default_names(n_feat: int) -> tuple[str, ...]:
    return tuple(f"c{j}" for j in range(n_feat))


def from_array(
    arr: np.ndarray,
    names: tuple[str, ...] | None = None,
    dtype: str = "f64",
    allow_nonfinite: bool = False,
) -> Dataset:
    a = np.asarray(arr, dtype=DTYPES[dtype])
    if a.ndim == 1:
        a = a[:, None]
    return Dataset(a, names or default_names(a.shape[1]), dtype, allow_nonfinite)


# -- CSV ---------------------------------------------------------------------

def load_csv(
    path: str | Path,
    header: bool = True,
    dtype: str = "f64",
    allow_nonfinite: bool = False,
) -> Dataset:
    """Parse a numeric CSV into a dataset.

    Every row must have the same number of cells; cells parse as
    round-to-nearest into the target dtype.  Non-finite cells are rejected
    unless allow_nonfinite is set.
    """
    dtype_width(dtype)
    rows: list[list[float]] = []
    names: tuple[str, ...] | None = None
    n_cols = -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if header and names is None:  # the first non-blank row
                names = tuple(cell.strip() for cell in row)
                n_cols = len(names)
                continue
            if n_cols == -1:
                n_cols = len(row)
            if len(row) != n_cols:
                raise DataFormatError(
                    f"{path}: row {i} has {len(row)} cells, expected {n_cols}"
                )
            parsed = []
            for j, cell in enumerate(row):
                try:
                    x = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {i}, column {j}: cannot parse {cell!r}"
                    ) from None
                if not allow_nonfinite and not np.isfinite(x):
                    raise DataFormatError(
                        f"{path}: row {i}, column {j}: non-finite value {cell!r}"
                    )
                parsed.append(x)
            rows.append(parsed)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    values = np.array(rows, dtype=DTYPES[dtype])
    return Dataset(
        values, names or default_names(n_cols), dtype, allow_nonfinite
    )


# -- raw little-endian binary ------------------------------------------------

def load_raw(
    path: str | Path,
    n_obs: int,
    n_feat: int,
    dtype: str = "f64",
    order: str = "row_major",
    allow_nonfinite: bool = False,
) -> Dataset:
    """Read a packed little-endian IEEE-754 matrix."""
    width = dtype_width(dtype)
    raw = Path(path).read_bytes()
    expected = n_obs * n_feat * width
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: {len(raw)} bytes, expected {expected} "
            f"({n_obs}x{n_feat} {dtype})"
        )
    flat = np.frombuffer(raw, dtype=DTYPES[dtype])
    if order == "row_major":
        values = flat.reshape(n_obs, n_feat)
    elif order == "col_major":
        values = flat.reshape(n_feat, n_obs).T
    else:
        raise DataFormatError(f"unknown order {order!r}")
    return Dataset(
        np.ascontiguousarray(values),
        default_names(n_feat),
        dtype,
        allow_nonfinite,
    )


def save_raw(ds: Dataset, path: str | Path) -> None:
    """Write the values row after row, packed little-endian."""
    Path(path).write_bytes(ds.values.tobytes())


def write_descriptor(ds: Dataset, path: str | Path) -> None:
    """Sidecar text file so a row-major raw matrix is self-describing on disk."""
    Path(path).write_text(
        f"dtype={ds.dtype}\nn_obs={ds.n_obs}\nn_feat={ds.n_feat}\norder=row_major\n"
    )


def read_descriptor(path: str | Path) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: bad descriptor line {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    for key in ("dtype", "n_obs", "n_feat", "order"):
        if key not in fields:
            raise DataFormatError(f"{path}: descriptor missing {key!r}")
    return fields


def load_raw_with_descriptor(
    path: str | Path, allow_nonfinite: bool = False
) -> Dataset:
    desc = read_descriptor(str(path) + ".desc")
    return load_raw(
        path,
        int(desc["n_obs"]),
        int(desc["n_feat"]),
        desc["dtype"],
        desc["order"],
        allow_nonfinite,
    )


def save_raw_with_descriptor(ds: Dataset, path: str | Path) -> None:
    save_raw(ds, path)
    write_descriptor(ds, str(path) + ".desc")


# -- statistics --------------------------------------------------------------

@dataclass(frozen=True)
class ColumnStats:
    name: str
    min: float
    max: float
    range: float
    mean: float
    variance: float

    @property
    def zero_range(self) -> bool:
        return self.range == 0.0


def column_stats(ds: Dataset) -> tuple[ColumnStats, ...]:
    """Per-column min/max/range/mean/variance, all in data units.

    min, max and range stay in the dataset dtype; mean and variance are
    accumulated in f64.  A finite table takes one reduction per statistic
    over its columns laid out as rows, which sums each column pairwise just
    as a reduction over that column alone does; a table holding non-finite
    values reduces each column's finite values on their own.  Computed on
    the first call for a dataset; later calls return the same tuple.
    """
    return ds._column_stats


def _compute_column_stats(ds: Dataset) -> tuple[ColumnStats, ...]:
    cols = np.ascontiguousarray(ds.values.T)
    if not ds.allow_nonfinite or np.isfinite(cols).all():
        parts = zip(
            cols.min(axis=1),
            cols.max(axis=1),
            cols.mean(axis=1, dtype=np.float64),
            cols.var(axis=1, dtype=np.float64),
        )
    else:
        parts = (_finite_stats(col[np.isfinite(col)]) for col in cols)
    return tuple(
        ColumnStats(name, float(lo), float(hi), float(hi - lo), float(mean), float(var))
        for name, (lo, hi, mean, var) in zip(ds.names, parts)
    )


def _finite_stats(finite: np.ndarray) -> tuple:
    if finite.size == 0:
        return (np.nan,) * 4
    return (
        finite.min(),
        finite.max(),
        finite.mean(dtype=np.float64),
        finite.var(dtype=np.float64),
    )


def global_stats(ds: Dataset) -> ColumnStats:
    """Stats over the whole matrix, used by the matrix reducer layout;
    computed on the first call for a dataset."""
    return ds._global_stats


def _compute_error_reference(ds: Dataset) -> tuple[np.ndarray, np.ndarray, float]:
    """Values as f64, each column's max − min and the table's, NaN propagating."""
    x = ds.values.astype(np.float64, copy=False)
    return x, x.max(axis=0) - x.min(axis=0), float(x.max() - x.min())


def _compute_global_stats(ds: Dataset) -> ColumnStats:
    v = ds.values
    finite = v[np.isfinite(v)] if ds.allow_nonfinite else v.ravel()
    lo = finite.min()
    hi = finite.max()
    return ColumnStats(
        "*",
        float(lo),
        float(hi),
        float((hi - lo).astype(finite.dtype)),
        float(finite.mean(dtype=np.float64)),
        float(finite.var(dtype=np.float64)),
    )


@dataclass(frozen=True)
class RangeHistogram:
    scale: str
    zero_count: int
    edges: np.ndarray
    counts: np.ndarray


def range_histogram(
    stats: Sequence[ColumnStats], n_bins: int = 10, scale: str = "linear"
) -> RangeHistogram:
    """Distribution of per-column ranges with an explicit zero bin.

    Zero-range columns land in the zero bin; positive ranges are binned on a
    linear or log10 axis.  Counts plus the zero bin always sum to the number
    of columns.
    """
    if n_bins < 1:
        raise DataFormatError("n_bins must be >= 1")
    if scale not in ("linear", "log10"):
        raise DataFormatError(f"unknown histogram scale {scale!r}")
    ranges = np.array([s.range for s in stats], dtype=np.float64)
    zero = int((ranges == 0.0).sum())
    positive = ranges[ranges > 0.0]
    if positive.size == 0:
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        counts = np.zeros(n_bins, dtype=np.int64)
        return RangeHistogram(scale, zero, edges, counts)
    if scale == "linear":
        counts, edges = np.histogram(positive, bins=n_bins)
    else:
        counts, edges = np.histogram(np.log10(positive), bins=n_bins)
    return RangeHistogram(scale, zero, edges, counts.astype(np.int64))


# -- splits ------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 0
    shuffled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DataFormatError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic train/validation split; parts partition the rows."""
    n = ds.n_obs
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise DataFormatError(
            f"split of {n} rows at fraction {spec.train_fraction} "
            "leaves an empty part"
        )
    if spec.shuffled:
        perm = np.random.default_rng(spec.seed).permutation(n)
    else:
        perm = np.arange(n)
    return ds.select_rows(perm[:n_train]), ds.select_rows(perm[n_train:])
