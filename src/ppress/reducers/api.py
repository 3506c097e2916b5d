"""Top-level reduce/restore entry points over the container format.

Every artifact holds one stream over the whole table.  The layout sets only
the order of its values: `by_column` column after column, `matrix` row after
row.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError, ConfigError, DataFormatError
from ..tabular import DTYPES, ColumnStats, Dataset, column_stats, default_names, global_stats
from . import bitplane, delta, lossless, predictive, sampling, truncation
from .config import SAMPLING_METHODS, Layout, Method, Mode, ReducerConfig
from .container import Artifact, pack, unpack

__all__ = [
    "PER_VALUE",
    "ErrorReport",
    "Artifact",
    "pack",
    "unpack",
    "resolve_bound",
    "compress",
    "decompress",
    "error_report",
    "compression_ratio",
]


class _PerValue:
    """Sentinel: the bound is relative to each value, not a single number."""

    def __repr__(self) -> str:
        return "PER_VALUE"


PER_VALUE = _PerValue()


def resolve_bound(mode: Mode, c_value: float, stats: ColumnStats | None = None):
    """Turn a mode-relative bound into an absolute one in data units.

    Returns 0.0 for a REL/PSNR bound on a zero-range column (the caller
    stores such columns verbatim) and PER_VALUE for PW_REL.
    """
    if not c_value > 0:
        raise ConfigError(f"bound must be positive, got {c_value}")
    mode = Mode(mode)
    if mode is Mode.ABS:
        return float(c_value)
    if mode is Mode.PW_REL:
        return PER_VALUE
    if mode in (Mode.REL, Mode.PSNR):
        if stats is None:
            raise ConfigError(f"{mode.value} bound needs column statistics")
        if stats.range == 0:
            return 0.0
        if mode is Mode.REL:
            return float(c_value * stats.range)
        return float(math.sqrt(3.0) * stats.range * 10.0 ** (-c_value / 20.0))
    raise ConfigError(f"mode {mode.value} does not define an absolute bound")


def _encode_stream(flat: np.ndarray, config: ReducerConfig, width: int) -> bytes:
    """The stream of every method but the predictive one: `flat` holds the
    table's values in the layout's order."""
    knobs = config.knobs
    method = config.method
    if method is Method.NONE or method in SAMPLING_METHODS:
        return flat.tobytes()
    if method is Method.LOSSLESS:
        arr = delta.delta_transform(flat, knobs.delta_order) if knobs.delta_order else flat
        return bytes([knobs.delta_order]) + lossless.lossless_encode(arr.tobytes())
    if method is Method.TRUNC:
        return truncation.narrow_values(flat, int(config.c[0])).tobytes()
    if method is Method.EBLC_BITPLANE:
        return bitplane.encode(flat, config.mode.value, config.c[0], width)[0]
    raise ConfigError(f"method {method.value} has no stream encoder")


def _encode_predictive(dataset: Dataset, config: ReducerConfig, width: int) -> bytes:
    """The predictive method's one stream: a block of the table's columns,
    or (matrix layout) of one column holding every value in row order."""
    matrix = config.layout is Layout.MATRIX
    block = dataset.values.reshape(-1, 1) if matrix else dataset.values
    c = config.c[0]
    if config.mode is Mode.PW_REL:
        return predictive.encode_pwrel(block, c, width)[0]
    stats = [global_stats(dataset)] if matrix else column_stats(dataset)
    eb = [resolve_bound(config.mode, c, s) for s in stats]
    return predictive.encode_abs(block, eb, width)[0]


def compress(dataset: Dataset, config: ReducerConfig) -> tuple[Artifact, float, float]:
    """Reduce a dataset; returns (artifact, seconds, MB/s over input bytes)."""
    config = config if isinstance(config, ReducerConfig) else ReducerConfig(**config)
    t0 = time.perf_counter()
    width = dataset.values.dtype.itemsize
    if config.method is Method.TRUNC and int(config.c[0]) >= 8 * width:
        raise ConfigError(
            f"truncation to {int(config.c[0])} bits needs wider input than {dataset.dtype}"
        )
    if config.mode is Mode.RATE and config.c[0] > 8 * width:
        raise ConfigError(
            f"bit-plane rate {config.c[0]:g} exceeds the {8 * width}-bit width of {dataset.dtype}"
        )

    values = dataset.values
    if config.method in SAMPLING_METHODS:
        scheme = config.method.value.removeprefix("sample_")
        kept = sampling.sample_indices(dataset.n_obs, scheme, config.c[0], config.knobs.seed)
        values = values[kept]
    if config.method is Method.EBLC_PRED:
        stream = _encode_predictive(dataset, config, width)
    else:
        order = "C" if config.layout is Layout.MATRIX else "F"
        stream = _encode_stream(values.ravel(order=order), config, width)

    artifact = Artifact(
        method=config.method, mode=config.mode, c=config.c, layout=config.layout,
        dtype=dataset.dtype, n_obs=dataset.n_obs, n_feat=dataset.n_feat, stream=stream,
    )
    dt = time.perf_counter() - t0
    return artifact, dt, dataset.n_bytes / 1e6 / max(dt, 1e-12)


def _values(buf: bytes, dtype: np.dtype, count: int | None) -> np.ndarray:
    """buf read as `count` values of dtype, or as any whole number of them."""
    if len(buf) % dtype.itemsize:
        raise CodecError(f"{len(buf)} stream bytes are not whole {dtype.itemsize}-byte values")
    if count is not None and len(buf) != count * dtype.itemsize:
        raise CodecError(f"stream holds {len(buf) // dtype.itemsize} values, expected {count}")
    return np.frombuffer(buf, dtype)


def _decode_stream(blob: bytes, artifact: Artifact, np_dtype: np.dtype) -> np.ndarray:
    method = artifact.method
    count = artifact.n_obs * artifact.n_feat  # values of a method that keeps every row
    if method in SAMPLING_METHODS:
        return _values(blob, np_dtype, None)
    if method is Method.NONE:
        return _values(blob, np_dtype, count)
    if method is Method.LOSSLESS:
        if not blob:
            raise CodecError("empty lossless stream")
        order = blob[0]
        arr = _values(lossless.lossless_decode(blob[1:]), np_dtype, count)
        return delta.inverse_delta(arr, order) if order else arr
    if method is Method.TRUNC:
        narrow = np.dtype("<f4") if int(artifact.c[0]) == 32 else np.dtype("<f2")
        with np.errstate(invalid="ignore"):  # a signalling NaN widens like any value
            return _values(blob, narrow, count).astype(np_dtype)
    if method is Method.EBLC_PRED:
        return predictive.decode(blob, artifact.value_width).astype(np_dtype, copy=False)
    if method is Method.EBLC_BITPLANE:
        mode, c, width = artifact.mode.value, artifact.c[0], artifact.value_width
        return bitplane.decode(blob, mode, c, count, width).astype(np_dtype, copy=False)
    raise DataFormatError(f"method {method.value} has no stream decoder")


def decompress(
    artifact: Artifact, names: tuple[str, ...] | None = None
) -> tuple[Dataset, float, float]:
    """Restore a dataset from an artifact; returns (dataset, seconds, MB/s)."""
    t0 = time.perf_counter()
    np_dtype = np.dtype(DTYPES[artifact.dtype])
    flat = _decode_stream(artifact.stream, artifact, np_dtype)
    if flat.size % artifact.n_feat:
        raise DataFormatError(f"{flat.size} values are not whole rows of {artifact.n_feat}")
    if artifact.layout is Layout.MATRIX:
        values = flat.reshape(-1, artifact.n_feat)
    else:
        values = flat.reshape(artifact.n_feat, -1).T
    if artifact.method not in SAMPLING_METHODS and values.shape[0] != artifact.n_obs:
        raise DataFormatError(f"decoded {values.shape[0]} rows, header says {artifact.n_obs}")
    names = tuple(names) if names is not None else default_names(artifact.n_feat)
    ds = Dataset(values, names, artifact.dtype, allow_nonfinite=True)
    dt = time.perf_counter() - t0
    return ds, dt, ds.n_bytes / 1e6 / max(dt, 1e-12)


def retained_rows(artifact: Artifact) -> int:
    """Rows present in the artifact (smaller than n_obs for sampling)."""
    if artifact.method in SAMPLING_METHODS:
        return len(artifact.stream) // (artifact.value_width * artifact.n_feat)
    return artifact.n_obs


def compression_ratio(artifact: Artifact) -> float:
    """orig/comp byte ratio; for sampling, original rows over kept rows."""
    if artifact.method in SAMPLING_METHODS:
        kept = retained_rows(artifact)
        if kept == 0:
            raise DataFormatError("sampling artifact holds no rows")
        return artifact.n_obs / kept
    return artifact.orig_bytes / artifact.comp_bytes


@dataclass(frozen=True)
class ErrorReport:
    """Reconstruction error summary of a restored dataset vs its original."""

    max_abs_err: float
    max_rel_to_range_err: float
    mse: float
    psnr_db: float
    column_max_abs_err: tuple[float, ...]
    column_max_rel_to_range_err: tuple[float, ...]


def error_report(original: Dataset, restored: Dataset) -> ErrorReport:
    if original.values.shape != restored.values.shape:
        raise DataFormatError(
            f"shape mismatch: {original.values.shape} vs {restored.values.shape}"
        )
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
    return ErrorReport(
        max_abs_err=float(col_max.max()),
        max_rel_to_range_err=float(col_rel.max()),
        mse=mse,
        psnr_db=psnr,
        column_max_abs_err=tuple(float(v) for v in col_max),
        column_max_rel_to_range_err=tuple(float(v) for v in col_rel),
    )
