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
from ..tabular import DTYPES, Dataset, column_stats, default_names, global_stats
from . import bitplane, delta, lossless, predictive, sampling, truncation
from .config import SAMPLING_METHODS, Layout, Method, Mode, ReducerConfig, check_fields
from .container import Artifact

__all__ = [
    "ErrorReport",
    "Artifact",
    "compress",
    "decompress",
    "reconstruction",
    "decoder_bound",
    "unit_bounds",
    "error_report",
    "compression_ratio",
]


def _abs_bounds(mode: Mode, c: float, ranges: np.ndarray) -> np.ndarray:
    """Each column's absolute bound in data units under an abs, rel or psnr
    bound c; a zero-range column gets 0 under rel and psnr (the coder
    stores it verbatim), and a NaN range gives a NaN bound."""
    if mode is Mode.ABS:
        return np.full(ranges.shape, c)
    if mode is Mode.REL:
        return c * ranges
    return math.sqrt(3.0) * ranges * 10.0 ** (-c / 20.0)


# a stream and the encoder's reconstruction of the values it holds, or None
Encoded = tuple[bytes, np.ndarray | None]


def _encode_stream(flat: np.ndarray, config: ReducerConfig, width: int) -> Encoded:
    """The stream of every method but the predictive one: `flat` holds the
    table's values in the layout's order.  Only the bit-plane coder keeps
    its reconstruction: `none` and sampling decode to a view of the stream,
    and no search probes lossless or truncation."""
    knobs = config.knobs
    method = config.method
    if method is Method.NONE or method in SAMPLING_METHODS:
        return flat.tobytes(), None
    if method is Method.LOSSLESS:
        arr = delta.delta_transform(flat, knobs.delta_order) if knobs.delta_order else flat
        return bytes([knobs.delta_order]) + lossless.lossless_encode(arr.tobytes()), None
    if method is Method.TRUNC:
        return truncation.narrow_values(flat, int(config.c[0])).tobytes(), None
    if method is Method.EBLC_BITPLANE:
        return bitplane.encode(flat, config.mode.value, config.c[0], width)
    raise ConfigError(f"method {method.value} has no stream encoder")


def _encode_predictive(dataset: Dataset, config: ReducerConfig, width: int) -> Encoded:
    """The predictive method's one stream: a block of the table's columns,
    or (matrix layout) of one column holding every value in row order."""
    matrix = config.layout is Layout.MATRIX
    block = dataset.values.reshape(-1, 1) if matrix else dataset.values
    c = config.c[0]
    if config.mode is Mode.PW_REL:
        return predictive.encode_pwrel(block, c, width)
    stats = [global_stats(dataset)] if matrix else column_stats(dataset)
    ranges = np.array([s.range for s in stats])
    return predictive.encode_abs(block, _abs_bounds(config.mode, c, ranges), width)


def compress(dataset: Dataset, config: ReducerConfig) -> tuple[Artifact, float, float]:
    """Reduce a dataset; returns (artifact, seconds, MB/s over input bytes)."""
    t0 = time.perf_counter()
    width = dataset.values.dtype.itemsize
    check_fields(config.method, config.mode, config.c, width)

    values = dataset.values
    if config.method in SAMPLING_METHODS:
        scheme = config.method.value.removeprefix("sample_")
        kept = sampling.sample_indices(dataset.n_obs, scheme, config.c[0], config.knobs.seed)
        values = values[kept]
    if config.method is Method.EBLC_PRED:
        stream, restored = _encode_predictive(dataset, config, width)
    else:
        order = "C" if config.layout is Layout.MATRIX else "F"
        stream, restored = _encode_stream(values.ravel(order=order), config, width)

    artifact = Artifact(
        method=config.method, mode=config.mode, c=config.c, layout=config.layout,
        dtype=dataset.dtype, n_obs=dataset.n_obs, n_feat=dataset.n_feat, stream=stream,
        restored=restored,
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


def decoder_bound(method: Method, mode: Mode, c: tuple[float, ...]) -> int | None:
    """All that decoding a stream of `method` reads of the bound c: a
    bit-plane stream's bitplane.plane_bound, a truncation's width, and
    nothing (None) for the other methods, whose streams hold what decoding
    needs (the predictive steps, the delta order, the kept rows).  Two
    bounds with one decoder_bound decode one stream to one table."""
    if method is Method.EBLC_BITPLANE:
        return bitplane.plane_bound(mode.value, c[0])
    if method is Method.TRUNC:
        return int(c[0])
    return None


def unit_bounds(
    method: Method, mode: Mode, bound_min: float, bound_max: float
) -> tuple[float, ...] | None:
    """The inverse of decoder_bound over [bound_min, bound_max]: one bound
    for each decoder bound (unit) the interval holds, least compressing
    first, each in the interval and of its unit: a truncation width, or what
    bitplane.unit_bounds picks.  None for a method without decoder bounds."""
    if method is Method.TRUNC:
        return tuple(float(w) for w in sorted(truncation.NARROW, reverse=True)
                     if bound_min <= w <= bound_max)
    if method is not Method.EBLC_BITPLANE:
        return None
    return bitplane.unit_bounds(mode.value, bound_min, bound_max)


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
        with np.errstate(invalid="ignore"):  # a signalling NaN widens like any value
            narrow = truncation.NARROW[decoder_bound(method, artifact.mode, artifact.c)]
            return _values(blob, narrow, count).astype(np_dtype)
    if method is Method.EBLC_PRED:
        return predictive.decode(blob, artifact.value_width, count).astype(np_dtype, copy=False)
    if method is Method.EBLC_BITPLANE:
        mode, c, width = artifact.mode.value, artifact.c[0], artifact.value_width
        return bitplane.decode(blob, mode, c, count, width).astype(np_dtype, copy=False)
    raise DataFormatError(f"method {method.value} has no stream decoder")


def _table(flat: np.ndarray, artifact: Artifact, names: tuple[str, ...] | None) -> Dataset:
    """The artifact's table from its values in the stream's order."""
    if flat.size % artifact.n_feat:
        raise DataFormatError(f"{flat.size} values are not whole rows of {artifact.n_feat}")
    if artifact.layout is Layout.MATRIX:
        values = flat.reshape(-1, artifact.n_feat)
    else:
        values = flat.reshape(artifact.n_feat, -1).T
    names = tuple(names) if names is not None else default_names(artifact.n_feat)
    return Dataset(values, names, artifact.dtype, allow_nonfinite=True)


def decompress(
    artifact: Artifact, names: tuple[str, ...] | None = None
) -> tuple[Dataset, float, float]:
    """Restore a dataset from an artifact; returns (dataset, seconds, MB/s)."""
    t0 = time.perf_counter()
    np_dtype = DTYPES[artifact.dtype]
    ds = _table(_decode_stream(artifact.stream, artifact, np_dtype), artifact, names)
    dt = time.perf_counter() - t0
    return ds, dt, ds.n_bytes / 1e6 / max(dt, 1e-12)


def reconstruction(artifact: Artifact, names: tuple[str, ...] | None = None) -> Dataset | None:
    """The table decompress would restore, built from the encoder's
    reconstruction without decoding; None when the artifact keeps none."""
    if artifact.restored is None:
        return None
    flat = artifact.restored.astype(DTYPES[artifact.dtype], copy=False)
    return _table(flat, artifact, names)


def retained_rows(artifact: Artifact) -> int:
    """Rows present in the artifact (smaller than n_obs for sampling)."""
    if artifact.method in SAMPLING_METHODS:
        return len(artifact.stream) // (artifact.value_width * artifact.n_feat)
    return artifact.n_obs


def compression_ratio(*artifacts: Artifact) -> float:
    """Original over compressed size of every artifact (every compressed part)
    together: original over kept rows for sampling, else over container bytes."""
    if artifacts[0].method in SAMPLING_METHODS:
        kept = sum(map(retained_rows, artifacts))
        if kept == 0:
            raise DataFormatError("sampling artifact holds no rows")
        return sum(a.n_obs for a in artifacts) / kept
    return sum(a.orig_bytes for a in artifacts) / sum(a.comp_bytes for a in artifacts)


@dataclass(frozen=True)
class ErrorReport:
    """Reconstruction error summary of a restored dataset vs its original."""

    max_abs_err: float
    max_rel_to_range_err: float
    mse: float
    psnr_db: float


def error_report(original: Dataset, restored: Dataset) -> ErrorReport:
    """Errors of `restored` against `original` in f64.  Ranges are the
    original's float64 max − min, per column and over the table (for PSNR),
    NaN propagating, computed once per original and cached on it."""
    if original.values.shape != restored.values.shape:
        raise DataFormatError(
            f"shape mismatch: {original.values.shape} vs {restored.values.shape}"
        )
    x, ranges, grange = original._error_reference
    diff = x - restored.values.astype(np.float64, copy=False)
    err = np.abs(diff)
    col_max = err.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_rel = np.where(col_max == 0.0, 0.0, col_max / ranges)
    mse = float(np.mean(np.square(diff, out=diff)))
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
    )
