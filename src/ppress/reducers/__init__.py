"""Dataset reducers: error-bounded codecs, truncation, sampling, lossless."""

from .api import (
    ErrorReport,
    compress,
    compression_ratio,
    decompress,
    error_report,
    reconstruction,
    retained_rows,
)
from .config import Layout, Method, Mode, ReducerConfig, ReducerKnobs
from .container import Artifact, pack, unpack
from .delta import delta_transform, inverse_delta
from .lossless import lossless_decode, lossless_encode
from .sampling import sample_indices
from .truncation import narrow_values

__all__ = [
    "ErrorReport",
    "compress",
    "compression_ratio",
    "decompress",
    "error_report",
    "reconstruction",
    "retained_rows",
    "Layout",
    "Method",
    "Mode",
    "ReducerConfig",
    "ReducerKnobs",
    "Artifact",
    "pack",
    "unpack",
    "delta_transform",
    "inverse_delta",
    "lossless_decode",
    "lossless_encode",
    "sample_indices",
    "narrow_values",
]
