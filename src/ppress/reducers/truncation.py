"""Width truncation: round values to a narrower IEEE format."""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ConfigError

# the dtype of each truncation width in bits
NARROW = {32: np.dtype("<f4"), 16: np.dtype("<f2")}


def narrow_values(values: np.ndarray, target_width: int) -> np.ndarray:
    """Round-to-nearest-even cast; finite values that overflow are an error."""
    if target_width not in NARROW:
        raise ConfigError(f"truncation width must be 32 or 16, got {target_width}")
    with np.errstate(over="ignore"):
        out = values.astype(NARROW[target_width])
    overflow = np.isfinite(values) & ~np.isfinite(out)
    if overflow.any():
        i = int(np.flatnonzero(overflow.ravel())[0])
        raise CodecError(
            f"value {values.ravel()[i]!r} exceeds the f{target_width} range"
        )
    return out

