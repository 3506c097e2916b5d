"""Row sampling reducers: fixed-stride, with replacement, and without."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def sample_indices(n_obs: int, scheme: str, param: float, seed: int) -> np.ndarray:
    """Row indices retained by a sampling scheme; deterministic per seed."""
    if scheme == "naive":
        k = int(param)
        if k != param or k < 1:
            raise ConfigError(f"stride must be an integer >= 1, got {param}")
        return np.arange(0, n_obs, k, dtype=np.int64)
    if scheme not in ("wr", "wor"):
        raise ConfigError(f"unknown sampling scheme {scheme!r}")
    if not 0.0 < param <= 1.0:
        raise ConfigError(f"sampling fraction must be in (0, 1], got {param}")
    size = int(round(param * n_obs))
    if size < 1:
        raise ConfigError(
            f"fraction {param} of {n_obs} rows rounds to an empty sample"
        )
    rng = np.random.default_rng(seed)
    if scheme == "wr":
        return rng.integers(0, n_obs, size=size, dtype=np.int64)
    idx = rng.permutation(n_obs)[:size]
    idx.sort()
    return idx

