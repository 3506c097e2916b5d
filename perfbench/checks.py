"""Correctness checks, computed apart from the program under test.

Each check returns a list of problems (empty when the output is correct).
The references are written here from the definitions, not read from ppress:
a ridge fit solved as an augmented least-squares problem, a brute-force kNN,
error bounds taken from the original values with numpy, a brute-force Pareto
front, and a hypervolume summed over horizontal slabs where ppress sums
vertical ones.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

PHI_TOLERANCE = {"r2": 1e-6, "gmean": 1e-12}  # |phi - independent value|, see README.md
EXACT_TOLERANCE = 1e-9  # relative, for quantities that differ only by summation order


def _rounding(dtype: np.dtype) -> float:
    """Relative slack for a range the codec holds in the data's own dtype."""
    return float(np.finfo(dtype).eps)


# -- codec outputs -----------------------------------------------------------

def bound_violations(
    original: np.ndarray, restored: np.ndarray, mode: str, bound: float, layout: str
) -> int:
    """Values of `restored` farther from `original` than the mode allows.

    rel: bound times the range of the column, or of the whole matrix in
    matrix layout; pw_rel: bound times |x|; acc: the bound itself.
    """
    if original.shape != restored.shape:
        return original.size
    x = original.astype(np.float64)
    err = np.abs(x - restored.astype(np.float64))
    slack = 1.0 + _rounding(original.dtype)
    if mode == "rel":
        if layout == "matrix":
            span = x.max() - x.min()
        else:
            span = x.max(axis=0) - x.min(axis=0)
        limit = bound * span * slack
    elif mode == "pw_rel":
        limit = bound * np.abs(x) * slack
    elif mode == "acc":
        limit = bound
    else:
        raise ValueError(f"no bound check for mode {mode!r}")
    return int(np.count_nonzero(~(err <= limit)))  # NaN counts as a violation


def bit_exact(original: np.ndarray, restored: np.ndarray) -> bool:
    return (
        original.dtype == restored.dtype
        and original.shape == restored.shape
        and original.tobytes() == restored.tobytes()
    )


def ratio_problems(label: str, orig_bytes: int, packed_len: int, reported: float) -> list[str]:
    """The program's ratio must be the original bytes over the container length."""
    expected = orig_bytes / packed_len
    if not abs(reported - expected) <= EXACT_TOLERANCE * expected:
        return [f"{label}: ratio {reported!r} != {orig_bytes}/{packed_len}"]
    return []


def psnr_db(original: np.ndarray, restored: np.ndarray) -> float:
    x = original.astype(np.float64)
    mse = float(np.mean((x - restored.astype(np.float64)) ** 2))
    span = float(x.max() - x.min())
    return math.inf if mse == 0.0 else 10.0 * math.log10(span * span / mse)


# -- fronts and hypervolume --------------------------------------------------

def brute_front(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Every point no other point dominates, duplicates collapsed, by ratio."""
    uniq = set(points)
    return sorted(
        p for p in uniq
        if not any(o[0] >= p[0] and o[1] >= p[1] and o != p for o in uniq)
    )


def slab_hypervolume(points: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    """Area the points dominate beyond `ref`, summed over horizontal slabs."""
    front = sorted(brute_front(points), key=lambda p: -p[1])  # quality falling
    area = 0.0
    for i, (cr, q) in enumerate(front):
        below = front[i + 1][1] if i + 1 < len(front) else ref[1]
        area += (q - below) * (cr - ref[0])
    return area


def hypervolume_problems(label: str, points, ref, reported: float) -> list[str]:
    expected = slab_hypervolume(points, ref)
    if not abs(reported - expected) <= EXACT_TOLERANCE * max(abs(expected), 1e-300):
        return [f"{label}: hypervolume {reported!r} != slab sum {expected!r}"]
    return []


# -- downstream applications -------------------------------------------------

def _design(ds, target: str) -> tuple[np.ndarray, np.ndarray]:
    j = ds.names.index(target)
    v = ds.values.astype(np.float64)
    return np.delete(v, j, axis=1), v[:, j]


def ridge_r2(train, validation, target: str, lambda_scale: float = 1e-3) -> float:
    """Squared Pearson correlation of a ridge fit with an intercept column.

    The penalty is lambda_scale times the mean diagonal of the Gram matrix,
    applied to every coefficient; solved as least squares on the design
    stacked over sqrt(lambda) * I rather than through the normal equations.
    """
    xt, yt = _design(train, target)
    xv, yv = _design(validation, target)
    xt = np.column_stack([xt, np.ones(len(xt))])
    xv = np.column_stack([xv, np.ones(len(xv))])
    p = xt.shape[1]
    lam = lambda_scale * float(np.sum(xt * xt)) / p
    a = np.vstack([xt, math.sqrt(lam) * np.eye(p)])
    b = np.concatenate([yt, np.zeros(p)])
    beta = np.linalg.lstsq(a, b, rcond=None)[0]
    r = np.corrcoef(xv @ beta, yv)[0, 1]
    return float(r * r)


def knn_gmean(train, validation, target: str, k: int, seed: int, positive: float) -> float:
    """g-mean of precision and recall of a k-nearest-neighbour vote.

    Distance ties go to the training row that comes first in a permutation
    drawn from `seed`; vote ties go to the smallest label.
    """
    xt, yt = _design(train, target)
    xv, yv = _design(validation, target)
    tiebreak = np.random.default_rng(seed).permutation(len(xt))
    tp = fp = fn = 0
    for row, truth in zip(xv, yv):
        d2 = np.sum((xt - row) ** 2, axis=1)
        nearest = np.lexsort((tiebreak, d2))[:k]
        votes = Counter(yt[nearest].tolist())
        top = max(votes.values())
        label = min(v for v, c in votes.items() if c == top)
        tp += label == positive and truth == positive
        fp += label == positive and truth != positive
        fn += label != positive and truth == positive
    if tp + fn == 0 or tp + fp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return math.sqrt(precision * recall)


# -- campaigns ---------------------------------------------------------------

def phi_problems(phi: float, reference: float, tolerance: float) -> list[str]:
    if not abs(phi - reference) <= tolerance:
        return [f"baseline phi {phi!r} differs from the independent {reference!r}"]
    return []


def boundary_problems(label, upper, lower, phi: float, spec) -> list[str]:
    """The upper boundary is quality-neutral within eta, the lower above tau."""
    out = []
    psi_upper = dict(upper.probes).get(upper.bound)
    psi_lower = dict(lower.probes).get(lower.bound)
    if not (upper.satisfied and psi_upper is not None
            and abs(phi - psi_upper) <= spec.eta * abs(phi)):
        out.append(f"{label}: upper boundary {upper.bound!r} has quality {psi_upper!r}, "
                   f"not within eta of phi {phi!r}")
    if psi_lower is None or not psi_lower > spec.tau:
        out.append(f"{label}: lower boundary {lower.bound!r} has quality {psi_lower!r} "
                   f"<= tau {spec.tau!r}")
    return out


def ladder_problems(label, ladder, lower_bound: float, upper_bound: float, n: int) -> list[str]:
    """n bounds, evenly spaced, from the lower boundary to the upper."""
    bounds = np.array([cfg.c[0] for cfg in ladder.points])
    if len(bounds) != n or bounds[0] != lower_bound or bounds[-1] != upper_bound:
        return [f"{label}: ladder {bounds.tolist()} does not run from "
                f"{lower_bound!r} to {upper_bound!r} in {n} points"]
    steps = np.diff(bounds)
    if not np.allclose(steps, (upper_bound - lower_bound) / (n - 1),
                       rtol=EXACT_TOLERANCE, atol=0.0):
        return [f"{label}: ladder {bounds.tolist()} is not evenly spaced"]
    return []


def record_bound_problems(records, parts: dict) -> list[str]:
    """Each codec record's reported error stays within its configured bound.

    By-column rel records are held to max_rel_to_range_err <= c.  A matrix
    rel bound is c times the range of the whole part, which the column-wise
    max_rel_to_range_err does not express, so those records are held to
    max_abs_err against that range; acc records to max_abs_err <= c.
    """
    out = []
    for rec in records:
        cfg = rec.config
        if not rec.ok or not rec.report or cfg["method"] not in ("eblc_pred", "eblc_bitplane"):
            continue
        c = float(cfg["c"][0])
        for part, rep in rec.report.items():
            if cfg["mode"] == "acc":
                err, limit = rep["max_abs_err"], c
            elif cfg["mode"] == "rel" and cfg["layout"] == "matrix":
                x = parts[part].values
                span = float(x.max()) - float(x.min())
                err, limit = rep["max_abs_err"], c * span * (1.0 + _rounding(x.dtype))
            elif cfg["mode"] == "rel":
                err = rep["max_rel_to_range_err"]
                limit = c * (1.0 + _rounding(parts[part].values.dtype))
            else:
                continue
            if not err <= limit:
                out.append(f"record {rec.record_id} ({cfg['mode']} {c!r}, {part}): "
                           f"error {err!r} exceeds {limit!r}")
    return out


def sample_ratio_problems(records, n_rows: tuple[int, ...]) -> list[str]:
    """A sampled record keeps round(c * n) of each part's n rows."""
    out = []
    for rec in records:
        if rec.ok and rec.config["method"] == "sample_wor":
            c = float(rec.config["c"][0])
            expected = sum(n_rows) / sum(round(c * n) for n in n_rows)
            if not abs(rec.ratio - expected) <= EXACT_TOLERANCE * expected:
                out.append(f"record {rec.record_id}: sample ratio {rec.ratio!r} "
                           f"!= {expected!r} at fraction {c!r}")
    return out


def cache_hit_problems(records) -> list[str]:
    """With a cache that starts empty, hits are exactly the repeated evaluations."""
    seen: set[str] = set()
    repeats = 0
    for rec in records:
        repeats += rec.record_id in seen
        if rec.ok:  # only successful evaluations are written to the cache
            seen.add(rec.record_id)
    hits = sum(rec.cached for rec in records)
    if hits != repeats:
        return [f"{hits} cache hits for {repeats} repeated evaluations"]
    return []
