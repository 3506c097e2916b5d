"""Quality metrics and the downstream applications that produce them.

An application maps (train, validation) datasets to a single quality value.
Built-ins are small deterministic models: a closed-form ridge regressor, a
k-nearest-neighbour classifier, and a low-rank reconstruction.  Anything
heavier runs through the external command protocol.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ApplicationError, ConfigError
from .tabular import Dataset, save_raw_with_descriptor


class MetricName(str, Enum):
    R2 = "r2"
    ACCURACY = "accuracy"
    GMEAN = "gmean"
    MSE = "mse"
    PSNR = "psnr"


_LOWER_BETTER = {MetricName.MSE}


@dataclass(frozen=True)
class MetricSpec:
    name: MetricName
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", MetricName(self.name))

    @property
    def direction(self) -> str:
        return "lower_better" if self.name in _LOWER_BETTER else "higher_better"


@dataclass(frozen=True)
class Confusion:
    """Predictions against truth, with one label taken as positive.

    tn counts exact matches between two other labels; `other` counts the
    pairs where truth and prediction are different labels, neither of them
    positive, so a multi-class confusion keeps its mistakes.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    other: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn + self.other


def confusion_from_predictions(pred: np.ndarray, truth: np.ndarray, positive=1) -> Confusion:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ApplicationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    p = pred == positive
    t = truth == positive
    neither = ~p & ~t
    return Confusion(
        tp=int(np.sum(p & t)),
        fp=int(np.sum(p & ~t)),
        tn=int(np.sum(neither & (pred == truth))),
        fn=int(np.sum(~p & t)),
        other=int(np.sum(neither & (pred != truth))),
    )


def r_squared(pred: np.ndarray, truth: np.ndarray, definition: str = "pearson") -> float:
    """Squared Pearson correlation (or coefficient of determination); 0.0
    when the predictions or the truth are constant."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ApplicationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        raise ApplicationError("need at least two points")
    dp = pred - pred.mean()
    dt = truth - truth.mean()
    vp = float(dp @ dp)
    vt = float(dt @ dt)
    if vp == 0.0 or vt == 0.0:
        return 0.0
    if definition == "pearson":
        r = float(dp @ dt) / math.sqrt(vp * vt)
        return min(r * r, 1.0)
    if definition == "cod":
        ss_res = float(np.sum((truth - pred) ** 2))
        return 1.0 - ss_res / vt
    raise ConfigError(f"unknown r_squared definition {definition!r}")


def g_mean(conf: Confusion) -> float:
    """Geometric mean of precision and recall; 0.0 when no label or no
    prediction is positive."""
    if conf.tp + conf.fn < 1 or conf.tp + conf.fp < 1:
        return 0.0
    precision = conf.tp / (conf.tp + conf.fp)
    recall = conf.tp / (conf.tp + conf.fn)
    return math.sqrt(precision * recall)


def accuracy(conf: Confusion) -> float:
    """Share of exact label matches."""
    if conf.total < 1:
        raise ApplicationError("empty confusion matrix")
    return (conf.tp + conf.tn) / conf.total


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ApplicationError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ApplicationError("empty input")
    return float(np.mean((a - b) ** 2))


def psnr_metric(a: np.ndarray, b: np.ndarray, value_range: float) -> float:
    if value_range <= 0:
        raise ApplicationError(f"psnr needs a positive range, got {value_range}")
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(value_range * value_range / m)


class AppKind(str, Enum):
    RIDGE_REGRESSION = "ridge_regression"
    KNN_CLASSIFIER = "knn_classifier"
    LOWRANK_RECONSTRUCTION = "lowrank_reconstruction"
    EXTERNAL = "external"


_COMPATIBLE = {
    AppKind.RIDGE_REGRESSION: {MetricName.R2},
    AppKind.KNN_CLASSIFIER: {MetricName.ACCURACY, MetricName.GMEAN},
    AppKind.LOWRANK_RECONSTRUCTION: {MetricName.MSE, MetricName.PSNR},
}
# the params each built-in kind reads; an external app's are free-form
_PARAMS = {
    AppKind.RIDGE_REGRESSION: {"lambda_scale"},
    AppKind.KNN_CLASSIFIER: {"k", "positive"},
    AppKind.LOWRANK_RECONSTRUCTION: {"rank"},
}
# the params each metric reads in an app of a built-in kind; a metric not
# listed reads none
_METRIC_PARAMS = {MetricName.R2: {"definition"}}


def _check_params(kind: AppKind, params: dict, metric: MetricSpec) -> None:
    """Raise ConfigError for a param the built-in kind or its metric does
    not read or cannot use."""
    for owner, given, read in ((kind, params, _PARAMS[kind]),
                               (metric.name, metric.params, _METRIC_PARAMS.get(metric.name, ()))):
        unknown = sorted(set(given).difference(read))
        if unknown:
            raise ConfigError(f"{owner.value} reads no param {unknown[0]!r}")
    for name in ("k", "rank"):
        v = params.get(name, 1)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ConfigError(f"{name} must be a positive integer, got {v!r}")
    # read as float() reads it, as YAML gives 1e-3 (no dot) as a string
    lam = params.get("lambda_scale", 0.0)
    try:
        ok = not isinstance(lam, bool) and 0 <= float(lam) < math.inf
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"lambda_scale must be finite and >= 0, got {lam!r}")
    positive = params.get("positive", 1)
    real = (int, float, np.integer, np.floating)
    if isinstance(positive, bool) or not isinstance(positive, real):
        raise ConfigError(f"positive must be a real number, got {positive!r}")
    # only r2 reads a definition (checked above)
    definition = metric.params.get("definition", "pearson")
    if definition not in ("pearson", "cod"):
        raise ConfigError(f"r2 definition must be pearson or cod, got {definition!r}")


@dataclass(frozen=True)
class Application:
    """One downstream consumer of a (possibly reduced) training set."""

    id: str
    kind: AppKind
    metric: MetricSpec
    target: str | int | None = None
    command: str | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        kind = AppKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is AppKind.EXTERNAL:
            if not self.command:
                raise ConfigError("external application needs a command template")
        elif self.metric.name not in _COMPATIBLE[kind]:
            raise ConfigError(
                f"metric {self.metric.name.value} incompatible with {kind.value}"
            )
        else:
            _check_params(kind, self.params, self.metric)
        if kind in (AppKind.RIDGE_REGRESSION, AppKind.KNN_CLASSIFIER) and self.target is None:
            raise ConfigError(f"{kind.value} needs a target column")


def _split_target(ds: Dataset, target) -> tuple[np.ndarray, np.ndarray]:
    j = ds.column_index(target)
    y = ds.values[:, j].astype(np.float64)
    x = np.delete(ds.values, j, axis=1).astype(np.float64)
    if x.shape[1] == 0:
        raise ApplicationError("no feature columns besides the target")
    return x, y


def _run_ridge(train: Dataset, validation: Dataset, app: Application) -> float:
    xt, yt = _split_target(train, app.target)
    xv, yv = _split_target(validation, app.target)
    xt1 = np.column_stack([xt, np.ones(xt.shape[0])])
    xv1 = np.column_stack([xv, np.ones(xv.shape[0])])
    gram = xt1.T @ xt1
    lam_scale = float(app.params.get("lambda_scale", 1e-3))
    lam = lam_scale * np.trace(gram) / gram.shape[0]
    try:
        beta = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), xt1.T @ yt)
    except np.linalg.LinAlgError as exc:
        raise ApplicationError(f"ridge normal equations are singular: {exc}") from exc
    pred = xv1 @ beta
    definition = app.metric.params.get("definition", "pearson")
    return r_squared(pred, yv, definition)


_KNN_BLOCK = 32  # fewest validation rows per block
_SCREEN_CELLS = 1 << 16  # row pairs per screened block, cells per dense chunk
_SCREEN_SHARE = 4  # refine at most 1/_SCREEN_SHARE of a block's pairs
_SCREEN_MIN_TRAIN = 64  # below this many training rows the dense block is faster
_SCREEN_REACH = np.finfo(np.float64).max / 16  # largest (|v| + T)^2 screened
_UNIT_ROUNDOFF = 2.0**-53
_UNDERFLOW = 2.0**-1070  # per feature: covers every subnormal rounding


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries of each row, ties to the leftmost column.

    NaN ranks after +inf and NaNs tie with each other, as in `np.lexsort`.
    Overwrites d2.
    """
    # squared distances are +0.0, positive, +inf or NaN, so the bit patterns
    # of the non-NaN ones order like the values; NaN goes to the top
    key = d2.view(np.int64)
    key[np.isnan(d2)] = np.iinfo(np.int64).max
    kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
    below = key < kth
    tied = key == kth
    room = k - below.sum(axis=1, keepdims=True)
    return below | (tied & (np.cumsum(tied, axis=1) <= room))


def _distinct_rows(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte-distinct rows of xt, and the index of each row among them.

    Rows compare as bytes, so -0.0 and 0.0, or two NaN payloads, stay apart.
    """
    rows = np.ascontiguousarray(xt)
    void = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(void, return_index=True, return_inverse=True)
    return rows[first], inverse.ravel()


def _block_rows(n_train: int) -> int:
    """Validation rows per block: about _SCREEN_CELLS pairs, at least _KNN_BLOCK."""
    return max(_KNN_BLOCK, _SCREEN_CELLS // n_train)


def _dense_nearest(xb: np.ndarray, xu: np.ndarray, inverse: np.ndarray, k: int) -> np.ndarray:
    """Flat indices (row · n_train + column) of each block row's k nearest
    training rows, from the exact distance of every pair.

    The distance is computed once per distinct training row (xu, with
    `inverse` mapping each training row to its own) and gathered: the
    expression depends on the row's values alone, so the bits are the same.
    Its temporaries hold rows × distinct rows × features and rows × training
    rows cells, so the block is worked through chunks of about _SCREEN_CELLS
    cells of the larger one.
    """
    n_train = inverse.size
    rows = max(1, _SCREEN_CELLS // max(xu.size, n_train))
    picked = []
    for lo in range(0, xb.shape[0], rows):
        d2 = ((xb[lo : lo + rows, None, :] - xu[None, :, :]) ** 2).sum(axis=2)[:, inverse]
        picked.append(np.flatnonzero(_nearest(d2, k)) + lo * n_train)
    return np.concatenate(picked)


def _screened_nearest(xb, xt, m2xt, nt, margin, k: int) -> np.ndarray | None:
    """What `_dense_nearest` returns, from the exact distances of the screen's
    candidates only; None when the screen keeps too many of them to pay.

    `m2xt` is -2·xt transposed, `nt` the training rows' squared norms and
    `margin` each row's screening margin (see `_knn_predict`).
    """
    n_train = xt.shape[0]
    h = xb @ m2xt
    h += nt  # the ranking key |t|^2 - 2 v.t
    # tau: the k-th smallest of the elementwise minima of the column groups
    # [0, w), [w, 2w), [2w, 3w), [3w, 4w) and of the leftover columns; w >= k
    # as the screen needs n_train >= 4k
    w = n_train // 4
    low = np.hstack([h[:, : 4 * w].reshape(-1, 4, w).min(axis=1), h[:, 4 * w :]])
    low.partition(k - 1, axis=1)
    keep = h <= (low[:, k - 1] + margin)[:, None]
    if np.count_nonzero(keep) * _SCREEN_SHARE > keep.size:
        return None
    r, c = np.divmod(np.flatnonzero(keep), n_train)
    # the unchanged expression, reduced over the same last axis: the same bits
    d2 = ((xb[r] - xt[c]) ** 2).sum(axis=1)
    # one row per block row holding its candidates in ascending column order,
    # as flatnonzero found them, so ties still go to the leftmost column;
    # padded with +inf
    counts = np.bincount(r, minlength=xb.shape[0])
    start = np.cumsum(counts) - counts
    width = counts.max()
    compact = np.full((xb.shape[0], width), np.inf)
    compact[r, np.arange(r.size) - start[r]] = d2
    pr, slot = np.divmod(np.flatnonzero(_nearest(compact, k)), width)
    return pr * n_train + c[start[pr] + slot]


def _knn_predict(
    xt: np.ndarray, yt: np.ndarray, xv: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """Majority label among each validation row's k nearest training rows.

    Distance ties go to the training row that comes first in a permutation
    drawn from `seed`, vote ties to the smallest label; NaN distances rank
    last.

    The exact distance of a pair is d = fl(sum_i fl(fl(v_i - t_i)^2)); ranks
    and ties come from d alone.  Most pairs cannot be among a row's k
    nearest, so a screen ranks them first by the key h = fl(|t|^2 - 2 v.t),
    one matrix product per block, and d is computed only for the columns
    whose h lies within a margin m of a bound tau on the row's k-th
    smallest h.

    Why no other column can be picked or tied.  Let u = 2^-53,
    g_j = j·u/(1 - j·u), n the number of features, D = |v - t|^2 the real
    distance, V = |v|^2, H = h's real value D - V, T >= every |t| and
    R = (|v| + T)^2, so D <= R.  Rounding error bounds for sums of products
    hold in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1), so for any BLAS, blocking
    or thread count (the conventional GEMM every numpy backend uses, not a
    Strassen-like one):
      - |fl(v.t) - v.t| <= g_n |v|.|t| <= g_n |v| T, |fl(|t|^2) - |t|^2|
        <= g_n T^2, and adding the two rounds once more (u|h|), so
        |h - H| <= g_{n+1} (T^2 + 2|v| T) + a <= g_{n+2} R + a =: e;
      - d is a sum of n non-negative products of rounded differences, so
        |d - D| <= g_{n+2} D + a.
    a is an absolute term for underflow: each product whose result is
    subnormal may be off by up to 2^-1075 (subnormal sums and differences
    are exact), so a <= 3n·2^-1074 for either quantity.

    tau bounds the row's k-th smallest h from above without ranking the
    row.  With N training rows and w = floor(N/4), the elementwise minimum
    of the column slices [0, w), [w, 2w), [2w, 3w) and [3w, 4w), beside
    the leftover columns [4w, N) on their own, gives N - 3w values, each
    the h of one column of a group that shares no column with another.
    tau is the k-th smallest of them (w >= k, as the screen needs N >= 4k).
    So k distinct columns have h <= tau, tau is at least the row's k-th
    smallest h, and tau is itself one of the row's h.

    Those k columns have D <= tau + e + V, so the k-th smallest d is at
    most (1 + g)(tau + e + V) + a with g = g_{n+2}.  A column c has
    d_c >= (1 - g)(h_c - e + V) - a, which exceeds that as soon as
    h_c - tau > (2g (tau + V) + 2e + 2a) / (1 - g).  As tau + V <= R + e,
    the right side is below 5g R + 5a for g < 0.01.  The margin is
    m = 8g R + (n + 2)·2^-1070.  The factor 8 where 5 suffices absorbs the
    rounding of |v|, T, R and of tau + m; (n + 2)·2^-1070 =
    16(n + 2)·2^-1074 covers 5a <= 15n·2^-1074.  So every column with
    h_c > tau + m has a d strictly above the row's k-th smallest d: it is
    neither picked nor tied, and the candidates hold every column at or
    below that distance, in their original order.

    A block holds about _SCREEN_CELLS pairs (`_block_rows`): the screen's
    cost is then its arithmetic, not a fixed cost per NumPy call.  A block
    takes the dense path when R could overflow (R > max/16, which keeps
    every sum and product above finite, and is also false for any NaN or
    infinity in its rows or the training rows), so one non-finite
    validation row sends its whole block, up to the whole validation set
    of a small training set, to the dense path.  The rest of the call goes
    dense when one block keeps more than 1/_SCREEN_SHARE of its pairs
    (heavy ties, as when every training row quantizes alike).  Calls with
    fewer than _SCREEN_MIN_TRAIN or 4k training rows skip the screen.  The
    dense path computes d once per byte-distinct training row, found once
    per call, in chunks of validation rows sized to about _SCREEN_CELLS
    cells (`_dense_nearest`).
    """
    # lay the training rows out in permutation order, so the leftmost of
    # equal distances wins
    order = np.argsort(np.random.default_rng(seed).permutation(xt.shape[0]))
    xt = xt[order]
    labels, cls = np.unique(yt[order], return_inverse=True)
    (n_train, n_feat), n_labels = xt.shape, labels.size
    screen = n_train >= max(_SCREEN_MIN_TRAIN, k * _SCREEN_SHARE)
    if screen:
        with np.errstate(over="ignore", invalid="ignore"):
            nt = (xt * xt).sum(axis=1)
            t_max = np.sqrt(nt.max())
            m2xt = (-2.0 * xt).T  # exact: scaling by a power of two
        g = (n_feat + 2) * _UNIT_ROUNDOFF / (1 - (n_feat + 2) * _UNIT_ROUNDOFF)
        tiny = (n_feat + 2) * _UNDERFLOW
    distinct = None  # the training rows' distinct rows, once a block goes dense
    pred = np.empty(xv.shape[0])
    rows = _block_rows(n_train)
    for lo in range(0, xv.shape[0], rows):
        xb = xv[lo : lo + rows]
        picked = None
        if screen:
            with np.errstate(over="ignore", invalid="ignore"):
                reach = (np.sqrt((xb * xb).sum(axis=1)) + t_max) ** 2
            if reach.max() <= _SCREEN_REACH:  # false for NaN as well
                picked = _screened_nearest(xb, xt, m2xt, nt, 8.0 * g * reach + tiny, k)
                screen = picked is not None
        if picked is None:
            distinct = distinct or _distinct_rows(xt)
            picked = _dense_nearest(xb, *distinct, k)
        votes = np.bincount(
            picked // n_train * n_labels + cls[picked % n_train],
            minlength=xb.shape[0] * n_labels,
        ).reshape(-1, n_labels)
        pred[lo : lo + rows] = labels[np.argmax(votes, axis=1)]  # vote ties: smallest label
    return pred


def _run_knn(train: Dataset, validation: Dataset, app: Application) -> float:
    xt, yt = _split_target(train, app.target)
    xv, yv = _split_target(validation, app.target)
    k = app.params.get("k", 5)
    if not 1 <= k <= xt.shape[0]:
        raise ApplicationError(f"k={k} outside [1, {xt.shape[0]}]")
    pred = _knn_predict(xt, yt, xv, k, app.seed)
    positive = app.params.get("positive", 1)
    conf = confusion_from_predictions(pred, yv, positive)
    if app.metric.name is MetricName.GMEAN:
        return g_mean(conf)
    return accuracy(conf)


def _run_lowrank(train: Dataset, validation: Dataset, app: Application) -> float:
    rank = app.params.get("rank", min(3, train.n_feat))
    if not 1 <= rank <= train.n_feat:
        raise ApplicationError(f"rank {rank} outside [1, {train.n_feat}]")
    xt = train.values.astype(np.float64)
    xv = validation.values.astype(np.float64)
    if xv.shape[1] != xt.shape[1]:
        raise ApplicationError("train/validation column mismatch")
    _, _, vt = np.linalg.svd(xt, full_matrices=False)
    basis = vt[:rank]
    recon = (xv @ basis.T) @ basis
    if app.metric.name is MetricName.PSNR:
        rng = float(xv.max() - xv.min())
        return psnr_metric(recon, xv, rng)
    return mse(recon, xv)


_METRIC_LINE = re.compile(r"^metric:\s*(\w+)\s*=\s*([-+0-9.eEinfna]+)\s*$")


def _run_external(train: Dataset, validation: Dataset, app: Application) -> float:
    # imported here: only external applications need them, and they would
    # slow every import of this module
    import shlex
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="ppress-app-") as tmp:
        train_path = str(Path(tmp) / "train.bin")
        val_path = str(Path(tmp) / "validation.bin")
        save_raw_with_descriptor(train, train_path)
        save_raw_with_descriptor(validation, val_path)
        cmd = [
            part.format(train=train_path, validation=val_path, seed=app.seed)
            for part in shlex.split(app.command)
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=app.timeout_s
            )
        except subprocess.TimeoutExpired as exc:
            raise ApplicationError(f"{app.id}: timed out after {app.timeout_s}s") from exc
        if proc.returncode != 0:
            raise ApplicationError(
                f"{app.id}: exit {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
    wanted = app.metric.name.value
    for line in proc.stdout.splitlines():
        m = _METRIC_LINE.match(line.strip())
        if m and m.group(1).lower() == wanted:
            try:
                return float(m.group(2))
            except ValueError as exc:
                raise ApplicationError(f"{app.id}: bad metric value {m.group(2)!r}") from exc
    raise ApplicationError(
        f"{app.id}: no 'metric: {wanted}=<value>' line in output"
    )


_RUNNERS = {
    AppKind.RIDGE_REGRESSION: _run_ridge,
    AppKind.KNN_CLASSIFIER: _run_knn,
    AppKind.LOWRANK_RECONSTRUCTION: _run_lowrank,
    AppKind.EXTERNAL: _run_external,
}


def run_application(
    train: Dataset, validation: Dataset, app: Application
) -> tuple[float, float]:
    """Evaluate the application; returns (quality value, runtime seconds)."""
    t0 = time.perf_counter()
    psi = _RUNNERS[app.kind](train, validation, app)
    return float(psi), time.perf_counter() - t0

