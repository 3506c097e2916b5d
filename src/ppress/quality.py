"""Quality metrics and the downstream applications that produce them.

An application maps (train, validation) datasets to a single quality value.
Built-ins are small deterministic models: a closed-form ridge regressor, a
k-nearest-neighbour classifier, and a low-rank reconstruction.  Anything
heavier runs through the external command protocol.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
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
class MetricResult:
    value: float
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


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


def r_squared(pred: np.ndarray, truth: np.ndarray, definition: str = "pearson") -> MetricResult:
    """Squared Pearson correlation (or coefficient of determination)."""
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
        return MetricResult(0.0, degenerate=True)
    if definition == "pearson":
        r = float(dp @ dt) / math.sqrt(vp * vt)
        return MetricResult(min(r * r, 1.0))
    if definition == "cod":
        ss_res = float(np.sum((truth - pred) ** 2))
        return MetricResult(1.0 - ss_res / vt)
    raise ConfigError(f"unknown r_squared definition {definition!r}")


def g_mean(conf: Confusion) -> MetricResult:
    """Geometric mean of precision and recall."""
    if conf.tp + conf.fn < 1 or conf.tp + conf.fp < 1:
        return MetricResult(0.0, degenerate=True)
    precision = conf.tp / (conf.tp + conf.fp)
    recall = conf.tp / (conf.tp + conf.fn)
    return MetricResult(math.sqrt(precision * recall))


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
    return r_squared(pred, yv, definition).value


_KNN_BLOCK = 32  # validation rows per distance block: temporaries stay O(block)


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


def _knn_predict(
    xt: np.ndarray, yt: np.ndarray, xv: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """Majority label among each validation row's k nearest training rows.

    Distance ties go to the training row that comes first in a permutation
    drawn from `seed`, vote ties to the smallest label; NaN distances rank
    last.
    """
    # lay the training rows out in permutation order, so the leftmost of
    # equal distances wins
    order = np.argsort(np.random.default_rng(seed).permutation(xt.shape[0]))
    xt = xt[order]
    labels, cls = np.unique(yt[order], return_inverse=True)
    n_train, n_labels = xt.shape[0], labels.size
    pred = np.empty(xv.shape[0])
    for lo in range(0, xv.shape[0], _KNN_BLOCK):
        rows = slice(lo, lo + _KNN_BLOCK)
        d2 = ((xv[rows, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
        picked = np.flatnonzero(_nearest(d2, k))
        votes = np.bincount(
            picked // n_train * n_labels + cls[picked % n_train],
            minlength=d2.shape[0] * n_labels,
        ).reshape(-1, n_labels)
        pred[rows] = labels[np.argmax(votes, axis=1)]  # vote ties: smallest label
    return pred


def _run_knn(train: Dataset, validation: Dataset, app: Application) -> float:
    xt, yt = _split_target(train, app.target)
    xv, yv = _split_target(validation, app.target)
    k = int(app.params.get("k", 5))
    if not 1 <= k <= xt.shape[0]:
        raise ApplicationError(f"k={k} outside [1, {xt.shape[0]}]")
    pred = _knn_predict(xt, yt, xv, k, app.seed)
    positive = app.params.get("positive", 1)
    conf = confusion_from_predictions(pred, yv, positive)
    if app.metric.name is MetricName.GMEAN:
        return g_mean(conf).value
    return accuracy(conf)


def _run_lowrank(train: Dataset, validation: Dataset, app: Application) -> float:
    rank = int(app.params.get("rank", min(3, train.n_feat)))
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

