"""Boundary search and candidate sweeps over reducer configurations.

A campaign measures the lossless baseline quality of each application, finds
two boundary configurations per method (the most-compressing bound that is
still quality-neutral within a tolerance, and the most-compressing bound whose
quality stays above the acceptance threshold), then evaluates a ladder of
candidate bounds between them.  Every evaluation lands in an append-only
line-delimited store, and every ok one in an optional evaluation cache: one
append-only log of records in the same format per dataset pair,
``CACHE_DIR/<pair id>.jsonl``, keyed by each record's content address.  A
campaign reads its pair's log once, when it starts, and holds the store and
the log open until it ends, so it writes each record as one appended line
and creates no file per evaluation.

Boundary searches read quality only through a probe, a function from bound
to quality.  The campaign gives both searches of a domain one probe, which
scores each bound once (the median over the replicate seeds) and records its
evaluations as they run, so the lower search re-reads the bounds the upper
search tried without evaluating or recording them again.

A campaign runs each distinct evaluation once: evaluation is deterministic in
its cache key, so a configuration it has already scored (a ladder end point
that was a boundary probe, a configuration two domains share) comes back,
marked cached, from an in-memory table of ``ok`` records that starts as the
records in the pair's cache log, or empty without one.  The codecs are
deterministic too, so the replicate seeds of a bound share one codec run.

Search probes score the predictive and bit-plane codecs on the
reconstruction their encoders return, which the decoders rebuild byte for
byte, and skip decoding; their records carry no decode timing.  The ladder,
whose records feed the core-count model, decodes every point.  Its ends were
probes, so the campaign keeps the codec runs of its current domain's
undecoded probes and a ladder end decodes its probe's streams; the
application does not run again.

Codec quality degrades monotonically as compression grows, so boundary
searches bisect.  A bit-plane or truncation stream depends on its bound only
through what its decoder reads of it (``decoder_bound``): the ``acc``
exponent, the ``prec`` plane count, the ``rate`` quarter-bits, the
truncation width.  Those domains are searched in these units: each unit has
one representative bound (``unit_bounds``), a bisection halves the run of
units and stops at two adjacent ones, and the ladder holds the distinct
units between the boundaries, so no campaign compresses one decoder bound
twice.  Predictive domains bisect the bound itself and space their ladder
arithmetically.  A bisection stops early once the compression ratios at the
two ends of its bracket agree within 1% (``_RATIO_TOL``): it returns the
passing end, whose ratio then falls short of the full-budget answer's by at
most that much, and its probes are a prefix of the full-budget ones.  The
campaign's probe keeps each bound's ratio for this; a search given no ratio
lookup spends its whole budget.  Sampling is noisy and non-monotone; those
domains are probed on a uniform grid instead.  Which end of a domain
compresses more is ``SearchDomain.ends``: a larger ``acc``, ``abs``, ``rel``
or ``pw_rel`` bound does, a larger sampling fraction, ``psnr`` target, plane
count, rate or width does not.  Each search runs from the least-compressing
end toward the most and returns the most-compressing passing bound.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import statistics
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, InfeasibleSearchError, PpressError
from .quality import Application, run_application
from .reducers import (
    Layout,
    Method,
    Mode,
    ReducerConfig,
    ReducerKnobs,
    compress,
    compression_ratio,
    container,
    decompress,
    error_report,
    reconstruction,
    unit_bounds,
)
from .reducers.config import SAMPLING_METHODS, canonical_json, check_fields
from .tabular import Dataset

# a bisection whose bracket ends' ratios agree this closely stops
_RATIO_TOL = 0.01


@dataclass(frozen=True)
class DatasetPair:
    """Train and validation splits evaluated together."""

    train: Dataset
    validation: Dataset
    id: str = field(init=False)

    def __post_init__(self) -> None:
        if self.train.n_feat != self.validation.n_feat:
            raise ConfigError("train/validation column counts differ")
        h = hashlib.sha256()
        h.update(self.train.id.encode())
        h.update(self.validation.id.encode())
        object.__setattr__(self, "id", h.hexdigest()[:16])


@dataclass(frozen=True)
class SearchDomain:
    """The searchable bound interval for one method+mode, knobs held fixed."""

    method: Method
    mode: Mode = Mode.NONE
    bound_min: float = 0.0
    bound_max: float = 0.0
    scale: str = "log10"
    layout: Layout = Layout.BY_COLUMN
    knobs: ReducerKnobs = field(default_factory=ReducerKnobs)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "layout", Layout(self.layout))
        if not 0 < self.bound_min < self.bound_max:
            raise ConfigError(
                f"need 0 < bound_min < bound_max, got [{self.bound_min}, {self.bound_max}]"
            )
        if self.scale not in ("linear", "log10"):
            raise ConfigError(f"scale must be linear or log10, got {self.scale!r}")
        if self.method is Method.SAMPLE_NAIVE:
            # neither the scan grid nor the ladder gives whole strides
            raise ConfigError("sample_naive takes fixed strides only, not a search domain")
        # validates the method/mode pairing and both ends' ranges
        self.config(self.bound_min)
        self.config(self.bound_max)

    def config(self, bound: float) -> ReducerConfig:
        return ReducerConfig(self.method, self.mode, (bound,), self.layout, self.knobs)

    @property
    def noisy(self) -> bool:
        """Quality is not a monotone function of the bound; scan, don't bisect."""
        return self.method in SAMPLING_METHODS

    @property
    def units(self) -> tuple[float, ...] | None:
        """One bound per decoder bound in the domain, least to most
        compressing (unit_bounds); None when the bound itself is searched."""
        return unit_bounds(self.method, self.mode, self.bound_min, self.bound_max)

    @property
    def ends(self) -> tuple[float, float]:
        """(least, most compressing) bound of the domain: its first and last
        unit; (bound_max, bound_min) for a sampling fraction (every noisy
        domain, sample_naive being refused) or a psnr target, where a larger
        bound keeps more; else (bound_min, bound_max)."""
        if self.units is not None:
            return self.units[0], self.units[-1]
        if self.noisy or self.mode is Mode.PSNR:
            return self.bound_max, self.bound_min
        return self.bound_min, self.bound_max


@dataclass(frozen=True)
class SearchSpec:
    """User budget and thresholds for one campaign.

    ``max_iters`` caps the probes of one boundary search; a bisection stops
    before that once its bracket's ratios agree (see _bisect_largest).
    """

    tau: float
    n_candidates: int
    eta: float = 1e-3
    max_iters: int = 30
    replicates: int = 1

    def __post_init__(self) -> None:
        if self.n_candidates < 2:
            raise ConfigError(f"need at least 2 candidates, got {self.n_candidates}")
        if not self.eta > 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated (dataset pair, application, configuration) point."""

    record_id: str
    dataset_id: str
    app_id: str
    config: dict
    compress_target: str
    seed: int
    ok: bool
    error: str | None
    ratio: float | None
    compress_mbps: float | None
    decompress_mbps: float | None
    psi: float | None
    metric: str
    direction: str
    report: dict | None
    t_compress: float
    t_decompress: float
    t_app: float
    timestamp: float
    cached: bool = False

    def to_dict(self) -> dict:
        # shallow, unlike dataclasses.asdict, whose deep copy of `config`
        # and `report` costs about 25 times as much per record
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationRecord":
        return cls(**d)

    def content_key(self) -> str:
        """Everything except timings, timestamp and cache provenance."""
        d = self.to_dict()
        for k in ("t_compress", "t_decompress", "t_app", "timestamp", "cached",
                  "compress_mbps", "decompress_mbps"):
            d.pop(k)
        return json.dumps(d, sort_keys=True)


# cache key -> the first ok record of that evaluation in one campaign
Memo = dict[str, EvaluationRecord]


class PartRun(NamedTuple):
    """One compressed part of a codec run: its artifact and compress
    seconds, and, once a replicate has decoded it, the restored table and
    the decode seconds, for the bound's later replicates."""
    artifact: container.Artifact
    t_compress: float
    decoded: tuple[Dataset, float] | None = None


# configuration -> its codec run, by compressed part
Runs = dict[ReducerConfig, dict[str, PartRun]]


class RecordStore:
    """Append-only JSON-lines record log.

    A crash mid-append can leave a torn final line with no newline.  Loading
    skips it with a warning and opening the store for appending cuts it off,
    so the store stays readable; a corrupt line anywhere else is a data
    error.

    As a context manager the store holds one unbuffered append handle until
    the outermost ``with`` exits, cutting a torn tail once when it opens;
    ``append`` writes each record through it as one write of its whole
    line.  Outside one, each ``append`` opens the store for its record.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self._depth = 0

    def __enter__(self) -> "RecordStore":
        if self._depth == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "a+b", buffering=0)
            try:
                self._end_last_line(fh)
            except BaseException:
                fh.close()
                raise
            self._fh = fh
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._fh.close()
            self._fh = None

    def append(self, record: EvaluationRecord) -> None:
        line = memoryview((json.dumps(record.to_dict(), sort_keys=True) + "\n").encode("utf-8"))
        with self if self._fh is None else contextlib.nullcontext():
            while line:  # a regular file takes the whole line in one write
                line = line[self._fh.write(line):]

    def load(self) -> list[EvaluationRecord]:
        if not self.path.exists():
            return []
        out = []
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    out.append(EvaluationRecord.from_dict(json.loads(line)))
                except (ValueError, TypeError) as exc:
                    if self._skip_damaged(lineno, line, exc):
                        break
        return out

    def _skip_damaged(self, lineno: int, line: bytes, exc: Exception) -> bool:
        """Warn about a torn final line, which ends the load; raise on any
        other line that is not a record."""
        if not line.endswith(b"\n"):  # only the final line lacks one
            warnings.warn(f"{self.path}:{lineno}: skipped a torn final line ({exc})",
                          stacklevel=3)
            return True
        raise DataFormatError(f"{self.path}:{lineno}: corrupt record line: {exc}") from exc

    @staticmethod
    def _end_last_line(fh) -> None:
        """Make the store end in a newline before the next record.

        An unterminated final line that holds a record gets its newline; one
        that does not is a torn append and is cut off.
        """
        end = fh.seek(0, os.SEEK_END)
        if end == 0:
            return
        fh.seek(end - 1)
        if fh.read(1) == b"\n":
            return
        start = end
        while start > 0:  # back to the byte after the previous newline
            block = max(0, start - 4096)
            fh.seek(block)
            cut = fh.read(start - block).rfind(b"\n")
            if cut >= 0:
                start = block + cut + 1
                break
            start = block
        fh.seek(start)
        tail = fh.read()
        try:
            EvaluationRecord.from_dict(json.loads(tail))
        except (ValueError, TypeError):
            warnings.warn(f"{fh.name}: cut off a torn final line", stacklevel=3)
            fh.truncate(start)
        else:
            fh.write(b"\n")


class EvaluationCache(RecordStore):
    """The evaluation cache of one dataset pair: one append-only log,
    ``CACHE_DIR/<pair id>.jsonl``, of ok records in the store's line format,
    keyed by their ``record_id``.  Other pairs' logs are never read.

    Campaigns in other processes may append to the same log, so opening it
    never cuts a line off: an unterminated final line only gets its newline.
    A line that does not hold a record is a miss, skipped with a warning.
    """

    def __init__(self, cache_dir: str | Path, pair: DatasetPair):
        super().__init__(Path(cache_dir) / f"{pair.id}.jsonl")

    @staticmethod
    def _end_last_line(fh) -> None:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")

    def _skip_damaged(self, lineno: int, line: bytes, exc: Exception) -> bool:
        warnings.warn(f"{self.path}:{lineno}: unreadable cache entry, skipped ({exc})",
                      stacklevel=3)
        return False

    def memo(self) -> Memo:
        """The log's records by cache key; a key's last line wins, so a
        ladder end's timed copy replaces its probe's record."""
        return {rec.record_id: rec for rec in self.load()}


def cache_key(
    pair: DatasetPair, app: Application, config: ReducerConfig | dict, compress_target: str
) -> str:
    """Content address of one evaluation; config may be given as its to_dict().

    The application enters as its whole definition but its timeout: a
    timeout can only turn a result into a failure, and failures are not kept.
    """
    if isinstance(config, ReducerConfig):
        config = config.to_dict()
    app_def = {
        "id": app.id, "kind": app.kind.value,
        "metric": {"name": app.metric.name.value, "params": app.metric.params},
        "target": app.target, "command": app.command, "seed": app.seed, "params": app.params,
    }
    h = hashlib.sha256()
    parts = (
        f"v{container.VERSION}", pair.id, canonical_json(app_def),
        canonical_json(config), compress_target,
    )
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:32]


def eval_config(
    pair: DatasetPair,
    app: Application,
    config: ReducerConfig,
    compress_target: str = "both",
    cache: EvaluationCache | None = None,
    memo: Memo | None = None,
    *,
    decode: bool = True,
    runs: Runs | None = None,
) -> EvaluationRecord:
    """Compress, restore, run the application, and summarize the point.

    Codec and application failures come back as a failed record instead of
    raising, so a campaign can keep going.  ``memo`` maps cache keys to the
    ``ok`` records already computed or loaded from the cache log
    (EvaluationCache.memo), and is the only place a result is looked up;
    every ok record computed goes into it and, given an open cache log
    ``cache``, is appended there.

    ``runs`` holds codec runs of this pair and target by configuration.
    The codecs are deterministic, so a run found there stands in for
    compressing, and the record carries its compress timing.  With
    ``decode=False`` a part whose encoder kept its reconstruction (the
    predictive and bit-plane codecs) is scored on that, which decompress
    rebuilds byte for byte, so the record has no decode timing:
    ``decompress_mbps`` None and ``t_decompress`` 0; such a call stores the
    run it compressed in ``runs``.  A part of a codec that keeps no
    reconstruction (the baseline, sampling, truncation) is decoded once:
    the table is kept with the part's run, and the bound's later
    replicates score it and carry its decode timing.  With ``decode=True``
    a hit on such a record is served as a cached copy of it with a decode
    timing of its own, which replaces it in the memo and the cache log: its
    parts are decoded from their run, or compressed and decoded without
    one.  The application does not run again.
    """
    if compress_target not in ("train", "validation", "both"):
        raise ConfigError(f"bad compress_target {compress_target!r}")
    config_dict = config.to_dict()
    key = cache_key(pair, app, config_dict, compress_target)
    hit = memo.get(key) if memo is not None else None
    if hit is not None and (hit.decompress_mbps is not None or not decode):
        return replace(hit, cached=True)

    parts = {}
    if compress_target in ("train", "both"):
        parts["train"] = pair.train
    if compress_target in ("validation", "both"):
        parts["validation"] = pair.validation
    total_bytes = sum(ds.n_bytes for ds in parts.values())

    t_comp = t_dec = t_app = 0.0
    ratio = None
    c_mbps = d_mbps = None
    psi = None
    report: dict | None = None
    ok = True
    err_msg = None
    try:
        run = runs.get(config) if runs is not None else None
        keep = runs is not None and not decode
        if run is None:
            run = {name: PartRun(*compress(ds, config)[:2]) for name, ds in parts.items()}
            if keep:
                runs[config] = run
        restored = {"train": pair.train, "validation": pair.validation}
        for name, ds in parts.items():
            art, dt, decoded = run[name]
            t_comp += dt
            out = None if decode else reconstruction(art, ds.names)
            if out is None:
                if decoded is None:
                    decoded = decompress(art, names=ds.names)[:2]
                    if keep:
                        run[name] = PartRun(art, dt, decoded)
                out, dt = decoded
                t_dec += dt
                d_mbps = total_bytes / 1e6 / max(t_dec, 1e-12)
            restored[name] = out
        if hit is None:  # else only the decode timing was missing
            ratio = compression_ratio(*(part.artifact for part in run.values()))
            if config.method not in SAMPLING_METHODS:
                report = {name: dict(vars(error_report(ds, restored[name])))
                          for name, ds in parts.items()}
            c_mbps = total_bytes / 1e6 / max(t_comp, 1e-12)
            psi, t_app = run_application(restored["train"], restored["validation"], app)
    except PpressError as exc:
        ok, hit = False, None  # a failed decode gives a failed record, not a timed copy
        err_msg = f"{type(exc).__name__}: {exc}"

    if hit is not None:
        rec = replace(hit, decompress_mbps=d_mbps, t_decompress=t_dec)
    else:
        rec = EvaluationRecord(
            record_id=key,
            dataset_id=pair.id,
            app_id=app.id,
            config=config_dict,
            compress_target=compress_target,
            seed=app.seed,
            ok=ok,
            error=err_msg,
            ratio=ratio,
            compress_mbps=c_mbps,
            decompress_mbps=d_mbps,
            psi=psi,
            metric=app.metric.name.value,
            direction=app.metric.direction,
            report=report,
            t_compress=t_comp,
            t_decompress=t_dec,
            t_app=t_app,
            timestamp=time.time(),
            cached=False,
        )
    if ok and memo is not None:
        memo[key] = rec
    if ok and cache is not None:
        cache.append(rec)
    return rec if hit is None else replace(rec, cached=True)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one boundary search."""

    config: ReducerConfig
    bound: float
    satisfied: bool
    probes: tuple[tuple[float, float], ...]


# quality (psi) of the domain's configuration at a bound
ProbeFn = Callable[[float], float]
# compression ratio of the domain's configuration at a bound already probed
RatioFn = Callable[[float], float]


def _replicate_median(records: Sequence[EvaluationRecord], failure: str) -> tuple[float, float]:
    """(median, spread) of the ok replicates' quality.

    Failed replicates are left out; when every one failed,
    InfeasibleSearchError is raised with `failure` and the first
    replicate's error, as in "failure (DataFormatError: ...)".
    """
    values = [rec.psi for rec in records if rec.ok]
    if not values:
        raise InfeasibleSearchError(f"{failure} ({records[0].error})")
    return float(statistics.median(values)), float(max(values) - min(values))


def _midpoint(lo: float, hi: float, scale: str) -> float:
    if scale == "log10":
        return 10.0 ** ((math.log10(lo) + math.log10(hi)) / 2.0)
    return (lo + hi) / 2.0


def _scan_bounds(domain: SearchDomain, count: int) -> np.ndarray:
    if domain.scale == "log10":
        return np.logspace(
            math.log10(domain.bound_min), math.log10(domain.bound_max), count
        )
    return np.linspace(domain.bound_min, domain.bound_max, count)


def _bisect_largest(
    lo: float,
    hi: float,
    ok_at: Callable[[float], bool],
    midpoint: Callable[[float, float], float],
    budget: int,
    ratio_at: RatioFn | None,
) -> float:
    """The x nearest hi, between lo and hi, passing ok_at, assuming a single
    pass/fail edge; compression grows from lo toward hi, which may lie
    either side of lo.

    Caller guarantees ok_at(lo) is true and ok_at(hi) false, both already
    probed; budget counts further probes.  It stops when ``midpoint`` finds
    nothing strictly inside the bracket.  Given ratio_at, it stops as soon
    as ratio_at(hi) / ratio_at(lo) - 1 <= _RATIO_TOL: every x left in the
    bracket compresses at most that much better than lo, so returning lo
    gives up at most _RATIO_TOL against the full budget's answer.
    """
    for _ in range(budget):
        if ratio_at is not None and ratio_at(hi) / ratio_at(lo) - 1 <= _RATIO_TOL:
            break  # the ratio no longer moves across the bracket
        mid = midpoint(lo, hi)
        if not min(lo, hi) < mid < max(lo, hi):
            break  # interval exhausted: adjacent units, or float resolution
        if ok_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _edge_search(
    domain: SearchDomain,
    spec: SearchSpec,
    probe: ProbeFn,
    passes: Callable[[float], bool],
    ratio_at: RatioFn | None,
) -> tuple[float | None, tuple[tuple[float, float], ...]]:
    """Most-compressing bound whose quality passes, or None; with the
    (bound, quality) probes it took.

    Noisy domains are scanned on a grid of 2 * max_iters bounds.  The others
    probe their most-compressing end, then their least (SearchDomain.ends),
    then bisect the single pass/fail edge between them, until the budget is
    spent or, given ratio_at, the bracket's ratios agree.  A domain with
    units (see SearchDomain.units) bisects the index of its units and stops
    at two adjacent ones; the others bisect the bound.
    """
    probes: list[tuple[float, float]] = []

    def ok_at(bound: float) -> bool:
        psi = float(probe(bound))
        probes.append((bound, psi))
        return passes(psi)

    if domain.noisy:
        grid = _scan_bounds(domain, 2 * spec.max_iters).tolist()
        passing = [b for b in grid if ok_at(b)]
        found = min(passing, key=lambda b: abs(b - domain.ends[1]), default=None)
        return found, tuple(probes)
    units = domain.units
    if units is None:
        def at(x: float) -> float:
            return x
        least, most = domain.ends
        midpoint = functools.partial(_midpoint, scale=domain.scale)
    else:
        at = units.__getitem__
        least, most = 0, len(units) - 1

        def midpoint(lo: int, hi: int) -> int:
            return (lo + hi) // 2
    if ok_at(at(most)):
        found = at(most)
    elif least == most or not ok_at(at(least)):
        found = None
    else:
        found = at(_bisect_largest(
            least, most, lambda x: ok_at(at(x)), midpoint, spec.max_iters - 2,
            None if ratio_at is None else lambda x: ratio_at(at(x)),
        ))
    return found, tuple(probes)


def find_upper(
    domain: SearchDomain, spec: SearchSpec, phi: float, probe: ProbeFn,
    *, ratio_at: RatioFn | None = None,
) -> SearchResult:
    """Most-compressing bound whose quality still matches the baseline.

    "Matches" means |phi - psi| <= eta * |phi|.  When even the least
    aggressive bound misses that tolerance, it is returned with
    satisfied=False (nothing in the domain is quality-neutral).
    ``ratio_at``, the ratio at a bound the probe has scored, lets a
    bisection stop early (see _bisect_largest).
    """
    tol = spec.eta * abs(phi)
    found, probes = _edge_search(
        domain, spec, probe, lambda psi: abs(phi - psi) <= tol, ratio_at
    )
    satisfied = found is not None
    if not satisfied:
        found = domain.ends[0]
    return SearchResult(domain.config(found), found, satisfied, probes)


def find_lower(
    domain: SearchDomain, spec: SearchSpec, phi: float, probe: ProbeFn,
    *, ratio_at: RatioFn | None = None,
) -> SearchResult:
    """Most-compressing bound whose quality stays above the threshold tau.

    Raises InfeasibleSearchError when no bound in the domain qualifies.
    ``ratio_at`` works as in find_upper.
    """
    if not phi > spec.tau:
        raise InfeasibleSearchError(
            f"baseline quality {phi:g} does not exceed tau {spec.tau:g}"
        )
    found, probes = _edge_search(domain, spec, probe, lambda psi: psi > spec.tau, ratio_at)
    if found is None:
        where = "everywhere" if domain.noisy else f"even at bound {domain.ends[0]:g}"
        raise InfeasibleSearchError(
            f"no acceptable configuration: quality at or below tau {where}"
        )
    return SearchResult(domain.config(found), found, True, probes)


@dataclass(frozen=True)
class CandidateSet:
    """The boundary configs plus the evenly spaced ladder between them."""

    lower: ReducerConfig
    upper: ReducerConfig
    points: tuple[ReducerConfig, ...]
    degenerate: bool = False


def candidate_points(
    lower: ReducerConfig, upper: ReducerConfig, n_candidates: int
) -> CandidateSet:
    """Ladder of bounds from the lower boundary to the upper.

    The lower boundary compresses more, so the ladder runs from most
    compression to least.  A method with decoder bounds (unit_bounds) gets
    one point per unit from the lower boundary's to the upper's, thinned
    evenly to at most n_candidates and ending on the two boundaries
    themselves; any other method gets n_candidates bounds spaced
    arithmetically.  A ladder of one point is flagged degenerate.
    """
    if n_candidates < 2:
        raise ConfigError(f"need at least 2 candidates, got {n_candidates}")
    if (
        lower.method is not upper.method
        or lower.mode is not upper.mode
        or lower.layout is not upper.layout
        or lower.knobs != upper.knobs
    ):
        raise ConfigError("boundary configs come from different domains")
    lo_b = lower.bound
    up_b = upper.bound
    if lo_b == up_b:
        return CandidateSet(lower, upper, (lower,), degenerate=True)
    units = unit_bounds(lower.method, lower.mode, min(lo_b, up_b), max(lo_b, up_b))
    if units is None:
        bounds = np.linspace(lo_b, up_b, n_candidates).tolist()
    else:
        # units run from least compression to most; the ladder from the lower end
        if (units[-1] > units[0]) == (lo_b > up_b):
            units = units[::-1]
        count = min(n_candidates, len(units))
        bounds = [units[round(i * (len(units) - 1) / max(count - 1, 1))] for i in range(count)]
    if len(bounds) == 1:
        return CandidateSet(lower, upper, (lower,), degenerate=True)
    bounds[0] = lo_b
    bounds[-1] = up_b
    points = tuple(
        ReducerConfig(lower.method, lower.mode, (float(b),), lower.layout, lower.knobs)
        for b in bounds
    )
    return CandidateSet(lower, upper, points, degenerate=False)


@dataclass(frozen=True)
class BaselineMeasured:
    """Campaign step: an application's baseline quality over its replicates.

    When every replicate failed, ``phi`` and ``spread`` are None and
    ``reason`` says why; each of the application's domains is then reported
    infeasible with that reason.
    """

    app: Application
    phi: float | None
    spread: float | None
    records: tuple[EvaluationRecord, ...]
    reason: str | None = None


@dataclass(frozen=True)
class FixedEvaluated:
    """Campaign step: one fixed configuration, evaluated once (one record)."""

    app: Application
    config: ReducerConfig
    records: tuple[EvaluationRecord, ...]


@dataclass(frozen=True)
class DomainSearched:
    """Campaign step: a domain's two boundary searches and its ladder.

    ``index`` is the domain's position in the campaign's methods.
    ``records`` holds one record per replicate of each bound the searches
    probed, in probe order, then the ladder's.  ``ratios`` maps each bound
    the searches probed to its compression ratio.  An infeasible domain has
    a ``reason``, the search that finished before it, and every record it
    evaluated.
    """

    app: Application
    index: int
    domain: SearchDomain
    records: tuple[EvaluationRecord, ...]
    upper: SearchResult | None = None
    lower: SearchResult | None = None
    ladder: CandidateSet | None = None
    reason: str | None = None
    ratios: dict[float, float] = field(default_factory=dict, compare=False)

    def trace(self, search: SearchResult) -> list[tuple[float, float, float]]:
        """(bound, quality, ratio) of each probe of ``search``, this step's
        upper or lower search."""
        return [(bound, psi, self.ratios[bound]) for bound, psi in search.probes]


CampaignStep = BaselineMeasured | FixedEvaluated | DomainSearched


def require_distinct_app_ids(apps: Sequence[Application]) -> None:
    """Raise ConfigError when two applications share an id, which names the
    stored records of each."""
    ids = [app.id for app in apps]
    shared = sorted({i for i in ids if ids.count(i) > 1})
    if shared:
        raise ConfigError(f"application ids must be distinct; repeated: {', '.join(shared)}")


def run_campaign(
    pair: DatasetPair,
    apps: Sequence[Application],
    methods: Sequence[SearchDomain | ReducerConfig],
    spec: SearchSpec,
    store: RecordStore | None = None,
    compress_target: str = "both",
    cache_dir: str | Path | None = None,
    parallelism: int = 1,
    observer: Callable[[CampaignStep], None] | None = None,
) -> list[EvaluationRecord]:
    """Evaluate every app against every method; returns records in order.

    Fixed configurations (no bound to search) are evaluated once per app.
    Search domains get two boundary searches plus the candidate ladder.
    Infeasible searches and failed points are recorded or skipped without
    aborting the rest of the campaign; an application whose baseline fails
    for every replicate has each of its domains reported infeasible.
    ``observer``, when given, is called with each step once its records are
    stored; the records of all steps, in order, are the return value.  A
    configuration the campaign has already evaluated comes back as a cached
    copy of its first record; a ladder point that was a search probe, which
    the search scored without decoding, decodes that probe's streams for its
    timing.  The codec runs once per configuration: every replicate seed of
    a bound is scored on one run's streams and carries its compress timing.
    ``store`` and the pair's cache log in ``cache_dir``
    (EvaluationCache) stay open until the campaign ends; the log is read
    once, as it starts.  Both ends of every search domain must pass
    check_fields at the pair's value width, or nothing runs (ConfigError).
    """
    if not apps or not methods:
        raise ConfigError("campaign needs at least one application and one method")
    require_distinct_app_ids(apps)
    width = min(pair.train.values.itemsize, pair.validation.values.itemsize)
    for entry in methods:
        if isinstance(entry, SearchDomain):
            for end in (entry.bound_min, entry.bound_max):
                check_fields(entry.method, entry.mode, (float(end),), width)
    records: list[EvaluationRecord] = []
    cache = EvaluationCache(cache_dir, pair) if cache_dir is not None else None
    memo: Memo = {}
    # the codec runs of the bound being scored and of the current domain's
    # undecoded probes, for its ladder ends to decode
    runs: Runs = {}

    def emit(recs) -> tuple[EvaluationRecord, ...]:
        start = len(records)
        for rec in recs:
            records.append(rec)
            if store is not None:
                store.append(rec)
        return tuple(records[start:])

    def notify(step: CampaignStep) -> None:
        if observer is not None:
            observer(step)

    def score(
        app: Application, config: ReducerConfig, failure: str
    ) -> tuple[float, float, tuple[EvaluationRecord, ...]]:
        """(median, spread, records) of config over the replicate seeds; the
        records are stored before a failure is raised.  The replicates share
        one codec run, and a codec that keeps its reconstruction is scored
        on it, not decoded (see eval_config); only such a run is kept, for
        the ladder, and without the reconstruction."""
        recs = emit(
            eval_config(pair, replace(app, seed=app.seed + i), config, compress_target,
                        cache, memo, decode=False, runs=runs)
            for i in range(spec.replicates)
        )
        run = runs.pop(config, None)
        if run is not None and all(part.artifact.restored is not None for part in run.values()):
            runs[config] = {name: PartRun(replace(art, restored=None), dt)
                            for name, (art, dt, _) in run.items()}
        return *_replicate_median(recs, failure), recs

    def domain_probe(app: Application, domain: SearchDomain) -> tuple[ProbeFn, dict[float, float]]:
        """Quality at a bound, scored once for both searches of the domain,
        and the ratio of each bound it has scored (every replicate of a
        codec writes the same bytes, so any ok record's)."""
        ratios: dict[float, float] = {}

        @functools.cache
        def probe(bound: float) -> float:
            psi, _, recs = score(
                app, domain.config(bound), f"all replicates failed at bound {bound:g}"
            )
            ratios[bound] = next(rec.ratio for rec in recs if rec.ok)
            return psi
        return probe, ratios

    def evaluate_ladder(app: Application, configs: Sequence[ReducerConfig]):
        def one(config: ReducerConfig) -> EvaluationRecord:
            return eval_config(pair, app, config, compress_target, cache, memo, runs=runs)

        if parallelism > 1:
            from concurrent.futures import ThreadPoolExecutor  # a serial run skips its import

            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                return emit(pool.map(one, configs))
        return emit(map(one, configs))

    # the store and the cache log stay open for the whole campaign
    with store or contextlib.nullcontext(), cache or contextlib.nullcontext():
        if cache is not None:
            memo.update(cache.memo())
        for app in apps:
            start = len(records)
            try:
                phi, spread, base = score(app, ReducerConfig(Method.NONE),
                                          "baseline evaluation failed for every replicate")
                failed = None
            except InfeasibleSearchError as exc:
                phi = spread = None
                base, failed = tuple(records[start:]), str(exc)
            notify(BaselineMeasured(app, phi, spread, base, failed))
            for index, entry in enumerate(methods):
                if isinstance(entry, ReducerConfig):
                    if entry.method is Method.NONE:
                        continue  # already measured as the baseline
                    rec = eval_config(pair, app, entry, compress_target, cache, memo)
                    notify(FixedEvaluated(app, entry, emit([rec])))
                    continue
                if failed is not None:  # no baseline to search against
                    notify(DomainSearched(app, index, entry, (), reason=failed))
                    continue
                start = len(records)
                runs.clear()
                probe, ratios = domain_probe(app, entry)
                upper = None
                try:
                    upper = find_upper(entry, spec, phi, probe, ratio_at=ratios.__getitem__)
                    lower = find_lower(entry, spec, phi, probe, ratio_at=ratios.__getitem__)
                    if not entry.noisy and lower.bound == upper.bound:
                        # both bisections walk one bracket until their edges
                        # part, so a ratio stop there gives them one bound; the
                        # rest of the budget, over the probes already scored,
                        # may split it
                        lower = find_lower(entry, spec, phi, probe)
                except InfeasibleSearchError as exc:
                    done = tuple(records[start:])
                    notify(DomainSearched(app, index, entry, done, upper, reason=str(exc),
                                          ratios=ratios))
                    continue
                ladder = candidate_points(lower.config, upper.config, spec.n_candidates)
                evaluate_ladder(app, ladder.points)
                notify(DomainSearched(app, index, entry, tuple(records[start:]), upper, lower,
                                      ladder, ratios=ratios))
    return records
