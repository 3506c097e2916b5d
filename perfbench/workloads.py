"""One round of each workload, timed from outside the program.

A round is the unit a run repeats: one campaign (``run_campaign`` plus its
fronts and hypervolumes) or one pass of every codec configuration of the
ladder through compress -> pack -> unpack -> decompress.  Every call into
ppress goes through a module attribute looked up at call time, so the tracer
in ``tracing.py`` can wrap the same functions without touching ``src/``.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import ppress.campaign as campaign
import ppress.pareto as pareto
import ppress.reducers as reducers
from ppress.campaign import RecordStore
from ppress.reducers import Layout, Method, Mode, ReducerConfig, ReducerKnobs

from . import checks
from .inputs import LADDER_BOUNDS, CampaignInput, LadderInput

# hypervolume reference point (ratio, quality), as in acceptance criterion 8
HV_REF = (0.5, 0.0)


@dataclass
class RoundResult:
    """What one round measured, and what its checks found."""

    seconds: float  # wall time of the timed calls
    enc_bytes: int  # original bytes through the encode direction
    enc_s: float
    dec_bytes: int
    dec_s: float
    ratio: float  # best tolerated ratio, or geometric mean of the ladder's
    hypervolume: float
    evaluations: int  # model runs in a campaign, round trips in the ladder
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    failures: list[str] = field(default_factory=list)  # what the failed operations did
    store_bytes: int = 0
    cache_bytes: int = 0
    scale: float = 1.0  # turns the round's wall seconds into reference-speed seconds


@dataclass(frozen=True)
class CampaignOutput:
    """Everything one campaign round produced that the checks look at."""

    records: list
    points: list
    hypervolume: float
    domain_hv: dict
    uppers: list  # SearchResult of each find_upper that returned
    lowers: list  # SearchResult of each find_lower that returned
    ladders: list  # CandidateSet of each domain whose searches both returned


class CampaignMeter:
    """Sits on the campaign module's own bindings while a run lasts.

    It times compress/decompress with the benchmark's clock and keeps the
    boundary searches and ladders the campaign computed, for the checks.
    """

    _NAMES = ("compress", "decompress", "find_upper", "find_lower", "candidate_points")

    def __init__(self) -> None:
        self.reset()
        self._saved: dict[str, object] = {}

    def reset(self) -> None:
        self.enc_bytes = self.dec_bytes = 0
        self.enc_s = self.dec_s = 0.0
        # results of every completed boundary search and ladder, in call order
        self.uppers: list = []
        self.lowers: list = []
        self.ladders: list = []

    def install(self) -> None:
        self._saved = {name: getattr(campaign, name) for name in self._NAMES}
        compress, decompress = self._saved["compress"], self._saved["decompress"]

        def timed_compress(dataset, config):
            t0 = perf_counter()
            out = compress(dataset, config)
            self.enc_s += perf_counter() - t0
            self.enc_bytes += dataset.n_bytes
            return out

        def timed_decompress(artifact, names=None):
            t0 = perf_counter()
            out = decompress(artifact, names=names)
            self.dec_s += perf_counter() - t0
            self.dec_bytes += artifact.orig_bytes
            return out

        def keep(name, sink):
            fn = self._saved[name]

            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                getattr(self, sink).append(result)
                return result
            return kept

        campaign.compress = timed_compress
        campaign.decompress = timed_decompress
        campaign.find_upper = keep("find_upper", "uppers")
        campaign.find_lower = keep("find_lower", "lowers")
        campaign.candidate_points = keep("candidate_points", "ladders")

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(campaign, name, fn)
        self._saved = {}


def _domain_key(config: dict) -> tuple[str, str, str]:
    return config["method"], config["mode"], config["layout"]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CampaignWorkload:
    """desk_search and knn_scan: one campaign per round."""

    def __init__(self, name: str, variants: list[CampaignInput], scratch: Path):
        self.name = name
        self.variants = variants
        self.scratch = scratch
        self.meter = CampaignMeter()
        self._phi_ref: dict[int, float] = {}

    def __enter__(self):
        self.meter.install()
        return self

    def __exit__(self, *exc):
        self.meter.uninstall()
        shutil.rmtree(self.scratch, ignore_errors=True)

    def execute(self, variant: int) -> tuple[CampaignOutput, float, RecordStore | None, Path | None]:
        """Run the campaign with its fronts; returns the output, its wall time,
        and the store and cache it wrote (None where the workload has none)."""
        inp = self.variants[variant]
        store = cache = None
        if inp.uses_cache:  # a fresh store and cache each round
            shutil.rmtree(self.scratch, ignore_errors=True)
            self.scratch.mkdir(parents=True)
            store = RecordStore(self.scratch / "records.jsonl")
            cache = self.scratch / "cache"
        self.meter.reset()

        t0 = perf_counter()
        records = campaign.run_campaign(
            inp.pair, [inp.app], inp.domains, inp.spec,
            compress_target=inp.compress_target, store=store, cache_dir=cache,
            parallelism=1,
        )
        points = pareto.points_from_records(records)
        hv = pareto.hypervolume2d(pareto.pareto_front(points), HV_REF)
        domain_hv = {}
        for key in {_domain_key(r.config) for r in records}:
            own = pareto.points_from_records(r for r in records if _domain_key(r.config) == key)
            domain_hv[key] = pareto.hypervolume2d(pareto.pareto_front(own), HV_REF)
        seconds = perf_counter() - t0
        m = self.meter
        out = CampaignOutput(
            records, points, hv, domain_hv, list(m.uppers), list(m.lowers), list(m.ladders)
        )
        return out, seconds, store, cache

    def round(self, variant: int) -> RoundResult:
        out, seconds, store, cache = self.execute(variant)
        records = out.records
        phi = records[0].psi
        tol = self.variants[variant].spec.eta * abs(phi)
        tolerated = [r.ratio for r in records if r.ok and abs(phi - r.psi) <= tol]
        return RoundResult(
            seconds=seconds,
            enc_bytes=self.meter.enc_bytes, enc_s=self.meter.enc_s,
            dec_bytes=self.meter.dec_bytes, dec_s=self.meter.dec_s,
            ratio=max(tolerated, default=0.0),
            hypervolume=out.hypervolume,
            evaluations=sum(r.ok and not r.cached for r in records),
            attempted=len(records),
            failed=sum(not r.ok for r in records),
            problems=self.check(variant, out),
            failures=[f"{r.config}: {r.error}" for r in records if not r.ok],
            store_bytes=store.path.stat().st_size if store else 0,
            cache_bytes=_dir_bytes(cache) if cache else 0,
        )

    def phi_reference(self, variant: int) -> float:
        if variant not in self._phi_ref:
            inp = self.variants[variant]
            train, validation = inp.pair.train, inp.pair.validation
            if inp.app.metric.name.value == "r2":
                ref = checks.ridge_r2(train, validation, inp.app.target)
            else:
                ref = checks.knn_gmean(
                    train, validation, inp.app.target, inp.app.params["k"],
                    inp.app.seed, inp.app.params["positive"],
                )
            self._phi_ref[variant] = ref
        return self._phi_ref[variant]

    def check(self, variant: int, out: CampaignOutput) -> list[str]:
        inp = self.variants[variant]
        records = out.records
        phi = records[0].psi
        tolerance = checks.PHI_TOLERANCE[inp.app.metric.name.value]
        problems = checks.phi_problems(phi, self.phi_reference(variant), tolerance)
        problems += checks.hypervolume_problems(
            "campaign front", [(p.cr, p.q) for p in out.points], HV_REF, out.hypervolume
        )
        parts = {"train": inp.pair.train, "validation": inp.pair.validation}
        problems += checks.record_bound_problems(records, parts)
        if self.name == "desk_search":
            problems += self._desk_checks(inp, phi, out)
        else:
            reduced = [p.n_obs for name, p in parts.items()
                       if inp.compress_target in (name, "both")]
            problems += checks.sample_ratio_problems(records, tuple(reduced))
            problems += checks.cache_hit_problems(records)
        return problems

    def _desk_checks(self, inp: CampaignInput, phi: float, out: CampaignOutput) -> list[str]:
        """Boundaries, ladders and the layout effect of each searched domain.

        A lower search may find nothing, when even the gentlest bound scores
        at or below tau; the campaign then skips that domain's ladder.  That
        is accepted only when the upper search saw such a score.
        """
        problems = []
        if len(out.uppers) != len(inp.domains):
            return [f"{len(out.uppers)} upper searches for {len(inp.domains)} domains"]
        lowers = {r.config.layout: r for r in out.lowers}
        ladders = {c.lower.layout: c for c in out.ladders}
        for domain, upper in zip(inp.domains, out.uppers):
            label = f"{domain.method.value}/{domain.layout.value}"
            lower = lowers.get(domain.layout)
            if lower is None:
                gentlest = dict(upper.probes).get(domain.bound_min)
                if gentlest is None or gentlest > inp.spec.tau:
                    problems.append(f"{label}: lower search gave up, yet quality at "
                                    f"{domain.bound_min!r} was {gentlest!r} > tau")
                continue
            problems += checks.boundary_problems(label, upper, lower, phi, inp.spec)
            if domain.layout not in ladders:
                problems.append(f"{label}: no ladder after both searches")
                continue
            problems += checks.ladder_problems(
                label, ladders[domain.layout], lower.bound, upper.bound, inp.spec.n_candidates
            )
        if len(ladders) == len(inp.domains):
            by_column = out.domain_hv[("eblc_pred", "rel", "by_column")]
            matrix = out.domain_hv[("eblc_pred", "rel", "matrix")]
            if not by_column >= matrix:
                problems.append(f"by-column hypervolume {by_column!r} < matrix {matrix!r}")
        return problems


def ladder_configs() -> list[tuple[str, ReducerConfig]]:
    """Every configuration of the codec ladder, tagged with its family."""
    out = []
    for b in LADDER_BOUNDS:
        out.append(("pred", ReducerConfig(Method.EBLC_PRED, Mode.REL, (b,), Layout.BY_COLUMN)))
        out.append(("pred", ReducerConfig(Method.EBLC_PRED, Mode.REL, (b,), Layout.MATRIX)))
        out.append(("pred", ReducerConfig(Method.EBLC_PRED, Mode.PW_REL, (b,), Layout.BY_COLUMN)))
        out.append(("bitplane", ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (b,))))
    for order in (0, 1):
        out.append(("lossless", ReducerConfig(Method.LOSSLESS, knobs=ReducerKnobs(delta_order=order))))
    return out


def round_trip(table, config: ReducerConfig):
    """compress -> pack -> unpack -> decompress; returns the outputs and the
    seconds spent encoding (compress + pack) and decoding (the other two)."""
    t0 = perf_counter()
    artifact, _, _ = reducers.compress(table, config)
    blob = reducers.pack(artifact)
    t1 = perf_counter()
    restored, _, _ = reducers.decompress(reducers.unpack(blob), names=table.names)
    t2 = perf_counter()
    return artifact, blob, restored, t1 - t0, t2 - t1


def judge(table, family: str, config: ReducerConfig, artifact, blob: bytes, restored):
    """Check one round trip; returns (failure or None, check problems)."""
    label = config.label()
    problems = checks.ratio_problems(
        label, table.n_bytes, len(blob), reducers.compression_ratio(artifact)
    )
    if family == "lossless":
        if not checks.bit_exact(table.values, restored.values):
            return f"{label}: lossless output is not bit-exact", problems
        return None, problems
    bad = checks.bound_violations(
        table.values, restored.values, config.mode.value, config.c[0], config.layout.value
    )
    return (f"{label}: {bad} values outside the bound" if bad else None), problems


class LadderWorkload:
    """codec_ladder: every configuration on both tables per round."""

    def __init__(self, variants: list[LadderInput]):
        self.variants = variants
        self.configs = ladder_configs()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def round(self, variant: int) -> RoundResult:
        enc_s = dec_s = 0.0
        enc_bytes = 0
        log_ratio = 0.0
        hv = 0.0
        failures: list[str] = []
        problems: list[str] = []
        tables = self.variants[variant].tables
        for table in tables:
            rd_points = []
            for family, config in self.configs:
                artifact, blob, restored, enc, dec = round_trip(table, config)
                enc_s += enc
                dec_s += dec
                enc_bytes += table.n_bytes
                failure, found = judge(table, family, config, artifact, blob, restored)
                problems += found
                if failure:
                    failures.append(failure)
                ratio = table.n_bytes / len(blob)
                log_ratio += math.log(ratio)
                q = checks.psnr_db(table.values, restored.values)
                if family != "lossless" and math.isfinite(q):
                    rd_points.append(pareto.ObjectivePoint(ratio, q))
            hv += checks.slab_hypervolume([(p.cr, p.q) for p in rd_points], HV_REF)
        n = len(self.configs) * len(tables)
        return RoundResult(
            seconds=enc_s + dec_s,
            enc_bytes=enc_bytes, enc_s=enc_s, dec_bytes=enc_bytes, dec_s=dec_s,
            ratio=math.exp(log_ratio / n),
            hypervolume=hv,
            evaluations=n,
            attempted=n,
            failed=len(failures),
            problems=problems,
            failures=failures,
        )


def open_workload(name: str, variants: list, scratch: Path):
    if name == "codec_ladder":
        return LadderWorkload(variants)
    return CampaignWorkload(name, variants, scratch)
