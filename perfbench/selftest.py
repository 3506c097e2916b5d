#!/usr/bin/env python3
"""Fast self-test of the benchmark itself:  python3 perfbench/selftest.py

1. Every workload runs to its end at a tiny size, untraced and traced, with
   no failed operation and no failed check, and prints exactly the metrics
   BENCHMARK.json names, in the units it gives.
2. Every correctness check passes on real output and rejects a copy of that
   output with one deliberate fault: a decoded value moved past its bound, a
   flipped bit, a container one byte longer, a hypervolume off by one slab,
   a baseline off by a little, a boundary on the wrong side of eta or tau, an
   uneven ladder, a record over its bound, a wrong sample ratio, a cache hit
   too many.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

bench._import_program()

from perfbench import checks, inputs, tracing, workloads  # noqa: E402

SEED = 5
FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        FAILURES.append(what)
        print(f"FAIL: {what}", flush=True)


def test_workloads_run_at_tiny_size(spec: dict) -> None:
    for workload in bench.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, problems, _ = bench.run(workload, SEED, 0.0, trace, size="tiny")
            tag = f"{workload} trace={int(trace)}"
            expect(not problems, f"{tag}: checks failed: {problems[:3]}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: {result['attempted']} attempted, {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not trace:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                expect(not zero, f"{tag}: end-to-end metrics not positive: {zero}")


def _past_bound(x: np.ndarray, limit: float) -> np.ndarray:
    """x moved by more than `limit`, in x's own dtype."""
    y = np.asarray(x + 4 * limit, dtype=x.dtype)
    while not abs(float(y) - float(x)) > limit:
        y = np.nextafter(y, np.asarray(np.inf, dtype=x.dtype))
    return y


def test_ladder_checks_reject_faults() -> None:
    ladder = inputs.codec_ladder(SEED, "tiny")
    for table in ladder.tables:
        for family, config in workloads.ladder_configs():
            artifact, blob, restored, _, _ = workloads.round_trip(table, config)
            label = f"{table.dtype} {config.label()}"
            failure, problems = workloads.judge(table, family, config, artifact, blob, restored)
            expect(failure is None and not problems, f"{label}: clean output rejected: "
                   f"{failure} {problems}")

            _, problems = workloads.judge(table, family, config, artifact, blob + b"\0", restored)
            expect(bool(problems), f"{label}: ratio check missed a container one byte longer")

            x = table.values
            y = restored.values.copy()
            i, j = np.unravel_index(np.argmax(np.abs(x)), x.shape)
            if family == "lossless":
                y.view(f"u{y.dtype.itemsize}")[i, j] ^= 1
            else:
                b = config.c[0]
                if config.mode.value == "acc":
                    limit = b
                elif config.mode.value == "pw_rel":
                    limit = b * abs(float(x[i, j]))
                elif config.layout.value == "matrix":
                    limit = b * (float(x.max()) - float(x.min()))
                else:
                    limit = b * (float(x[:, j].max()) - float(x[:, j].min()))
                y[i, j] = _past_bound(x[i, j], limit)
            failure, _ = workloads.judge(
                table, family, config, artifact, blob, restored.with_values(y)
            )
            expect(failure is not None, f"{label}: bound check missed one value moved past it")


def _one_slab_more(out) -> float:
    """The reported hypervolume plus the slab of the front's widest step."""
    front = checks.brute_front([(p.cr, p.q) for p in out.points])
    widths = [(b[0] - a[0]) * (b[1] - workloads.HV_REF[1]) for a, b in zip(front, front[1:])]
    first = (front[0][0] - workloads.HV_REF[0]) * (front[0][1] - workloads.HV_REF[1])
    return out.hypervolume + max(widths + [first])


def _campaign(name: str):
    variants = [getattr(inputs, name)(inputs.derive(SEED, 0), "tiny")]
    return workloads.CampaignWorkload(name, variants, bench.OUT_DIR / "selftest-scratch")


def test_desk_checks_reject_faults() -> None:
    with _campaign("desk_search") as w:
        out, _, _, _ = w.execute(0)
    spec = w.variants[0].spec
    expect(not w.check(0, out), f"desk: clean output rejected: {w.check(0, out)}")

    def rejects(what, **changes):
        expect(bool(w.check(0, replace(out, **changes))), f"desk: missed {what}")

    records = out.records
    phi = records[0].psi
    rejects("a baseline off the independent ridge fit",
            records=[replace(records[0], psi=phi + 10 * checks.PHI_TOLERANCE["r2"])] + records[1:])
    rejects("a hypervolume off by one slab", hypervolume=_one_slab_more(out))

    upper, lower = out.uppers[0], out.lowers[0]
    off_eta = tuple((b, phi * (1 - 2 * spec.eta)) if b == upper.bound else (b, q)
                    for b, q in upper.probes)
    rejects("an upper boundary outside eta",
            uppers=[replace(upper, probes=off_eta)] + out.uppers[1:])
    at_tau = tuple((b, spec.tau) if b == lower.bound else (b, q) for b, q in lower.probes)
    rejects("a lower boundary at tau", lowers=[replace(lower, probes=at_tau)] + out.lowers[1:])
    rejects("a lower search that gave up while the gentlest bound passed tau",
            lowers=out.lowers[1:], ladders=out.ladders[1:])

    ladder = out.ladders[0]
    points = list(ladder.points)
    points[1] = replace(points[1], c=(points[1].c[0] * 1.01,))
    rejects("an uneven ladder", ladders=[replace(ladder, points=tuple(points))] + out.ladders[1:])

    for layout in ("by_column", "matrix"):
        k = next(i for i, r in enumerate(records)
                 if r.config["method"] == "eblc_pred" and r.config["layout"] == layout)
        rec = records[k]
        field_name = "max_rel_to_range_err" if layout == "by_column" else "max_abs_err"
        span = float(np.ptp(w.variants[0].pair.train.values))
        worse = 2 * rec.config["c"][0] * (1.0 if layout == "by_column" else span)
        report = {**rec.report, "train": {**rec.report["train"], field_name: worse}}
        rejects(f"a {layout} record over its bound",
                records=records[:k] + [replace(rec, report=report)] + records[k + 1:])

    by_column = out.domain_hv[("eblc_pred", "rel", "by_column")]
    rejects("a matrix layout beating by-column",
            domain_hv={**out.domain_hv, ("eblc_pred", "rel", "matrix"): by_column * 2 + 1})


def test_knn_checks_reject_faults() -> None:
    with _campaign("knn_scan") as w:
        out, _, _, _ = w.execute(0)
    expect(not w.check(0, out), f"knn: clean output rejected: {w.check(0, out)}")

    def rejects(what, records):
        expect(bool(w.check(0, replace(out, records=records))), f"knn: missed {what}")

    records = out.records
    n_val = w.variants[0].pair.validation.n_obs
    rejects("a baseline off the brute-force kNN",
            [replace(records[0], psi=records[0].psi - 1.0 / n_val)] + records[1:])
    expect(bool(w.check(0, replace(out, hypervolume=_one_slab_more(out)))),
           "knn: missed a hypervolume off by one slab")

    k = next(i for i, r in enumerate(records) if r.config["method"] == "sample_wor")
    rejects("a wrong sample ratio",
            records[:k] + [replace(records[k], ratio=records[k].ratio * 1.001)] + records[k + 1:])

    k = next(i for i, r in enumerate(records) if r.config["method"] == "eblc_bitplane")
    rec = records[k]
    report = {**rec.report, "train": {**rec.report["train"],
                                      "max_abs_err": 2 * rec.config["c"][0]}}
    rejects("a bit-plane record over its acc bound",
            records[:k] + [replace(rec, report=report)] + records[k + 1:])

    k = next(i for i, r in enumerate(records) if not r.cached)
    rejects("a cache hit too many",
            records[:k] + [replace(records[k], cached=True)] + records[k + 1:])


def test_tracer_restores_program() -> None:
    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing.TRACED}
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing.TRACED}
    expect(before == after, "tracer left a wrapper in place")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_tracer_restores_program()
    test_ladder_checks_reject_faults()
    test_desk_checks_reject_faults()
    test_knn_checks_reject_faults()
    test_workloads_run_at_tiny_size(spec)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
