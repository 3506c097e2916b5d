#!/usr/bin/env python3
"""Run one workload of the ppress benchmark and print its metrics.

    python3 perfbench/run.py --workload desk_search --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it imports ppress from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
same object, and with ``--trace 1`` the recorded spans, are written under
``.perfbench_out/`` in the checkout.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import os

# one BLAS thread: all load comes from this single process (set before numpy
# is imported, here and in the import-timing child)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("desk_search", "knn_scan", "codec_ladder")
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "encode_MBps": "MB/s",
    "decode_MBps": "MB/s",
    "ratio": "x",
    "hypervolume": "ratio.q",
    "evaluations": "count",
}


def _import_program():
    """Import ppress from this checkout, never from anywhere else."""
    package = SRC / "ppress"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no ppress sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import ppress

    if Path(ppress.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported ppress from {ppress.__file__}, not {package}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return float(statistics.median(values))


def _end_to_end(plain, n_variants: int, setup_s: float) -> dict:
    """Times as medians over every round, in idle-machine seconds; values
    (ratio, hypervolume, evaluations) as medians over the input variants."""
    first = plain[:n_variants]
    values = {
        "setup_s": setup_s,
        "round_s": _median([r.seconds * r.scale for r in plain]),
        "encode_MBps": _median([r.enc_bytes / 1e6 / (r.enc_s * r.scale) for r in plain]),
        "decode_MBps": _median([r.dec_bytes / 1e6 / (r.dec_s * r.scale) for r in plain]),
        "ratio": _median([r.ratio for r in first]),
        "hypervolume": _median([r.hypervolume for r in first]),
        "evaluations": _median([r.evaluations for r in first]),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import ppress.campaign, ppress.pareto, ppress.reducers, ppress.synth; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import ppress (numpy included) in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Set up, run whole rounds for `seconds`; returns (result, problems, rounds).

    An untraced run runs at least one round per input variant.  Every timed
    span is scaled to the idle machine's speed by the reference kernels timed
    around it (see reference.py).  With `trace`, every round is followed by
    the same round under the tracer, and the per-layer metrics and the
    tracing overhead come from those pairs.
    """
    from perfbench import inputs, reference, tracing, workloads

    setup_tracer = tracing.Tracer()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference.slowdown()
        import_s = _import_seconds()
        if trace:
            setup_tracer.install()
        t0 = time.perf_counter()
        variants = inputs.build(workload, seed, size)
        build_s = time.perf_counter() - t0
        if trace:
            setup_tracer.uninstall()
        after = reference.slowdown()
        setups.append((import_s + build_s) * reference.scale(before, after))
    setup_s = _median(setups)

    tracer = tracing.Tracer()
    plain, traced = [], []
    slowdowns = [reference.slowdown()]

    def timed_round(w, variant):
        result = w.round(variant)
        slowdowns.append(reference.slowdown())
        result.scale = reference.scale(slowdowns[-2], slowdowns[-1])
        return result

    started = time.perf_counter()
    with workloads.open_workload(workload, variants, OUT_DIR / f"scratch-{os.getpid()}") as w:
        while True:
            variant = len(plain) % len(variants)
            plain.append(timed_round(w, variant))
            if trace:  # the same input again, under the tracer
                tracer.start_round()
                tracer.install()
                try:
                    traced.append(timed_round(w, variant))
                finally:
                    tracer.uninstall()
                tracer.end_round(traced[-1].scale)
            # an untraced run needs every variant once for its values
            covered = trace or len(plain) >= len(variants)
            if covered and time.perf_counter() - started >= seconds:
                break

    rounds = plain + traced
    if trace:
        metrics = tracer.layer_metrics()
        metrics["synth.generate_s"] = setup_tracer.inclusive_s("synth.generate") / SETUP_REPEATS
        metrics["campaign.store_bytes"] = _median([r.store_bytes for r in traced])
        metrics["campaign.cache_bytes"] = _median([r.cache_bytes for r in traced])
        metrics["trace.overhead_share"] = 100.0 * (
            sum(r.seconds * r.scale for r in traced) / sum(r.seconds * r.scale for r in plain) - 1.0
        )
        metrics = {
            k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in sorted(metrics.items())
        }
        tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    else:
        metrics = _end_to_end(plain, len(variants), setup_s)
    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    for r in rounds:
        for f in r.failures:
            print(f"perfbench: operation failed: {f}", file=sys.stderr)
    detail = [
        {"variant": (i if i < len(plain) else i - len(plain)) % len(variants),
         "traced": i >= len(plain), "seconds": r.seconds, "scale": r.scale,
         "encode_MBps": r.enc_bytes / 1e6 / r.enc_s, "decode_MBps": r.dec_bytes / 1e6 / r.dec_s,
         "ratio": r.ratio, "hypervolume": r.hypervolume, "evaluations": r.evaluations}
        for i, r in enumerate(rounds)
    ]
    return result, problems, detail


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    result, problems, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    line = json.dumps(result)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    saved = {**result, "problems": problems, "rounds": detail}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
