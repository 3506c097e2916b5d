#!/usr/bin/env python3
"""Record a checkout's benchmark figures as one BENCH_<tag>.json file.

    python3 scripts/bench.py --tag head
    python3 scripts/bench.py --tag parent --checkout ../ppress-parent --out-dir .

Runs the checkout's own ``perfbench/run.py`` (this checkout's by default) on
every workload declared in ``BENCHMARK.json``, once untraced and once traced
per seed, each in a fresh process.  The file holds the git sha of the
checkout, whether its tracked files differ from that sha, the machine's CPU
count, every run's end-to-end and per-layer metrics, and each metric's
median over the seeds.  The exit code is 1 when a run fails its
correctness checks or a workload lacks an end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1001, 1002, 1003)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    p.add_argument("--checkout", type=Path, default=HERE,
                   help="checkout whose perfbench/run.py runs (default: this one)")
    p.add_argument("--out-dir", type=Path, default=HERE)
    p.add_argument("--seconds", type=float, default=15.0, help="per run")
    p.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    return p.parse_args(argv)


def _git(checkout: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last line of standard output is the result."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench: {' '.join(cmd)} printed nothing (exit {done.returncode})\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _medians(runs: list[dict]) -> dict:
    """Each metric's unit and median over the runs that report it."""
    names = sorted({name for run in runs for name in run["metrics"]})
    return {
        name: {
            "unit": next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"]),
            "median": statistics.median(
                r["metrics"][name]["value"] for r in runs if name in r["metrics"]
            ),
        }
        for name in names
    }


def main(argv=None) -> int:
    args = _parse(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((HERE / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["end_to_end"]]

    bench = {
        "tag": args.tag,
        "git_sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "taken": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        plain, traced = [], []
        for seed in args.seeds:
            plain.append(_run(checkout, workload, seed, args.seconds, 0))
            traced.append(_run(checkout, workload, seed, args.seconds, 1))
        runs = plain + traced
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": _medians(plain),
            "per_layer": _medians(traced),
            "runs": [{"seed": seed, "end_to_end": p["metrics"], "per_layer": t["metrics"]}
                     for seed, p, t in zip(args.seeds, plain, traced)],
        }
        bench["workloads"][workload] = entry
        missing = [name for name in wanted if name not in entry["end_to_end"]]
        if missing or not entry["correct"]:
            print(f"bench: {workload}: correct={entry['correct']}, missing {missing}",
                  file=sys.stderr)
            ok = False
        summary = ", ".join(f"{k} {v['median']:.4g}" for k, v in entry["end_to_end"].items())
        print(f"{workload}: {summary}", file=sys.stderr)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
