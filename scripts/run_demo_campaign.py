"""End-to-end demo without the CLI: synthesize, search, report.

Builds a correlated low-rank table, searches the fidelity and usefulness
boundaries for a predictive error-bounded reducer in both layouts, walks
the candidate ladder, and prints the boundaries, the Pareto front, the
2-D hypervolume per layout, and a core-count table for the best point.
Plots land in --out-dir as self-contained SVG.
"""

import argparse
from pathlib import Path

from ppress.campaign import (
    BaselineMeasured,
    DatasetPair,
    SearchDomain,
    SearchSpec,
    run_campaign,
)
from ppress.pareto import (
    front_svg,
    hypervolume2d,
    pareto_front,
    points_from_records,
)
from ppress.perfmodel import cores_table
from ppress.quality import Application, AppKind, MetricName, MetricSpec
from ppress.reducers import Layout, Method, Mode
from ppress.synth import make_latent_tabular
from ppress.tabular import SplitSpec, split

HV_REF = (0.5, 0.0)  # hypervolume anchor: log10(cr) = 0.5, quality = 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("demo_report"))
    ap.add_argument("--rows", type=int, default=10_000)
    ap.add_argument("--cols", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    full = make_latent_tabular(
        n_obs=args.rows,
        n_feat=args.cols,
        rank=5,
        noise=0.05,
        scale_decades=4.0,
        seed=args.seed,
        row_corr=0.97,
    )
    train, validation = split(full, SplitSpec(0.5, seed=args.seed, shuffled=False))
    pair = DatasetPair(train, validation)
    app = Application(
        "ridge",
        AppKind.RIDGE_REGRESSION,
        MetricSpec(MetricName.R2),
        target="c9",
        seed=args.seed,
    )
    spec = SearchSpec(tau=0.7, n_candidates=12, eta=0.01, max_iters=16)

    domains = [
        SearchDomain(Method.EBLC_PRED, Mode.REL, 1e-8, 0.5, scale="log10", layout=layout)
        for layout in (Layout.BY_COLUMN, Layout.MATRIX)
    ]
    phi = 0.0
    volumes = {}

    def show(step) -> None:
        nonlocal phi
        if isinstance(step, BaselineMeasured):
            if step.reason is not None:
                print(f"baseline failed: {step.reason}")
                return
            phi = step.phi
            print(f"baseline quality phi = {phi:.4f}")
            return
        layout = step.domain.layout
        if step.reason is not None:
            print(f"{layout.value}: infeasible: {step.reason}")
            return
        upper, lower, records = step.upper, step.lower, step.records
        print(
            f"{layout.value}: fidelity boundary u = {upper.bound:.3e}, "
            f"usefulness boundary l = {lower.bound:.3e}"
        )
        points = points_from_records(records)
        front = pareto_front(points)
        volumes[layout] = hypervolume2d(front, HV_REF)
        # seconds this layout spent compressing, restoring and scoring
        dt = sum(r.t_compress + r.t_decompress + r.t_app for r in records)
        print(f"  front size {len(front.points)}, hypervolume {volumes[layout]:.3f}, {dt:.1f}s")

        svg_path = args.out_dir / f"front_{layout.value}.svg"
        svg_path.write_text(front_svg(points, [front]))
        print(f"  wrote {svg_path}")

        # the campaign's quality-neutral test: |phi - psi| <= eta * |phi|
        best = max(
            (r for r in records if r.ok and r.ratio and r.psi is not None
             and abs(phi - r.psi) <= spec.eta * abs(phi)),
            key=lambda r: r.ratio,
            default=None,
        )
        if best is not None:
            print(
                f"  best within-tolerance point: ratio {best.ratio:.1f} "
                f"at quality {best.psi:.4f}"
            )
            table = cores_table(
                [(f"{layout.value}", best.ratio, best.decompress_mbps / 1000.0)],
                bandwidths_gbps=(3.75, 1.0, 0.125),
            )
            csv_path = args.out_dir / f"cores_{layout.value}.csv"
            csv_path.write_text(table.to_csv())
            print(f"  wrote {csv_path}")

    run_campaign(pair, [app], domains, spec, observer=show)
    better = max(volumes, key=volumes.get)
    print(f"larger dominated volume: {better.value}")


if __name__ == "__main__":
    main()
