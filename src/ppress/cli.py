"""Command-line surface: stats, eval, search, pareto, speedup, report.

Exit codes: 0 success, 1 internal failure, 2 usage or configuration error,
3 data error, 4 infeasible search.  PPRESS_STORE and PPRESS_CACHE_DIR
override the campaign file's store and cache locations; explicit flags
override both.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from .campaign import (
    BaselineMeasured,
    FixedEvaluated,
    RecordStore,
    SearchDomain,
    eval_config,
    run_campaign,
)
from .campaign_file import load_campaign_file
from .errors import (
    ConfigError,
    DataFormatError,
    InfeasibleSearchError,
    PpressError,
)
from .pareto import (
    Front,
    dominated_methods,
    front_csv,
    front_svg,
    pareto_front,
    per_method_fronts,
    points_from_records,
)
from .perfmodel import cores_table
from .reducers import ReducerConfig
from .tabular import column_stats, load_csv, load_raw_with_descriptor, range_histogram

_DEFAULT_BANDWIDTHS = "3.75,1.0,0.125"


def _say(*parts) -> None:
    print(*parts)


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_store(flag: str | None, plan_store: Path | None) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("PPRESS_STORE")
    if env:
        return Path(env)
    if plan_store is not None:
        return plan_store
    raise ConfigError("no record store given (flag, PPRESS_STORE, or campaign file)")


def _resolve_cache(flag: str | None, plan_cache: Path | None, disabled: bool) -> Path | None:
    if disabled:
        return None
    if flag:
        return Path(flag)
    env = os.environ.get("PPRESS_CACHE_DIR")
    if env:
        return Path(env)
    return plan_cache


def _load_records(store_path: Path):
    store = RecordStore(store_path)
    records = store.load()
    if not records:
        raise DataFormatError(f"record store {store_path} is missing or empty")
    return records


def _modelled(records) -> list:
    """The ok records that carry a ratio and a decompression bandwidth."""
    return [r for r in records if r.ok and r.ratio is not None and r.decompress_mbps is not None]


def _campaign(args):
    """eval's and search's campaign file, record store and cache directory."""
    plan = load_campaign_file(args.campaign)
    store = RecordStore(_resolve_store(args.store, plan.store_path))
    return plan, store, _resolve_cache(args.cache_dir, plan.cache_dir, args.no_cache)


def _load_any_dataset(args):
    if args.format == "csv":
        return load_csv(args.dataset, header=not args.no_header, dtype=args.dtype)
    if args.format == "raw":
        return load_raw_with_descriptor(args.dataset)
    raise ConfigError(f"unknown format {args.format!r}")


# -- stats --------------------------------------------------------------------

def cmd_stats(args) -> int:
    ds = _load_any_dataset(args)
    stats = column_stats(ds)
    hist = range_histogram(stats, n_bins=args.bins, scale=args.scale)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    stats_path = out / "stats.csv"
    with open(stats_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "min", "max", "range", "mean", "variance"])
        for s in stats:
            w.writerow([s.name, repr(s.min), repr(s.max), repr(s.range),
                        repr(s.mean), repr(s.variance)])

    hist_path = out / "range_histogram.csv"
    with open(hist_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin", "lo", "hi", "count"])
        w.writerow(["zero", "", "", hist.zero_count])
        for i, count in enumerate(hist.counts):
            w.writerow([i, repr(float(hist.edges[i])), repr(float(hist.edges[i + 1])),
                        int(count)])

    zero = sum(1 for s in stats if s.zero_range)
    _say(f"{ds.n_obs} rows x {ds.n_feat} columns ({ds.dtype})")
    _say(f"zero-range columns: {zero}")
    _say(f"wrote {stats_path} and {hist_path}")
    return 0


# -- eval ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    plan, store, cache = _campaign(args)
    explicit = [m for m in plan.methods if isinstance(m, ReducerConfig)]
    skipped = len(plan.methods) - len(explicit)
    if skipped:
        _say(f"skipping {skipped} search domain(s); `search` evaluates those")
    if not explicit:
        _say("nothing to evaluate: no explicit configurations in the campaign")
        return 0
    total = failed = 0
    for app in plan.apps:
        for config in explicit:
            rec = eval_config(plan.pair, app, config, plan.compress_target, cache)
            store.append(rec)
            total += 1
            tag = " (cached)" if rec.cached else ""
            if rec.ok:
                ratio = f"{rec.ratio:.3g}" if rec.ratio else "-"
                _say(f"{app.id} {config.label()}: ratio={ratio} "
                     f"{rec.metric}={rec.psi:.6g}{tag}")
            else:
                failed += 1
                _warn(f"{app.id} {config.label()}: FAILED {rec.error}")
    _say(f"{total} records appended, {failed} failed")
    return 1 if failed == total else 0


# -- search -------------------------------------------------------------------

def _boundary_keys(methods) -> dict[int, str]:
    """boundaries.json key of each search domain, by its index in methods.

    The key is method:mode:layout; domains that share one (they differ in
    knobs, range or scale) get `#index` appended, so none overwrites another.
    """
    keys = {
        i: f"{m.method.value}:{m.mode.value}:{m.layout.value}"
        for i, m in enumerate(methods) if isinstance(m, SearchDomain)
    }
    counts = Counter(keys.values())
    return {i: k if counts[k] == 1 else f"{k}#{i}" for i, k in keys.items()}


def cmd_search(args) -> int:
    plan, store, cache = _campaign(args)
    keys = _boundary_keys(plan.methods)
    boundaries: dict[str, dict] = {}

    def show(step) -> None:
        if isinstance(step, BaselineMeasured):
            if step.reason is not None:
                _warn(f"{step.app.id}: baseline failed: {step.reason}")
                return
            _say(f"{step.app.id}: baseline {step.app.metric.name.value}={step.phi:.6g} "
                 f"(spread {step.spread:.3g} over {plan.spec.replicates} replicate(s))")
            return
        if isinstance(step, FixedEvaluated):
            (rec,) = step.records
            state = f"{rec.metric}={rec.psi:.6g}" if rec.ok else f"FAILED {rec.error}"
            _say(f"{step.app.id} {step.config.label()}: {state}")
            return
        key = f"{step.app.id}/{keys[step.index]}"
        if step.reason is not None:
            boundaries[key] = {"infeasible": True, "reason": step.reason}
            _warn(f"{key}: infeasible: {step.reason}")
            return
        upper, lower, ladder = step.upper, step.lower, step.ladder
        boundaries[key] = {
            "infeasible": False,
            "upper_bound": upper.bound,
            "upper_quality_neutral": upper.satisfied,
            "upper_probes": step.trace(upper),
            "lower_bound": lower.bound,
            "lower_probes": step.trace(lower),
            "degenerate": ladder.degenerate,
            "candidates": [p.bound for p in ladder.points],
        }
        bounds_text = ", ".join(f"{p.bound:g}" for p in ladder.points)
        flag = "" if upper.satisfied else " [no quality-neutral bound]"
        _say(f"{key}: upper={upper.bound:g}{flag} lower={lower.bound:g} "
             f"candidates=[{bounds_text}]")

    run_campaign(plan.pair, plan.apps, plan.methods, plan.spec, store,
                 plan.compress_target, cache, observer=show)
    plan.report_dir.mkdir(parents=True, exist_ok=True)
    bpath = plan.report_dir / "boundaries.json"
    bpath.write_text(json.dumps(boundaries, indent=2, sort_keys=True) + "\n")
    _say(f"wrote {bpath}")
    if boundaries and all(entry["infeasible"] for entry in boundaries.values()):
        raise InfeasibleSearchError("every search domain was infeasible")
    return 0


# -- pareto -------------------------------------------------------------------

def _records_by_app(records):
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(rec.app_id, []).append(rec)
    return dict(sorted(groups.items()))


def _write_scatter(out: Path, app_id: str, points, front, fronts) -> str:
    """Write an application's objective scatter with its global and
    per-method fronts under out; returns the file name."""
    name = f"scatter_{app_id}.svg"
    (out / name).write_text(front_svg(points, [front, *fronts.values()]))
    return name


def cmd_pareto(args) -> int:
    records = _load_records(_resolve_store(args.store, None))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wrote_any = False
    for app_id, recs in _records_by_app(records).items():
        points = points_from_records(recs)
        if not points:
            _warn(f"{app_id}: no usable points (all records failed?)")
            continue
        wrote_any = True
        front = pareto_front(points, scope="global")
        fronts = per_method_fronts(points)
        (out / f"front_global_{app_id}.csv").write_text(front_csv(front))
        method_points = tuple(p for f in fronts.values() for p in f.points)
        (out / f"front_methods_{app_id}.csv").write_text(
            front_csv(Front(method_points, scope="per_method"))
        )
        _write_scatter(out, app_id, points, front, fronts)
        _say(f"{app_id}: global front has {len(front.points)} of {len(points)} points")
        beaten = dominated_methods(points)
        if beaten:
            _say(f"{app_id}: methods absent from the global front: {', '.join(beaten)}")
    if not wrote_any:
        raise DataFormatError("no records usable for a front")
    _say(f"wrote front CSVs and scatter SVGs under {out}")
    return 0


# -- speedup ------------------------------------------------------------------

def _parse_bandwidths(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad bandwidth list {text!r}") from exc
    if not values:
        raise ConfigError("empty bandwidth list")
    return values


def _speedup_entries_from_csv(path: Path):
    entries = []
    with open(path, newline="") as fh:
        # the header is the first non-blank line, as for load_csv
        reader = csv.DictReader(itertools.dropwhile(lambda line: not line.strip(), fh))
        need = {"label", "ratio", "decompress_gbps"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise DataFormatError(
                f"{path}: need columns label,ratio,decompress_gbps"
            )
        for row in reader:
            try:
                entries.append(
                    (row["label"], float(row["ratio"]), float(row["decompress_gbps"]))
                )
            except ValueError as exc:
                raise DataFormatError(f"{path}: bad numeric cell: {exc}") from exc
    if not entries:
        raise DataFormatError(f"{path}: no data rows")
    return entries


def cmd_speedup(args) -> int:
    bandwidths = _parse_bandwidths(args.bandwidths)
    if args.csv:
        entries = _speedup_entries_from_csv(Path(args.csv))
    else:
        entries = _modelled(_load_records(_resolve_store(args.store, None)))
        if not entries:
            raise DataFormatError("no successful records with bandwidth data")
    table = cores_table(entries, bandwidths)
    sys.stdout.write(table.to_text())
    if args.out:
        Path(args.out).write_text(table.to_csv())
        _say(f"wrote {args.out}")
    return 0


# -- report -------------------------------------------------------------------

def _phi_lines(records) -> list[str]:
    lines = ["| application | metric | baseline | replicates |",
             "|---|---|---|---|"]
    seen = False
    for app_id, recs in _records_by_app(records).items():
        base = [r for r in recs if r.ok and r.config.get("method") == "none"]
        if not base:
            continue
        seen = True
        phi = statistics.median(r.psi for r in base)
        lines.append(f"| {app_id} | {base[0].metric} | {phi:.6g} | {len(base)} |")
    if not seen:
        lines.append("| (no baseline records) | | | |")
    return lines


def _boundary_lines(report_dir: Path | None) -> list[str]:
    path = (report_dir / "boundaries.json") if report_dir else None
    if path is None or not path.exists():
        return ["(no boundaries.json found; run the search command first)"]
    data = json.loads(path.read_text())
    if not data:
        return ["(boundaries.json is empty)"]
    lines = ["| search | upper | lower | candidates |", "|---|---|---|---|"]
    for key in sorted(data):
        entry = data[key]
        if entry.get("infeasible"):
            lines.append(f"| {key} | infeasible | infeasible | {entry['reason']} |")
        else:
            cands = ", ".join(f"{b:g}" for b in entry["candidates"])
            lines.append(
                f"| {key} | {entry['upper_bound']:g} | {entry['lower_bound']:g} "
                f"| {cands} |"
            )
    return lines


def _front_lines(records, out: Path) -> list[str]:
    """The report's front tables; writes the scatter each one links under out."""
    lines = []
    for app_id, recs in _records_by_app(records).items():
        points = points_from_records(recs)
        if not points:
            continue
        front = pareto_front(points)
        scatter = _write_scatter(out, app_id, points, front, per_method_fronts(points))
        lines.append(f"### {app_id}")
        lines.append("")
        lines.append(f"![objective scatter]({scatter})")
        lines.append("")
        lines.append("| method | bound | ratio | quality | record |")
        lines.append("|---|---|---|---|---|")
        for p in front.points:
            bound = "-" if p.bound is None else f"{p.bound:g}"
            lines.append(
                f"| {p.method} | {bound} | {p.cr:.4g} | {p.q:.6g} | {p.record_ref[:12]} |"
            )
        beaten = dominated_methods(points)
        if beaten:
            lines.append("")
            lines.append(f"Methods never on the front: {', '.join(beaten)}.")
        lines.append("")
    return lines or ["(no usable records)"]


def _cores_lines(records, bandwidths) -> list[str]:
    usable = [r for r in _modelled(records) if r.ratio > 1.0]
    if not usable:
        return ["(no records with compression to model)"]
    table = cores_table(usable, bandwidths)
    return ["```", table.to_text().rstrip("\n"), "```"]


def cmd_report(args) -> int:
    store_path = _resolve_store(args.store, None)
    records = _load_records(store_path)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bandwidths = _parse_bandwidths(args.bandwidths)
    lines = [
        "# Campaign report",
        "",
        f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
        f"store: {store_path.name} ({len(records)} records)",
        "",
        "## Baseline quality",
        "",
        *_phi_lines(records),
        "",
        "## Search boundaries",
        "",
        *_boundary_lines(Path(args.boundaries_dir) if args.boundaries_dir else out),
        "",
        "## Pareto fronts",
        "",
        *_front_lines(records, out),
        "",
        "## Core requirements by link bandwidth (GB/s)",
        "",
        *_cores_lines(records, bandwidths),
        "",
    ]
    path = out / "report.md"
    path.write_text("\n".join(lines))
    _say(f"wrote {path}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppress",
        description="Error-bounded tabular compression with quality-aware search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="column statistics and range histogram")
    p.add_argument("dataset")
    p.add_argument("--format", choices=("csv", "raw"), default="csv")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--scale", choices=("linear", "log10"), default="log10")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_stats)

    campaign = argparse.ArgumentParser(add_help=False)  # the flags of eval and search
    campaign.add_argument("campaign")
    campaign.add_argument("--store")
    campaign.add_argument("--cache-dir")
    campaign.add_argument("--no-cache", action="store_true")
    for name, func, text in (
        ("eval", cmd_eval, "evaluate the campaign's explicit configs"),
        ("search", cmd_search, "boundary searches plus candidate ladders"),
    ):
        sub.add_parser(name, parents=[campaign], help=text).set_defaults(func=func)

    p = sub.add_parser("pareto", help="fronts and scatter plots from a store")
    p.add_argument("--store")
    p.add_argument("--out-dir", default="report")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("speedup", help="core-count table from records or CSV")
    p.add_argument("--store")
    p.add_argument("--csv")
    p.add_argument("--bandwidths", default=_DEFAULT_BANDWIDTHS,
                   help="comma-separated link bandwidths in GB/s")
    p.add_argument("--out")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("report", help="Markdown campaign report")
    p.add_argument("--store")
    p.add_argument("--out-dir", default="report")
    p.add_argument("--boundaries-dir")
    p.add_argument("--bandwidths", default=_DEFAULT_BANDWIDTHS)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _warn(f"error: {exc}")
        return 2
    except DataFormatError as exc:
        _warn(f"data error: {exc}")
        return 3
    except InfeasibleSearchError as exc:
        _warn(f"infeasible: {exc}")
        return 4
    except PpressError as exc:
        _warn(f"failure: {exc}")
        return 1
    except OSError as exc:
        _warn(f"data error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
