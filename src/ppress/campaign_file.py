"""Campaign definition files: a YAML document describing a whole run.

Schema version 1; the full field reference ships in docs/campaign_schema.md.
Relative paths inside the file resolve against the file's own directory, so a
campaign directory can be moved as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .campaign import DatasetPair, SearchDomain, SearchSpec, require_distinct_app_ids
from .errors import ConfigError
from .quality import Application, AppKind, MetricSpec
from .reducers import Layout, Method, Mode, ReducerConfig, ReducerKnobs
from .tabular import Dataset, SplitSpec, load_csv, load_raw_with_descriptor, split

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CampaignPlan:
    """A fully loaded campaign: data in memory, every knob resolved."""

    pair: DatasetPair
    apps: tuple[Application, ...]
    methods: tuple[SearchDomain | ReducerConfig, ...]
    spec: SearchSpec
    store_path: Path
    cache_dir: Path | None
    report_dir: Path
    compress_target: str


# the keys each section accepts, as docs/campaign_schema.md lists them
SECTION_KEYS = {
    "top level": ("version", "dataset", "apps", "methods", "search", "output",
                  "compress_target", "seed"),
    "dataset": ("path", "format", "header", "dtype", "split"),
    "dataset.split": ("train_fraction", "seed", "shuffled"),
    "apps": ("id", "kind", "metric", "target", "command", "seed", "params", "timeout_s"),
    "apps.metric": ("name", "params"),
    "methods": ("method", "mode", "layout", "bound", "c", "bound_min", "bound_max",
                "scale", "knobs"),
    "search": ("tau", "n_candidates", "eta", "max_iters", "replicates"),
    "output": ("store", "cache", "report_dir"),
}


def _mapping(value, section: str, where: str | None = None) -> dict:
    """value, if it is a mapping that holds only keys of `section`; errors
    name `where` (the section itself by default)."""
    where = where or section
    if not isinstance(value, dict):
        raise TypeError(f"{where} must be a mapping, not {type(value).__name__}")
    unknown = set(value) - set(SECTION_KEYS[section])
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return value


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _load_dataset(section: dict, base: Path) -> Dataset:
    where = "dataset"
    path = base / _require(section, "path", where)
    if not path.exists():
        raise ConfigError(f"{where}: path {path} does not exist")
    fmt = section.get("format", "csv")
    if fmt == "csv":
        return load_csv(
            path,
            header=bool(section.get("header", True)),
            dtype=section.get("dtype", "f64"),
        )
    if fmt == "raw":
        if "header" in section or "dtype" in section:
            raise ConfigError(f"{where}: header and dtype are for csv; a raw .desc sets them")
        desc = Path(str(path) + ".desc")
        if not desc.exists():
            raise ConfigError(f"{where}: descriptor {desc} does not exist")
        return load_raw_with_descriptor(path)
    raise ConfigError(f"{where}: unknown format {fmt!r}")


def _build_pair(section: dict, base: Path, default_seed: int) -> DatasetPair:
    ds = _load_dataset(_mapping(section, "dataset"), base)
    split_cfg = _mapping(section.get("split", {}) or {}, "dataset.split")
    spec = SplitSpec(
        train_fraction=float(split_cfg.get("train_fraction", 0.5)),
        seed=int(split_cfg.get("seed", default_seed)),
        shuffled=bool(split_cfg.get("shuffled", True)),
    )
    train, validation = split(ds, spec)
    return DatasetPair(train, validation)


def _build_app(entry: dict, default_seed: int, index: int) -> Application:
    where = f"apps[{index}]"
    entry = _mapping(entry, "apps", where)
    metric = entry.get("metric")
    if isinstance(metric, str):
        metric_spec = MetricSpec(metric)
    elif isinstance(metric, dict):
        metric = _mapping(metric, "apps.metric", f"{where}.metric")
        metric_spec = MetricSpec(
            _require(metric, "name", f"{where}.metric"), metric.get("params", {}) or {}
        )
    else:
        raise ConfigError(f"{where}: metric must be a name or a mapping")
    return Application(
        id=str(_require(entry, "id", where)),
        kind=AppKind(_require(entry, "kind", where)),
        metric=metric_spec,
        target=entry.get("target"),
        command=entry.get("command"),
        seed=int(entry.get("seed", default_seed)),
        params=entry.get("params", {}) or {},
        timeout_s=float(entry.get("timeout_s", 120.0)),
    )


def _build_method(entry: dict, index: int) -> SearchDomain | ReducerConfig:
    where = f"methods[{index}]"
    entry = _mapping(entry, "methods", where)
    method = Method(_require(entry, "method", where))
    mode = Mode(entry.get("mode", "none"))
    layout = Layout(entry.get("layout", "by_column"))
    knobs = ReducerKnobs.from_dict(entry.get("knobs", {}) or {}, where)
    domain = "bound_min" in entry or "bound_max" in entry
    if ("bound" in entry) + ("c" in entry) + domain > 1:
        raise ConfigError(f"{where}: set only one of bound, c, or bound_min/bound_max")
    if "scale" in entry and not domain:
        raise ConfigError(f"{where}: scale applies only to a bound_min/bound_max domain")
    if domain:
        return SearchDomain(
            method=method,
            mode=mode,
            bound_min=float(_require(entry, "bound_min", where)),
            bound_max=float(_require(entry, "bound_max", where)),
            scale=entry.get("scale", "log10"),
            layout=layout,
            knobs=knobs,
        )
    if "bound" in entry:
        c: tuple[float, ...] = (float(entry["bound"]),)
    else:
        c = tuple(float(x) for x in entry.get("c", ()) or ())
    return ReducerConfig(method=method, mode=mode, c=c, layout=layout, knobs=knobs)


def load_campaign_file(path: str | Path) -> CampaignPlan:
    """Parse and fully resolve a campaign file; all errors are ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"campaign file {path} does not exist")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    try:
        return _build_plan(_mapping(doc, "top level"), path)
    except (ValueError, TypeError, ConfigError) as exc:  # a bad enum, number or bound
        raise ConfigError(f"{path}: {exc}") from exc


def _build_plan(doc: dict, path: Path) -> CampaignPlan:
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    base = path.parent
    seed = int(doc.get("seed", 0))
    pair = _build_pair(_require(doc, "dataset", "top level"), base, seed)
    apps_raw = _require(doc, "apps", "top level")
    if not apps_raw:
        raise ConfigError("apps list is empty")
    apps = tuple(_build_app(e, seed, i) for i, e in enumerate(apps_raw))
    require_distinct_app_ids(apps)
    methods_raw = _require(doc, "methods", "top level")
    if not methods_raw:
        raise ConfigError("methods list is empty")
    methods = tuple(_build_method(e, i) for i, e in enumerate(methods_raw))
    search_raw = _mapping(_require(doc, "search", "top level"), "search")
    spec = SearchSpec(
        tau=float(_require(search_raw, "tau", "search")),
        n_candidates=int(_require(search_raw, "n_candidates", "search")),
        eta=float(search_raw.get("eta", 1e-3)),
        max_iters=int(search_raw.get("max_iters", 30)),
        replicates=int(search_raw.get("replicates", 1)),
    )
    output = _mapping(doc.get("output", {}) or {}, "output")
    cache_raw = output.get("cache")
    compress_target = doc.get("compress_target", "both")
    if compress_target not in ("train", "validation", "both"):
        raise ConfigError(f"bad compress_target {compress_target!r}")
    return CampaignPlan(
        pair=pair,
        apps=apps,
        methods=methods,
        spec=spec,
        store_path=base / output.get("store", "records.jsonl"),
        cache_dir=(base / cache_raw) if cache_raw else None,
        report_dir=base / output.get("report_dir", "report"),
        compress_target=compress_target,
    )
