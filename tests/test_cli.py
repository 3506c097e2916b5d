import csv
import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from ppress.campaign import EvaluationRecord, RecordStore, run_campaign
from ppress.campaign_file import load_campaign_file
from ppress.cli import main
from ppress.reducers import Method, Mode, ReducerConfig


def write_dataset_csv(path, n=240, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = x @ np.array([1.5, -2.0, 0.7, 0.2]) + 0.05 * rng.normal(size=n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c", "d", "y"])
        for row, target in zip(x, y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def write_campaign(tmp_path, methods, tau=0.5, n_candidates=3, max_iters=5,
                   eta=5e-3, name="campaign.yaml"):
    data = tmp_path / "data.csv"
    if not data.exists():
        write_dataset_csv(data)
    doc = {
        "version": 1,
        "seed": 0,
        "dataset": {
            "path": "data.csv",
            "format": "csv",
            "split": {"train_fraction": 0.5, "seed": 0},
        },
        "apps": [
            {"id": "ridge", "kind": "ridge_regression", "metric": "r2", "target": "y"}
        ],
        "methods": methods,
        "search": {
            "tau": tau,
            "n_candidates": n_candidates,
            "eta": eta,
            "max_iters": max_iters,
        },
        "output": {"store": "records.jsonl", "cache": "cache", "report_dir": "report"},
    }
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_stats_writes_tables(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "flat"])
        for i in range(20):
            w.writerow([i * 0.5, 100.0 - i, 7.0])
    out = tmp_path / "out"
    assert main(["stats", str(data), "--out-dir", str(out)]) == 0
    stats_rows = (out / "stats.csv").read_text().strip().splitlines()
    assert len(stats_rows) == 4  # header + 3 columns
    with open(out / "range_histogram.csv") as fh:
        hist_rows = list(csv.DictReader(fh))
    total = sum(int(r["count"]) for r in hist_rows)
    assert total == 3
    assert hist_rows[0]["bin"] == "zero" and hist_rows[0]["count"] == "1"
    assert "zero-range columns: 1" in capsys.readouterr().out


def test_stats_missing_file_is_data_error(tmp_path):
    assert main(["stats", str(tmp_path / "nope.csv")]) == 3


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_eval_explicit_configs_and_cache(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [
            {"method": "none"},
            {"method": "lossless"},
            {"method": "eblc_pred", "mode": "rel", "bound": 1e-4},
        ],
    )
    assert main(["eval", str(campaign)]) == 0
    first = RecordStore(tmp_path / "records.jsonl").load()
    assert len(first) == 3
    assert all(r.ok for r in first)
    assert {r.config["method"] for r in first} == {"none", "lossless", "eblc_pred"}
    capsys.readouterr()

    assert main(["eval", str(campaign)]) == 0
    out = capsys.readouterr().out
    assert out.count("(cached)") == 3
    again = RecordStore(tmp_path / "records.jsonl").load()
    assert len(again) == 6
    assert [r.content_key() for r in again[3:]] == [r.content_key() for r in first]

    # bypassing the cache recomputes but agrees on every non-timing field
    assert main(["eval", str(campaign), "--no-cache"]) == 0
    fresh = RecordStore(tmp_path / "records.jsonl").load()[6:]
    assert [r.content_key() for r in fresh] == [r.content_key() for r in first]
    assert not any(r.cached for r in fresh)


def test_eval_with_only_domains_is_a_noop(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_pred", "mode": "rel", "bound_min": 1e-8, "bound_max": 1e-1}],
    )
    assert main(["eval", str(campaign)]) == 0
    assert not (tmp_path / "records.jsonl").exists()
    assert "nothing to evaluate" in capsys.readouterr().out


def test_search_end_to_end(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [
            {"method": "lossless"},
            {
                "method": "eblc_pred",
                "mode": "rel",
                "bound_min": 1e-8,
                "bound_max": 0.5,
            },
        ],
    )
    assert main(["search", str(campaign)]) == 0
    out = capsys.readouterr().out
    assert "baseline r2=" in out
    assert "upper=" in out and "lower=" in out
    records = RecordStore(tmp_path / "records.jsonl").load()
    assert records and all(r.ok for r in records)
    boundaries = json.loads((tmp_path / "report" / "boundaries.json").read_text())
    (entry,) = boundaries.values()
    assert not entry["infeasible"]
    assert len(entry["candidates"]) == 3
    assert entry["candidates"][0] >= entry["candidates"][-1]
    assert entry["upper_bound"] == entry["candidates"][-1]
    assert entry["lower_bound"] == entry["candidates"][0]
    # each search's probes, as [bound, quality, ratio] from the stored records
    scored = {r.config["c"][0]: [r.psi, r.ratio] for r in records if r.config["c"]}
    for side in ("upper", "lower"):
        probes = entry[f"{side}_probes"]
        assert [p[1:] for p in probes] == [scored[p[0]] for p in probes]
        assert entry[f"{side}_bound"] in [p[0] for p in probes]
    assert [p[0] for p in entry["upper_probes"][:2]] == [0.5, 1e-8]


def test_search_infeasible_exit_code(tmp_path):
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_pred", "mode": "rel", "bound_min": 1e-8, "bound_max": 0.5}],
        tau=2.0,  # r-squared can never exceed 1
    )
    assert main(["search", str(campaign)]) == 4
    boundaries = json.loads((tmp_path / "report" / "boundaries.json").read_text())
    (entry,) = boundaries.values()
    assert entry["infeasible"]


def test_search_reports_the_domains_of_a_failed_baseline_infeasible(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_pred", "mode": "rel", "bound_min": 1e-8, "bound_max": 0.5}],
    )
    doc = yaml.safe_load(campaign.read_text())
    broken = {"id": "broken", "kind": "ridge_regression", "metric": "r2", "target": "nope"}
    doc["apps"].insert(0, broken)
    campaign.write_text(yaml.safe_dump(doc))
    assert main(["search", str(campaign)]) == 0
    cause = "(DataFormatError: no column named 'nope')"
    assert f"broken: baseline failed: baseline evaluation failed for every replicate {cause}" \
        in capsys.readouterr().err
    boundaries = json.loads((tmp_path / "report" / "boundaries.json").read_text())
    # the cause reaches the report, not only the stored records
    assert boundaries["broken/eblc_pred:rel:by_column"] == {
        "infeasible": True, "reason": f"baseline evaluation failed for every replicate {cause}"
    }
    assert not boundaries["ridge/eblc_pred:rel:by_column"]["infeasible"]

    # with only the broken application every entry is infeasible
    doc["apps"] = [broken]
    campaign.write_text(yaml.safe_dump(doc))
    assert main(["search", str(campaign)]) == 4


def test_search_is_run_campaign(tmp_path):
    campaign = write_campaign(
        tmp_path,
        [
            {"method": "lossless"},
            {"method": "eblc_pred", "mode": "rel", "bound_min": 1e-8, "bound_max": 0.5},
            {"method": "none"},
            {"method": "eblc_bitplane", "mode": "acc", "bound_min": 1e-6, "bound_max": 10.0},
        ],
    )
    assert main(["search", str(campaign)]) == 0
    stored = RecordStore(tmp_path / "records.jsonl").load()
    plan = load_campaign_file(campaign)
    direct = run_campaign(plan.pair, plan.apps, plan.methods, plan.spec)
    assert [r.content_key() for r in stored] == [r.content_key() for r in direct]


def test_search_keeps_domains_with_the_same_method_apart(tmp_path, capsys):
    domain = {"method": "eblc_bitplane", "mode": "acc"}
    campaign = write_campaign(
        tmp_path,
        [
            {**domain, "bound_min": 1e-6, "bound_max": 10.0},
            {**domain, "bound_min": 1e-5, "bound_max": 1.0},
        ],
    )
    assert main(["search", str(campaign)]) == 0
    out = capsys.readouterr().out
    boundaries = json.loads((tmp_path / "report" / "boundaries.json").read_text())
    keys = ["ridge/eblc_bitplane:acc:by_column#0", "ridge/eblc_bitplane:acc:by_column#1"]
    assert sorted(boundaries) == keys
    for key in keys:
        entry = boundaries[key]
        assert not entry["infeasible"]
        assert f"{key}: upper={entry['upper_bound']:g} " in out


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["methods"][0].update(method="truncx"),
        lambda doc: doc["methods"][0].update(mode="relative"),
        lambda doc: doc["methods"][0].update(layout="diagonal"),
        lambda doc: doc["apps"][0].update(kind="svm"),
        lambda doc: doc["search"].update(tau="abc"),
        lambda doc: doc.update(apps=[5]),
        lambda doc: doc.update(output=5),
        lambda doc: doc["dataset"].update(split=5),
        lambda doc: doc["methods"][0].update(mode="pw_rel", bound_min=1e-3, bound_max=2.0),
        lambda doc: doc["methods"].append(
            {"method": "eblc_bitplane", "mode": "prec", "bound": 2.5}
        ),
        lambda doc: doc["methods"].append(
            {"method": "eblc_bitplane", "mode": "prec", "bound_min": 4.5, "bound_max": 32}
        ),
        lambda doc: doc["methods"].append({"method": "sample_naive", "bound": math.inf}),
    ],
    ids=["method", "mode", "layout", "app_kind", "tau", "app_entry", "output", "split",
         "pw_rel_max", "prec_fraction", "prec_domain_fraction", "naive_stride_inf"],
)
def test_search_bad_campaign_value_is_config_error(tmp_path, capsys, edit):
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_pred", "mode": "rel", "bound_min": 1e-8, "bound_max": 0.5}],
    )
    doc = yaml.safe_load(campaign.read_text())
    edit(doc)
    campaign.write_text(yaml.safe_dump(doc))
    assert main(["search", str(campaign)]) == 2
    assert f"error: {campaign}: " in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_search_rate_domain_past_the_value_width_is_config_error(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_bitplane", "mode": "rate", "bound_min": 1, "bound_max": 100,
          "scale": "linear"}],
    )
    assert main(["search", str(campaign)]) == 2
    assert "past the 64-bit values" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_search_domain_with_an_infinite_end_is_config_error(tmp_path, capsys):
    # .inf loads as a float; no bound may be infinite, so the file is refused
    campaign = write_campaign(
        tmp_path,
        [{"method": "eblc_bitplane", "mode": "acc", "bound_min": 1e-3, "bound_max": math.inf}],
    )
    assert "bound_max: .inf" in campaign.read_text()
    assert main(["search", str(campaign)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def test_pareto_from_store(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [
            {"method": "none"},
            {"method": "lossless"},
            {"method": "eblc_pred", "mode": "rel", "bound": 1e-4},
            {"method": "eblc_pred", "mode": "rel", "bound": 1e-2},
        ],
    )
    assert main(["eval", str(campaign)]) == 0
    store = str(tmp_path / "records.jsonl")
    out = tmp_path / "fronts"
    assert main(["pareto", "--store", store, "--out-dir", str(out)]) == 0
    front_rows = (out / "front_global_ridge.csv").read_text().strip().splitlines()
    assert front_rows[0] == "method,bound,cr,q,record_id"
    assert len(front_rows) >= 2
    assert (out / "front_methods_ridge.csv").exists()
    svg = (out / "scatter_ridge.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


# (method, mode, bound, ratio, r2) of a fixed store: two methods, each with
# a front of its own, and one bit-plane point that the global front drops
GOLDEN_POINTS = [
    ("eblc_pred", "rel", 1e-4, 3.5, 0.99),
    ("eblc_pred", "rel", 1e-3, 6.25, 0.97),
    ("eblc_pred", "rel", 1e-2, 12.0, 0.8),
    ("eblc_bitplane", "acc", 1e-3, 5.0, 0.985),
    ("eblc_bitplane", "acc", 1e-2, 9.0, 0.75),
]


def write_golden_store(path):
    store = RecordStore(path)
    for i, (method, mode, bound, ratio, psi) in enumerate(GOLDEN_POINTS):
        store.append(EvaluationRecord(
            record_id=hashlib.sha256(str(i).encode()).hexdigest(), dataset_id="d" * 64,
            app_id="ridge", config=ReducerConfig(Method(method), Mode(mode), (bound,)).to_dict(),
            compress_target="both", seed=0, ok=True, error=None, ratio=ratio,
            compress_mbps=100.0, decompress_mbps=250.0 * (i + 1), psi=psi, metric="r2",
            direction="higher_better", report={"train": {"psnr_db": 90.0 - 10 * i}},
            t_compress=0.0, t_decompress=0.0, t_app=0.0, timestamp=0.0,
        ))
    return path


R = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(len(GOLDEN_POINTS))]


def test_pareto_outputs_match_golden_bytes(tmp_path):
    store = write_golden_store(tmp_path / "records.jsonl")
    out = tmp_path / "fronts"
    assert main(["pareto", "--store", str(store), "--out-dir", str(out)]) == 0
    assert (out / "front_global_ridge.csv").read_text() == (
        "method,bound,cr,q,record_id\n"
        f"eblc_pred,0.0001,3.5,0.99,{R[0]}\n"
        f"eblc_bitplane,0.001,5.0,0.985,{R[3]}\n"
        f"eblc_pred,0.001,6.25,0.97,{R[1]}\n"
        f"eblc_pred,0.01,12.0,0.8,{R[2]}\n"
    )
    assert (out / "front_methods_ridge.csv").read_text() == (
        "method,bound,cr,q,record_id\n"
        f"eblc_bitplane,0.001,5.0,0.985,{R[3]}\n"
        f"eblc_bitplane,0.01,9.0,0.75,{R[4]}\n"
        f"eblc_pred,0.0001,3.5,0.99,{R[0]}\n"
        f"eblc_pred,0.001,6.25,0.97,{R[1]}\n"
        f"eblc_pred,0.01,12.0,0.8,{R[2]}\n"
    )
    svg = (out / "scatter_ridge.svg").read_bytes()
    assert hashlib.sha256(svg).hexdigest() == (
        "783cde0711271c8a2c2aa63f5ca53614c7bb6d2562ff6717097189c2ee441450"
    )


@pytest.mark.parametrize("command", ["eval", "search"])
def test_campaign_command_help_matches_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    pad = " " * len(f"usage: ppress {command} ")
    assert capsys.readouterr().out == (
        f"usage: ppress {command} [-h] [--store STORE] [--cache-dir CACHE_DIR] [--no-cache]\n"
        f"{pad}campaign\n"
        "\n"
        "positional arguments:\n"
        "  campaign\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --store STORE\n"
        "  --cache-dir CACHE_DIR\n"
        "  --no-cache\n"
    )


def test_pareto_empty_store_is_data_error(tmp_path):
    assert main(["pareto", "--store", str(tmp_path / "none.jsonl")]) == 3


def test_store_env_var_fallback(tmp_path, monkeypatch):
    campaign = write_campaign(
        tmp_path, [{"method": "eblc_pred", "mode": "rel", "bound": 1e-4}]
    )
    assert main(["eval", str(campaign)]) == 0
    monkeypatch.setenv("PPRESS_STORE", str(tmp_path / "records.jsonl"))
    out = tmp_path / "fronts"
    assert main(["pareto", "--out-dir", str(out)]) == 0
    assert (out / "front_global_ridge.csv").exists()


def test_speedup_from_csv(tmp_path, capsys):
    table = tmp_path / "inputs.csv"
    table.write_text(
        "label,ratio,decompress_gbps\n1e-3,1476.6,1.44\n1e-4,201.5,1.28\n"
    )
    out = tmp_path / "cores.csv"
    code = main([
        "speedup", "--csv", str(table),
        "--bandwidths", "3.75,1.0,0.125", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "GB/s" in text
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("label,psnr_db,ratio,decompress_gbps,cores_at_3.75GBps")
    first = rows[1].split(",")
    # slower links need fewer decompression cores to keep up
    assert first[-3:] == ["3", "1", "1"]


def test_speedup_csv_header_is_the_first_non_blank_line(tmp_path, capsys):
    table = tmp_path / "inputs.csv"
    table.write_text("\n  \nlabel,ratio,decompress_gbps\na,10,1\n")
    out = tmp_path / "cores.csv"
    assert main(["speedup", "--csv", str(table), "--bandwidths", "1", "--out", str(out)]) == 0
    assert out.read_text() == "label,psnr_db,ratio,decompress_gbps,cores_at_1GBps\na,,10,1,2\n"


def test_speedup_rejects_bad_bandwidths(tmp_path):
    table = tmp_path / "inputs.csv"
    table.write_text("label,ratio,decompress_gbps\nx,2.0,1.0\n")
    assert main(["speedup", "--csv", str(table), "--bandwidths", "0"]) == 2
    assert main(["speedup", "--csv", str(table), "--bandwidths", "abc"]) == 2


def test_speedup_from_store(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path, [{"method": "eblc_pred", "mode": "rel", "bound": 1e-3}]
    )
    assert main(["eval", str(campaign)]) == 0
    code = main(["speedup", "--store", str(tmp_path / "records.jsonl")])
    assert code == 0
    assert "ratio" in capsys.readouterr().out


def test_speedup_from_store_labels_rows_by_configuration(tmp_path, capsys):
    # eblc_pred rel 1e-3 and eblc_bitplane acc 1e-3 share a bound, not a row label
    store = write_golden_store(tmp_path / "records.jsonl")
    assert main(["speedup", "--store", str(store), "--out", str(tmp_path / "cores.csv")]) == 0
    with open(tmp_path / "cores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["label"] for r in rows] == [
        ReducerConfig(Method(m), Mode(mode), (bound,)).label()
        for m, mode, bound, _, _ in GOLDEN_POINTS
    ]
    assert rows[1]["label"] == "eblc_pred:rel:0.001:by_column"


def test_speedup_from_store_gives_each_configuration_one_row(tmp_path):
    # the first golden configuration scored three times (say by search, then
    # by eval, then for a second application), once more on the training
    # part alone, and once on another dataset pair
    store = write_golden_store(tmp_path / "records.jsonl")
    first = RecordStore(store).load()[0]
    for mbps, target, dataset in ((1000.0, "both", first.dataset_id),
                                  (9000.0, "both", first.dataset_id),
                                  (500.0, "train", first.dataset_id),
                                  (800.0, "both", "e" * 64)):
        RecordStore(store).append(replace(first, decompress_mbps=mbps, compress_target=target,
                                          dataset_id=dataset,
                                          ratio=2.0 if target == "train" else first.ratio))
    out = tmp_path / "cores.csv"
    assert main(["speedup", "--store", str(store), "--bandwidths", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    labels = [r["label"] for r in rows]
    plain = [
        ReducerConfig(Method(m), Mode(mode), (bound,)).label()
        for m, mode, bound, _, _ in GOLDEN_POINTS
    ]
    assert labels[1:5] == plain[1:]
    # another compress target or dataset pair is another row, and the label
    # that the three rows would share names both
    assert labels[:1] + labels[5:] == [
        f"{plain[0]}@both:dddddddd", f"{plain[0]}@train:dddddddd", f"{plain[0]}@both:eeeeeeee"
    ]
    # the median of 250, 1000 and 9000 MB/s; the ratio and PSNR are shared
    assert (rows[0]["decompress_gbps"], rows[0]["ratio"], rows[0]["psnr_db"]) == ("1", "3.5", "90.00")
    assert (rows[5]["decompress_gbps"], rows[5]["ratio"]) == ("0.5", "2")
    assert rows[6]["decompress_gbps"] == "0.8"


def test_report_sections_and_determinism(tmp_path, capsys):
    campaign = write_campaign(
        tmp_path,
        [
            {"method": "none"},
            {
                "method": "eblc_pred",
                "mode": "rel",
                "bound_min": 1e-8,
                "bound_max": 0.5,
            },
        ],
    )
    assert main(["search", str(campaign)]) == 0
    store = str(tmp_path / "records.jsonl")
    out = tmp_path / "report"
    assert main(["report", "--store", store, "--out-dir", str(out)]) == 0
    text = (out / "report.md").read_text()
    for heading in (
        "# Campaign report",
        "## Baseline quality",
        "## Search boundaries",
        "## Pareto fronts",
        "## Core requirements",
    ):
        assert heading in text
    assert "| ridge |" in text

    first = [l for l in text.splitlines() if not l.startswith("generated:")]
    assert main(["report", "--store", store, "--out-dir", str(out)]) == 0
    second_text = (out / "report.md").read_text()
    second = [l for l in second_text.splitlines() if not l.startswith("generated:")]
    assert first == second

    # front table in the report matches the pareto command's CSV
    fronts = tmp_path / "fronts"
    assert main(["pareto", "--store", store, "--out-dir", str(fronts)]) == 0
    csv_rows = (fronts / "front_global_ridge.csv").read_text().strip().splitlines()
    front_rows_in_report = [
        l for l in second_text.split("## Pareto fronts")[1].split("## Core")[0].splitlines()
        if l.startswith("|") and not l.startswith("| method") and not l.startswith("|---")
    ]
    assert len(front_rows_in_report) == len(csv_rows) - 1



def test_report_alone_writes_every_file_it_links(tmp_path):
    campaign = write_campaign(
        tmp_path, [{"method": "none"}, {"method": "eblc_pred", "mode": "rel", "bound": 1e-3}]
    )
    assert main(["eval", str(campaign)]) == 0
    out = tmp_path / "fresh"
    assert main(["report", "--store", str(tmp_path / "records.jsonl"),
                 "--out-dir", str(out)]) == 0
    links = re.findall(r"\]\(([^)]+)\)", (out / "report.md").read_text())
    assert links == ["scatter_ridge.svg"]
    assert all((out / link).is_file() for link in links)

def test_report_without_store_or_env(tmp_path, monkeypatch):
    monkeypatch.delenv("PPRESS_STORE", raising=False)
    assert main(["report", "--out-dir", str(tmp_path)]) == 2
