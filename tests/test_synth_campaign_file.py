import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from ppress.campaign import SearchDomain
from ppress.campaign_file import SECTION_KEYS, load_campaign_file
from ppress.errors import ConfigError
from ppress.reducers import Method, Mode, ReducerConfig
from ppress.synth import make_cluster_labels, make_latent_tabular
from ppress.tabular import save_raw_with_descriptor


def test_latent_tabular_shape_and_determinism():
    ds = make_latent_tabular(n_obs=500, n_feat=12, seed=9)
    assert ds.n_obs == 500 and ds.n_feat == 12
    again = make_latent_tabular(n_obs=500, n_feat=12, seed=9)
    assert np.array_equal(ds.values, again.values)
    other = make_latent_tabular(n_obs=500, n_feat=12, seed=10)
    assert not np.array_equal(ds.values, other.values)


def test_latent_tabular_scales_span_decades():
    ds = make_latent_tabular(n_obs=4000, n_feat=20, scale_decades=4.0, seed=1)
    stds = ds.values.std(axis=0)
    spread = stds[-1] / stds[0]
    assert 3.0e3 < spread < 3.0e4  # four decades within sampling noise


def test_latent_tabular_is_low_rank():
    ds = make_latent_tabular(n_obs=2000, n_feat=30, rank=5, noise=0.05, seed=2)
    normalized = ds.values / ds.values.std(axis=0)
    s = np.linalg.svd(normalized, compute_uv=False)
    assert s[5] / s[0] < 0.1  # energy concentrates in the first five directions


def test_latent_tabular_validation():
    with pytest.raises(ConfigError):
        make_latent_tabular(n_feat=4, rank=5)
    with pytest.raises(ConfigError):
        make_latent_tabular(rank=0)
    with pytest.raises(ConfigError):
        make_latent_tabular(n_obs=1)
    with pytest.raises(ConfigError):
        make_latent_tabular(noise=-0.1)
    with pytest.raises(ConfigError):
        make_latent_tabular(row_corr=1.0)
    with pytest.raises(ConfigError):
        make_latent_tabular(row_corr=-0.2)


def test_latent_tabular_row_correlation():
    smooth = make_latent_tabular(n_obs=4000, n_feat=10, seed=3, row_corr=0.95)
    rough = make_latent_tabular(n_obs=4000, n_feat=10, seed=3, row_corr=0.0)

    def lag1(v):
        a, b = v[:-1], v[1:]
        a = a - a.mean()
        b = b - b.mean()
        return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))

    col = smooth.values[:, 0] / smooth.values[:, 0].std()
    assert lag1(col) > 0.8  # adjacent rows track each other
    assert abs(lag1(rough.values[:, 0])) < 0.1
    # ordering is the only difference: marginal spread stays comparable
    assert 0.5 < smooth.values[:, 0].std() / rough.values[:, 0].std() < 2.0
    again = make_latent_tabular(n_obs=4000, n_feat=10, seed=3, row_corr=0.95)
    assert np.array_equal(smooth.values, again.values)


def test_cluster_labels_structure():
    ds = make_cluster_labels(n_obs=300, n_feat=5, n_classes=3, seed=4)
    assert ds.names[-1] == "label"
    labels = ds.values[:, -1]
    assert np.array_equal(labels, np.round(labels))
    assert set(np.unique(labels)) == {0.0, 1.0, 2.0}
    again = make_cluster_labels(n_obs=300, n_feat=5, n_classes=3, seed=4)
    assert np.array_equal(ds.values, again.values)
    with pytest.raises(ConfigError):
        make_cluster_labels(n_classes=1)


def campaign_doc(**overrides):
    doc = {
        "version": 1,
        "seed": 7,
        "dataset": {
            "path": "data.csv",
            "format": "csv",
            "split": {"train_fraction": 0.5, "seed": 1},
        },
        "apps": [
            {
                "id": "ridge",
                "kind": "ridge_regression",
                "metric": {"name": "r2", "params": {"definition": "pearson"}},
                "target": "y",
            }
        ],
        "methods": [
            {"method": "none"},
            {"method": "lossless", "knobs": {"delta_order": 1}},
            {"method": "trunc", "c": [32]},
            {"method": "eblc_pred", "mode": "rel", "bound": 1e-4},
            {
                "method": "eblc_pred",
                "mode": "rel",
                "bound_min": 1e-8,
                "bound_max": 1e-1,
                "scale": "log10",
                "layout": "by_column",
            },
        ],
        "search": {"tau": 0.7, "n_candidates": 8, "eta": 1e-3},
        "output": {"store": "out/records.jsonl", "cache": "out/cache"},
        "compress_target": "both",
    }
    doc.update(overrides)
    return doc


def write_campaign(tmp_path, doc):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80, 3))
    y = x @ np.array([1.0, 2.0, -1.0])
    lines = ["a,b,c,y"]
    for row, t in zip(x, y):
        lines.append(",".join(repr(float(v)) for v in [*row, t]))
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    path = tmp_path / "campaign.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_load_campaign_file_full(tmp_path):
    plan = load_campaign_file(write_campaign(tmp_path, campaign_doc()))
    assert plan.pair.train.n_obs == 40 and plan.pair.validation.n_obs == 40
    assert [a.id for a in plan.apps] == ["ridge"]
    assert plan.apps[0].seed == 7  # the global seed flows into apps
    assert plan.apps[0].metric.params == {"definition": "pearson"}
    kinds = [type(m) for m in plan.methods]
    assert kinds == [ReducerConfig] * 4 + [SearchDomain]
    assert plan.methods[1].knobs.delta_order == 1
    assert plan.methods[2].c == (32.0,)
    assert plan.methods[3].bound == 1e-4
    domain = plan.methods[4]
    assert domain.bound_min == 1e-8 and domain.bound_max == 1e-1
    assert plan.spec.tau == 0.7 and plan.spec.n_candidates == 8
    assert plan.spec.max_iters == 30  # default fills in
    assert plan.store_path == tmp_path / "out" / "records.jsonl"
    assert plan.cache_dir == tmp_path / "out" / "cache"
    assert plan.report_dir == tmp_path / "report"
    assert plan.compress_target == "both"


def test_load_campaign_raw_dataset(tmp_path):
    ds = make_latent_tabular(n_obs=60, n_feat=4, rank=2, seed=3)
    save_raw_with_descriptor(ds, tmp_path / "data.bin")
    doc = campaign_doc()
    doc["dataset"] = {"path": "data.bin", "format": "raw"}
    doc["apps"][0]["target"] = "c3"
    path = tmp_path / "campaign.yaml"
    path.write_text(yaml.safe_dump(doc))
    plan = load_campaign_file(path)
    assert plan.pair.train.n_obs + plan.pair.validation.n_obs == 60


def test_campaign_file_rejects_wrong_version(tmp_path):
    with pytest.raises(ConfigError, match="version"):
        load_campaign_file(write_campaign(tmp_path, campaign_doc(version=2)))


def test_campaign_file_rejects_missing_paths(tmp_path):
    doc = campaign_doc()
    doc["dataset"]["path"] = "absent.csv"
    with pytest.raises(ConfigError, match="does not exist"):
        load_campaign_file(write_campaign(tmp_path, doc))
    with pytest.raises(ConfigError, match="does not exist"):
        load_campaign_file(tmp_path / "missing.yaml")


def test_campaign_file_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("version: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_campaign_file(path)
    path.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_campaign_file(path)


def test_campaign_file_rejects_unknown_knob(tmp_path):
    # `codec` selected the lossless backend before zlib became the only one;
    # the last three became constants of the format
    for knob in ("not_a_knob", "codec", "quant_bin_cap", "block_size", "pw_rel_zero_floor"):
        doc = campaign_doc()
        doc["methods"] = [{"method": "lossless", "knobs": {knob: 1}}]
        with pytest.raises(ConfigError, match="unknown knobs"):
            load_campaign_file(write_campaign(tmp_path, doc))


def test_campaign_file_rejects_empty_sections(tmp_path):
    with pytest.raises(ConfigError, match="apps"):
        load_campaign_file(write_campaign(tmp_path, campaign_doc(apps=[])))
    with pytest.raises(ConfigError, match="methods"):
        load_campaign_file(write_campaign(tmp_path, campaign_doc(methods=[])))
    doc = campaign_doc(compress_target="sideways")
    with pytest.raises(ConfigError, match="compress_target"):
        load_campaign_file(write_campaign(tmp_path, doc))


def test_campaign_file_rejects_apps_that_share_an_id(tmp_path):
    app = campaign_doc()["apps"][0]
    doc = campaign_doc(apps=[app, {**app, "target": "a"}])
    with pytest.raises(ConfigError, match="ridge"):
        load_campaign_file(write_campaign(tmp_path, doc))


@pytest.mark.parametrize("entry", [
    {"bound": 0.1, "bound_min": 1e-6, "bound_max": 0.5},
    {"bound": 0.1, "c": [0.2]},
    {"c": [0.2], "bound_max": 0.5},
])
def test_campaign_file_rejects_a_method_with_two_bound_forms(tmp_path, entry):
    doc = campaign_doc(methods=[{"method": "eblc_pred", "mode": "rel", **entry}])
    with pytest.raises(ConfigError, match="methods\\[0\\]: .*only one of"):
        load_campaign_file(write_campaign(tmp_path, doc))


def test_campaign_file_rejects_settings_its_entry_does_not_use(tmp_path):
    doc = campaign_doc(methods=[{"method": "eblc_pred", "mode": "rel", "bound": 0.1,
                                 "scale": "linear"}])
    with pytest.raises(ConfigError, match="scale applies only"):
        load_campaign_file(write_campaign(tmp_path, doc))
    save_raw_with_descriptor(make_latent_tabular(n_obs=60, n_feat=4, rank=2, seed=3),
                             tmp_path / "data.bin")
    doc = campaign_doc(dataset={"path": "data.bin", "format": "raw", "dtype": "f32"})
    with pytest.raises(ConfigError, match="are for csv"):
        load_campaign_file(write_campaign(tmp_path, doc))


def test_campaign_file_rejects_a_misspelt_key_in_every_section(tmp_path):
    def edit(section, doc):
        if section == "top level":
            return doc
        if section == "dataset.split":
            return doc["dataset"]["split"]
        if section == "apps.metric":
            return doc["apps"][0]["metric"]
        if section in ("apps", "methods"):
            return doc[section][0]
        return doc[section]

    for section, typo in [
        ("top level", "serach"), ("dataset", "formt"), ("dataset.split", "sed"),
        ("apps", "tagret"), ("apps.metric", "parms"), ("methods", "layuot"),
        ("search", "n_candiates"), ("output", "stor"),
    ]:
        doc = campaign_doc()
        edit(section, doc)[typo] = "matrix"
        with pytest.raises(ConfigError, match=f"unknown keys \\['{typo}'\\]"):
            load_campaign_file(write_campaign(tmp_path, doc))


def test_campaign_doc_lists_exactly_the_accepted_keys():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "campaign_schema.md").read_text()
    sections = {part.split("\n", 1)[0].strip("` "): part for part in doc.split("\n## ")[1:]}

    def example(name):  # the section's YAML example, as a list of entries
        block = sections[name].split("```yaml\n", 1)[1].split("```", 1)[0]
        value = yaml.safe_load(block)[name]
        return value if isinstance(value, list) else [value]

    def keys(entries):
        return {key for entry in entries for key in entry}

    listed = {
        "top level": set(re.findall(r"^\| `(\w+)` ", sections["Top-level fields"], re.MULTILINE)),
        **{name: keys(example(name))
           for name in ("dataset", "apps", "methods", "search", "output")},
        "dataset.split": keys(d["split"] for d in example("dataset")),
        "apps.metric": keys(a["metric"] for a in example("apps") if isinstance(a["metric"], dict)),
    }
    assert listed == {name: set(accepted) for name, accepted in SECTION_KEYS.items()}
