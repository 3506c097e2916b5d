import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppress.campaign as campaign
from ppress import synth
from ppress.campaign import (
    BaselineMeasured,
    DatasetPair,
    DomainSearched,
    EvaluationCache,
    EvaluationRecord,
    FixedEvaluated,
    RecordStore,
    SearchDomain,
    SearchSpec,
    cache_key,
    candidate_points,
    eval_config,
    find_lower,
    find_upper,
    run_campaign,
)
from ppress.errors import ConfigError, DataFormatError, InfeasibleSearchError
from ppress.quality import Application, AppKind, MetricName, MetricSpec, run_application
from ppress.reducers import (
    Layout,
    Method,
    Mode,
    ReducerConfig,
    ReducerKnobs,
    bitplane,
    compress,
    decoder_bound,
    decompress,
    error_report,
)
from ppress.reducers.config import _MODES_FOR, canonical_json
from ppress.tabular import DTYPES, Dataset, SplitSpec, from_array, split


def linear_pair(n=160, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = x @ np.array([2.0, -1.0, 0.5]) + 0.05 * rng.normal(size=n)
    arr = np.column_stack([x, y])
    names = ("a", "b", "c", "y")
    half = n // 2
    return DatasetPair(from_array(arr[:half], names), from_array(arr[half:], names))


def ridge_app(seed=0):
    return Application(
        "ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="y", seed=seed
    )


def pred_domain(lo=1e-6, hi=1.0, **kw):
    return SearchDomain(Method.EBLC_PRED, Mode.ABS, lo, hi, **kw)


def curve(edge, phi=0.95, drop=0.4):
    # flat at phi up to the edge bound, then linear decay in log10(bound)
    def probe(bound):
        if bound <= edge:
            return phi
        return phi - drop * (math.log10(bound) - math.log10(edge))

    return probe


def test_pair_id_deterministic():
    a = linear_pair()
    b = linear_pair()
    assert a.id == b.id
    assert len(a.id) == 16
    c = linear_pair(seed=6)
    assert c.id != a.id


def test_pair_rejects_column_mismatch():
    rng = np.random.default_rng(0)
    t = from_array(rng.normal(size=(10, 3)))
    v = from_array(rng.normal(size=(10, 2)))
    with pytest.raises(ConfigError):
        DatasetPair(t, v)


def test_domain_validation():
    with pytest.raises(ConfigError):
        SearchDomain(Method.EBLC_PRED, Mode.ABS, 1.0, 1.0)
    with pytest.raises(ConfigError):
        SearchDomain(Method.EBLC_PRED, Mode.ABS, -1.0, 1.0)
    with pytest.raises(ConfigError):
        SearchDomain(Method.EBLC_PRED, Mode.ABS, 1e-6, 1.0, scale="log2")
    with pytest.raises(ConfigError):
        SearchDomain(Method.EBLC_PRED, Mode.PREC, 1e-6, 1.0)
    # naive strides are whole numbers, which neither a scan grid nor a ladder gives
    with pytest.raises(ConfigError, match="sample_naive"):
        SearchDomain(Method.SAMPLE_NAIVE, Mode.NONE, 1, 10, scale="linear")
    d = pred_domain()
    assert d.config(1e-3).bound == 1e-3
    assert not d.noisy
    assert SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.1, 0.9, scale="linear").noisy


def test_spec_validation():
    with pytest.raises(ConfigError):
        SearchSpec(tau=0.5, n_candidates=1)
    with pytest.raises(ConfigError):
        SearchSpec(tau=0.5, n_candidates=4, eta=0.0)
    with pytest.raises(ConfigError):
        SearchSpec(tau=0.5, n_candidates=4, max_iters=0)
    with pytest.raises(ConfigError):
        SearchSpec(tau=0.5, n_candidates=4, replicates=0)
    s = SearchSpec(tau=0.5, n_candidates=4)
    assert s.eta == 1e-3 and s.max_iters == 30 and s.replicates == 1


def test_eval_identity_matches_direct_run():
    pair = linear_pair()
    app = ridge_app()
    rec = eval_config(pair, app, ReducerConfig(Method.NONE))
    direct, _ = run_application(pair.train, pair.validation, app)
    assert rec.ok
    assert rec.psi == direct
    assert rec.metric == "r2"
    assert rec.direction == "higher_better"
    assert rec.report["train"]["max_abs_err"] == 0.0
    assert rec.report["validation"]["max_abs_err"] == 0.0
    assert 0.9 < rec.ratio <= 1.0  # container header makes identity slightly > raw


def test_eval_bounded_codec_respects_bound():
    pair = linear_pair()
    rec = eval_config(pair, ridge_app(), ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-3,)))
    assert rec.ok
    assert rec.ratio > 1.0
    assert rec.report["train"]["max_abs_err"] <= 1e-3
    assert rec.report["validation"]["max_abs_err"] <= 1e-3
    assert rec.psi is not None and rec.psi > 0.9
    assert rec.t_compress > 0 and rec.t_decompress > 0 and rec.t_app > 0
    assert rec.compress_mbps > 0 and rec.decompress_mbps > 0


def test_eval_train_only_target_leaves_validation_alone():
    pair = linear_pair()
    rec = eval_config(
        pair,
        ridge_app(),
        ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-3,)),
        compress_target="train",
    )
    assert rec.ok
    assert set(rec.report) == {"train"}


def test_eval_sampling_ratio_counts_rows():
    pair = linear_pair(n=160)
    config = ReducerConfig(Method.SAMPLE_WOR, Mode.NONE, (0.5,))
    rec = eval_config(pair, ridge_app(), config)
    assert rec.ok
    assert rec.ratio == pytest.approx(2.0)
    assert rec.report is None


def test_eval_failure_becomes_failed_record():
    pair = linear_pair(n=40)
    bad = Application(
        "broken",
        AppKind.EXTERNAL,
        MetricSpec(MetricName.R2),
        command=f"{sys.executable} -c 'import sys; sys.exit(3)' {{train}} {{validation}} {{seed}}",
    )
    rec = eval_config(pair, bad, ReducerConfig(Method.NONE))
    assert not rec.ok
    assert rec.psi is None
    assert "exit 3" in rec.error


def cached_eval(pair, app, config, cache_dir):
    """One evaluation against the pair's cache log in cache_dir, which it
    reads and appends to as a campaign does."""
    with EvaluationCache(cache_dir, pair) as cache:
        return eval_config(pair, app, config, cache=cache, memo=cache.memo())


def test_eval_cache_hit_and_key_sensitivity(tmp_path):
    pair = linear_pair(n=80)
    app = ridge_app()
    config = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-4,))
    first = cached_eval(pair, app, config, tmp_path)
    second = cached_eval(pair, app, config, tmp_path)
    assert not first.cached
    assert second.cached
    assert first.content_key() == second.content_key()
    assert first.record_id == second.record_id

    other = cached_eval(pair, replace(app, seed=1), config, tmp_path)
    assert not other.cached
    assert other.record_id != first.record_id
    assert cache_key(pair, app, config, "both") != cache_key(pair, app, config, "train")


def test_eval_cache_torn_entry_is_a_miss(tmp_path):
    pair = linear_pair(n=80)
    app = ridge_app()
    configs = [ReducerConfig(Method.EBLC_PRED, Mode.ABS, (b,)) for b in (1e-4, 1e-3, 1e-2)]
    first = [cached_eval(pair, app, c, tmp_path) for c in configs]
    (log,) = tmp_path.iterdir()
    lines = log.read_bytes().splitlines(keepends=True)
    assert [json.loads(line)["record_id"] for line in lines] == [r.record_id for r in first]
    # a damaged middle line, and a last line torn as a crash mid-append leaves it
    damaged = lines[0] + lines[1][:40] + b"\x80\n" + lines[2][: len(lines[2]) // 2]
    log.write_bytes(damaged)
    with pytest.warns(UserWarning, match="unreadable cache entry") as caught:
        again = [cached_eval(pair, app, c, tmp_path) for c in configs]
    assert {str(w.message).split(": ")[0].rsplit(":", 1)[1] for w in caught} == {"2", "3"}
    # each damaged line is a miss that runs again; the entries before them stay
    assert [r.cached for r in again] == [True, False, False]
    assert [r.content_key() for r in again] == [r.content_key() for r in first]
    # opening the log ended the torn line and cut nothing off
    assert log.read_bytes().startswith(damaged + b"\n")
    with pytest.warns(UserWarning, match="unreadable cache entry"):
        assert all(cached_eval(pair, app, c, tmp_path).cached for c in configs)
    assert [p.name for p in tmp_path.iterdir()] == [log.name]


def test_cache_key_covers_container_version(monkeypatch):
    from ppress.reducers import container

    pair = linear_pair(n=40)
    config = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-4,))
    before = cache_key(pair, ridge_app(), config, "both")
    monkeypatch.setattr(container, "VERSION", container.VERSION + 1)
    assert cache_key(pair, ridge_app(), config, "both") != before



def ten_column_pair(n=200, seed=31):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=(n, 10)), axis=0)
    x[:, 2] = x[:, :2] @ [1.0, -0.5] + 0.5 * rng.normal(size=n)
    x[:, 9] = x[:, 3:6] @ [0.3, 0.2, -0.7] + 2.0 * rng.normal(size=n)
    half = n // 2
    return DatasetPair(from_array(x[:half]), from_array(x[half:]))


def test_an_app_with_another_target_is_not_served_the_cached_result(tmp_path):
    # two apps that share an id but predict different columns
    pair = ten_column_pair()
    config = ReducerConfig(Method.EBLC_PRED, Mode.REL, (1e-3,))
    c2 = Application("ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="c2")
    c9 = replace(c2, target="c9")
    first = cached_eval(pair, c2, config, tmp_path)
    fresh = eval_config(pair, c9, config)
    served = cached_eval(pair, c9, config, tmp_path)
    assert first.psi != fresh.psi
    assert not served.cached and served.psi == fresh.psi
    assert cached_eval(pair, c9, config, tmp_path).cached


def test_cache_key_hashes_the_whole_application():
    pair = linear_pair(n=40)
    config = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (1e-4,))
    app = Application(
        "app", AppKind.EXTERNAL, MetricSpec(MetricName.R2), target="y",
        command="run {train} {validation} {seed}",
    )
    key = cache_key(pair, app, config, "both")
    variants = [
        replace(app, id="other"),
        replace(app, kind=AppKind.RIDGE_REGRESSION, command=None),
        replace(app, metric=MetricSpec(MetricName.ACCURACY)),
        replace(app, metric=MetricSpec(MetricName.R2, {"definition": "cod"})),
        replace(app, target="a"),
        replace(app, command="run {validation} {train} {seed}"),
        replace(app, seed=1),
        replace(app, params={"k": 2}),
    ]
    keys = {cache_key(pair, v, config, "both") for v in variants}
    assert len(keys) == len(variants) and key not in keys
    # a timeout can only turn a result into a failure, and failures are not cached
    assert cache_key(pair, replace(app, timeout_s=1.0), config, "both") == key


def test_run_campaign_rejects_apps_that_share_an_id():
    pair = ten_column_pair()
    c2 = Application("ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="c2")
    with pytest.raises(ConfigError, match="ridge"):
        run_campaign(pair, [c2, replace(c2, target="c9")], [ReducerConfig(Method.NONE)],
                     SearchSpec(tau=0.5, n_candidates=3))

BOUND_FOR = {Mode.PREC: 8.0, Method.TRUNC: 16.0, Method.SAMPLE_NAIVE: 2.0}


@pytest.mark.parametrize("knobs", [
    ReducerKnobs(),
    ReducerKnobs(delta_order=2, seed=9),
])
@pytest.mark.parametrize("layout", list(Layout))
def test_config_json_is_the_asdict_json(knobs, layout):
    # cache keys hash this string, so it must stay byte for byte what
    # json.dumps of dataclasses.asdict wrote
    for method, modes in _MODES_FOR.items():
        for mode in modes:
            bound = BOUND_FOR.get(mode, BOUND_FOR.get(method, 0.5))
            c = () if method in (Method.LOSSLESS, Method.NONE) else (bound,)
            config = ReducerConfig(method, mode, c, layout, knobs)
            want = asdict(config)
            want.update(method=method.value, mode=mode.value, c=list(c), layout=layout.value)
            assert config.to_dict() == want
            assert canonical_json(config.to_dict()) == json.dumps(
                want, sort_keys=True, separators=(",", ":")
            )
            assert ReducerConfig.from_dict(config.to_dict()) == config


def test_failed_evaluations_are_not_cached(tmp_path):
    pair = linear_pair(n=40)
    bad = Application(
        "broken",
        AppKind.EXTERNAL,
        MetricSpec(MetricName.R2),
        command=f"{sys.executable} -c 'import sys; sys.exit(1)' {{train}} {{validation}} {{seed}}",
    )
    first = cached_eval(pair, bad, ReducerConfig(Method.NONE), tmp_path)
    second = cached_eval(pair, bad, ReducerConfig(Method.NONE), tmp_path)
    assert not first.ok and not second.ok
    assert not second.cached
    assert EvaluationCache(tmp_path, pair).load() == []


def test_record_store_appends_and_loads(tmp_path):
    store = RecordStore(tmp_path / "records.jsonl")
    pair = linear_pair(n=40)
    a = eval_config(pair, ridge_app(), ReducerConfig(Method.NONE))
    b = eval_config(pair, ridge_app(), ReducerConfig(Method.LOSSLESS))
    store.append(a)
    store.append(b)
    loaded = store.load()
    assert loaded == [a, b]
    lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2


def test_record_store_skips_torn_final_line(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    a = eval_config(linear_pair(n=40), ridge_app(), ReducerConfig(Method.NONE))
    store.append(a)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"record_id": "' + "a" * 5000)  # a crash mid-append
    with pytest.warns(UserWarning, match="torn final line"):
        assert store.load() == [a]
    # the next append cuts the torn line off; a whole record that merely
    # lacks its newline is kept
    with pytest.warns(UserWarning, match="torn final line"):
        store.append(a)
    assert store.load() == [a, a]
    path.write_text(path.read_text().rstrip("\n"))
    store.append(a)
    assert store.load() == [a, a, a]


def test_record_store_rejects_corrupt_inner_line(tmp_path):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    a = eval_config(linear_pair(n=40), ridge_app(), ReducerConfig(Method.NONE))
    store.append(a)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"record_id": "a"\n')
    store.append(a)
    with pytest.raises(DataFormatError, match=":2:"):
        store.load()
    # a corrupt final line that did end with a newline is no torn write
    path.write_text(path.read_text().splitlines(keepends=True)[0] + "[1, 2]\n")
    with pytest.raises(DataFormatError):
        store.load()


def test_record_dict_round_trip():
    pair = linear_pair(n=40)
    rec = eval_config(pair, ridge_app(), ReducerConfig(Method.NONE))
    assert EvaluationRecord.from_dict(rec.to_dict()) == rec


def test_find_upper_locates_quality_edge():
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=1e-3, max_iters=30)
    phi, drop = 0.95, 0.4

    def check(domain, position, edge):
        # position: the bound in the domain's scale, growing with compression;
        # quality is flat at phi up to the edge, then decays linearly in position
        def probe(bound):
            return phi - drop * max(position(bound) - position(edge), 0.0)

        res = find_upper(domain, spec, phi, probe)
        assert res.satisfied
        assert abs(phi - probe(res.bound)) <= spec.eta * phi
        # true tolerance crossing in position, bracketed to bisection resolution
        crossing = position(edge) + spec.eta * phi / drop
        span = abs(position(domain.bound_max) - position(domain.bound_min))
        assert position(res.bound) <= crossing
        assert crossing - position(res.bound) <= 2 * span / 2 ** (spec.max_iters - 2)
        assert len(res.probes) <= spec.max_iters

    check(pred_domain(1e-6, 1.0), math.log10, 1e-3)
    check(pred_domain(1e-6, 1.0, scale="linear"), float, 1e-3)
    # a larger psnr target compresses less: quality passes at 40 dB and above
    check(SearchDomain(Method.EBLC_PRED, Mode.PSNR, 10.0, 120.0), lambda db: -math.log10(db), 40.0)


def test_find_upper_whole_domain_tolerant():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.5, n_candidates=4)
    res = find_upper(domain, spec, 0.95, lambda b: 0.95)
    assert res.satisfied
    assert res.bound == 1.0
    assert len(res.probes) == 1


def test_find_upper_nothing_tolerant_is_flagged():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.5, n_candidates=4)
    res = find_upper(domain, spec, 0.95, lambda b: 0.5)
    assert not res.satisfied
    assert res.bound == 1e-6
    assert len(res.probes) == 2


def test_find_upper_respects_probe_budget():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.5, n_candidates=4, max_iters=5)
    res = find_upper(domain, spec, 0.95, curve(1e-3))
    assert len(res.probes) <= 5


def ratio_curve(bound):
    # compression ratio that grows with the bound: 2 at 1e-6, 8 at 1.0
    return 2.0 + math.log10(bound / 1e-6)


@pytest.mark.parametrize("search", [find_upper, find_lower])
def test_bisection_stops_once_the_bracket_ratios_agree(search):
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.7, n_candidates=4, eta=1e-3, max_iters=30)
    phi, probe = 0.95, curve(1e-3, 0.95, 0.2)
    ratio_tol = campaign._RATIO_TOL
    asked = []

    def ratio_at(bound):
        asked.append(bound)
        return ratio_curve(bound)

    full = search(domain, spec, phi, probe)
    assert len(full.probes) == spec.max_iters
    res = search(domain, spec, phi, probe, ratio_at=ratio_at)
    # only bounds the search has already probed are looked up
    assert set(asked) <= {b for b, _ in res.probes}
    assert res.probes == full.probes[:len(res.probes)]

    # replay the full bisection: it stops at the first bracket whose ratios agree
    def ok(q):
        return abs(phi - q) <= spec.eta * phi if search is find_upper else q > spec.tau

    lo, hi = domain.bound_min, domain.bound_max
    for stop, (b, q) in enumerate(full.probes[2:], start=2):
        if ratio_curve(hi) / ratio_curve(lo) - 1 <= ratio_tol:
            break
        lo, hi = (b, hi) if ok(q) else (lo, b)
    else:
        pytest.fail("the bracket's ratios never agreed")
    assert 2 < stop < spec.max_iters and len(res.probes) == stop
    # it returns the passing end, which gives up at most ratio_tol of ratio
    assert res.bound == lo
    assert ratio_curve(res.bound) >= ratio_curve(full.bound) / (1 + ratio_tol)


@pytest.mark.parametrize("search", [find_upper, find_lower])
def test_bisection_without_a_ratio_lookup_spends_the_whole_budget(search):
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.7, n_candidates=4, eta=1e-3, max_iters=12)
    res = search(domain, spec, 0.95, curve(1e-3, 0.95, 0.2))
    assert len(res.probes) == spec.max_iters


def test_find_lower_locates_threshold_crossing():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.7, n_candidates=4, max_iters=30)
    phi, edge, drop = 0.95, 1e-4, 0.2
    probe = curve(edge, phi, drop)
    res = find_lower(domain, spec, phi, probe)
    assert probe(res.bound) > spec.tau
    crossing = math.log10(edge) + (phi - spec.tau) / drop
    width = 6.0 / 2 ** (spec.max_iters - 2)
    assert math.log10(res.bound) <= crossing
    assert crossing - math.log10(res.bound) <= 2 * width


def test_find_lower_whole_domain_acceptable():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.5, n_candidates=4)
    res = find_lower(domain, spec, 0.95, lambda b: 0.9)
    assert res.bound == 1.0
    assert len(res.probes) == 1


def test_find_lower_infeasible_domain():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.9, n_candidates=4)
    with pytest.raises(InfeasibleSearchError):
        find_lower(domain, spec, 0.95, lambda b: 0.5)


def test_find_lower_infeasible_baseline():
    domain = pred_domain(1e-6, 1.0)
    spec = SearchSpec(tau=0.99, n_candidates=4)
    with pytest.raises(InfeasibleSearchError):
        find_lower(domain, spec, 0.95, lambda b: 0.95)


def test_sampling_searches_scan_instead_of_bisecting():
    spec = SearchSpec(tau=0.7, n_candidates=4, max_iters=10)
    phi = 0.95

    def probe(fraction):
        return phi if fraction >= 0.5 else 0.6

    for scale, spaced in (("linear", np.linspace), ("log10", np.geomspace)):
        domain = SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.1, 0.9, scale=scale)
        res = find_upper(domain, spec, phi, probe)
        grid = spaced(0.1, 0.9, 2 * spec.max_iters)
        expected = min(g for g in grid if g >= 0.5)
        # smaller fraction = more compression, so the scan keeps the smallest pass
        assert res.bound == pytest.approx(float(expected))
        assert len(res.probes) == 2 * spec.max_iters

        lower = find_lower(domain, spec, phi, lambda f: 0.5 + 0.5 * f)
        expected_low = min(g for g in grid if 0.5 + 0.5 * g > spec.tau)
        assert lower.bound == pytest.approx(float(expected_low))


def test_sampling_upper_flagged_when_scan_finds_nothing():
    domain = SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.1, 0.9, scale="linear")
    spec = SearchSpec(tau=0.7, n_candidates=4, max_iters=6)
    res = find_upper(domain, spec, 0.95, lambda f: 0.1)
    assert not res.satisfied
    assert res.bound == 0.9  # least aggressive fraction


@st.composite
def unit_domains(draw):
    """An acc, prec, rate or truncation domain: one searched in units."""
    kind = draw(st.sampled_from([Mode.ACC, Mode.PREC, Mode.RATE, Method.TRUNC]))
    if kind is Method.TRUNC:
        return SearchDomain(Method.TRUNC, Mode.NONE, 16, 32)
    if kind is Mode.PREC:
        lo = draw(st.integers(1, 70))
        return SearchDomain(Method.EBLC_BITPLANE, kind, lo, draw(st.integers(lo + 1, 80)))
    if kind is Mode.RATE:
        lo = draw(st.floats(0.05, 63.0))
        hi = draw(st.floats(lo, 64.0).filter(lambda hi: hi > lo))
        return SearchDomain(Method.EBLC_BITPLANE, kind, lo, hi)
    lo = draw(st.floats(1e-12, 1e3))
    return SearchDomain(Method.EBLC_BITPLANE, kind, lo, lo * draw(st.floats(1.001, 1e9)))


@given(domain=unit_domains(), edges=st.data(), n=st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_unit_domains_probe_and_ladder_each_decoder_bound_once(domain, edges, n):
    units = domain.units

    def unit(bound):
        return decoder_bound(domain.method, domain.mode, (bound,))

    # every unit between the ends' decoder bounds, each represented by a
    # bound in the domain, least compressing first: the acc exponent grows,
    # plane counts, rates and widths shrink
    assert all(domain.bound_min <= b <= domain.bound_max for b in units)
    ids = [unit(b) for b in units]
    if domain.method is Method.TRUNC:
        assert ids == [32, 16]
    else:
        assert sorted(ids) == list(range(min(ids), max(ids) + 1))
    assert {ids[0], ids[-1]} == {unit(domain.bound_min), unit(domain.bound_max)}
    assert ids == sorted(ids, reverse=domain.mode is not Mode.ACC)
    assert domain.ends == (units[0], units[-1])

    # quality steps down twice along the units: neutral up to unit k (none
    # when k is -1), above tau up to unit j
    k = edges.draw(st.integers(-1, len(units) - 1))
    j = edges.draw(st.integers(max(k, 0), len(units) - 1))
    index = {b: i for i, b in enumerate(units)}
    asked = []

    def probe(bound):
        asked.append(bound)
        i = index[bound]  # only representatives are probed
        return 0.9 if i <= k else 0.6 if i <= j else 0.1

    spec = SearchSpec(tau=0.5, n_candidates=n, eta=1e-3, max_iters=12)
    ratio = {b: 1.05 ** i for b, i in index.items()}  # no early stop
    upper = find_upper(domain, spec, 0.9, probe, ratio_at=ratio.__getitem__)
    lower = find_lower(domain, spec, 0.9, probe, ratio_at=ratio.__getitem__)
    for search in (upper, lower):
        probed = [b for b, _ in search.probes]
        assert len(probed) == len(set(probed)) <= spec.max_iters
    # both searches ask each unit at one bound, and end on the
    # most-compressing unit that passes
    assert len({unit(b) for b in asked}) == len(set(asked))
    assert (upper.satisfied, upper.bound) == ((True, units[k]) if k >= 0 else (False, units[0]))
    assert lower.bound == units[j]

    ladder = candidate_points(lower.config, upper.config, n)
    bounds = [p.bound for p in ladder.points]
    steps = [index[b] for b in bounds]
    assert bounds[0] == lower.bound and bounds[-1] == upper.bound
    assert steps == sorted(set(steps), reverse=True)
    assert len(steps) == min(n, j - max(k, 0) + 1)
    assert ladder.degenerate == (len(steps) == 1)
    # thinned evenly: the gaps between rungs differ by at most one unit
    gaps = np.diff(steps)
    assert len(gaps) == 0 or gaps.max() - gaps.min() <= 1
    # boundaries given the other way round still give a ladder between them
    back = [index[p.bound] for p in candidate_points(upper.config, lower.config, n).points]
    assert (back[0], back[-1], len(back)) == (steps[-1], steps[0], len(steps))
    assert back == sorted(set(back))


def latent_ridge():
    """Ridge on c1 of a seed-3 low-rank table whose rows carry time structure."""
    full = synth.make_latent_tabular(
        n_obs=400, n_feat=8, rank=5, noise=0.05, scale_decades=4.0, seed=3, row_corr=0.9
    )
    pair = DatasetPair(*split(full, SplitSpec(0.5, seed=3, shuffled=False)))
    app = Application("ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2),
                      target="c1", seed=3)
    return pair, app


@pytest.mark.parametrize("domain", [
    SearchDomain(Method.EBLC_BITPLANE, Mode.RATE, 1, 32, scale="linear"),
    SearchDomain(Method.EBLC_BITPLANE, Mode.PREC, 1, 56, scale="linear"),
    SearchDomain(Method.TRUNC, Mode.NONE, 16, 32, scale="linear"),
    SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-6, 10.0),
], ids=["rate", "prec", "trunc", "acc"])
def test_unit_domains_run_end_to_end_to_the_most_compressing_passing_unit(tmp_path, domain):
    pair, app = latent_ridge()
    spec = SearchSpec(tau=0.5, n_candidates=6, eta=0.01, max_iters=10)
    store = RecordStore(tmp_path / "records.jsonl")
    steps = []
    records = run_campaign(pair, [app], [domain], spec, store=store, observer=steps.append)
    assert all(r.ok for r in records) and store.load() == records
    base, step = steps
    phi = base.phi
    # each unit's quality, scored apart from the campaign
    psi = [eval_config(pair, app, domain.config(b)).psi for b in domain.units]
    neutral = [i for i, q in enumerate(psi) if abs(phi - q) <= spec.eta * abs(phi)]
    useful = [i for i, q in enumerate(psi) if q > spec.tau]
    assert step.upper.satisfied
    assert step.upper.bound == domain.units[max(neutral)]
    assert step.lower.bound == domain.units[max(useful)]
    ladder = step.records[len(step.records) - len(step.ladder.points):]
    assert [r.config["c"][0] for r in ladder] == [p.bound for p in step.ladder.points]
    assert all(r.decompress_mbps > 0 for r in ladder)


def test_a_psnr_domain_searches_down_from_its_highest_target():
    # a larger psnr target compresses less, so the searches run from
    # bound_max toward bound_min and stop inside the domain
    pair, app = latent_ridge()
    domain = SearchDomain(Method.EBLC_PRED, Mode.PSNR, 10.0, 120.0)
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=0.01, max_iters=12)
    steps = []
    run_campaign(pair, [app], [domain], spec, observer=steps.append)
    base, step = steps
    assert domain.ends == (120.0, 10.0)
    upper = step.upper
    assert upper.satisfied and 10.0 < upper.bound < 120.0 and len(upper.probes) > 2
    assert [b for b, _ in upper.probes[:2]] == [10.0, 120.0]
    # the smallest passing target: every probe below it missed the tolerance
    assert all(abs(base.phi - q) > spec.eta * abs(base.phi)
               for b, q in upper.probes if b < upper.bound)
    assert step.ratios[upper.bound] > step.ratios[120.0]
    assert step.lower.bound <= upper.bound


def test_candidate_points_arithmetic_ladder():
    lower = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (0.1,))
    upper = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (0.001,))
    cs = candidate_points(lower, upper, 5)
    bounds = [p.bound for p in cs.points]
    assert len(bounds) == 5
    assert bounds[0] == 0.1
    assert bounds[-1] == 0.001
    steps = np.diff(bounds)
    assert np.allclose(steps, steps[0])
    assert not cs.degenerate
    for p in cs.points:
        assert p.method is Method.EBLC_PRED and p.mode is Mode.ABS


def test_candidate_points_degenerate_and_mismatch():
    a = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (0.01,))
    cs = candidate_points(a, a, 7)
    assert cs.degenerate
    assert cs.points == (a,)
    with pytest.raises(ConfigError):
        candidate_points(a, ReducerConfig(Method.EBLC_PRED, Mode.REL, (0.01,)), 5)
    with pytest.raises(ConfigError):
        candidate_points(a, ReducerConfig(Method.EBLC_PRED, Mode.ABS, (0.001,)), 1)
    # two acc bounds of one octave are one decoder bound: a one-point ladder
    lower = ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (0.7,))
    cs = candidate_points(lower, ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (0.6,)), 5)
    assert cs.degenerate
    assert cs.points == (lower,)


@given(
    lo=st.floats(min_value=1e-6, max_value=1e-2),
    hi=st.floats(min_value=2e-2, max_value=1.0),
    n=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_candidate_points_property(lo, hi, n):
    lower = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (hi,))
    upper = ReducerConfig(Method.EBLC_PRED, Mode.ABS, (lo,))
    cs = candidate_points(lower, upper, n)
    bounds = [p.bound for p in cs.points]
    assert len(bounds) == n
    assert bounds[0] == hi and bounds[-1] == lo
    assert all(bounds[i] >= bounds[i + 1] for i in range(n - 1))


def test_baseline_replicates():
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=0.5, n_candidates=3, replicates=3)
    steps = []
    run_campaign(pair, [ridge_app()], [ReducerConfig(Method.NONE)], spec,
                 observer=steps.append)
    (step,) = steps
    assert isinstance(step, BaselineMeasured)
    assert len(step.records) == 3
    assert [r.seed for r in step.records] == [0, 1, 2]
    assert step.spread == 0.0  # ridge is deterministic given the seed-free data
    assert step.phi == step.records[0].psi


def search_records(step):
    """The records a DomainSearched step's two searches evaluated."""
    n_ladder = len(step.ladder.points) if step.ladder is not None else 0
    return step.records[:len(step.records) - n_ladder]


def test_searches_on_real_evaluations(tmp_path):
    pair = linear_pair(n=120)
    spec = SearchSpec(tau=0.9, n_candidates=3, eta=1e-3, max_iters=6, replicates=2)
    steps = []
    run_campaign(pair, [ridge_app()], [pred_domain(1e-8, 1.0)], spec,
                 cache_dir=tmp_path, observer=steps.append)
    baseline, step = steps
    phi, upper, lower = baseline.phi, step.upper, step.lower
    assert upper.satisfied
    psi = dict(upper.probes)[upper.bound]
    assert abs(phi - psi) <= spec.eta * abs(phi)
    assert dict(lower.probes)[lower.bound] > spec.tau

    # each probed bound is evaluated and recorded once per replicate seed, in
    # probe order, though the lower search probes bounds the upper one tried
    shared = {b for b, _ in upper.probes} & {b for b, _ in lower.probes}
    assert [b for b, _ in lower.probes[:2]] == [1.0, 1e-8] and len(shared) >= 2
    bounds = list(dict.fromkeys(b for b, _ in upper.probes + lower.probes))
    recs = search_records(step)
    assert [(r.config["c"][0], r.seed) for r in recs] == [
        (b, seed) for b in bounds for seed in range(spec.replicates)
    ]
    assert len({r.record_id for r in recs}) == len(recs)
    assert not any(r.cached for r in recs)
    # a probe's quality is its replicates' median
    for b, q in upper.probes + lower.probes:
        assert q == statistics.median(r.psi for r in recs if r.config["c"][0] == b)


def test_a_bound_that_fails_every_replicate_keeps_its_records(tmp_path):
    # a fraction of 0.001 keeps no row of 40: every replicate fails at the
    # scan's first bound, and the search gives the domain up
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=0.5, n_candidates=3, max_iters=4, replicates=2)
    domain = SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.001, 0.9, scale="linear")
    store = RecordStore(tmp_path / "records.jsonl")
    steps = []
    records = run_campaign(pair, [ridge_app()], [domain, ReducerConfig(Method.LOSSLESS)],
                           spec, store=store, observer=steps.append)
    baseline, searched, fixed = steps
    assert searched.reason == (
        "all replicates failed at bound 0.001"
        " (ConfigError: fraction 0.001 of 40 rows rounds to an empty sample)"
    )
    assert searched.upper is None and searched.ladder is None
    assert [(r.ok, r.seed, r.config["c"][0]) for r in searched.records] == [
        (False, 0, 0.001), (False, 1, 0.001)
    ]
    assert list(baseline.records + searched.records + fixed.records) == records
    assert store.load() == records


def test_run_campaign_end_to_end(tmp_path):
    pair = linear_pair(n=120)
    app = ridge_app()
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=6)
    domain = pred_domain(1e-8, 1.0)
    methods = [ReducerConfig(Method.LOSSLESS), ReducerConfig(Method.NONE), domain]
    store = RecordStore(tmp_path / "a.jsonl")
    records = run_campaign(
        pair, [app], methods, spec, store=store, cache_dir=tmp_path / "cache"
    )
    assert records
    assert all(r.ok for r in records)
    assert records[0].config["method"] == "none"
    assert sum(1 for r in records if r.config["method"] == "lossless") == 1
    assert sum(1 for r in records if r.config["method"] == "none") == 1
    ladder = records[-spec.n_candidates:]
    assert all(r.config["method"] == "eblc_pred" for r in ladder)
    ladder_bounds = [r.config["c"][0] for r in ladder]
    assert ladder_bounds == sorted(ladder_bounds, reverse=True)
    assert store.load() == records

    # identical campaign replays from cache with the same record identities
    store2 = RecordStore(tmp_path / "b.jsonl")
    again = run_campaign(
        pair, [app], methods, spec, store=store2, cache_dir=tmp_path / "cache"
    )
    assert [r.record_id for r in again] == [r.record_id for r in records]
    assert all(r.cached for r in again)
    assert [r.content_key() for r in again] == [r.content_key() for r in records]


def test_a_campaign_appends_to_one_cache_log_through_held_handles(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign writes no file per evaluation")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    monkeypatch.setattr(os, "replace", refuse)
    opened = Counter()

    def counting_open(file, mode="r", *args, **kwargs):
        opened[Path(file).name, mode] += 1
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(campaign, "open", counting_open, raising=False)
    pair = linear_pair(n=120)
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=6)
    methods = [ReducerConfig(Method.LOSSLESS), pred_domain(1e-8, 1.0)]
    store = RecordStore(tmp_path / "records.jsonl")
    cache = tmp_path / "cache"
    records = run_campaign(pair, [ridge_app()], methods, spec, store=store, cache_dir=cache)
    assert any(r.cached for r in records)
    log = f"{pair.id}.jsonl"
    assert [p.name for p in cache.iterdir()] == [log]
    # one append handle each, held for the whole campaign
    assert opened["records.jsonl", "a+b"] == opened[log, "a+b"] == 1
    assert store.load() == records
    # the log holds every ok evaluation; a key's last line wins, so a ladder
    # end's timed copy has replaced its probe's record
    assert EvaluationCache(cache, pair).memo() == {
        r.record_id: replace(r, cached=False) for r in records if r.ok
    }
    # a store the caller holds open stays open through a campaign
    with store:
        again = run_campaign(pair, [ridge_app()], methods, spec, store=store, cache_dir=cache)
        store.append(again[0])
    assert opened["records.jsonl", "a+b"] == 2
    assert store.load() == records + again + again[:1]


def test_campaigns_on_two_pairs_replay_each_from_its_own_log(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=5)
    methods = [ReducerConfig(Method.LOSSLESS), pred_domain(1e-8, 1.0)]
    pairs = [linear_pair(n=100, seed=5), linear_pair(n=100, seed=6)]
    first = [run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache) for pair in pairs]
    assert sorted(p.name for p in cache.iterdir()) == sorted(f"{p.id}.jsonl" for p in pairs)
    loaded = []
    real_load = EvaluationCache.load

    def spy_load(self):
        loaded.append((self.path.name, real_load(self)))
        return loaded[-1][1]

    def refuse(*args, **kwargs):
        raise AssertionError("a replayed campaign calls no codec")

    monkeypatch.setattr(EvaluationCache, "load", spy_load)
    monkeypatch.setattr(campaign, "compress", refuse)
    monkeypatch.setattr(campaign, "decompress", refuse)
    runs = spy_application(monkeypatch)
    for pair, records in zip(pairs, first):
        again = run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache)
        assert all(r.cached for r in again)
        assert [r.content_key() for r in again] == [r.content_key() for r in records]
        # the campaign reads its own pair's log, once, and nothing else
        [(name, logged)] = loaded
        loaded.clear()
        assert name == f"{pair.id}.jsonl"
        assert {r.record_id for r in logged} == {r.record_id for r in records if r.ok}
        assert {r.dataset_id for r in logged} == {pair.id}
    assert runs == []


def test_a_campaign_reads_nothing_of_another_pairs_damaged_log(tmp_path, monkeypatch):
    # a large log of another pair, with a torn middle line and a torn tail,
    # sits beside the campaign's own, and so does a stale one-log-for-all
    # cache of the same lines: the campaign neither parses nor touches
    # them, so it warns about nothing
    cache = tmp_path / "cache"
    cache.mkdir()
    other = linear_pair(n=100, seed=6)
    line = json.dumps(eval_config(other, ridge_app(), ReducerConfig(Method.NONE)).to_dict())
    damaged = (line + "\n") * 2000 + line[:50] + "\n" + (line + "\n") * 2000 + line[:70]
    other_log = cache / f"{other.id}.jsonl"
    other_log.write_text(damaged)
    (cache / "evaluations.jsonl").write_text(damaged)
    pair = linear_pair(n=100, seed=5)
    parsed = []
    real_from_dict = EvaluationRecord.from_dict
    monkeypatch.setattr(EvaluationRecord, "from_dict",
                        staticmethod(lambda d: parsed.append(d) or real_from_dict(d)))
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=5)
    methods = [ReducerConfig(Method.LOSSLESS), pred_domain(1e-8, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache)
    assert not records[0].cached
    assert parsed == []  # its own log started empty, and the other was never read
    assert other_log.read_text() == (cache / "evaluations.jsonl").read_text() == damaged
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        ["evaluations.jsonl"] + [f"{p.id}.jsonl" for p in (pair, other)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache)
    assert all(r.cached for r in again)
    assert {d["dataset_id"] for d in parsed} == {pair.id}


def test_a_campaign_cuts_a_torn_store_tail_once_and_follows_it(tmp_path):
    path = tmp_path / "records.jsonl"
    pair = linear_pair(n=80)
    kept = eval_config(pair, ridge_app(), ReducerConfig(Method.NONE))
    RecordStore(path).append(kept)
    with open(path, "ab") as fh:
        fh.write(b'{"record_id": "' + b"a" * 5000)  # a crash mid-append
    store = RecordStore(path)
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=5)
    with pytest.warns(UserWarning, match="torn final line") as caught:
        records = run_campaign(pair, [ridge_app()], [pred_domain(1e-8, 1.0)], spec, store=store)
    assert [str(w.message) for w in caught] == [f"{path}: cut off a torn final line"]
    assert store.load() == [kept] + records
    assert path.read_bytes().count(b"\n") == 1 + len(records)


def test_run_campaign_parallel_matches_sequential(tmp_path):
    pair = linear_pair(n=100)
    app = ridge_app()
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=5)
    methods = [pred_domain(1e-8, 1.0)]
    seq = run_campaign(pair, [app], methods, spec)
    par = run_campaign(pair, [app], methods, spec, parallelism=3)
    assert [r.record_id for r in seq] == [r.record_id for r in par]


def test_run_campaign_survives_infeasible_method(tmp_path):
    pair = linear_pair(n=80)
    app = ridge_app()
    # tau above any attainable quality makes the lower search infeasible
    spec = SearchSpec(tau=2.0, n_candidates=3, max_iters=4)
    records = run_campaign(
        pair, [app], [pred_domain(1e-8, 1.0), ReducerConfig(Method.LOSSLESS)], spec
    )
    assert any(r.config["method"] == "lossless" for r in records)
    assert all(r.ok for r in records)


def test_run_campaign_rejects_a_rate_domain_past_the_value_width():
    # a rate above the value width is a ConfigError before any evaluation,
    # not a domain given up as infeasible at its first probe
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=0.5, n_candidates=3, max_iters=4)
    domain = SearchDomain(Method.EBLC_BITPLANE, Mode.RATE, 1, 100, scale="linear")
    seen = []
    with pytest.raises(ConfigError, match="rate"):
        run_campaign(pair, [ridge_app()], [domain], spec, observer=seen.append)
    assert seen == []


def test_run_campaign_rejects_a_trunc_domain_as_wide_as_the_values(tmp_path):
    # truncation to 32 bits of f32 values is refused at campaign start, at
    # the pair's width, before any record is stored
    pair = linear_pair(n=80)
    pair = DatasetPair(*(from_array(ds.values, ds.names, dtype="f32")
                         for ds in (pair.train, pair.validation)))
    spec = SearchSpec(tau=0.5, n_candidates=3, max_iters=4)
    domain = SearchDomain(Method.TRUNC, Mode.NONE, 16, 32, scale="linear")
    store = RecordStore(tmp_path / "records.jsonl")
    seen = []
    with pytest.raises(ConfigError, match="32-bit values"):
        run_campaign(pair, [ridge_app()], [domain], spec, store=store, observer=seen.append)
    assert seen == [] and not store.path.exists()


def test_run_campaign_searches_a_rate_domain_up_to_the_value_width():
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=0.5, n_candidates=3, max_iters=4)
    domain = SearchDomain(Method.EBLC_BITPLANE, Mode.RATE, 1, 64, scale="linear")
    steps = []
    records = run_campaign(pair, [ridge_app()], [domain], spec, observer=steps.append)
    (searched,) = [s for s in steps if isinstance(s, DomainSearched)]
    assert searched.reason is None and searched.ladder is not None
    assert all(r.ok for r in records)


def test_run_campaign_observer_reports_every_step():
    pair = linear_pair(n=100)
    apps = [ridge_app(), replace(ridge_app(seed=3), id="ridge3")]
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=5)
    methods = [
        ReducerConfig(Method.LOSSLESS),
        pred_domain(1e-8, 1.0),
        ReducerConfig(Method.NONE),
        SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-6, 10.0),
    ]
    steps = []
    records = run_campaign(pair, apps, methods, spec, observer=steps.append)
    assert [rec for step in steps for rec in step.records] == records
    plain = run_campaign(pair, apps, methods, spec)
    assert [r.content_key() for r in plain] == [r.content_key() for r in records]

    assert [type(step) for step in steps] == 2 * [
        BaselineMeasured, FixedEvaluated, DomainSearched, DomainSearched
    ]
    searched = [step for step in steps if isinstance(step, DomainSearched)]
    assert [(s.app.id, s.index) for s in searched] == [
        ("ridge", 1), ("ridge", 3), ("ridge3", 1), ("ridge3", 3)
    ]
    for step in searched:
        assert step.reason is None and step.domain is methods[step.index]
        points = step.ladder.points
        ladder = step.records[len(step.records) - len(points):]
        # the search records, one per bound either search probed, then the ladder
        probed = step.upper.probes + step.lower.probes
        assert [r.config["c"][0] for r in search_records(step)] == list(
            dict.fromkeys(b for b, _ in probed)
        )
        ids = [r.record_id for r in search_records(step)]
        assert len(set(ids)) == len(ids)
        assert {b for b, _ in step.lower.probes} & {b for b, _ in step.upper.probes}
        assert [r.config["c"][0] for r in ladder] == [p.bound for p in points]
        assert ladder[0].config["c"][0] == step.lower.bound
        assert ladder[-1].config["c"][0] == step.upper.bound
    for step in steps:
        if isinstance(step, BaselineMeasured):
            assert step.phi == step.records[0].psi and step.spread == 0.0
        elif isinstance(step, FixedEvaluated):
            assert step.config is methods[0]
            assert [r.config["method"] for r in step.records] == ["lossless"]


def test_run_campaign_observer_reports_infeasible_domain():
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=2.0, n_candidates=3, max_iters=4)
    steps = []
    records = run_campaign(
        pair, [ridge_app()], [pred_domain(1e-8, 1.0)], spec, observer=steps.append
    )
    baseline, searched = steps
    assert isinstance(searched, DomainSearched)
    assert "does not exceed tau" in searched.reason
    assert searched.lower is None and searched.ladder is None
    assert [r.config["c"][0] for r in searched.records] == [b for b, _ in searched.upper.probes]
    assert list(baseline.records + searched.records) == records


def test_run_campaign_stops_each_bisection_on_a_prefix_of_the_full_budget(monkeypatch):
    pair = linear_pair(n=100)
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=12)
    methods = [pred_domain(1e-8, 1.0), SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-6, 10.0)]
    stopped, full = [], []
    run_campaign(pair, [ridge_app()], methods, spec, observer=stopped.append)
    monkeypatch.setattr(campaign, "_RATIO_TOL", -math.inf)  # never stop early
    run_campaign(pair, [ridge_app()], methods, spec, observer=full.append)
    shorter = 0
    for s, f in zip(stopped[1:], full[1:]):
        for a, b in ((s.upper.probes, f.upper.probes), (s.lower.probes, f.lower.probes)):
            assert a == b[:len(a)]
            shorter += len(a) < len(b)
        # each probe is the same evaluation as at the full budget
        full_ids = {r.record_id for r in search_records(f)}
        assert {r.record_id for r in search_records(s)} <= full_ids
    assert shorter > 0


def test_boundaries_that_stop_on_one_bracket_are_split_by_the_whole_budget(monkeypatch):
    # quality holds phi up to 1e-2 and stays above tau up to 1e-1, but the
    # ratio stops growing at 1e-3, so both bisections stop on the bracket
    # [1e-3, 1] they share, before their edges part
    phi, tau = 0.9, 0.5
    spec = SearchSpec(tau=tau, n_candidates=4, eta=1e-3, max_iters=20)
    domain = pred_domain(1e-6, 1.0)

    def quality(bound):
        return phi if bound <= 1e-2 else 0.8 if bound <= 1e-1 else 0.2

    def ratio(bound):
        return min(2.0 + math.log10(bound / 1e-6), 5.0)

    upper = find_upper(domain, spec, phi, quality, ratio_at=ratio)
    assert len(upper.probes) == 3 and upper.bound == pytest.approx(1e-3)
    assert find_lower(domain, spec, phi, quality, ratio_at=ratio).bound == upper.bound

    pair = linear_pair(n=40)
    real = eval_config(pair, ridge_app(), ReducerConfig(Method.NONE))

    def synthetic(pair, app, config, *args, decode=True, runs=None):
        bound = config.bound if config.c else 0.0
        return replace(real, record_id=config.label(), config=config.to_dict(),
                       psi=quality(bound), ratio=ratio(bound) if bound else 1.0)

    monkeypatch.setattr(campaign, "eval_config", synthetic)
    steps = []
    run_campaign(pair, [ridge_app()], [domain], spec, observer=steps.append)
    _, searched = steps
    # the lower search ran again on its whole budget and left the upper bound
    assert searched.upper == upper
    assert searched.lower == find_lower(domain, spec, phi, quality)
    assert 1e-2 < searched.lower.bound <= 1e-1
    assert not searched.ladder.degenerate
    assert len(searched.ladder.points) == spec.n_candidates
    # the second run re-read the bounds the first had scored
    labels = [r.record_id for r in search_records(searched)]
    assert len(labels) == len(set(labels))
    assert searched.trace(searched.lower) == [(b, q, ratio(b)) for b, q in searched.lower.probes]


def test_a_failed_baseline_does_not_stop_the_other_applications():
    pair = linear_pair(n=100)
    broken = replace(ridge_app(), id="broken", target="nope")
    spec = SearchSpec(tau=0.5, n_candidates=3, eta=5e-3, max_iters=6)
    methods = [pred_domain(1e-8, 1.0), ReducerConfig(Method.LOSSLESS)]
    steps = []
    records = run_campaign(pair, [broken, ridge_app()], methods, spec, observer=steps.append)
    assert [rec for step in steps for rec in step.records] == records
    base, searched, fixed, *rest = steps
    assert isinstance(base, BaselineMeasured) and base.app is broken
    assert base.phi is None and base.spread is None
    assert base.reason == (
        "baseline evaluation failed for every replicate"
        " (DataFormatError: no column named 'nope')"
    )
    assert [r.ok for r in base.records] == [False]
    assert isinstance(searched, DomainSearched) and searched.reason == base.reason
    assert searched.records == () and searched.upper is None and searched.ladder is None
    assert isinstance(fixed, FixedEvaluated) and not fixed.records[0].ok
    # the second application is measured and searched as on its own
    alone = []
    run_campaign(pair, [ridge_app()], methods, spec, observer=alone.append)
    assert [type(step) for step in rest] == [BaselineMeasured, DomainSearched, FixedEvaluated]
    assert rest[1].reason is None and rest[1].ladder is not None
    assert [r.content_key() for step in rest for r in step.records] == [
        r.content_key() for step in alone for r in step.records
    ]


def test_run_campaign_requires_work():
    pair = linear_pair(n=40)
    with pytest.raises(ConfigError):
        run_campaign(pair, [], [pred_domain()], SearchSpec(tau=0.5, n_candidates=3))
    with pytest.raises(ConfigError):
        run_campaign(pair, [ridge_app()], [], SearchSpec(tau=0.5, n_candidates=3))


def spy_compress(monkeypatch):
    """Record (dataset id, config) of every compress call the campaign makes."""
    calls = []
    real = campaign.compress

    def spy(ds, config):
        calls.append((ds.id, config))
        return real(ds, config)

    monkeypatch.setattr(campaign, "compress", spy)
    return calls


def spy_application(monkeypatch):
    """Record the seed of every application run the campaign makes."""
    runs = []
    real = campaign.run_application

    def spy(train, validation, app):
        runs.append(app.seed)
        return real(train, validation, app)

    monkeypatch.setattr(campaign, "run_application", spy)
    return runs


def without_memo(monkeypatch):
    """Make the campaign's evaluations ignore its in-run memo and the codec
    runs it shares among replicates and keeps for the ladder."""
    real = campaign.eval_config

    def plain(pair, app, config, compress_target="both", cache=None, memo=None, *,
              decode=True, runs=None):
        return real(pair, app, config, compress_target, cache, decode=decode)

    monkeypatch.setattr(campaign, "eval_config", plain)


def searched(steps):
    return [
        (s.upper.bound, s.upper.probes, s.lower.bound, s.lower.probes,
         [p.bound for p in s.ladder.points])
        for s in steps if isinstance(s, DomainSearched)
    ]


@pytest.mark.parametrize("replicates", [1, 2, 3])
def test_run_campaign_evaluates_each_configuration_once(monkeypatch, replicates):
    pair = linear_pair(n=100)
    app = ridge_app()
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=6, replicates=replicates)
    methods = [pred_domain(1e-8, 1.0), ReducerConfig(Method.LOSSLESS)]

    calls = spy_compress(monkeypatch)
    runs = spy_application(monkeypatch)
    steps = []
    records = run_campaign(pair, [app], methods, spec, observer=steps.append)
    # one codec run, of both parts, per distinct configuration, which its
    # replicate seeds share; a ladder end decodes its probe's stream rather
    # than compressing again
    configs = {ReducerConfig.from_dict(r.config) for r in records}
    assert Counter(calls) == Counter(
        (part.id, config) for config in configs for part in (pair.train, pair.validation)
    )
    # so every record of a configuration carries its run's compress timing
    timings = {(json.dumps(r.config, sort_keys=True), r.t_compress) for r in records}
    assert len(timings) == len(configs)
    # one application run per distinct record, in the order of their first
    # records
    fresh = [r for r in records if not r.cached]
    assert len({r.record_id for r in records}) == len(fresh) == len(runs)
    assert runs == [r.seed for r in fresh]
    assert [(r.seed, r.cached) for r in records[:replicates]] == [
        (seed, False) for seed in range(replicates)
    ]
    ids = [r.record_id for r in records]
    assert all(r.ok for r in records)
    first = {}
    for i, rec in enumerate(records):
        assert rec.cached == (rec.record_id in first)
        first.setdefault(rec.record_id, i)
    assert sum(r.cached for r in records) == len(ids) - len(set(ids)) > 0

    # repeats are copies of the first evaluation, but for a decode timing of
    # their own where that one scored a probe undecoded; fresh ones agree with it
    for rec in records:
        orig = records[first[rec.record_id]]
        assert replace(rec, cached=False, decompress_mbps=orig.decompress_mbps,
                       t_decompress=orig.t_decompress) == orig
        again = eval_config(pair, replace(app, seed=rec.seed), ReducerConfig.from_dict(rec.config))
        assert again.content_key() == rec.content_key()

    without_memo(monkeypatch)
    plain_steps = []
    plain = run_campaign(pair, [app], methods, spec, observer=plain_steps.append)
    assert [r.record_id for r in plain] == ids
    assert [r.content_key() for r in plain] == [r.content_key() for r in records]
    assert not any(r.cached for r in plain)
    assert searched(plain_steps) == searched(steps)


def test_a_campaign_holds_one_configurations_reconstructions_at_a_time(monkeypatch):
    pair = linear_pair(n=100)
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=6, replicates=3)
    methods = [
        pred_domain(1e-8, 1.0),
        SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-6, 10.0),
        SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.2, 1.0, scale="linear"),
        ReducerConfig(Method.LOSSLESS),
    ]
    real = campaign.eval_config
    seen = []  # (decode, configurations holding reconstructions, methods kept)

    def spy(*args, decode=True, runs=None):
        if runs is not None:
            holding = [c for c, run in runs.items()
                       if any(art.restored is not None for art, *_ in run.values())]
            seen.append((decode, holding, {c.method for c in runs}))
        return real(*args, decode=decode, runs=runs)

    monkeypatch.setattr(campaign, "eval_config", spy)
    records = run_campaign(pair, [ridge_app()], methods, spec)
    assert all(r.ok for r in records)
    assert all(len(holding) <= 1 for _, holding, _ in seen)
    # a bound's later replicates score the reconstructions its first one kept
    assert any(holding for decode, holding, _ in seen if not decode)
    # the ladder sees no reconstruction, only the streams of probes that
    # were scored on theirs
    ladder = [(holding, methods) for decode, holding, methods in seen if decode]
    assert ladder and all(not holding for holding, _ in ladder)
    assert set().union(*(m for _, m in ladder)) <= {Method.EBLC_PRED, Method.EBLC_BITPLANE}


def test_run_campaign_retries_failed_configurations(monkeypatch):
    pair = linear_pair(n=60)
    f32 = DatasetPair(
        from_array(pair.train.values, pair.train.names, "f32"),
        from_array(pair.validation.values, pair.validation.names, "f32"),
    )
    too_wide = ReducerConfig(Method.TRUNC, c=(32.0,))  # f32 cannot narrow to 32 bits
    lossless = ReducerConfig(Method.LOSSLESS)
    calls = spy_compress(monkeypatch)
    records = run_campaign(
        f32, [ridge_app()], [too_wide, lossless, too_wide, lossless],
        SearchSpec(tau=0.5, n_candidates=3),
    )
    assert [(r.ok, r.cached) for r in records] == [
        (True, False), (False, False), (True, False), (False, False), (True, True)
    ]
    assert [config for _, config in calls].count(too_wide) == 2

    memo = {}
    first = eval_config(f32, ridge_app(), too_wide, memo=memo)
    assert not first.ok and memo == {}
    assert not eval_config(f32, ridge_app(), too_wide, memo=memo).cached


def test_parallel_ladder_shares_the_memo_safely(monkeypatch):
    pair = linear_pair(n=80)
    spec = SearchSpec(tau=0.5, n_candidates=12, eta=5e-3, max_iters=5)
    methods = [pred_domain(1e-8, 1.0)]
    calls = spy_compress(monkeypatch)
    seq = run_campaign(pair, [ridge_app()], methods, spec)
    seq_calls = list(calls)
    calls.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        par = run_campaign(pair, [ridge_app()], methods, spec, parallelism=8)
    finally:
        sys.setswitchinterval(interval)
    assert [(r.record_id, r.cached) for r in par] == [(r.record_id, r.cached) for r in seq]
    assert [r.content_key() for r in par] == [r.content_key() for r in seq]
    # the ladder ends, served from the memo, decode their probes' kept
    # streams under threads as in sequence
    assert Counter(calls) == Counter(seq_calls)
    ends = [r for r in par if r.cached]
    assert ends and all(r.decompress_mbps > 0 for r in ends)


def test_an_acc_campaign_compresses_each_decoder_bound_once(monkeypatch):
    pair = linear_pair(n=120)
    spec = SearchSpec(tau=0.5, n_candidates=8, eta=5e-3, max_iters=8)
    domain = SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-3, 64.0)
    calls = spy_compress(monkeypatch)
    steps = []
    records = run_campaign(pair, [ridge_app()], [domain], spec, observer=steps.append)
    assert all(r.ok for r in records)
    _, step = steps
    touched = [b for b, _ in step.upper.probes + step.lower.probes]
    touched += [p.bound for p in step.ladder.points]
    units = {decoder_bound(domain.method, domain.mode, (b,)) for b in touched}
    assert len(units) == len(set(touched)) > spec.n_candidates
    # each part is compressed once per decoder bound the searches and the
    # ladder reached, and never at a second bound of one unit
    coded = Counter(decoder_bound(config.method, config.mode, config.c)
                    for _, config in calls if config.method is Method.EBLC_BITPLANE)
    assert coded == {unit: 2 for unit in units}


# (method, mode, bound) a search may probe without decoding; a rate bound of
# None is the value width, where the bit-plane stream is stored raw
UNDECODED = [
    *((Method.EBLC_PRED, mode, c) for mode, c in (
        (Mode.ABS, 1e-3), (Mode.REL, 1e-4), (Mode.REL, 0.2), (Mode.PSNR, 40.0),
        (Mode.PW_REL, 1e-2),
    )),
    (Method.EBLC_BITPLANE, Mode.ACC, 1e-3),
    (Method.EBLC_BITPLANE, Mode.PREC, 12.0),
    (Method.EBLC_BITPLANE, Mode.RATE, 6.0),
    # 25 bits a block, one into a plane nibble; 2 bits, half the sign nibble
    (Method.EBLC_BITPLANE, Mode.RATE, 6.25),
    (Method.EBLC_BITPLANE, Mode.RATE, 0.5),
    (Method.EBLC_BITPLANE, Mode.RATE, None),
]


def special_pair(seed, dtype, nonfinite, spread, n=60):
    """A ridge pair in dtype whose feature columns hold signed zeros and,
    given nonfinite, infinities and NaNs of both signs, quiet and
    signalling, with assorted payloads; given spread, one value of 1e30
    beside ones near 1, which no bit-plane count keeps within a small
    bound."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3)) * np.array([1.0, 300.0, 1e-3])
    y = x @ np.array([2.0, -0.01, 500.0]) + 0.05 * rng.normal(size=n)
    arr = np.column_stack([x, y]).astype(DTYPES[dtype])
    rows = rng.permutation(n)
    arr[rows[:3], 0] = 0.0
    arr[rows[3:6], 1] = -0.0
    if spread:
        arr[rows[12], 0] = -1e30
    if nonfinite:
        arr[rows[6], 2] = np.inf
        arr[rows[7], 0] = -np.inf
        bits = arr.view(f"<u{arr.itemsize}")
        top = 8 * arr.itemsize - 1
        mantissa = 23 if dtype == "f32" else 52
        exp = ((1 << (top - mantissa)) - 1) << mantissa
        quiet = 1 << (mantissa - 1)
        nans = (exp | 1, exp | quiet | 0x2B, (1 << top) | exp | quiet, (1 << top) | exp | 0x155)
        for row, col, nan in zip(rows[8:12], (0, 1, 2, 1), nans):
            bits[row, col] = np.array(nan, dtype=bits.dtype)
    names = ("a", "b", "c", "y")
    half = n // 2
    return DatasetPair(Dataset(arr[:half], names, dtype, allow_nonfinite=True),
                       Dataset(arr[half:], names, dtype, allow_nonfinite=True))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf arithmetic
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(UNDECODED),
    dtype=st.sampled_from(["f32", "f64"]),
    layout=st.sampled_from(list(Layout)),
    nonfinite=st.booleans(),
    spread=st.booleans(),
)
# a bit-plane acc stream that stores a block raw
@example(seed=1, case=UNDECODED[5], dtype="f32", layout=Layout.BY_COLUMN, nonfinite=False,
         spread=True)
# rate budgets that end inside a nibble, scored on the encoder's reconstruction
@example(seed=2, case=(Method.EBLC_BITPLANE, Mode.RATE, 6.25), dtype="f64",
         layout=Layout.BY_COLUMN, nonfinite=False, spread=False)
@example(seed=3, case=(Method.EBLC_BITPLANE, Mode.RATE, 0.5), dtype="f32",
         layout=Layout.MATRIX, nonfinite=False, spread=True)
def test_an_undecoded_evaluation_scores_the_decoded_table(
    seed, case, dtype, layout, nonfinite, spread
):
    method, mode, c = case
    # the bit-plane coder takes finite values only
    pair = special_pair(seed, dtype, nonfinite and method is Method.EBLC_PRED, spread)
    width = pair.train.values.itemsize
    config = ReducerConfig(method, mode, (8.0 * width if c is None else c,), layout)
    scored = []

    def spy(train, validation, app):
        scored.append({"train": train, "validation": validation})
        return run_application(train, validation, app)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "run_application", spy)
        rec = eval_config(pair, ridge_app(), config, decode=False)
    decoded = eval_config(pair, ridge_app(), config)
    assert (rec.decompress_mbps, rec.t_decompress) == (None, 0.0)
    assert decoded.decompress_mbps > 0
    # ratio, psi, error report, and a failure's message, NaN included
    assert rec.content_key() == decoded.content_key()
    (tables,) = scored
    for name, part in (("train", pair.train), ("validation", pair.validation)):
        art, _, _ = compress(part, config)
        if c is None:
            assert art.stream[0] == bitplane._STORED
        expected, _, _ = decompress(art, names=part.names)
        table = tables[name]
        assert (table.dtype, table.names) == (expected.dtype, expected.names)
        assert table.values.dtype == expected.values.dtype
        assert table.values.shape == expected.values.shape
        assert table.values.tobytes() == expected.values.tobytes()
        assert json.dumps(rec.report[name]) == json.dumps(vars(error_report(part, expected)))


def test_undecoded_evaluations_restore_nothing_else():
    # a method whose encoder keeps no reconstruction is decoded all the same
    pair = linear_pair(n=60)
    for config in (ReducerConfig(Method.NONE), ReducerConfig(Method.LOSSLESS),
                   ReducerConfig(Method.TRUNC, c=(32.0,)),
                   ReducerConfig(Method.SAMPLE_WOR, c=(0.5,))):
        art, _, _ = compress(pair.train, config)
        assert art.restored is None
        rec = eval_config(pair, ridge_app(), config, decode=False)
        assert rec.ok and rec.decompress_mbps > 0 and rec.t_decompress > 0


def undecoded(rec):
    return rec.config["method"] in ("eblc_pred", "eblc_bitplane")


def test_a_bounds_replicates_decode_each_part_once(monkeypatch):
    # the baseline and sampling keep no reconstruction, so their probes
    # decode; the first replicate of a bound decodes each part and the
    # later ones score its tables and carry its decode timing
    pair = linear_pair(n=100)
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=6, replicates=3)
    methods = [SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.2, 1.0, scale="linear")]
    decodes = []
    real = campaign.decompress

    def spy(art, names=None):
        decodes.append((art.method, art.c, art.stream))
        return real(art, names=names)

    monkeypatch.setattr(campaign, "decompress", spy)
    records = run_campaign(pair, [ridge_app()], methods, spec)
    assert all(r.ok for r in records)
    configs = {ReducerConfig.from_dict(r.config) for r in records}
    assert {c.method for c in configs} == {Method.NONE, Method.SAMPLE_WOR}
    assert len(decodes) == len(set(decodes)) == 2 * len(configs)
    timings = {(json.dumps(r.config, sort_keys=True), r.t_decompress) for r in records}
    assert len(timings) == len(configs) and all(t > 0 for _, t in timings)

    # the records are the ones evaluating every replicate afresh gives
    without_memo(monkeypatch)
    plain = run_campaign(pair, [ridge_app()], methods, spec)
    assert [r.content_key() for r in plain] == [r.content_key() for r in records]
    # which decodes both parts for every record
    assert len(decodes) == 2 * len(configs) + 2 * len(plain)


@pytest.mark.parametrize(
    "cache, replicates", [(False, 1), (True, 1), (False, 3), (True, 3)],
    ids=["False", "True", "False-3", "True-3"],
)
def test_probes_skip_decoding_and_the_ladder_decodes_every_point(
    tmp_path, monkeypatch, cache, replicates
):
    pair = linear_pair(n=100)
    spec = SearchSpec(tau=0.5, n_candidates=4, eta=5e-3, max_iters=6, replicates=replicates)
    methods = [
        pred_domain(1e-8, 1.0),
        SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-6, 10.0),
        SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.2, 1.0, scale="linear"),
        ReducerConfig(Method.LOSSLESS),
    ]
    cache_dir = tmp_path / "cache" if cache else None
    calls = spy_compress(monkeypatch)
    steps = []
    records = run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache_dir,
                           observer=steps.append)
    assert all(r.ok for r in records)
    # the replicates of a bound share its streams, and each ladder end
    # decodes them: no part is compressed twice
    configs = {ReducerConfig.from_dict(r.config) for r in records}
    assert len(calls) == len(set(calls)) == 2 * len(configs)
    domains = [s for s in steps if isinstance(s, DomainSearched)]
    assert len(domains) == 3 and all(s.ladder is not None for s in domains)
    for step in domains:
        probes = search_records(step)
        ladder = step.records[len(probes):]
        for rec in probes:
            if undecoded(rec):
                assert (rec.decompress_mbps, rec.t_decompress) == (None, 0.0)
            else:
                assert rec.decompress_mbps > 0
        assert all(rec.decompress_mbps > 0 and rec.t_decompress > 0 for rec in ladder)
        # the ends were probes: cached copies of their records, application
        # and all, with a decode timing of their own
        probed = {rec.record_id: rec for rec in probes}
        for end in (ladder[0], ladder[-1]):
            probe = probed[end.record_id]
            assert end.cached and end.psi == probe.psi
            assert end.content_key() == probe.content_key()
            assert (end.t_app, end.timestamp) == (probe.t_app, probe.timestamp)
    others = [r for r in records if r.config["method"] in ("none", "lossless")]
    assert len(others) == replicates + 1 and all(r.decompress_mbps > 0 for r in others)
    if not cache:
        return

    # the cache keeps each record's last form, a ladder end's with its decode
    # timing, so a second campaign is served every record from it and
    # reaches no codec
    last = {r.record_id: replace(r, cached=True) for r in records}

    def no_decode(art, names=None):
        raise AssertionError("decoded a cached record")

    monkeypatch.setattr(campaign, "decompress", no_decode)
    calls.clear()
    replay = run_campaign(pair, [ridge_app()], methods, spec, cache_dir=cache_dir)
    assert calls == []
    assert replay == [last[r.record_id] for r in records]


def test_importing_the_library_loads_no_network_xml_process_or_thread_modules():
    # the import the benchmark times, in a fresh interpreter: what only an
    # external application or a parallel ladder needs is imported where they
    # run.  Modules the interpreter or numpy loaded first do not count
    probe = ("import sys, numpy; before = set(sys.modules); "
             "import ppress.campaign, ppress.pareto, ppress.reducers, ppress.synth; "
             "print(*set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": str(Path(campaign.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "ppress.campaign" in loaded
    banned = {"urllib", "http", "email", "ssl", "xml", "subprocess", "concurrent"}
    assert sorted(m for m in loaded if m.split(".")[0] in banned) == []
