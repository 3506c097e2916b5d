import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ppress import quality
from ppress.errors import ApplicationError, ConfigError
from ppress.quality import (
    Application,
    AppKind,
    Confusion,
    MetricName,
    MetricSpec,
    accuracy,
    confusion_from_predictions,
    g_mean,
    mse,
    psnr_metric,
    r_squared,
    run_application,
)
from ppress.reducers import Method, ReducerConfig, compress, decompress
from ppress.tabular import from_array


def pearson_sq_oracle(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov * cov / (va * vb)


def test_r_squared_perfect():
    r = r_squared(np.array([1.0, 2, 3]), np.array([1.0, 2, 3]))
    assert r.value == pytest.approx(1.0) and not r.degenerate


def test_r_squared_constant_predictions_degenerate():
    r = r_squared(np.array([2.0, 2, 2]), np.array([1.0, 2, 3]))
    assert r.value == 0.0 and r.degenerate


def test_r_squared_matches_two_pass_oracle():
    truth = [1.0, 2.0, 3.0, 4.0]
    pred = [1.1, 1.9, 3.2, 3.8]
    r = r_squared(np.array(pred), np.array(truth))
    assert r.value == pytest.approx(pearson_sq_oracle(pred, truth), abs=1e-12)


def test_r_squared_scale_invariant():
    truth = np.array([1.0, 2.0, 3.0, 5.0])
    pred = 7.0 * truth - 2.0
    assert r_squared(pred, truth).value == pytest.approx(1.0)


def test_r_squared_cod_definition():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.array([1.5, 2.5, 3.5, 4.5])  # perfectly correlated, offset by 0.5
    assert r_squared(pred, truth).value == pytest.approx(1.0)
    cod = r_squared(pred, truth, definition="cod").value
    assert cod == pytest.approx(1.0 - 4 * 0.25 / 5.0)


def test_r_squared_length_mismatch():
    with pytest.raises(ApplicationError):
        r_squared(np.zeros(3), np.zeros(4))


def test_g_mean_perfect():
    assert g_mean(Confusion(tp=10, fp=0, tn=5, fn=0)).value == 1.0


def test_g_mean_half():
    assert g_mean(Confusion(tp=1, fp=1, tn=0, fn=1)).value == pytest.approx(0.5)


def test_g_mean_point_nine_point_four():
    conf = Confusion(tp=36, fp=4, tn=0, fn=54)
    assert g_mean(conf).value == pytest.approx(0.6)


def test_g_mean_degenerate_no_positives():
    r = g_mean(Confusion(tp=0, fp=0, tn=5, fn=2))
    assert r.value == 0.0 and r.degenerate


def test_accuracy_and_confusion_builder():
    pred = np.array([1, 1, 0, 0, 1])
    truth = np.array([1, 0, 0, 1, 1])
    conf = confusion_from_predictions(pred, truth)
    assert (conf.tp, conf.fp, conf.tn, conf.fn) == (2, 1, 1, 1)
    assert accuracy(conf) == pytest.approx(3 / 5)


def test_accuracy_counts_confusions_between_negative_labels():
    assert accuracy(confusion_from_predictions([2.0, 0.0], [0.0, 2.0], 1)) == 0.0
    conf = confusion_from_predictions([0, 2, 1, 2, 0], [0, 0, 1, 2, 1], 1)
    assert (conf.tp, conf.fp, conf.tn, conf.fn, conf.other) == (1, 0, 2, 1, 1)
    assert accuracy(conf) == pytest.approx(3 / 5)
    assert g_mean(conf).value == pytest.approx(g_mean(Confusion(1, 0, 3, 1)).value)


def test_mse_and_psnr():
    assert mse(np.zeros(2), np.ones(2)) == 1.0
    assert mse(np.ones(4), np.ones(4)) == 0.0
    assert psnr_metric(np.ones(4), np.ones(4), 1.0) == math.inf
    a = np.zeros(100)
    b = np.full(100, 1e-2)  # mse 1e-4
    assert psnr_metric(a, b, 1.0) == pytest.approx(40.0)


def test_metric_spec_direction():
    assert MetricSpec(MetricName.MSE).direction == "lower_better"
    assert MetricSpec(MetricName.R2).direction == "higher_better"


def test_application_validates_metric_compat():
    with pytest.raises(ConfigError):
        Application("a", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.ACCURACY), target=0)
    with pytest.raises(ConfigError):
        Application("b", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.R2), target=0)
    with pytest.raises(ConfigError):
        Application("c", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2))


def linear_ds(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5 * x[:, 2] + noise * rng.normal(size=n)
    return from_array(np.column_stack([x, y]), names=["a", "b", "c", "y"])


def test_ridge_perfect_on_linear_data():
    ds = linear_ds()
    app = Application("r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="y")
    psi, runtime = run_application(ds, ds, app)
    assert psi == pytest.approx(1.0, abs=1e-6)
    assert runtime >= 0.0


def test_ridge_quality_drops_with_noise():
    clean = linear_ds()
    app = Application("r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="y")
    noisy_train = linear_ds(seed=1, noise=2.0)
    psi_noisy, _ = run_application(noisy_train, clean, app)
    assert psi_noisy < 1.0


def cluster_ds(n=120, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal(loc=-2.0, size=(half, 2))
    x1 = rng.normal(loc=2.0, size=(half, 2))
    x = np.vstack([x0, x1])
    y = np.repeat([0.0, 1.0], half)
    return from_array(np.column_stack([x, y]), names=["f0", "f1", "label"])


def test_knn_self_match_accuracy_one():
    ds = cluster_ds()
    app = Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.ACCURACY),
        target="label", params={"k": 1},
    )
    psi, _ = run_application(ds, ds, app)
    assert psi == 1.0


def test_knn_gmean_metric():
    ds = cluster_ds()
    val = cluster_ds(seed=5)
    app = Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.GMEAN),
        target="label", params={"k": 5},
    )
    psi, _ = run_application(ds, val, app)
    assert 0.9 <= psi <= 1.0


def test_knn_deterministic_per_seed():
    ds = cluster_ds()
    val = cluster_ds(seed=7)
    app = Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.ACCURACY),
        target="label", params={"k": 3}, seed=42,
    )
    a = run_application(ds, val, app)[0]
    b = run_application(ds, val, app)[0]
    assert a == b


def reference_knn(xt, yt, xv, k, seed):
    """One validation row at a time: sort by (distance, seeded tiebreak),
    vote among the first k, ties to the smallest label."""
    tiebreak = np.random.default_rng(seed).permutation(xt.shape[0])
    d2 = ((xv[:, None, :] - xt[None, :, :]) ** 2).sum(axis=2)
    pred = np.empty(xv.shape[0])
    for i in range(xv.shape[0]):
        order = np.lexsort((tiebreak, d2[i]))[:k]
        labels, counts = np.unique(yt[order], return_counts=True)
        pred[i] = labels[np.argmax(counts)]
    return pred


# small integers make distance ties common; NaN and +-inf test their ranking
_FEATURE = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_knn_matches_reference(data):
    n_train = data.draw(st.integers(1, 12), label="n_train")
    n_feat = data.draw(st.integers(1, 3), label="n_feat")
    n_val = data.draw(st.integers(1, 3 * quality._KNN_BLOCK), label="n_val")
    xt = data.draw(hnp.arrays(np.float64, (n_train, n_feat), elements=_FEATURE), label="xt")
    xv = data.draw(hnp.arrays(np.float64, (n_val, n_feat), elements=_FEATURE), label="xv")
    n_classes = data.draw(st.integers(1, 4), label="n_classes")
    yt = data.draw(
        hnp.arrays(np.float64, n_train, elements=st.integers(0, n_classes - 1).map(float)),
        label="yt",
    )
    k = data.draw(st.integers(1, n_train), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    with np.errstate(invalid="ignore"):
        want = reference_knn(xt, yt, xv, k, seed)
        got = quality._knn_predict(xt, yt, xv, k, seed)
    assert np.array_equal(got, want)


def test_knn_matches_reference_across_blocks():
    rng = np.random.default_rng(21)
    n_val = 5 * quality._KNN_BLOCK // 2
    xt = rng.integers(-3, 4, size=(200, 4)).astype(float)
    xv = rng.integers(-3, 4, size=(n_val, 4)).astype(float)
    yt = rng.integers(0, 3, size=200).astype(float)
    for k in (1, 2, 7, 50, 200):
        for seed in (0, 1, 2):
            want = reference_knn(xt, yt, xv, k, seed)
            assert np.array_equal(quality._knn_predict(xt, yt, xv, k, seed), want)


def test_knn_through_application_matches_reference():
    ds = cluster_ds(seed=2)
    val = cluster_ds(seed=3)
    app = Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.ACCURACY),
        target="label", params={"k": 4}, seed=9,
    )
    x, y = ds.values[:, :2], ds.values[:, 2]
    pred = reference_knn(x, y, val.values[:, :2], 4, 9)
    want = float(np.mean(pred == val.values[:, 2]))
    assert run_application(ds, val, app)[0] == want


def test_lowrank_full_rank_is_identity():
    rng = np.random.default_rng(3)
    ds = from_array(rng.normal(size=(50, 4)))
    app = Application(
        "l", AppKind.LOWRANK_RECONSTRUCTION, MetricSpec(MetricName.MSE),
        params={"rank": 4},
    )
    psi, _ = run_application(ds, ds, app)
    assert psi <= 1e-20


def test_lowrank_rank_one_on_rank_one_data():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(60, 1))
    v = rng.normal(size=(1, 5))
    ds = from_array(u @ v)
    app = Application(
        "l", AppKind.LOWRANK_RECONSTRUCTION, MetricSpec(MetricName.PSNR),
        params={"rank": 1},
    )
    psi, _ = run_application(ds, ds, app)
    assert psi > 200.0  # near-exact reconstruction


def test_permutation_invariance_lowrank():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(40, 4))
    ds = from_array(vals)
    perm = [2, 0, 3, 1]
    ds_p = from_array(vals[:, perm])
    app = Application(
        "l", AppKind.LOWRANK_RECONSTRUCTION, MetricSpec(MetricName.MSE),
        params={"rank": 2},
    )
    a = run_application(ds, ds, app)[0]
    b = run_application(ds_p, ds_p, app)[0]
    assert a == pytest.approx(b, rel=1e-9)


def test_none_reduction_keeps_quality_exact():
    ds = cluster_ds()
    val = cluster_ds(seed=9)
    app = Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.ACCURACY),
        target="label", params={"k": 5}, seed=3,
    )
    art, _, _ = compress(ds, ReducerConfig(Method.NONE))
    restored, _, _ = decompress(art, names=ds.names)
    assert run_application(restored, val, app)[0] == run_application(ds, val, app)[0]


def ext_app(command):
    return Application(
        "ext", AppKind.EXTERNAL, MetricSpec(MetricName.R2), command=command
    )


def test_external_app_parses_metric(tmp_path):
    script = tmp_path / "app.py"
    script.write_text(
        "import sys\n"
        "desc = dict(line.split('=') for line in open(sys.argv[1] + '.desc'))\n"
        "print('metric: r2=0.' + desc['n_obs'].strip())\n"
    )
    ds = from_array(np.ones((25, 2)) * np.arange(2))
    app = ext_app(f"{sys.executable} {script} {{train}} {{validation}} {{seed}}")
    psi, _ = run_application(ds, ds, app)
    assert psi == pytest.approx(0.25)


def test_external_app_nonzero_exit(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("raise SystemExit(3)\n")
    ds = from_array(np.ones((4, 1)))
    with pytest.raises(ApplicationError):
        run_application(ds, ds, ext_app(f"{sys.executable} {script} {{train}} {{validation}} {{seed}}"))


def test_external_app_missing_metric_line(tmp_path):
    script = tmp_path / "silent.py"
    script.write_text("print('no metrics here')\n")
    ds = from_array(np.ones((4, 1)))
    with pytest.raises(ApplicationError):
        run_application(ds, ds, ext_app(f"{sys.executable} {script} {{train}} {{validation}} {{seed}}"))
