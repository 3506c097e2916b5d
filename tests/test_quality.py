import contextlib
import math
import sys
from unittest import mock

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
from ppress.reducers import Method, Mode, ReducerConfig, compress, decompress
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
    assert r == pytest.approx(1.0)


def test_r_squared_constant_predictions_degenerate():
    r = r_squared(np.array([2.0, 2, 2]), np.array([1.0, 2, 3]))
    assert r == 0.0 and type(r) is float


def test_r_squared_matches_two_pass_oracle():
    truth = [1.0, 2.0, 3.0, 4.0]
    pred = [1.1, 1.9, 3.2, 3.8]
    r = r_squared(np.array(pred), np.array(truth))
    assert r == pytest.approx(pearson_sq_oracle(pred, truth), abs=1e-12)


def test_r_squared_scale_invariant():
    truth = np.array([1.0, 2.0, 3.0, 5.0])
    pred = 7.0 * truth - 2.0
    assert r_squared(pred, truth) == pytest.approx(1.0)


def test_r_squared_cod_definition():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.array([1.5, 2.5, 3.5, 4.5])  # perfectly correlated, offset by 0.5
    assert r_squared(pred, truth) == pytest.approx(1.0)
    cod = r_squared(pred, truth, definition="cod")
    assert cod == pytest.approx(1.0 - 4 * 0.25 / 5.0)


def test_r_squared_length_mismatch():
    with pytest.raises(ApplicationError):
        r_squared(np.zeros(3), np.zeros(4))


def test_g_mean_perfect():
    assert g_mean(Confusion(tp=10, fp=0, tn=5, fn=0)) == 1.0


def test_g_mean_half():
    assert g_mean(Confusion(tp=1, fp=1, tn=0, fn=1)) == pytest.approx(0.5)


def test_g_mean_point_nine_point_four():
    conf = Confusion(tp=36, fp=4, tn=0, fn=54)
    assert g_mean(conf) == pytest.approx(0.6)


def test_g_mean_degenerate_no_positives():
    r = g_mean(Confusion(tp=0, fp=0, tn=5, fn=2))
    assert r == 0.0 and type(r) is float


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
    assert g_mean(conf) == pytest.approx(g_mean(Confusion(1, 0, 3, 1)))


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


def knn_app(**params):
    return Application(
        "k", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.GMEAN), target=0, params=params
    )


@pytest.mark.parametrize("bad", ["five", 2.7, 2.0, True, False, 0, -1, None])
def test_application_refuses_k_or_rank_not_a_positive_integer(bad):
    with pytest.raises(ConfigError, match="k must be a positive integer"):
        knn_app(k=bad)
    with pytest.raises(ConfigError, match="rank must be a positive integer"):
        Application(
            "l", AppKind.LOWRANK_RECONSTRUCTION, MetricSpec(MetricName.MSE), params={"rank": bad}
        )
    assert knn_app(k=np.int64(3)).params["k"] == 3


@pytest.mark.parametrize("bad", ["x", "-1", "inf", -1, -1e-300, math.inf, math.nan, True, None])
def test_application_refuses_a_negative_or_non_finite_lambda_scale(bad):
    with pytest.raises(ConfigError, match="lambda_scale must be finite and >= 0"):
        Application(
            "r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target=0,
            params={"lambda_scale": bad},
        )
    # YAML reads 1e-3, without a dot, as a string; float() reads it as before
    for good in (0, 0.0, 2, "1e-3"):
        Application(
            "r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target=0,
            params={"lambda_scale": good},
        )


@pytest.mark.parametrize("bad", ["1", None, True, [1], 1j])
def test_application_refuses_a_positive_label_that_is_not_a_real_number(bad):
    with pytest.raises(ConfigError, match="positive must be a real number"):
        knn_app(positive=bad)
    for good in (0, 2.5, np.float64(-1.0)):
        knn_app(positive=good)


def test_application_refuses_an_unknown_r2_definition():
    with pytest.raises(ConfigError, match="r2 definition must be pearson or cod"):
        Application(
            "r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2, {"definition": "adjusted"}),
            target=0,
        )
    for good in ("pearson", "cod"):
        Application(
            "r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2, {"definition": good}),
            target=0,
        )


def test_application_refuses_a_param_its_kind_does_not_read():
    with pytest.raises(ConfigError, match="reads no param 'kk'"):
        knn_app(kk=3)
    with pytest.raises(ConfigError, match="reads no param 'k'"):
        Application(
            "r", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target=0, params={"k": 3}
        )
    # a metric param its metric does not read: r2 reads only definition, the
    # other metrics none
    for kind, metric in (
        (AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2, {"defn": "cod"})),
        (AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.ACCURACY, {"definition": "cod"})),
        (AppKind.LOWRANK_RECONSTRUCTION, MetricSpec(MetricName.MSE, {"x": 1})),
    ):
        with pytest.raises(ConfigError, match=f"{metric.name.value} reads no param"):
            Application("m", kind, metric, target=0)
    # an external application's params are its own
    Application(
        "e", AppKind.EXTERNAL, MetricSpec(MetricName.R2), command="run", params={"anything": "x"}
    )


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
    n_val = data.draw(st.integers(1, 100), label="n_val")
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
    n_val = 5 * quality._block_rows(200) // 2
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


@contextlib.contextmanager
def spy(name):
    """Record what every call of `quality.<name>` returns."""
    real = getattr(quality, name)
    returned = []

    def wrapper(*args):
        returned.append(real(*args))
        return returned[-1]

    with mock.patch.object(quality, name, wrapper):
        yield returned


def _screen_case(data):
    """Finite training and validation rows shaped to stress the screen:
    one-ulp near-ties, a large common offset, magnitudes from subnormal up
    to just under the overflow guard, and heavy duplicate rows."""
    k = data.draw(st.integers(1, 8) | st.integers(1, 75), label="k")
    n_train = data.draw(
        st.integers(k, 300) | st.integers(max(quality._SCREEN_MIN_TRAIN, 4 * k), 300), label="n_train"
    )
    n_feat = data.draw(st.integers(1, 64), label="n_feat")
    # up to three blocks; a training set too small to screen is sized as the
    # smallest screened one, whose blocks span many dense chunks
    rows = quality._block_rows(max(n_train, quality._SCREEN_MIN_TRAIN))
    n_val = data.draw(st.integers(1, 2 * rows + 20), label="n_val")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
    base = data.draw(st.sampled_from(["normal", "integers", "offset"]), label="base")
    if base == "normal":
        xt = rng.normal(size=(n_train, n_feat))
        xv = rng.normal(size=(n_val, n_feat))
    else:
        xt = rng.integers(-3, 4, size=(n_train, n_feat)).astype(float)
        xv = rng.integers(-3, 4, size=(n_val, n_feat)).astype(float)
        if base == "offset":  # the matrix product cancels badly around 1e8
            xt += 1e8
            xv += 1e8
    pool = data.draw(st.sampled_from([None, None, 1, 5, 20]), label="duplicate_pool")
    if pool:  # every training row is one of a few
        xt = xt[rng.integers(0, min(pool, n_train), size=n_train)]
    if data.draw(st.booleans(), label="near_ties"):
        # validation rows on top of training rows, and training rows one
        # ulp apart, so exact distances differ in their last bit or tie
        on = rng.integers(0, n_train, size=n_val)
        xv = np.where(rng.random((n_val, 1)) < 0.5, xt[on], xv)
        toward = np.where(rng.random(xt.shape) < 0.5, -np.inf, np.inf)
        xt = np.where(rng.random(xt.shape) < 0.3, np.nextafter(xt, toward), xt)
    scale = data.draw(
        st.sampled_from(["one", "subnormal", "tiny", "huge", "guard", "spread"]), label="scale"
    )
    if scale == "guard":  # (|v| + T)^2 just under the screen's overflow guard
        reach = np.linalg.norm(xv, axis=1).max() + np.linalg.norm(xt, axis=1).max()
        factor = math.sqrt(0.9 * quality._SCREEN_REACH) / max(reach, 1.0)
    elif scale == "spread":  # each feature on its own scale, 1e-320 to 1e140
        factor = 10.0 ** rng.uniform(-320.0, 140.0, size=n_feat)
    else:
        factor = {"one": 1.0, "subnormal": 2.0**-1060, "tiny": 1e-158, "huge": 1e120}[scale]
    xt, xv = xt * factor, xv * factor
    labels = data.draw(st.sampled_from(["few", "distinct"]), label="labels")
    if labels == "distinct":  # the prediction names the nearest rows
        yt = rng.permutation(n_train).astype(float)
    else:
        n_classes = data.draw(st.integers(1, 4), label="n_classes")
        yt = rng.integers(0, n_classes, size=n_train).astype(float)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return xt, yt, xv, k, seed


def test_knn_screen_matches_reference():
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        xt, yt, xv, k, seed = _screen_case(data)
        assert np.isfinite(xt).all() and np.isfinite(xv).all()
        want = reference_knn(xt, yt, xv, k, seed)
        assert np.array_equal(quality._knn_predict(xt, yt, xv, k, seed), want)

    with spy("_screened_nearest") as screened:
        check()
    taken = sum(picked is not None for picked in screened)
    assert taken >= 20, f"the screen ran on {taken} blocks only"


def test_knn_screen_with_the_nearest_rows_in_one_column_group():
    # the screen bounds a row's k-th smallest key by the k-th smallest of
    # the minima of the column slices [0, w), [w, 2w), [2w, 3w), [3w, 4w):
    # put one validation row's 4 nearest training rows, in permutation
    # order, at columns j, w + j, 2w + j and 3w + j, so they share one
    # minimum and the bound reaches past them
    n_train, k, seed, j = 100, 4, 12, 7
    w = n_train // 4
    rng = np.random.default_rng(9)
    xt = rng.normal(size=(n_train, 3)) * 10.0
    xv = rng.normal(size=(quality._block_rows(n_train), 3)) * 10.0
    order = np.argsort(np.random.default_rng(seed).permutation(n_train))
    group = order[[j, w + j, 2 * w + j, 3 * w + j]]
    xt[group] = xv[0] + np.array([[0.01, 0, 0], [0, 0.02, 0], [0, 0, 0.03], [0.04, 0, 0]])
    yt = rng.permutation(n_train).astype(float)  # the vote names the nearest rows
    d2 = ((xv[0] - xt[order]) ** 2).sum(axis=1)
    assert set(np.argsort(d2)[:k] % w) == {j}
    with spy("_screened_nearest") as screened:
        got = quality._knn_predict(xt, yt, xv, k, seed)
    assert len(screened) == 1 and screened[0] is not None
    assert np.array_equal(got, reference_knn(xt, yt, xv, k, seed))


@pytest.mark.parametrize("n_train", [101, 102, 103])
def test_knn_screen_with_leftover_columns(n_train):
    # n_train % 4 columns sit outside the four column slices; validation
    # rows on the training rows there have their nearest row among them
    rng = np.random.default_rng(n_train)
    xt = rng.normal(size=(n_train, 4))
    xv = rng.normal(size=(2 * quality._block_rows(n_train), 4))
    yt = rng.integers(0, 3, size=n_train).astype(float)
    for seed in (0, 1):
        order = np.argsort(np.random.default_rng(seed).permutation(n_train))
        leftover = order[4 * (n_train // 4) :]
        xv[: 3 * leftover.size] = np.tile(xt[leftover], (3, 1))
        for k in (1, 5, 15):
            with spy("_screened_nearest") as screened:
                got = quality._knn_predict(xt, yt, xv, k, seed)
            assert len(screened) == 2 and all(p is not None for p in screened)
            assert np.array_equal(got, reference_knn(xt, yt, xv, k, seed))


def test_knn_screen_falls_back_on_a_non_finite_row():
    rng = np.random.default_rng(4)
    xt = rng.normal(size=(100, 3))
    yt = rng.integers(0, 3, size=100).astype(float)
    xv = rng.normal(size=(2 * quality._block_rows(100), 3))
    xv[5, 1] = math.nan
    with spy("_screened_nearest") as screened, spy("_dense_nearest") as dense:
        got = quality._knn_predict(xt, yt, xv, 3, 0)
    # the block with the NaN row goes dense, the next one is screened
    assert len(dense) == 1 and len(screened) == 1 and screened[0] is not None
    with np.errstate(invalid="ignore"):
        assert np.array_equal(got, reference_knn(xt, yt, xv, 3, 0))
    xt[7, 0] = math.inf  # a non-finite training value: every block goes dense
    with spy("_screened_nearest") as screened, np.errstate(invalid="ignore"):
        got = quality._knn_predict(xt, yt, xv, 3, 0)
        assert not screened
        assert np.array_equal(got, reference_knn(xt, yt, xv, 3, 0))


def test_knn_screen_falls_back_over_the_overflow_guard():
    rng = np.random.default_rng(5)
    xt = rng.normal(size=(100, 3))
    yt = rng.integers(0, 3, size=100).astype(float)
    xv = rng.normal(size=(quality._KNN_BLOCK, 3))  # one block
    big = 2.0 * math.sqrt(quality._SCREEN_REACH)  # (|v| + T)^2 over the guard
    for grown in (xt, xv):  # in the training rows, then in the validation rows
        saved = grown[3, 2]
        grown[3, 2] = big
        with spy("_screened_nearest") as screened, np.errstate(over="ignore", invalid="ignore"):
            got = quality._knn_predict(xt, yt, xv, 3, 1)
            assert not screened
            assert np.array_equal(got, reference_knn(xt, yt, xv, 3, 1))
        grown[3, 2] = saved


def test_knn_screen_falls_back_on_an_all_tied_table():
    # every training row alike, as at a coarse bit-plane bound
    xt = np.full((100, 4), 64.0)
    yt = np.arange(100.0) % 3
    xv = np.random.default_rng(6).normal(size=(3 * quality._block_rows(100), 4))
    with spy("_screened_nearest") as screened, spy("_dense_nearest") as dense:
        got = quality._knn_predict(xt, yt, xv, 5, 2)
    # one block tries the screen; it keeps every pair, so the call goes dense
    assert screened == [None] and len(dense) == 3
    assert np.array_equal(got, reference_knn(xt, yt, xv, 5, 2))


def test_knn_screen_falls_back_mid_call_to_dense_chunks():
    # 60 of 100 training rows alike: the first block, away from them, is
    # screened; the second, on them, keeps too many pairs, so it and the
    # third go dense, in chunks of _SCREEN_CELLS cells of the larger of
    # (41 distinct rows × 3 features) and 100 training rows
    rng = np.random.default_rng(7)
    xt = np.vstack([rng.normal(size=(40, 3)), np.full((60, 3), 50.0)])
    yt = rng.integers(0, 3, size=100).astype(float)
    rows = quality._block_rows(100)
    chunk = quality._SCREEN_CELLS // (41 * 3)
    assert rows > chunk
    xv = rng.normal(size=(3 * rows, 3))
    xv[rows : 2 * rows] = 50.0
    shapes = []
    real = quality._nearest

    def nearest(d2, k):
        shapes.append(d2.shape[0])
        return real(d2, k)

    with (
        spy("_screened_nearest") as screened,
        spy("_dense_nearest") as dense,
        mock.patch.object(quality, "_nearest", nearest),
    ):
        got = quality._knn_predict(xt, yt, xv, 5, 3)
    assert len(screened) == 2 and screened[0] is not None and screened[1] is None
    assert len(dense) == 2
    chunks = [min(chunk, rows - lo) for lo in range(0, rows, chunk)]
    assert shapes == [rows] + 2 * chunks
    assert np.array_equal(got, reference_knn(xt, yt, xv, 5, 3))


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


def test_knn_dense_path_on_a_bitplane_quantized_table_matches_reference():
    # bit-plane acc 64 collapses the training rows to a few distinct ones,
    # so the screen keeps every pair and the call goes dense
    rng = np.random.default_rng(8)
    xt = rng.normal(size=(300, 4)) * 3.0
    xv = rng.normal(size=(3 * quality._block_rows(300), 4)) * 3.0
    yt = rng.integers(0, 3, size=300).astype(float)
    art, _, _ = compress(from_array(xt), ReducerConfig(Method.EBLC_BITPLANE, Mode.ACC, (64.0,)))
    xq = decompress(art)[0].values
    distinct = quality._distinct_rows(xq)[0]
    assert distinct.shape[0] < 10
    with spy("_screened_nearest") as screened, spy("_dense_nearest") as dense:
        got = quality._knn_predict(xq, yt, xv, 5, 4)
    assert screened == [None] and len(dense) == 3
    assert np.array_equal(got, reference_knn(xq, yt, xv, 5, 4))


def test_distinct_rows_keep_signed_zeros_and_nan_payloads_apart():
    nan2 = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]
    xt = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 2.0], [nan2, 2.0], [0.0, 1.0]])
    rows, inverse = quality._distinct_rows(xt)
    assert rows.shape[0] == 4
    assert rows[inverse].tobytes() == xt.tobytes()
