"""Release gate: one test per acceptance criterion.

Each criterion gets exactly one test so `pytest -v` prints one pass/fail
line per criterion.  Tests carry their own oracles: closed-form identities,
brute-force reimplementations, or published reference tables, never values
copied out of the implementation under test.
"""

import math
import time

import numpy as np

from ppress.campaign import (
    BaselineMeasured,
    DatasetPair,
    SearchDomain,
    SearchSpec,
    candidate_points,
    find_lower,
    find_upper,
    run_campaign,
)
from ppress.pareto import ObjectivePoint, hypervolume2d, pareto_front, points_from_records
from ppress.perfmodel import (
    TransferScenario,
    core_threshold,
    cores_table,
    speedup,
    time_compressed,
    time_uncompressed,
)
from ppress.quality import AppKind, Application, MetricName, MetricSpec
from ppress.reducers import (
    Layout,
    Method,
    Mode,
    ReducerConfig,
    ReducerKnobs,
    compress,
    decompress,
    delta_transform,
    error_report,
    inverse_delta,
    lossless_decode,
    lossless_encode,
    sample_indices,
)
from ppress.synth import make_latent_tabular
from ppress.tabular import SplitSpec, from_array, split


# ---------------------------------------------------------------------------
# criterion 1: error-bound soundness


def _signal_bank(n_cols: int, n: int, seed: int) -> list[np.ndarray]:
    """Mixed smooth and rough test signals, none constant, none with zeros
    likely enough to matter."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 8.0 * np.pi, n)
    cols = []
    for j in range(n_cols):
        kind = j % 4
        if kind == 0:  # smooth multi-tone
            col = np.zeros(n)
            for _ in range(3):
                col += rng.uniform(0.2, 2.0) * np.sin(
                    rng.uniform(0.5, 40.0) * t + rng.uniform(0.0, 2.0 * np.pi)
                )
            col += 1e-3 * rng.standard_normal(n)
        elif kind == 1:  # random walk, scale varied per column
            col = np.cumsum(rng.standard_normal(n)) * 10.0 ** rng.uniform(-2.0, 2.0)
        elif kind == 2:  # white noise, scale varied per column
            col = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        else:  # heavy-tailed, sign-mixed, very rough
            col = rng.choice([-1.0, 1.0], size=n) * rng.lognormal(0.0, 2.0, size=n)
        cols.append(col)
    return cols


def test_criterion_1_error_bound_soundness():
    t0 = time.perf_counter()
    n = 4096
    cols = _signal_bank(200, n, seed=20)
    checks = (
        (Method.EBLC_PRED, Mode.ABS),
        (Method.EBLC_PRED, Mode.REL),
        (Method.EBLC_PRED, Mode.PW_REL),
        (Method.EBLC_BITPLANE, Mode.ACC),
    )
    bounds = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    violations = 0
    for col in cols:
        ds = from_array(col)
        value_range = float(col.max() - col.min())
        for method, mode in checks:
            for b in bounds:
                artifact, _, _ = compress(ds, ReducerConfig(method, mode, (b,)))
                restored, _, _ = decompress(artifact)
                err = np.abs(restored.values[:, 0] - col)
                if mode is Mode.REL:
                    limit = b * value_range
                elif mode is Mode.PW_REL:
                    limit = b * np.abs(col)
                else:  # ABS and ACC carry the bound directly
                    limit = b
                violations += int(np.count_nonzero(err > limit))
    assert violations == 0
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 2: lossless paths are bit-exact


def test_criterion_2_lossless_round_trips_bit_exact():
    rng = np.random.default_rng(21)
    for i in range(100):
        size = int(rng.integers(0, 4097))
        style = i % 3
        if style == 0:
            payload = rng.bytes(size)
        elif style == 1:
            unit = bytes(rng.integers(0, 256, size=16, dtype=np.uint8).tolist())
            payload = (unit * (size // 16 + 1))[:size]
        else:
            text = "".join(f"{k},{math.sin(k):.9f}\n" for k in range(size // 8 + 1))
            payload = text.encode()[:size]
        assert lossless_decode(lossless_encode(payload)) == payload

    for i in range(100):
        size = int(rng.integers(2, 2049))
        vals = rng.standard_normal(size)
        vals[rng.random(size) < 0.25] *= 1e-310  # push into subnormal range
        vals[rng.random(size) < 0.5] *= -1.0
        vals[0] = -0.0
        raw = vals.tobytes()
        knobs = ReducerKnobs(delta_order=i % 3)
        for method in (Method.NONE, Method.LOSSLESS):
            ds = from_array(vals)
            artifact, _, _ = compress(ds, ReducerConfig(method, Mode.NONE, (), knobs=knobs))
            restored, _, _ = decompress(artifact)
            assert restored.values[:, 0].tobytes() == raw
        for order in (1, 2):
            assert inverse_delta(delta_transform(vals, order), order).tobytes() == raw


# ---------------------------------------------------------------------------
# criterion 3: measured PSNR tracks the uniform-quantization model


def test_criterion_3_psnr_matches_quantization_model():
    rng = np.random.default_rng(42)
    ds = from_array(rng.uniform(0.0, 1.0, size=65536))
    published = {1e-8: 164.7, 1e-7: 144.7, 1e-6: 124.7}
    for r, reference_db in published.items():
        cfg = ReducerConfig(Method.EBLC_PRED, Mode.REL, (r,))
        artifact, _, _ = compress(ds, cfg)
        restored, _, _ = decompress(artifact)
        psnr = error_report(ds, restored).psnr_db
        # uniform error in [-r, r] of the range has MSE (r * range)^2 / 3
        model_db = -20.0 * math.log10(r) + 10.0 * math.log10(3.0)
        assert abs(psnr - model_db) <= 1.5
        assert abs(psnr - reference_db) <= 1.5


# ---------------------------------------------------------------------------
# criterion 4: core-requirement tables match published reference values


_LINK_GBPS = (3.75, 1.0, 0.125)

# (bound label, compression ratio, per-core decompression GB/s,
#  published cores at 3.75 / 1.0 / 0.125 GB/s links)
_CORE_REFERENCE_A = (
    ("1e-8", 5.4, 0.17, (27, 8, 1)),
    ("1e-7", 7.6, 0.28, (16, 5, 1)),
    ("1e-6", 13.1, 0.40, (11, 3, 1)),
    ("1e-5", 35.2, 0.71, (6, 2, 1)),
    ("1e-4", 201.5, 1.28, (3, 1, 1)),
    ("1e-3", 1476.6, 1.44, (3, 1, 1)),
)
# The published table rounds per-core bandwidth to two decimals; the first
# row's cores reconcile only with the unrounded 0.056, so that is carried
# here.  Everything else reproduces from the printed figures within one core.
_CORE_REFERENCE_B = (
    ("1e-8", 2.22, 0.056, (122, 33, 5)),
    ("1e-7", 3.05, 0.08, (69, 19, 3)),
    ("1e-6", 4.61, 0.13, (38, 11, 2)),
    ("1e-5", 10.67, 0.21, (21, 6, 1)),
    ("1e-4", 40.46, 0.38, (11, 3, 1)),
)


def test_criterion_4_core_table_reproduction():
    t0 = time.perf_counter()
    for reference in (_CORE_REFERENCE_A, _CORE_REFERENCE_B):
        entries = [(label, ratio, gbps) for label, ratio, gbps, _ in reference]
        table = cores_table(entries, _LINK_GBPS)
        assert len(table.rows) == len(reference)
        for row, (label, _, _, expected) in zip(table.rows, reference):
            assert row.label == label
            for got, want in zip(row.cores, expected):
                assert got is not None
                assert abs(got - want) <= 1
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 5: speedup identities


def test_criterion_5_speedup_identities():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        ratio = float(10.0 ** rng.uniform(0.005, 4.0))
        s_p = float(10.0 ** rng.uniform(-1.0, 3.0))
        b_c = float(10.0 ** rng.uniform(-2.0, 1.5))
        b_n = float(10.0 ** rng.uniform(-3.0, 1.0))
        size = float(10.0 ** rng.uniform(3.0, 12.0))

        threshold = core_threshold(ratio, b_c, b_n)
        assert abs(speedup(ratio, threshold, b_c, b_n) - 1.0) <= 1e-9

        scenario = TransferScenario(size, b_n, b_c, s_p, ratio)
        direct = time_uncompressed(scenario) / time_compressed(scenario)
        closed = speedup(ratio, s_p, b_c, b_n)
        assert abs(closed - direct) <= 1e-12 * max(closed, direct)


# ---------------------------------------------------------------------------
# criterion 6: front extraction equals brute force


def _brute_front_pairs(cr: np.ndarray, q: np.ndarray) -> set[tuple[float, float]]:
    beats = (
        (cr[:, None] >= cr[None, :])
        & (q[:, None] >= q[None, :])
        & ((cr[:, None] > cr[None, :]) | (q[:, None] > q[None, :]))
    )
    dominated = beats.any(axis=0)
    return set(zip(cr[~dominated].tolist(), q[~dominated].tolist()))


def test_criterion_6_pareto_front_equals_brute_force():
    rng = np.random.default_rng(24)
    for case in range(500):
        n = int(rng.integers(1, 1001))
        cr = 10.0 ** rng.uniform(0.0, 3.0, size=n)
        q = rng.uniform(-0.5, 1.0, size=n)
        if case % 4 == 0 and n >= 8:  # force coincident points
            cr[: n // 4] = cr[n // 4 : 2 * (n // 4)]
            q[: n // 4] = q[n // 4 : 2 * (n // 4)]
        points = [
            ObjectivePoint(cr=float(c), q=float(v), record_ref=f"p{i:04d}", method="m")
            for i, (c, v) in enumerate(zip(cr, q))
        ]
        front = pareto_front(points)
        assert {(p.cr, p.q) for p in front.points} == _brute_front_pairs(cr, q)


# ---------------------------------------------------------------------------
# criterion 7: bound search recovers analytic boundaries


def test_criterion_7_boundary_search_on_analytic_curve():
    phi, tau, tolerance = 0.95, 0.7, 0.02
    edge, decay = 1e-4, 0.25
    bound_min, bound_max = 1e-6, 1.0

    def quality(bound: float) -> float:
        excess = math.log10(bound) - math.log10(edge)
        return phi if excess <= 0 else phi - decay * excess

    search = SearchSpec(tau=tau, n_candidates=9, eta=tolerance, max_iters=20)
    domain = SearchDomain(Method.EBLC_PRED, Mode.REL, bound_min, bound_max, scale="log10")
    upper = find_upper(domain, search, phi, quality)
    lower = find_lower(domain, search, phi, quality)

    span = math.log10(bound_max) - math.log10(bound_min)
    step = span / 2.0 ** (search.max_iters - 2)
    upper_star = math.log10(edge) + tolerance * phi / decay
    lower_star = math.log10(edge) + (phi - tau) / decay
    assert upper.satisfied
    assert abs(math.log10(upper.bound) - upper_star) <= step * (1 + 1e-9)
    assert abs(math.log10(lower.bound) - lower_star) <= step * (1 + 1e-9)

    ladder = candidate_points(lower.config, upper.config, search.n_candidates)
    bounds = [cfg.bound for cfg in ladder.points]
    assert len(bounds) == search.n_candidates
    assert bounds[0] == lower.bound and bounds[-1] == upper.bound
    gaps = np.diff(bounds)
    assert np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# criterion 8: desk-scale campaign on synthetic latent data


def test_criterion_8_desk_scale_campaign():
    t0 = time.perf_counter()
    full = make_latent_tabular(
        n_obs=10_000,
        n_feat=50,
        rank=5,
        noise=0.05,
        scale_decades=4.0,
        seed=7,
        row_corr=0.97,
    )
    # rows carry time structure, so keep the split contiguous
    train, validation = split(full, SplitSpec(0.5, seed=7, shuffled=False))
    pair = DatasetPair(train, validation)
    # target a small-scale column: its information is what careless
    # whole-matrix quantization destroys first
    app = Application(
        "ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2), target="c9", seed=7
    )
    search = SearchSpec(tau=0.7, n_candidates=12, eta=0.01, max_iters=16)
    domains = [
        SearchDomain(Method.EBLC_PRED, Mode.REL, 1e-8, 0.5, scale="log10", layout=layout)
        for layout in (Layout.BY_COLUMN, Layout.MATRIX)
    ]
    steps = []
    run_campaign(pair, [app], domains, search, observer=steps.append)
    baseline, *searched = steps
    assert isinstance(baseline, BaselineMeasured)
    phi = baseline.phi
    assert phi > 0.9

    volumes = {}
    best_tolerated_ratio = 0.0
    for step in searched:
        assert step.reason is None
        layout = step.domain.layout
        # the step's records end with its ladder's, one per candidate
        records = step.records[len(step.records) - len(step.ladder.points):]
        assert [r.config["c"][0] for r in records] == [p.bound for p in step.ladder.points]
        front = pareto_front(points_from_records(records))
        volumes[layout] = hypervolume2d(front, (0.5, 0.0))
        if layout is Layout.BY_COLUMN:
            best_tolerated_ratio = max(
                (
                    r.ratio
                    for r in records
                    if r.ok and phi - r.psi <= 0.01 * abs(phi)
                ),
                default=0.0,
            )

    assert best_tolerated_ratio >= 20.0
    assert volumes[Layout.BY_COLUMN] >= volumes[Layout.MATRIX]
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# criterion 9: sampling invariants


def test_criterion_9_sampling_invariants():
    rng = np.random.default_rng(29)
    for case in range(1000):
        n = int(rng.integers(1, 5001))
        seed = int(rng.integers(0, 2**31))
        scheme = ("naive", "wor", "wr")[case % 3]
        if scheme == "naive":
            param = float(rng.integers(1, 21))
            idx = sample_indices(n, scheme, param, seed)
            assert np.array_equal(idx, np.arange(0, n, int(param)))
        else:
            param = float(rng.uniform(0.05, 1.0))
            expected = int(round(param * n))
            if expected < 1:
                continue  # rejected as empty; covered by unit tests
            idx = sample_indices(n, scheme, param, seed)
            assert len(idx) == expected
            assert idx.min() >= 0 and idx.max() < n
            if scheme == "wor":
                assert len(np.unique(idx)) == len(idx)
                assert np.array_equal(idx, np.sort(idx))
        assert np.array_equal(idx, sample_indices(n, scheme, param, seed))
