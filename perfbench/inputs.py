"""Seeded inputs of the three workloads.

Every input is a pure function of the run seed.  A run builds several input
variants from its seed (``VARIANTS``) and its rounds cycle through them, so a
run's medians average over several tables instead of hanging on one draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ppress import synth
from ppress.campaign import DatasetPair, SearchDomain, SearchSpec
from ppress.quality import Application, AppKind, MetricName, MetricSpec
from ppress.reducers import Layout, Method, Mode
from ppress.tabular import Dataset, SplitSpec, default_names, from_array, split

VARIANTS = {"full": 12, "tiny": 2}

# the bound ladder of the codec workload, coarse to fine
LADDER_BOUNDS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

# per-workload table shapes: the benchmark size and the self-test size
SHAPES = {
    "desk_search": {"full": (1000, 16), "tiny": (500, 16)},
    "knn_scan": {"full": (1000, 8), "tiny": (300, 4)},
    "codec_ladder": {"full": (1000, 10), "tiny": (300, 3)},
}


def derive(seed: int, variant: int) -> int:
    """Seed of one input variant, independent across (seed, variant) pairs."""
    return int(np.random.SeedSequence([seed, variant]).generate_state(1)[0])


@dataclass(frozen=True)
class CampaignInput:
    """One campaign: a split table, its application and what to search."""

    pair: DatasetPair
    app: Application
    domains: tuple[SearchDomain, ...]
    spec: SearchSpec
    uses_cache: bool
    compress_target: str


@dataclass(frozen=True)
class LadderInput:
    """The two tables every codec configuration of the ladder runs on."""

    tables: tuple[Dataset, ...]


def desk_search(seed: int, size: str = "full") -> CampaignInput:
    """Acceptance criterion 8 at a smaller scale: ridge R^2 on a time-ordered
    low-rank table, predictive rel searched in both layouts, no cache."""
    n_obs, n_feat = SHAPES["desk_search"][size]
    full = synth.make_latent_tabular(
        n_obs=n_obs, n_feat=n_feat, rank=5, noise=0.05, scale_decades=4.0,
        seed=seed, row_corr=0.97,
    )
    # rows carry time structure, so the split stays contiguous
    train, validation = split(full, SplitSpec(0.5, seed=seed, shuffled=False))
    # a small-scale target column: whole-matrix quantization loses it first
    target = f"c{n_feat // 6}"
    app = Application(
        "ridge", AppKind.RIDGE_REGRESSION, MetricSpec(MetricName.R2),
        target=target, seed=seed,
    )
    domains = tuple(
        SearchDomain(Method.EBLC_PRED, Mode.REL, 1e-8, 0.5, scale="log10", layout=layout)
        for layout in (Layout.BY_COLUMN, Layout.MATRIX)
    )
    spec = SearchSpec(tau=0.7, n_candidates=12, eta=0.01, max_iters=16)
    return CampaignInput(DatasetPair(train, validation), app, domains, spec, False, "both")


def knn_scan(seed: int, size: str = "full") -> CampaignInput:
    """kNN g-mean on clustered labelled rows: a grid-scanned sampling domain
    and a bisected bit-plane domain, with an evaluation cache and a store."""
    n_obs, n_feat = SHAPES["knn_scan"][size]
    # well-separated clusters: sampling down to 5% keeps g-mean within eta on
    # every draw, so the grid scan runs in full but its answer does not hang
    # on sampling noise (at separation 0.5-1.0 it jumped between grid points)
    full = synth.make_cluster_labels(
        n_obs=n_obs, n_feat=n_feat, n_classes=3, separation=3.0, seed=seed
    )
    train, validation = split(full, SplitSpec(0.5, seed=seed, shuffled=True))
    app = Application(
        "knn", AppKind.KNN_CLASSIFIER, MetricSpec(MetricName.GMEAN),
        target="label", seed=seed, params={"k": 5, "positive": 1},
    )
    domains = (
        SearchDomain(Method.SAMPLE_WOR, Mode.NONE, 0.05, 1.0, scale="linear"),
        SearchDomain(Method.EBLC_BITPLANE, Mode.ACC, 1e-3, 64.0, scale="log10"),
    )
    spec = SearchSpec(tau=0.3, n_candidates=8, eta=0.01, max_iters=8)
    # only the training rows are reduced, so every probe is scored on the
    # same validation rows
    return CampaignInput(DatasetPair(train, validation), app, domains, spec, True, "train")


def _rough_table(seed: int, n_obs: int, n_feat: int) -> Dataset:
    """Heavy-tailed, sign-mixed f32 columns over four decades of scale, with
    exact zeros of both signs; each column is rescaled to a fixed peak so its
    range does not hang on one extreme draw."""
    rng = np.random.default_rng(seed)
    values = rng.standard_t(df=2.0, size=(n_obs, n_feat))
    values /= np.abs(values).max(axis=0)
    values *= 10.0 ** np.linspace(-1.0, 3.0, n_feat)
    zeros = rng.random(size=values.shape) < 0.02
    values[zeros] = np.where(rng.random(size=int(zeros.sum())) < 0.5, 0.0, -0.0)
    return from_array(values, default_names(n_feat), "f32")


def codec_ladder(seed: int, size: str = "full") -> LadderInput:
    """A smooth time-ordered f64 table and a rough heavy-tailed f32 one."""
    n_obs, n_feat = SHAPES["codec_ladder"][size]
    smooth = synth.make_latent_tabular(
        n_obs=n_obs, n_feat=n_feat, rank=3, noise=0.01, scale_decades=4.0,
        seed=seed, row_corr=0.995,
    )
    rough = _rough_table(seed + 1, n_obs, n_feat)
    return LadderInput((smooth, rough))


GENERATORS = {
    "desk_search": desk_search,
    "knn_scan": knn_scan,
    "codec_ladder": codec_ladder,
}


def build(workload: str, seed: int, size: str = "full") -> list:
    """All input variants of one run, with their pair ids already hashed."""
    return [GENERATORS[workload](derive(seed, v), size) for v in range(VARIANTS[size])]
