import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppress.errors import ConfigError, InfeasibleSearchError
from ppress.perfmodel import (
    CoresTable,
    TransferScenario,
    core_threshold,
    cores_table,
    min_cores,
    speedup,
    time_compressed,
    time_uncompressed,
)
from ppress.reducers import Method, Mode, ReducerConfig, ReducerKnobs


def scenario(size=4e9, b_n=1e9, b_c=0.2e9, s_p=4, ratio=10.0):
    return TransferScenario(size=size, b_n=b_n, b_c=b_c, s_p=s_p, ratio=ratio)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        scenario(size=-1)
    with pytest.raises(ConfigError):
        scenario(b_n=0)
    with pytest.raises(ConfigError):
        scenario(ratio=-2)
    scenario(size=0)  # empty transfers are legal


def test_time_uncompressed_examples():
    gib = 2**30
    assert time_uncompressed(scenario(size=4 * gib, b_n=gib)) == 4.0
    assert time_uncompressed(scenario(size=0)) == 0.0
    assert time_uncompressed(scenario(size=4e9, b_n=125e6)) == 32.0


def test_time_compressed_terms():
    sc = scenario(size=4e9, ratio=10.67, s_p=6, b_c=0.21e9, b_n=1e9)
    decompress = 4e9 / (6 * 0.21e9)
    transfer = 4e9 / (10.67 * 1e9)
    assert decompress == pytest.approx(3.17, rel=1e-2)
    assert transfer == pytest.approx(0.375, rel=1e-2)
    assert time_compressed(sc) == pytest.approx(decompress + transfer)


def test_time_compressed_limit_and_symmetry():
    huge = scenario(ratio=1e15)
    assert time_compressed(huge) == pytest.approx(
        huge.size / (huge.s_p * huge.b_c), rel=1e-5
    )
    # pick s_p so both terms match exactly: s_p * b_c = ratio * b_n
    sc = scenario(ratio=2.0, b_n=1e8, b_c=0.5e8, s_p=4.0)
    assert sc.s_p * sc.b_c == sc.ratio * sc.b_n
    decompress = sc.size / (sc.s_p * sc.b_c)
    assert time_compressed(sc) == pytest.approx(2 * decompress)


def test_speedup_is_time_ratio():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        sc = TransferScenario(
            size=float(rng.uniform(1, 1e12)),
            b_n=float(rng.uniform(1e6, 1e10)),
            b_c=float(rng.uniform(1e6, 1e10)),
            s_p=float(rng.uniform(1, 128)),
            ratio=float(rng.uniform(0.1, 1e4)),
        )
        direct = speedup(sc.ratio, sc.s_p, sc.b_c, sc.b_n)
        via_times = time_uncompressed(sc) / time_compressed(sc)
        assert abs(direct - via_times) <= 1e-12 * abs(via_times)


def test_speedup_at_threshold_is_one():
    rng = np.random.default_rng(1)
    for _ in range(500):
        ratio = float(rng.uniform(1.001, 5000))
        b_c = float(rng.uniform(1e6, 1e10))
        b_n = float(rng.uniform(1e6, 1e10))
        s_star = core_threshold(ratio, b_c, b_n)
        assert speedup(ratio, s_star, b_c, b_n) == pytest.approx(1.0, rel=1e-9)


def test_speedup_reference_row():
    gain = speedup(1476.6, 3, 1.44, 3.75)
    assert gain == pytest.approx(1.15, abs=0.01)
    assert gain > 1


def test_speedup_monotone_in_cores_and_ratio():
    rng = np.random.default_rng(2)
    for _ in range(200):
        ratio = float(rng.uniform(1.1, 1000))
        b_c = float(rng.uniform(0.01, 10))
        b_n = float(rng.uniform(0.01, 10))
        s_p = float(rng.uniform(1, 64))
        base = speedup(ratio, s_p, b_c, b_n)
        assert speedup(ratio, s_p * 1.01, b_c, b_n) > base
        assert speedup(ratio * 1.01, s_p, b_c, b_n) > base


def test_speedup_limits():
    # ratio large: the transfer term vanishes, gain approaches s_p*b_c/b_n
    assert speedup(1e9, 8, 2.0, 1.0) == pytest.approx(16.0, rel=1e-2)
    # decompression effectively free: gain approaches the ratio itself
    assert speedup(50.0, 1e9, 1.0, 1.0) == pytest.approx(50.0, rel=1e-2)


def test_min_cores_reference_values():
    assert min_cores(1476.6, 1.44, 3.75) == 3
    assert min_cores(201.5, 1.28, 1.0) == 1
    assert min_cores(1.0001, 1.0, 1.0) == 10002


def test_min_cores_rejects_useless_ratio():
    with pytest.raises(InfeasibleSearchError):
        min_cores(1.0, 1.0, 1.0)
    with pytest.raises(InfeasibleSearchError):
        min_cores(0.5, 1.0, 1.0)


@given(
    ratio=st.floats(min_value=1.01, max_value=5000),
    b_c=st.floats(min_value=1e-3, max_value=1e3),
    b_n=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_min_cores_is_the_break_even_count(ratio, b_c, b_n):
    n = min_cores(ratio, b_c, b_n)
    threshold = core_threshold(ratio, b_c, b_n)
    assert n >= 1
    assert n > threshold
    if n > 1:
        assert n - 1 <= threshold
    # the gain comparison is only float-exact away from the knife edge
    assert speedup(ratio, n, b_c, b_n) >= 1.0 - 1e-12
    if n > 1:
        assert speedup(ratio, n - 1, b_c, b_n) <= 1.0 + 1e-12


def test_cores_table_single_entry():
    table = cores_table([("1e-3", 10.0, 1.5)], [1.0])
    assert len(table.rows) == 1
    assert table.rows[0].cores == (min_cores(10.0, 1.5e9, 1.0e9),)
    assert table.rows[0].label == "1e-3"


def test_cores_table_monotone_in_bandwidth():
    table = cores_table([("x", 5.4, 0.17)], [3.75, 1.0, 0.125])
    cores = table.rows[0].cores
    assert cores[0] >= cores[1] >= cores[2]


def test_cores_table_marks_infeasible():
    table = cores_table([("flat", 1.0, 1.0)], [1.0, 0.5])
    assert table.rows[0].cores == (None, None)
    assert "infeasible" in table.to_csv()
    assert "infeasible" in table.to_text()


def test_cores_table_validation():
    with pytest.raises(ConfigError):
        cores_table([], [1.0])
    with pytest.raises(ConfigError):
        cores_table([("a", 2.0, 1.0)], [])
    with pytest.raises(ConfigError):
        cores_table([("a", 2.0, 1.0)], [0.0])


def test_cores_table_accepts_records():
    class FakeRecord:
        config = ReducerConfig(Method.EBLC_PRED, Mode.REL, (1e-4,)).to_dict()
        dataset_id = "d"
        compress_target = "both"
        ratio = 100.0
        decompress_mbps = 1440.0
        report = {"train": {"psnr_db": 80.0}, "validation": {"psnr_db": 75.5}}

    table = cores_table([FakeRecord()], [3.75, 1.0])
    row = table.rows[0]
    assert row.label == "eblc_pred:rel:0.0001:by_column"
    assert row.decompress_gbps == pytest.approx(1.44)
    assert row.psnr_db == 75.5  # worst part governs
    assert row.cores[0] == min_cores(100.0, 1.44e9, 3.75e9)


def test_cores_table_gives_a_configuration_scored_twice_one_row():
    def record(bound, mbps, dataset_id="d", target="both"):
        return SimpleNamespace(
            config=ReducerConfig(Method.EBLC_PRED, Mode.REL, (bound,)).to_dict(),
            dataset_id=dataset_id, compress_target=target, ratio=10.0 * bound / 1e-4,
            decompress_mbps=mbps, report={"train": {"psnr_db": 60.0}},
        )

    table = cores_table(
        [record(1e-4, 1000.0), record(1e-3, 50.0), record(1e-4, 3000.0), record(1e-4, 1200.0),
         record(1e-4, 7.0, dataset_id="e"), record(1e-4, 9.0, target="train")],
        [1.0],
    )
    label = "eblc_pred:rel:0.0001:by_column"
    assert [(row.label, row.decompress_gbps) for row in table.rows] == [
        (label, 1.2), ("eblc_pred:rel:0.001:by_column", 0.05), (label, 0.007), (label, 0.009)
    ]
    assert table.rows[0].ratio == 10.0 and table.rows[0].psnr_db == 60.0
    assert table.rows[0].cores == (min_cores(10.0, 1.2e9, 1e9),)
    with pytest.raises(ConfigError, match="no ratio or bandwidth"):
        cores_table([record(1e-4, 1000.0), record(1e-4, None)], [1.0])

    # configurations that differ only in a knob are rows of their own
    def lossless(order, ratio, mbps):
        config = ReducerConfig(Method.LOSSLESS, knobs=ReducerKnobs(delta_order=order))
        return SimpleNamespace(config=config.to_dict(), dataset_id="d", compress_target="both",
                               ratio=ratio, decompress_mbps=mbps, report=None)

    table = cores_table(
        [lossless(0, 1.5, 400.0), lossless(1, 2.5, 100.0), lossless(0, 1.5, 600.0)], [1.0]
    )
    assert [(row.label, row.ratio, row.decompress_gbps) for row in table.rows] == [
        ("lossless:by_column", 1.5, 0.5), ("lossless:by_column:delta_order=1", 2.5, 0.1)
    ]


def test_cores_table_csv_and_text_shape():
    table = cores_table([("a", 10.0, 1.0), ("b", 2.0, 0.5)], [1.0, 0.125])
    csv = table.to_csv().strip().splitlines()
    assert csv[0] == "label,psnr_db,ratio,decompress_gbps,cores_at_1GBps,cores_at_0.125GBps"
    assert len(csv) == 3
    text = table.to_text().strip().splitlines()
    assert len(text) == 3
    assert text[0].split()[-2:] == ["1", "GB/s"] or "GB/s" in text[0]


def test_cores_table_csv_and_text_match_golden():
    table = cores_table([("a", 10.0, 1.0), ("bb", 2.0, 0.5), ("flat", 1.0, 3.0)],
                        [3.75, 1.0, 0.125])
    assert table.to_csv() == (
        "label,psnr_db,ratio,decompress_gbps,cores_at_3.75GBps,cores_at_1GBps,cores_at_0.125GBps\n"
        "a,,10,1,5,2,1\n"
        "bb,,2,0.5,16,5,1\n"
        "flat,,1,3,infeasible,infeasible,infeasible\n"
    )
    assert table.to_text() == (
        "label  psnr(dB)  ratio  b_c(GB/s)   3.75 GB/s      1 GB/s  0.125 GB/s\n"
        "    a         -     10          1           5           2           1\n"
        "   bb         -      2        0.5          16           5           1\n"
        " flat         -      1          3  infeasible  infeasible  infeasible\n"
    )
