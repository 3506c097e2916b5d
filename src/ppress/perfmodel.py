"""Analytical model of moving compressed data versus raw data.

Reading compressed data costs a transfer at the reduced size plus a parallel
decompression pass; the win over a raw transfer depends only on the
compression ratio, the per-core decompression bandwidth, the parallel factor,
and the link bandwidth.  Bandwidths cancel in the speedup ratio, so any
consistent unit works; the table helpers speak decimal GB/s to stay close to
how hardware is usually quoted.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, InfeasibleSearchError
from .reducers.config import ReducerConfig

_GB = 1e9


@dataclass(frozen=True)
class TransferScenario:
    """One dataset moving over one link into one decompression pool."""

    size: float  # bytes
    b_n: float  # link bandwidth, bytes/s
    b_c: float  # single-core decompression bandwidth, bytes/s
    s_p: float  # parallel speedup factor, roughly the core count
    ratio: float  # compression ratio

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigError(f"size must be nonnegative, got {self.size}")
        for field_name in ("b_n", "b_c", "s_p", "ratio"):
            v = getattr(self, field_name)
            if not v > 0:
                raise ConfigError(f"{field_name} must be positive, got {v}")


def time_uncompressed(scenario: TransferScenario) -> float:
    """Seconds to move the raw bytes across the link."""
    return scenario.size / scenario.b_n


def time_compressed(scenario: TransferScenario) -> float:
    """Seconds to move the compressed bytes and decompress them."""
    decompress = scenario.size / (scenario.s_p * scenario.b_c)
    transfer = scenario.size / (scenario.ratio * scenario.b_n)
    return decompress + transfer


def speedup(ratio: float, s_p: float, b_c: float, b_n: float) -> float:
    """Raw-transfer time over compressed-transfer time; size cancels."""
    if not (ratio > 0 and s_p > 0 and b_c > 0 and b_n > 0):
        raise ConfigError("speedup needs positive ratio, s_p, b_c, b_n")
    return (ratio * s_p * b_c) / (ratio * b_n + s_p * b_c)


def core_threshold(ratio: float, b_c: float, b_n: float) -> float:
    """Parallel factor at which compressed exactly ties raw."""
    if not ratio > 1:
        raise InfeasibleSearchError(
            f"compression ratio {ratio:g} cannot pay for itself"
        )
    if not (b_c > 0 and b_n > 0):
        raise ConfigError("bandwidths must be positive")
    return ratio * b_n / (b_c * (ratio - 1.0))


def min_cores(ratio: float, b_c: float, b_n: float) -> int:
    """Fewest cores whose parallel decompression beats the raw transfer."""
    threshold = core_threshold(ratio, b_c, b_n)
    if threshold < 1.0:
        return 1
    return int(math.floor(threshold)) + 1


@dataclass(frozen=True)
class CoreRow:
    """One configuration's core requirements across the bandwidth columns."""

    label: str
    psnr_db: float | None
    ratio: float
    decompress_gbps: float
    cores: tuple[int | None, ...]  # None marks an infeasible ratio


@dataclass(frozen=True)
class CoresTable:
    bandwidths_gbps: tuple[float, ...]
    rows: tuple[CoreRow, ...]

    def _cells(self, no_psnr: str) -> list[list[str]]:
        """Each row's cells, with `no_psnr` where a row has no PSNR."""
        return [
            [row.label, no_psnr if row.psnr_db is None else f"{row.psnr_db:.2f}",
             f"{row.ratio:g}", f"{row.decompress_gbps:g}",
             *("infeasible" if c is None else str(c) for c in row.cores)]
            for row in self.rows
        ]

    def to_csv(self) -> str:
        head = ["label", "psnr_db", "ratio", "decompress_gbps"]
        head += [f"cores_at_{b:g}GBps" for b in self.bandwidths_gbps]
        return "".join(",".join(cells) + "\n" for cells in [head, *self._cells("")])

    def to_text(self) -> str:
        head = ["label", "psnr(dB)", "ratio", "b_c(GB/s)"]
        head += [f"{b:g} GB/s" for b in self.bandwidths_gbps]
        lines = [head, *self._cells("-")]
        fmt = "  ".join(f"{{:>{max(map(len, column))}}}" for column in zip(*lines))
        return "".join(fmt.format(*cells) + "\n" for cells in lines)


def _row_psnr(report: dict | None) -> float | None:
    if not report:
        return None
    values = [
        part["psnr_db"]
        for part in report.values()
        if isinstance(part, dict) and part.get("psnr_db") is not None
    ]
    return min(values) if values else None


def _record_rows(records) -> list[tuple]:
    """(label, ratio, GB/s, PSNR) of each configuration, knobs included, that
    the records score on one dataset pair and compress target.  A
    deterministic codec gives all of them one ratio and error report; the
    bandwidth is their median.  A label that two rows would share gains
    @<compress target>:<first 8 hex digits of the dataset id>."""
    groups: dict[tuple[ReducerConfig, str, str], list] = {}
    for rec in records:
        key = (ReducerConfig.from_dict(rec.config), rec.dataset_id, rec.compress_target)
        groups.setdefault(key, []).append(rec)
    labels = Counter(config.label() for config, _, _ in groups)
    rows = []
    for (config, dataset_id, target), recs in groups.items():
        mbps = [rec.decompress_mbps for rec in recs]
        gbps = None if None in mbps else statistics.median(mbps) / 1000.0
        label = config.label()
        if labels[label] > 1:
            label += f"@{target}:{dataset_id[:8]}"
        rows.append((label, recs[0].ratio, gbps, _row_psnr(recs[0].report)))
    return rows


def cores_table(
    entries: Sequence, bandwidths_gbps: Sequence[float]
) -> CoresTable:
    """Core requirements per configuration per link bandwidth.

    Entries are either evaluation records, one row per configuration,
    dataset pair and compress target (see _record_rows), or plain (label,
    ratio, decompress_gbps) tuples, one row each.
    """
    if not entries:
        raise ConfigError("cores table needs at least one entry")
    if not bandwidths_gbps:
        raise ConfigError("cores table needs at least one bandwidth")
    for b in bandwidths_gbps:
        if not b > 0:
            raise ConfigError(f"bandwidth must be positive, got {b}")
    if isinstance(entries[0], tuple):
        entries = [(*entry, None) for entry in entries]
    else:
        entries = _record_rows(entries)
    rows = []
    for label, ratio, gbps, psnr in entries:
        if ratio is None or gbps is None:
            raise ConfigError(f"entry {label!r} carries no ratio or bandwidth")
        cores = []
        for b in bandwidths_gbps:
            if ratio > 1.0:
                cores.append(min_cores(ratio, gbps * _GB, b * _GB))
            else:
                cores.append(None)
        rows.append(
            CoreRow(
                label=str(label),
                psnr_db=psnr,
                ratio=float(ratio),
                decompress_gbps=float(gbps),
                cores=tuple(cores),
            )
        )
    return CoresTable(
        bandwidths_gbps=tuple(float(b) for b in bandwidths_gbps), rows=tuple(rows)
    )
