"""Two fixed reference kernels, timed next to every round.

The machine the benchmark runs on is shared with other jobs, and its speed
drifts with their load for longer than a run lasts: rounds timed for four
minutes had 30-second medians that ranged over 0.73-1.04 (desk_search),
0.89-1.07 (knn_scan) and 0.97-1.18 (codec_ladder) of their overall median,
and whole 30-second runs came out a third slower than their neighbours.  No
statistic over one run removes that.  So each timed round is divided by how
much slower than idle the machine ran right before and right after it: a
drift slows the kernels and the round alike, while a change to ppress moves
only the round.

How a drift slows code depends on the code, and ppress mixes interpreter
loops (the Huffman decoder, the quantizer, the LZ parser) with numpy passes
(the kNN model, the bit-plane coder).  One kernel of each kind is timed and
the slowdown is the geometric mean of the two.  Scaled that way, the same
30-second medians stayed within 0.96-1.03, 0.96-1.05 and 0.97-1.11 of their
median; with the loop kernel alone within 0.98-1.06, 0.94-1.06 and
0.98-1.12, with the numpy one alone 0.91-1.02, 0.96-1.06 and 0.96-1.09.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_TABLE = list(range(256))
_WORDS = [(i * 2654435761) & 0xFFFF for i in range(4096)]
_DATA = np.random.default_rng(0).normal(size=200_000)


def _loop_kernel() -> int:
    """Integer and list operations in an interpreter loop."""
    acc = 0
    for i in range(20_000):
        w = (_WORDS[i & 4095] >> (i & 7)) & 255
        acc += _TABLE[w] ^ i
    return acc


def _numpy_kernel() -> int:
    """numpy passes over an array larger than L2, then a shorter loop."""
    order = np.argsort(_DATA[:60_000], kind="stable")
    acc = int(np.cumsum(_DATA)[order[-1]] > 0)
    words = order[:4096].tolist()
    for i in range(12_000):
        acc += _TABLE[(words[i & 4095] >> (i & 7)) & 255] ^ i
    return acc


# each kernel with its best time on an idle core of the machine the bounds
# were set on, so that scaled times read as seconds on that idle machine
KERNELS = ((_loop_kernel, 0.0025), (_numpy_kernel, 0.0076))


def slowdown(repeats: int = 3) -> float:
    """How many times slower than idle the machine runs now."""
    product = 1.0
    for kernel, idle_s in KERNELS:
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        product *= best / idle_s
    return product ** (1.0 / len(KERNELS))


def scale(before: float, after: float) -> float:
    """Factor from wall seconds between two slowdown readings to seconds on
    the idle machine."""
    return 2.0 / (before + after)
