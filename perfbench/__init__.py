"""Benchmark of ppress: two boundary-search campaigns and a codec ladder.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout; see README.md in this directory.
"""
