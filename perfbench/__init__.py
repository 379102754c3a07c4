"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout; see ``README.md``
in this directory for the workloads, metrics and the layer map.
"""
