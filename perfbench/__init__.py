"""End-to-end and per-layer benchmark of the CRSE search service.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads and the metric map.
"""
