"""Seeded end-to-end and per-layer benchmark of the ftoracle library.

Run it from the repository root:

    python3 perfbench/run.py --workload build-n16-d2 --seed 1 --seconds 10 --trace 0

See ``run.py`` for the output format and ``workloads.py`` for what each
workload exercises.
"""
