"""The vloc benchmark: seeded closed-loop workloads, end-to-end metrics and
a per-module traced run. Entry point: ``python3 perfbench/run.py``."""
