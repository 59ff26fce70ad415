"""Benchmark of rayenc's public API: ingest and scan workloads.

Run it from the root of a checkout with ``python3 perfbench/run.py``;
``perfbench/README.md`` documents the workloads and metrics.
"""
