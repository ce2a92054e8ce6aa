"""The repository's benchmark: three workloads and a per-layer trace.

See ``perfbench/README.md`` for the workloads, the metrics and the
layer each metric belongs to; ``perfbench/run.py`` is the entry point.
"""
