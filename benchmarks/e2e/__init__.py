"""benchmarks.e2e — the request-lifecycle benchmark.

One benchmark for the whole system: five workloads, end-to-end metrics
from untraced runs, per-layer metrics from a traced replay.  See
``README.md`` in this directory; ``run.py`` is the entry point.
"""
