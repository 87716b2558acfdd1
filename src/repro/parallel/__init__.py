"""Intra-query parallelism: exchange operators and degree-of-parallelism.

The subsystem has three layers, mirroring the serial engine's split:

* :mod:`repro.parallel.plan` — the :class:`ExchangeNode` physical operator
  and its interval cost semantics (the DOP is a run-time parameter);
* :mod:`repro.parallel.rules` — optimizer rules producing the parallel
  alternative of a serial winner, competing in the same winner set;
* :mod:`repro.parallel.exchange` — execution: per-worker partitions,
  workers pulled in the caller's thread on their own disk streams, and
  the order-preserving merge.

Only the optimizer-side layers load eagerly: the optimizer imports this
package before the executor package exists (``repro/__init__`` loads the
optimizer first), so the execution-side names — which depend on
:mod:`repro.executor` — resolve lazily on first attribute access.
"""

from repro.parallel.plan import ExchangeMode, ExchangeNode
from repro.parallel.rules import parallel_alternative

_EXECUTION_EXPORTS = (
    "ExchangeIterator",
    "HashStripeIterator",
    "ModuloStripeIterator",
    "PartitionSpec",
)

__all__ = [
    "ExchangeMode",
    "ExchangeNode",
    "parallel_alternative",
    *_EXECUTION_EXPORTS,
]


def __getattr__(name: str):
    if name in _EXECUTION_EXPORTS:
        from repro.parallel import exchange

        return getattr(exchange, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
