"""repro.obs — zero-dependency tracing, metrics, and logging.

Three small, orthogonal pieces:

* :mod:`repro.obs.trace` — hierarchical spans plus structured events,
  recorded in memory and/or streamed as JSONL.  The process-global
  tracer defaults to a no-op whose cost is one attribute check per
  instrumentation site.
* :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  timers with a flat ``snapshot()`` for reports and the CLI ``--stats``
  flag.
* :mod:`repro.obs.log` — stdlib-``logging`` setup for the ``repro.*``
  logger hierarchy, controlled by ``REPRO_LOG`` or ``--verbose``.

The instrumented subsystems emit the following trace vocabulary (see
README's Observability section for the full schema):

========================  ============================================
span / event              emitted by
========================  ============================================
``optimizer.query``       one per :func:`repro.optimizer.optimize_query`
``optimizer.group``       one span per memo group optimized
``search.retain``         candidate entered the winner set
``search.prune``          candidate discarded; ``reason`` is
                          ``dominated`` or ``budget``
``search.group_pruned``   completed group rejected against a caller limit
``choose.decision``       one event per choose-plan operator decided
``choose.tie``            equal re-evaluated costs broke toward the
                          first alternative (documented determinism)
``chooser.resolved``      summary event per :func:`resolve_plan`
``executor.execute``      summary event per :func:`execute_plan`
``executor.operator``     per-operator runtime counters (EXPLAIN ANALYZE)
``estimate.out_of_interval``  pipeline breaker observed a cardinality
                          outside its compile-time interval (telemetry
                          ledger; carries the error ratio)
``plan.regression``       cached plan ran well above its runtime
                          baseline (flight recorder)
``service.invoke``        one span per service invocation (worker thread,
                          re-parented under the submitter's span)
``parallel.exchange``     one event per drained exchange (rows per
                          worker)
========================  ============================================
"""

from repro.obs.log import get_logger, setup_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_metrics,
    render_openmetrics,
    set_metrics,
    snapshot_jsonl,
    use_metrics,
    validate_openmetrics,
)
from repro.obs.telemetry import (
    CardinalityLedger,
    FlightRecord,
    FlightRecorder,
    LedgerEntry,
    disable_telemetry,
    enable_telemetry,
    get_flight_recorder,
    get_ledger,
    plan_signature,
    reset_telemetry,
)
from repro.obs.trace import (
    NULL_TRACER,
    RecordingTracer,
    SamplingTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CardinalityLedger",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LedgerEntry",
    "MetricsRegistry",
    "NULL_TRACER",
    "RecordingTracer",
    "SamplingTracer",
    "Span",
    "Timer",
    "Tracer",
    "disable_telemetry",
    "enable_telemetry",
    "get_flight_recorder",
    "get_ledger",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "plan_signature",
    "render_openmetrics",
    "reset_telemetry",
    "set_metrics",
    "set_tracer",
    "setup_logging",
    "snapshot_jsonl",
    "use_metrics",
    "use_tracer",
    "validate_openmetrics",
]
