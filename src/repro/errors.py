"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so applications
can catch everything from this package with one handler while still
distinguishing catalog, optimization, binding, parsing, and execution
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CatalogError(ReproError):
    """Unknown relation/attribute/index, or inconsistent catalog metadata."""


class BindingError(ReproError):
    """A run-time binding is missing, out of range, or of the wrong kind."""


class OptimizationError(ReproError):
    """The search engine could not produce a plan (e.g. no implementation
    rule applies, or an internal invariant was violated)."""


class PlanError(ReproError):
    """A physical plan is structurally invalid (bad arity, dangling input,
    or an operation applied to the wrong node kind)."""


class ParseError(ReproError):
    """The SQL front end rejected the query text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ExecutionError(ReproError):
    """The execution engine failed while evaluating a physical plan."""


class ServiceError(ReproError):
    """The query service could not accept or complete an invocation."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the invocation: the queue is full.

    Backpressure signal — callers should retry later or shed load.
    ``retry_after_hint`` is the service's machine-readable estimate (in
    seconds) of when capacity should free up — queue depth times the
    recent per-request latency, divided across the workers —
    and ``queue_depth`` is the number of requests pending at rejection
    time.  Both are carried on the exception so clients and load drivers
    can implement informed backoff instead of parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after_hint: float = 0.0,
        queue_depth: int = 0,
    ) -> None:
        super().__init__(message)
        self.retry_after_hint = retry_after_hint
        self.queue_depth = queue_depth


class ServiceClosedError(ServiceError):
    """The query service is shut down (or shutting down) and accepts no
    new invocations."""


class ShardFailedError(ServiceError):
    """A shard process died or stopped responding mid-request.

    Raised by the scatter/gather coordinator after its retry-once policy
    is exhausted: the failed shard owns a horizontal partition of the
    data, so its loss can never be papered over with partial results.
    ``shard_id`` names the failed shard; ``retried`` records whether a
    restart-and-resend was already attempted for the request.
    """

    def __init__(
        self, message: str, *, shard_id: int = -1, retried: bool = False
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.retried = retried
