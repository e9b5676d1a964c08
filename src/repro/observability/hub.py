"""The Observability hub: audit + tracing + metrics for one DSMS.

:class:`Observability` bundles the optional :class:`AuditLog`, the
:class:`TraceSink` and the optional
:class:`~repro.observability.metrics.MetricsRegistry` a DSMS runs
with.  The default (built by :meth:`Observability.disabled`) carries
no audit log, a :class:`NullTraceSink` and no registry, so
instrumented code paths reduce to cheap ``is None`` / ``enabled``
checks.  :meth:`Observability.in_memory` turns everything on with
bounded in-memory storage; :meth:`Observability.with_metrics` enables
only the metrics registry (the cheapest always-on production
configuration).
"""

from __future__ import annotations

from repro.observability.audit import DEFAULT_CAPACITY, AuditLog
from repro.observability.instruments import EngineInstruments
from repro.observability.metrics import MetricsRegistry
from repro.observability.provenance import DEFAULT_SAMPLE_RATE, Tracer
from repro.observability.trace import NullTraceSink, TraceSink

__all__ = ["Observability"]


class Observability:
    """Audit log + trace sink + metrics shared by one DSMS."""

    def __init__(self, *, audit: AuditLog | None = None,
                 tracer: TraceSink | None = None,
                 metrics: MetricsRegistry | None = None):
        self.audit = audit
        self.tracer = tracer if tracer is not None else NullTraceSink()
        self.metrics = metrics
        self._instruments: EngineInstruments | None = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Observability":
        """No audit, no tracing, no metrics — the zero-overhead default."""
        return cls()

    @classmethod
    def in_memory(cls, *, audit_capacity: int = DEFAULT_CAPACITY,
                  trace_capacity: int = 4096) -> "Observability":
        """Bounded in-memory audit log + causal tracer + metrics
        registry (everything on, every trace sampled)."""
        return cls(audit=AuditLog(audit_capacity),
                   tracer=Tracer(sample=1.0,
                                 recorder_capacity=trace_capacity),
                   metrics=MetricsRegistry())

    @classmethod
    def with_metrics(cls) -> "Observability":
        """Metrics registry only: no audit trail, no tracing.

        The configuration the overhead benchmark calls "registry on"
        — counters, gauges and histograms are live, but nothing is
        recorded per decision and batched fast paths stay enabled.
        """
        return cls(metrics=MetricsRegistry())

    @classmethod
    def with_tracing(cls, *, sample: float = DEFAULT_SAMPLE_RATE,
                     recorder_capacity: int = 4096,
                     sink: TraceSink | None = None) -> "Observability":
        """Causal tracing only — the leave-it-on production tier.

        Head-samples one trace in ~64 by default, always keeps
        security-drop provenance and feeds the always-on flight
        recorder; no audit log and no metrics registry, so the batched
        fast paths stay fully engaged.
        """
        return cls(tracer=Tracer(sink, sample=sample,
                                 recorder_capacity=recorder_capacity))

    @property
    def enabled(self) -> bool:
        return (self.audit is not None or self.tracer.enabled
                or self.metrics is not None)

    @property
    def instruments(self) -> EngineInstruments | None:
        """The engine's canonical instruments (``None`` without a
        registry); built lazily, once, on first access."""
        if self.metrics is None:
            return None
        if self._instruments is None:
            self._instruments = EngineInstruments(self.metrics)
        return self._instruments

    # -- wiring -------------------------------------------------------------
    def bind(self, operator, query: str | None = None) -> None:
        """Point one plan operator at this hub's audit log.

        Operators record through their ``audit`` attribute; ``query``
        attributes events to a specific registered query (shields and
        delivery shields), ``None`` leaves shared operators
        query-anonymous.  The query attribution is kept even without
        an audit log: metric series label by it too.
        """
        if query is not None:
            operator.audit_query = query
        if self.audit is not None:
            operator.audit = self.audit

    def span(self, name: str, **attrs) -> None:
        """Emit one trace span event (no-op when tracing is off)."""
        if self.tracer.enabled:
            self.tracer.span(name, **attrs)

    def __repr__(self) -> str:
        return (f"Observability(audit={self.audit!r}, "
                f"tracer={type(self.tracer).__name__}, "
                f"metrics={self.metrics!r})")
