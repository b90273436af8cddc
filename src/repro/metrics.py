"""Runtime performance metrics: counters, spans, scopes, JSON export.

This module is the observability backbone of the package: the simulator, the
pressure solvers, the training loop and the adaptive controller all report
into a :class:`MetricsRegistry`, so any run can emit a structured profile
(``repro simulate --json``, ``repro adaptive --json``).

Distinct from :mod:`repro.core.metrics`, which holds the paper's *simulation
quality* metrics (quality loss, CumDivNorm, correlations); this module is
about wall-clock and event accounting of the runtime itself.

Concepts
--------
counters
    Monotonic floats keyed by name (``inc``).
spans
    :meth:`MetricsRegistry.span` times a region once: the duration feeds
    the registry's ``span_seconds{span}`` histogram family and, when the
    process tracer (:func:`repro.trace.get_tracer`) is enabled, the
    trace's span of the same name, so aggregates and the timeline cannot
    disagree.
scopes
    Hierarchical name prefixes: inside ``with m.scope("sim")`` every
    counter name is recorded as ``sim/<name>``, so nested components
    compose into a readable tree (``sim/solver/pcg/solves``).  Span names
    are not scoped: a span is named the same in the trace and the family.
export
    ``to_dict``/``to_json`` produce a plain-JSON snapshot; ``from_dict``
    restores it, so profiles round-trip through files losslessly.
    Snapshots written before spans replaced timers carry a ``timers`` key,
    which ``from_dict`` ignores.

Instrumented components accept an optional ``metrics`` argument and default
to the process-wide registry (:func:`get_metrics`), so existing call sites
stay unchanged while still contributing to the global profile.

The default registry is *fork-aware*: a child process inherits the parent's
registry object at fork time, so without care its metrics would land in a
copy the parent never reads.  :func:`get_metrics` detects the PID change and
transparently installs a fresh registry in the child; workers are expected
to ship their snapshot back (``to_dict``) for the parent to fold in with
:meth:`MetricsRegistry.merge`, which is how :mod:`repro.farm` aggregates
per-worker profiles into one farm-level report.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

from repro.trace import get_tracer

__all__ = [
    "MetricsRegistry",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
]

class MetricsRegistry:
    """Counters and span timings with hierarchical scopes and JSON export.

    A disabled registry (``enabled=False``) turns every operation into a
    cheap no-op, so instrumentation can stay unconditionally in hot paths.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        # labeled metric families (repro.obs); created lazily so flat-only
        # users pay nothing and snapshots without labels stay byte-stable
        self._families = None
        # span name -> bound ``span_seconds`` series (one lookup per name)
        self._span_series: dict[str, object] = {}
        # scope prefixes are *thread-local*: concurrent threads (e.g. the
        # serve tier's pool workers) each keep their own stack, so scopes
        # never interleave across threads
        self._scope_tls = threading.local()

    @property
    def families(self):
        """Labeled metric families riding on this registry (lazy).

        Returns a :class:`repro.obs.families.MetricFamilies` that shares
        this registry's lifecycle: it serialises inside :meth:`to_dict`,
        folds commutatively in :meth:`merge`, and clears on :meth:`reset`
        — so worker processes ship labeled series home over the exact
        fork/snapshot/merge path the flat counters already use.  On a
        disabled registry this is the shared no-op ``NULL_FAMILIES``.
        """
        from repro.obs.families import NULL_FAMILIES, MetricFamilies

        if not self.enabled:
            return NULL_FAMILIES
        if self._families is None:
            self._families = MetricFamilies()
        return self._families

    # ------------------------------------------------------------------
    @property
    def _prefix(self) -> list[str]:
        prefix = getattr(self._scope_tls, "prefix", None)
        if prefix is None:
            prefix = self._scope_tls.prefix = []
        return prefix

    def _qualify(self, name: str) -> str:
        prefix = self._prefix
        return "/".join(prefix + [name]) if prefix else name

    @contextmanager
    def scope(self, name: str):
        """Prefix every counter recorded inside the block with ``name/``.

        The prefix applies to the current thread only.
        """
        if not self.enabled:
            yield self
            return
        prefix = self._prefix
        prefix.append(name)
        try:
            yield self
        finally:
            prefix.pop()

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        if not self.enabled:
            return
        key = self._qualify(name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block once, for this registry and the process trace.

        One ``perf_counter`` pair measures the block.  When this registry
        is enabled the duration lands in its ``span_seconds`` histogram
        under ``span=name``; when the process tracer is enabled it becomes
        the ``dur`` of a trace span named ``name`` with ``attrs``, whose
        id is the series exemplar.  Yields that live
        :class:`~repro.trace.Span` (its ``attrs`` may be filled in during
        the block), or None when the tracer is off.
        """
        tracer = get_tracer()
        series = self._span_series_of(name) if self.enabled else None
        if series is None and not tracer.enabled:
            yield None
            return
        sp = tracer.open_span(name, attrs) if tracer.enabled else None
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            dur = time.perf_counter() - t0
            if sp is not None:
                tracer.close_span(sp, dur)
            if series is not None:
                series.observe(dur, None if sp is None else sp.span_id)

    def _span_series_of(self, name: str):
        series = self._span_series.get(name)
        if series is None:
            series = self._span_series[name] = self.families.histogram(
                "span_seconds",
                help="Wall-clock per library span, by span name.",
                labels=("span",),
                unit="seconds",
            ).labels(span=name)
        return series

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or a ``to_dict`` snapshot) into this one.

        Counters add; families combine series-wise.  Merging is
        commutative and associative, so per-worker registries can be folded
        into a farm-level report in any order.  Returns ``self``.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_dict(other)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        if other._families is not None and len(other._families):
            self.families.merge(other._families)
        return self

    def reset(self) -> None:
        """Drop all recorded counters and families (keeps enabled)."""
        self.counters.clear()
        self._span_series.clear()
        if self._families is not None:
            self._families.reset()

    def to_dict(self) -> dict:
        """Snapshot as a plain-JSON-serialisable dict.

        The ``families`` key appears only when labeled families were
        recorded.
        """
        snapshot = {"counters": dict(sorted(self.counters.items()))}
        if self._families is not None and len(self._families):
            snapshot["families"] = self._families.to_dict()["families"]
        return snapshot

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot.

        A legacy ``timers`` key (snapshots from before spans replaced
        timers, e.g. old result-cache entries) is ignored.
        """
        reg = cls()
        reg.counters.update({k: float(v) for k, v in d.get("counters", {}).items()})
        if d.get("families"):
            reg.families.merge({"families": d["families"]})
        return reg

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"{len(self.counters)} counters, {len(self._families or ())} families)"
        )


#: Shared disabled registry: safe default for code that wants zero overhead.
NULL_METRICS = MetricsRegistry(enabled=False)

_default = MetricsRegistry()
_default_pid = os.getpid()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry instrumented code reports into.

    Fork-aware: a forked (or spawned) child inherits the parent's registry
    object, so its metrics would otherwise accumulate in a copy the parent
    never sees.  On the first call after a PID change the child gets its own
    fresh registry; workers snapshot it (``to_dict``) and ship it back for
    the parent to :meth:`~MetricsRegistry.merge`.
    """
    global _default, _default_pid
    if os.getpid() != _default_pid:
        _default = MetricsRegistry()
        _default_pid = os.getpid()
    return _default


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default registry; returns the previous one."""
    global _default, _default_pid
    previous = _default
    _default = registry
    _default_pid = os.getpid()
    return previous


def reset_metrics() -> None:
    """Clear the process-wide default registry."""
    get_metrics().reset()
