"""Runtime performance metrics: counters, timers, scopes, JSON export.

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
timers
    Aggregated wall-clock statistics per name (count/total/min/max), driven
    by the :meth:`MetricsRegistry.timer` context manager.
scopes
    Hierarchical name prefixes: inside ``with m.scope("sim")`` every metric
    name is recorded as ``sim/<name>``, so nested components compose into a
    readable tree (``sim/projection/pcg/solve``).
export
    ``to_dict``/``to_json`` produce a plain-JSON snapshot; ``from_dict``
    restores it, so profiles round-trip through files losslessly.

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
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "TimerStat",
    "MetricsRegistry",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "reset_metrics",
]


@dataclass
class TimerStat:
    """Aggregated wall-clock statistics of one named timer.

    Empty stats are normal forms: ``min = +inf`` and ``max = -inf`` (the
    identities of min/max), so merging any combination of empty and
    non-empty stats — including ones restored from snapshots — is exactly
    commutative and associative, and ``to_dict``/``from_dict`` round-trip
    bit-for-bit (both bounds serialise as ``null`` when empty).
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, seconds: float) -> None:
        """Fold one observation into the aggregate."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean seconds per observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "TimerStat") -> None:
        """Fold another aggregate into this one (commutative)."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def to_dict(self) -> dict:
        """Plain-JSON representation (``min``/``max`` are null when empty)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": self.mean,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimerStat":
        """Inverse of :meth:`to_dict`.

        Snapshots of empty stats — including historical ones that recorded
        ``max = 0.0`` with ``count = 0`` — normalise back to the canonical
        empty form, so a restored empty stat merges as a true identity.
        """
        count = int(d["count"])
        if count == 0:
            return cls()
        return cls(
            count=count,
            total=float(d["total"]),
            min=math.inf if d.get("min") is None else float(d["min"]),
            max=-math.inf if d.get("max") is None else float(d.get("max", 0.0)),
        )


class MetricsRegistry:
    """Counters + timers with hierarchical scope prefixes and JSON export.

    A disabled registry (``enabled=False``) turns every operation into a
    cheap no-op, so instrumentation can stay unconditionally in hot paths.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}
        # labeled metric families (repro.obs); created lazily so flat-only
        # users pay nothing and snapshots without labels stay byte-stable
        self._families = None
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
        """Prefix every metric recorded inside the block with ``name/``.

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
    def timer(self, name: str):
        """Time the block's wall-clock and fold it into timer ``name``."""
        if not self.enabled:
            yield
            return
        key = self._qualify(name)  # resolve before the block may change scope
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(key, time.perf_counter() - t0, _qualified=True)

    def observe(self, name: str, seconds: float, _qualified: bool = False) -> None:
        """Record one already-measured duration into timer ``name``."""
        if not self.enabled:
            return
        key = name if _qualified else self._qualify(name)
        stat = self.timers.get(key)
        if stat is None:
            stat = self.timers[key] = TimerStat()
        stat.add(seconds)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or a ``to_dict`` snapshot) into this one.

        Counters add; timers combine their aggregates.  Merging is
        commutative and associative, so per-worker registries can be folded
        into a farm-level report in any order.  Returns ``self``.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_dict(other)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, stat in other.timers.items():
            mine = self.timers.get(name)
            if mine is None:
                mine = self.timers[name] = TimerStat()
            mine.merge(stat)
        if other._families is not None and len(other._families):
            self.families.merge(other._families)
        return self

    def reset(self) -> None:
        """Drop all recorded counters, timers and families (keeps enabled)."""
        self.counters.clear()
        self.timers.clear()
        if self._families is not None:
            self._families.reset()

    def to_dict(self) -> dict:
        """Snapshot as a plain-JSON-serialisable dict.

        The ``families`` key appears only when labeled families were
        recorded, keeping label-free snapshots byte-identical to the
        historical format.
        """
        snapshot = {
            "counters": dict(sorted(self.counters.items())),
            "timers": {k: v.to_dict() for k, v in sorted(self.timers.items())},
        }
        if self._families is not None and len(self._families):
            snapshot["families"] = self._families.to_dict()["families"]
        return snapshot

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot."""
        reg = cls()
        reg.counters.update({k: float(v) for k, v in d.get("counters", {}).items()})
        reg.timers.update({k: TimerStat.from_dict(v) for k, v in d.get("timers", {}).items()})
        if d.get("families"):
            reg.families.merge({"families": d["families"]})
        return reg

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MetricsRegistry(enabled={self.enabled}, "
            f"{len(self.counters)} counters, {len(self.timers)} timers)"
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
