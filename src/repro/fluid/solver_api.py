"""The pressure-solver API: result type, abstract base class, geometry cache.

Historically the package used an implicit duck-typed solver interface ("any
object with ``solve`` and ``name``").  This module makes it explicit:

* :class:`SolveResult` — the uniform outcome record of every solve (moved
  here from :mod:`repro.fluid.pcg`, which still re-exports it);
* :class:`PressureSolver` — the abstract base class every solver subclasses:
  ``solve(b, solid) -> SolveResult``, a ``name`` identifier, and a
  ``reset()`` lifecycle hook that drops any per-geometry caches or
  workspace buffers;
* :class:`MaskKeyedCache` — a single-entry cache keyed on the solid mask,
  used by the concrete solvers for expensive per-geometry artefacts
  (MIC(0) factorisation + wavefront schedule, multigrid hierarchy,
  Jacobi diagonal) with hit/miss counters reported to :mod:`repro.metrics`.

``isinstance(obj, PressureSolver)`` also accepts structural conformance
(``solve``/``name``/``reset`` present) so lightweight wrappers — recording
and harvesting solvers, test doubles — keep working without subclassing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.metrics import MetricsRegistry, get_metrics

__all__ = ["SolveResult", "PressureSolver", "MaskKeyedCache"]


@dataclass
class SolveResult:
    """Outcome of a pressure solve."""

    pressure: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    flops: float = 0.0
    residual_history: list[float] = field(default_factory=list)


class MaskKeyedCache:
    """Bounded cache for per-geometry artefacts, keyed on a solid mask.

    Pressure solves within one simulation share a geometry step after step,
    so the default one-deep cache captures virtually all reuse while staying
    O(1) in memory.  Callers that interleave several geometries — e.g. the
    level-set solver and the NN-PCG solver — pass ``capacity > 1`` for an
    LRU-evicting multi-entry cache.  Hits and misses are counted as
    ``cache/<name>/hit|miss`` in the supplied metrics registry.

    ``_key``/``_value`` always reflect the most recently *used* entry (kept
    for capacity-1 back-compat: tests and diagnostics peek at them).
    """

    def __init__(self, name: str, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._entries: dict[tuple, Any] = {}
        self._key: tuple | None = None
        self._value: Any = None

    @staticmethod
    def key_of(solid: np.ndarray) -> tuple:
        """Cache key of a solid mask (shape + raw bytes)."""
        return (solid.shape, solid.tobytes())

    def get(
        self,
        solid: np.ndarray,
        build: Callable[[], Any],
        metrics: MetricsRegistry | None = None,
    ) -> Any:
        """Return the cached artefact for ``solid``, building it on miss."""
        m = metrics if metrics is not None else get_metrics()
        key = self.key_of(solid)
        if key in self._entries:
            m.inc(f"cache/{self.name}/hit")
            value = self._entries.pop(key)  # re-insert: most recently used
        else:
            m.inc(f"cache/{self.name}/miss")
            value = build()
            while len(self._entries) >= self.capacity:
                self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value
        self._key = key
        self._value = value
        return value

    def clear(self) -> None:
        """Drop all cached entries."""
        self._entries.clear()
        self._key = None
        self._value = None


class PressureSolver(abc.ABC):
    """Abstract base class of every pressure solver in the package.

    Subclasses must provide :meth:`solve` and set :attr:`name`; solvers
    holding per-geometry caches or workspace buffers additionally override
    :meth:`reset` (the base implementation is a no-op).
    """

    #: short identifier used in diagnostics, metrics and reports
    name: str = ""

    @abc.abstractmethod
    def solve(self, b: np.ndarray, solid: np.ndarray) -> SolveResult:
        """Solve ``A p = b`` over fluid cells of the given solid mask."""

    def reset(self) -> None:
        """Drop cached per-geometry state and workspace buffers."""

    @classmethod
    def __subclasshook__(cls, subclass):
        if cls is PressureSolver:
            if all(hasattr(subclass, attr) for attr in ("solve", "name", "reset")):
                return True
        return NotImplemented
