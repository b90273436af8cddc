"""Labeled metrics, Prometheus exposition, and SLO burn-rate monitoring.

``repro.obs`` is the observability layer above :mod:`repro.metrics` (flat
counters, span timings) and :mod:`repro.trace` (spans/events).  It adds
the three things a production service needs that neither of those provide:

* **labels** — :mod:`repro.obs.families` holds Counter/Gauge/Histogram
  *families* with frozen label sets and a bounded cardinality guard, so the
  running system can answer "p99 submit latency *per tenant*" or
  "``pcg_fallback`` rate *per solver*" instead of one global number.
* **time** — :mod:`repro.obs.timeseries` records fixed-interval samples of
  any metric into bounded ring buffers, which turns monotonic counters into
  windowed *rates* (the input every burn-rate computation needs).
* **judgment** — :mod:`repro.obs.slo` evaluates declarative objectives
  (latency thresholds, good/total ratios) against those recorded series
  with multi-window burn-rate alerting, surfaced by ``repro health`` and
  the ``repro top`` alerts panel.

:mod:`repro.obs.prometheus` renders families (plus the flat counters of a
:class:`~repro.metrics.MetricsRegistry`) in the Prometheus text exposition
format — served by the ``metrics`` wire op of
:class:`repro.serve.ServiceServer` and an optional localhost HTTP scrape
endpoint.
"""

from __future__ import annotations

from .families import (
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    LabelMismatchError,
    MetricFamilies,
    NULL_FAMILIES,
)
from .prometheus import (
    CONTENT_TYPE,
    OPENMETRICS_CONTENT_TYPE,
    ScrapeServer,
    render_prometheus,
    sanitize_metric_name,
)
from .slo import SLO, SLOEngine, SLOStatus, default_serve_slos, default_farm_slos
from .timeseries import SeriesRecorder

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "LabelMismatchError",
    "MetricFamilies",
    "NULL_FAMILIES",
    "OPENMETRICS_CONTENT_TYPE",
    "ScrapeServer",
    "SeriesRecorder",
    "SLO",
    "SLOEngine",
    "SLOStatus",
    "default_farm_slos",
    "default_serve_slos",
    "render_prometheus",
    "sanitize_metric_name",
]
