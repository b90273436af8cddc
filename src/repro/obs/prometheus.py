"""Prometheus text-format exposition for families and flat counters.

One render pass produces the standard ``text/plain; version=0.0.4`` page:

* labeled families from :class:`~repro.obs.families.MetricFamilies` render
  natively — counters as ``*_total``, gauges as-is, histograms as
  cumulative ``_bucket{le=...}`` series derived from the shared
  :class:`repro.trace.HistogramStat` log-spaced buckets, plus ``_sum`` and
  ``_count``;
* the flat counters of a :class:`repro.metrics.MetricsRegistry` render
  too, so every ``sim/solver/pcg/solves`` counter is scrapeable without
  re-instrumenting: slash-scoped names sanitize to
  ``repro_sim_solver_pcg_solves_total`` (span timings are the registry's
  ``span_seconds`` family and render with the families);
* with ``openmetrics=True`` the page is rendered in the OpenMetrics
  exposition instead (``# EOF`` trailer, counter ``TYPE`` headers on the
  un-suffixed name) and histogram series may carry an **exemplar** — the
  trace span id of their slowest observation — appended to the bucket that
  observation landed in, linking a fat tail straight back to its span.
  Exemplars are OpenMetrics-only: a classic ``text/plain; version=0.0.4``
  parser reads the trailing ``#`` as a malformed timestamp and fails the
  whole scrape, so the classic page never emits them.

:class:`ScrapeServer` serves the page from a localhost-only stdlib HTTP
server on a daemon thread (``GET /metrics``), for ``repro serve
--metrics-port``, negotiating the exposition from the scraper's ``Accept``
header.  It binds ``127.0.0.1`` unconditionally: the scrape surface is an
operator loopback, not a public listener.
"""

from __future__ import annotations

import http.server
import re
import threading
from typing import Callable

from repro.metrics import MetricsRegistry
from repro.trace import HistogramStat, _bucket_bounds, _bucket_of

from .families import Counter, Gauge, Histogram, MetricFamilies

__all__ = [
    "CONTENT_TYPE",
    "OPENMETRICS_CONTENT_TYPE",
    "ScrapeServer",
    "render_prometheus",
    "sanitize_metric_name",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_SQUEEZE = re.compile(r"__+")


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Map an internal metric path to a legal Prometheus metric name.

    ``sim/projection/pcg/solve`` → ``repro_sim_projection_pcg_solve``.
    """
    flat = _NAME_BAD.sub("_", name.strip("/"))
    flat = _NAME_SQUEEZE.sub("_", flat).strip("_")
    if prefix and not flat.startswith(prefix + "_"):
        flat = f"{prefix}_{flat}" if flat else prefix
    if flat[0].isdigit():
        flat = "_" + flat
    return flat


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in merged.items())
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(float(value), ".10g")


def _header(lines: list[str], name: str, kind: str, help_text: str) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _render_histogram_series(
    lines: list[str],
    name: str,
    labels: dict[str, str],
    stat: HistogramStat,
    exemplar: dict | None,
    include_exemplars: bool,
) -> None:
    cumulative = 0
    exemplar_bucket = None
    if exemplar is not None and include_exemplars:
        exemplar_bucket = _bucket_of(exemplar["value"])
    for index in sorted(stat.buckets):
        cumulative += stat.buckets[index]
        upper = _bucket_bounds(index)[1]
        line = (
            f"{name}_bucket{_labels_text(labels, {'le': _fmt(upper)})} {cumulative}"
        )
        if exemplar_bucket is not None and index == exemplar_bucket:
            line += (
                f' # {{span_id="{_escape_label(exemplar["span_id"])}"}}'
                f' {_fmt(exemplar["value"])}'
            )
        lines.append(line)
    lines.append(f"{name}_bucket{_labels_text(labels, {'le': '+Inf'})} {stat.count}")
    lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(stat.total)}")
    lines.append(f"{name}_count{_labels_text(labels)} {stat.count}")


def render_prometheus(
    families: MetricFamilies | None = None,
    registry: MetricsRegistry | None = None,
    openmetrics: bool = False,
) -> str:
    """Render one Prometheus exposition page.

    ``families`` render natively; ``registry``'s flat counters render
    under sanitized names so legacy instrumentation is scrapeable
    unchanged.  Either may be ``None``.

    ``openmetrics=True`` renders the OpenMetrics exposition — counter
    ``TYPE`` headers on the un-suffixed name, histogram exemplars, and the
    mandatory ``# EOF`` trailer.  The default classic ``0.0.4`` page omits
    exemplars entirely: classic parsers reject them as malformed
    timestamps, losing every metric on the page.
    """
    lines: list[str] = []

    def counter_header(name: str, help_text: str) -> str:
        # OpenMetrics declares counters on the base name and samples on
        # `<base>_total`; the classic format uses `<base>_total` for both
        base = name[: -len("_total")] if name.endswith("_total") else name
        _header(lines, base if openmetrics else base + "_total", "counter", help_text)
        return base + "_total"

    if families is not None:
        for family in families.families():
            name = sanitize_metric_name(family.name)
            if isinstance(family, Counter):
                sample_name = counter_header(name, family.help)
                for labels, value in family.samples():
                    lines.append(f"{sample_name}{_labels_text(labels)} {_fmt(value)}")
            elif isinstance(family, Gauge):
                _header(lines, name, "gauge", family.help)
                for labels, value in family.samples():
                    lines.append(f"{name}{_labels_text(labels)} {_fmt(value)}")
            elif isinstance(family, Histogram):
                _header(lines, name, "histogram", family.help)
                for labels, cell in family.samples():
                    stat, exemplar = cell
                    _render_histogram_series(
                        lines, name, labels, stat, exemplar, openmetrics
                    )
    if registry is not None:
        for raw_name in sorted(registry.counters):
            sample_name = counter_header(
                sanitize_metric_name(raw_name), f"flat counter {raw_name}"
            )
            lines.append(f"{sample_name} {_fmt(registry.counters[raw_name])}")
    if openmetrics:
        lines.append("# EOF")
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
class ScrapeServer:
    """Localhost-only HTTP scrape endpoint serving ``GET /metrics``.

    ``render`` is called per request on the serving thread, so it must be
    thread-safe (both registries take their own locks / copy under GIL).
    When ``render`` accepts an ``openmetrics`` keyword the server
    negotiates the exposition: scrapers whose ``Accept`` header asks for
    ``application/openmetrics-text`` get the OpenMetrics page (with
    exemplars); everyone else gets the classic ``0.0.4`` page without
    them.  Pass ``port=0`` for an ephemeral port; read it back from
    ``.port``.
    """

    def __init__(self, render: Callable[..., str], port: int = 9464):
        import inspect

        self._render = render
        try:
            parameters = inspect.signature(render).parameters.values()
            self._negotiates = any(
                p.name == "openmetrics" or p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters
            )
        except (TypeError, ValueError):  # builtins/partials without signatures
            self._negotiates = False
        self._requested_port = int(port)
        self._httpd: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int | None:
        """The bound port (None before :meth:`start`)."""
        return self._httpd.server_address[1] if self._httpd is not None else None

    def start(self) -> int:
        """Bind 127.0.0.1 and serve on a daemon thread; returns the port."""
        if self._httpd is not None:
            raise RuntimeError("scrape server already started")
        render = self._render
        negotiates = self._negotiates

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib API name
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served")
                    return
                accept = self.headers.get("Accept", "")
                openmetrics = negotiates and "application/openmetrics-text" in accept
                try:
                    text = render(openmetrics=True) if openmetrics else render()
                    body = text.encode("utf-8")
                except Exception as exc:  # surface render bugs to the scraper
                    self.send_error(500, f"render failed: {type(exc).__name__}")
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    OPENMETRICS_CONTENT_TYPE if openmetrics else CONTENT_TYPE,
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr noise
                pass

        self._httpd = http.server.ThreadingHTTPServer(
            ("127.0.0.1", self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-scrape", daemon=True
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
