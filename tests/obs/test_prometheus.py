"""Prometheus text exposition and the localhost scrape server."""

import urllib.request

from repro.metrics import MetricsRegistry
from repro.obs import (
    MetricFamilies,
    ScrapeServer,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.prometheus import CONTENT_TYPE, OPENMETRICS_CONTENT_TYPE


class TestSanitizeNames:
    def test_slash_paths_flatten_with_prefix(self):
        assert sanitize_metric_name("sim/projection/pcg/solves") == (
            "repro_sim_projection_pcg_solves"
        )

    def test_existing_prefix_not_doubled(self):
        assert sanitize_metric_name("repro_x") == "repro_x"

    def test_bad_characters_squeeze(self):
        assert sanitize_metric_name("a b//c-d") == "repro_a_b_c_d"


class TestRenderFamilies:
    def test_counter_and_gauge_lines(self):
        fams = MetricFamilies()
        fams.counter("serve_submit_total", help="Submits.", labels=("tenant",)).inc(
            3, tenant="a"
        )
        fams.gauge("serve_workers", help="Workers.").set(2)
        text = render_prometheus(fams)
        assert "# TYPE repro_serve_submit_total counter" in text
        assert 'repro_serve_submit_total{tenant="a"} 3' in text
        assert "# TYPE repro_serve_workers gauge" in text
        assert "repro_serve_workers 2" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        fams = MetricFamilies()
        h = fams.histogram("lat", labels=("op",), unit="seconds")
        for v in (0.001, 0.002, 0.004, 0.5):
            h.observe(v, op="solve")
        text = render_prometheus(fams)
        lines = [l for l in text.splitlines() if l.startswith("repro_lat_bucket")]
        counts = [int(l.rsplit(" ", 1)[1].split(" #")[0]) for l in lines]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 4
        assert 'le="+Inf"' in lines[-1]
        assert 'repro_lat_count{op="solve"} 4' in text
        assert "repro_lat_sum" in text

    def test_exemplars_render_only_on_the_openmetrics_page(self):
        """Exemplars are OpenMetrics-only: a classic 0.0.4 parser reads the
        trailing `#` as a malformed timestamp and fails the whole scrape,
        so the default page must never carry them."""
        fams = MetricFamilies()
        h = fams.histogram("lat", labels=("op",))
        h.observe(0.001, op="x")
        h.observe(1.7, exemplar="span-slow", op="x")
        classic = render_prometheus(fams)
        assert "span_id" not in classic
        assert "# EOF" not in classic
        om = render_prometheus(fams, openmetrics=True)
        exemplar_lines = [l for l in om.splitlines() if "span_id" in l]
        assert len(exemplar_lines) == 1
        assert 'span_id="span-slow"' in exemplar_lines[0]
        assert exemplar_lines[0].startswith("repro_lat_bucket")
        assert om.splitlines()[-1] == "# EOF"

    def test_openmetrics_counter_type_header_uses_base_name(self):
        fams = MetricFamilies()
        fams.counter("hits_total").inc(2)
        om = render_prometheus(fams, openmetrics=True)
        assert "# TYPE repro_hits counter" in om
        assert "repro_hits_total 2" in om
        classic = render_prometheus(fams)
        assert "# TYPE repro_hits_total counter" in classic

    def test_label_values_are_escaped(self):
        fams = MetricFamilies()
        fams.counter("n", labels=("k",)).inc(k='we"ird\\path\nx')
        text = render_prometheus(fams)
        assert 'k="we\\"ird\\\\path\\nx"' in text


class TestRenderFlatRegistry:
    def test_flat_counters_and_timers(self):
        reg = MetricsRegistry()
        reg.inc("sim/steps", 5)
        with reg.span("solve/pcg"):
            pass
        text = render_prometheus(reg.families, reg)
        assert "# TYPE repro_sim_steps_total counter" in text
        assert "repro_sim_steps_total 5" in text
        assert "# TYPE repro_span_seconds histogram" in text
        assert 'repro_span_seconds_count{span="solve/pcg"} 1' in text
        # spans render once, as the family: no flat duration summary
        assert "summary" not in text

    def test_empty_render_is_empty_string(self):
        assert render_prometheus(None, None) == ""
        assert render_prometheus(MetricFamilies(), MetricsRegistry()) == ""


class TestScrapeServer:
    def test_serves_metrics_on_localhost(self):
        fams = MetricFamilies()
        fams.counter("hits").inc(7)
        server = ScrapeServer(lambda: render_prometheus(fams), port=0)
        try:
            port = server.start()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as resp:
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode()
            assert "repro_hits_total 7" in body
        finally:
            server.stop()

    def test_accept_header_negotiates_openmetrics(self):
        fams = MetricFamilies()
        fams.histogram("lat").observe(1.0, exemplar="sp1")
        server = ScrapeServer(
            lambda openmetrics=False: render_prometheus(fams, openmetrics=openmetrics),
            port=0,
        )
        try:
            port = server.start()
            url = f"http://127.0.0.1:{port}/metrics"
            request = urllib.request.Request(
                url, headers={"Accept": "application/openmetrics-text"}
            )
            with urllib.request.urlopen(request, timeout=10) as resp:
                assert resp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
                body = resp.read().decode()
            assert "span_id" in body
            assert body.splitlines()[-1] == "# EOF"
            # a plain scrape stays on the classic page: no exemplars
            with urllib.request.urlopen(url, timeout=10) as resp:
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                assert "span_id" not in resp.read().decode()
        finally:
            server.stop()

    def test_unknown_path_is_404_and_render_errors_are_500(self):
        def boom():
            raise RuntimeError("render bug")

        server = ScrapeServer(boom, port=0)
        try:
            port = server.start()
            for path, code in (("/nope", 404), ("/metrics", 500)):
                try:
                    urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10)
                except urllib.error.HTTPError as exc:
                    assert exc.code == code
                else:
                    raise AssertionError(f"{path} should have failed")
        finally:
            server.stop()
