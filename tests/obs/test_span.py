"""Spans, collectors, sinks, and the fast path when nothing is installed."""

import io
import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


class TestFastPath:
    def test_span_without_collector_is_null(self):
        with obs.span("layer.op", rows=3) as sp:
            assert sp is obs.NULL_SPAN
            sp.set(more=1)          # no-op, never raises
        assert obs.active() is None

    def test_noop_collector_keeps_fast_path(self):
        with obs.installed(obs.NoopCollector()):
            assert not obs.enabled()
            with obs.span("layer.op") as sp:
                assert sp is obs.NULL_SPAN
            obs.count("x")
            obs.observe("y", 1.0)
            obs.gauge("z", 2.0)
        assert obs.active() is None

    def test_metric_helpers_without_collector(self):
        obs.count("x")
        obs.gauge("y", 1.0)
        obs.observe("z", 2.0)       # all silently dropped


class TestCollection:
    def test_single_span(self):
        collector = obs.Collector()
        with obs.installed(collector):
            with obs.span("a.b", rows=7) as sp:
                sp.set(backend="row")
        assert [s.name for s in collector.roots] == ["a.b"]
        root = collector.roots[0]
        assert root.attributes == {"rows": 7, "backend": "row"}
        assert root.duration >= 0.0

    def test_nesting(self):
        collector = obs.Collector()
        with obs.installed(collector):
            with obs.span("outer"):
                with obs.span("mid"):
                    with obs.span("inner"):
                        pass
                with obs.span("sibling"):
                    pass
        (outer,) = collector.roots
        assert [c.name for c in outer.children] == ["mid", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]
        # inclusive durations nest
        assert outer.duration >= outer.children[0].duration
        assert outer.exclusive >= 0.0

    def test_span_closed_on_exception(self):
        collector = obs.Collector()
        with obs.installed(collector):
            with pytest.raises(RuntimeError):
                with obs.span("outer"):
                    with obs.span("inner"):
                        raise RuntimeError("boom")
        (outer,) = collector.roots
        assert [c.name for c in outer.children] == ["inner"]
        assert not collector._stack

    def test_installed_restores_previous(self):
        first = obs.Collector()
        second = obs.Collector()
        with obs.installed(first):
            with obs.installed(second):
                assert obs.active() is second
            assert obs.active() is first
        assert obs.active() is None

    def test_walk_and_find(self):
        collector = obs.Collector()
        with obs.installed(collector):
            with obs.span("a"):
                with obs.span("b"):
                    pass
        root = collector.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b"]
        assert root.find("b").name == "b"
        assert root.find("zzz") is None

    def test_metrics_through_module_helpers(self):
        collector = obs.Collector()
        with obs.installed(collector):
            obs.count("ops", 2, kind="join")
            obs.count("ops", 3, kind="join")
            obs.gauge("depth", 4)
            obs.observe("latency", 0.5)
        metrics = collector.metrics
        assert metrics.counter_value("ops", kind="join") == 5
        assert metrics.gauges["depth"] == 4
        assert metrics.histogram("latency").count == 1


class TestSinks:
    def test_in_memory_sink_sees_roots_only(self):
        sink = obs.InMemorySink()
        with obs.installed(obs.Collector(sinks=[sink])):
            with obs.span("root"):
                with obs.span("child"):
                    pass
        assert [s.name for s in sink.spans] == ["root"]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = obs.JsonlSink(path)
        with obs.installed(obs.Collector(sinks=[sink])):
            with obs.span("a", rows=1):
                pass
            with obs.span("b"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a"
        assert first["attributes"] == {"rows": 1}

    def test_tree_printer_sink(self):
        stream = io.StringIO()
        sink = obs.TreePrinterSink(stream)
        with obs.installed(obs.Collector(sinks=[sink])):
            with obs.span("root", backend="row"):
                with obs.span("child"):
                    pass
        text = stream.getvalue()
        assert "root" in text and "child" in text and "backend=row" in text

    def test_render(self):
        collector = obs.Collector()
        with obs.installed(collector):
            with obs.span("root", rows=2):
                with obs.span("child"):
                    pass
        text = collector.roots[0].render()
        assert text.splitlines()[0].startswith("root")
        assert "  child" in text
        shallow = collector.roots[0].render(max_depth=0)
        assert "child" not in shallow
