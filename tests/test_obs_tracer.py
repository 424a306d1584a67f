"""Tests for the hierarchical span tracer (repro.obs.tracer)."""

from __future__ import annotations

import pickle

from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    Tracer,
    current_tracer,
    span_from_dict,
    span_to_dict,
    use_tracer,
)


class TestSpanNesting:
    def test_children_follow_the_call_stack(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                with tracer.span("leaf"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_siblings_become_separate_roots(self):
        tracer = Tracer(enabled=True)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_span_yields_mutable_span(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work", p=8) as span:
            span.attributes["late"] = True
        root = tracer.roots[0]
        assert root.attributes == {"p": 8, "late": True}

    def test_monotonic_nonnegative_durations(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.seconds >= inner.seconds >= 0.0
        assert outer.start <= inner.start
        assert outer.end >= inner.end

    def test_exception_still_closes_and_records(self):
        tracer = Tracer(enabled=True)
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert [root.name for root in tracer.roots] == ["boom"]
        assert tracer.roots[0].end is not None

    def test_iter_spans_depth_first(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c", "d"]


class TestDisabledTracer:
    def test_disabled_span_is_shared_handle(self):
        tracer = Tracer(enabled=False)
        handle_a = tracer.span("a")
        handle_b = tracer.span("b", p=4)
        assert handle_a is handle_b  # allocation-free: one shared object

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a") as span:
            assert span is None
        assert tracer.roots == []

    def test_disabled_propagates_exceptions(self):
        tracer = Tracer(enabled=False)
        try:
            with tracer.span("a"):
                raise ValueError("x")
        except ValueError:
            pass
        else:  # pragma: no cover - guard
            raise AssertionError("exception swallowed by null handle")

    def test_disabled_adopt_drops(self):
        tracer = Tracer(enabled=False)
        tracer.adopt(Span("orphan", start=0.0, end=1.0))
        assert tracer.roots == []

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled


class TestAmbientTracer:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_nested_use_tracer(self):
        outer, inner = Tracer(enabled=True), Tracer(enabled=True)
        with use_tracer(outer):
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_tracers_do_not_leak_spans_into_each_other(self):
        """A span opened by tracer B inside tracer A's open span must
        become B's root, not a child in A's tree — the invariant behind
        the parallel runner's inline per-point tracers."""
        ambient, local = Tracer(enabled=True), Tracer(enabled=True)
        with ambient.span("sweep"):
            with local.span("point"):
                with local.span("schedule"):
                    pass
            with ambient.span("bookkeeping"):
                pass
        assert [s.name for s in ambient.iter_spans()] == ["sweep", "bookkeeping"]
        assert [s.name for s in local.iter_spans()] == ["point", "schedule"]


class TestAdopt:
    def test_adopt_under_current_span(self):
        tracer = Tracer(enabled=True)
        foreign = Span("worker", start=0.0, end=0.5)
        with tracer.span("sweep"):
            tracer.adopt(foreign)
        assert tracer.roots[0].children == [foreign]

    def test_adopt_at_top_level_becomes_root(self):
        tracer = Tracer(enabled=True)
        foreign = Span("worker", start=0.0, end=0.5)
        tracer.adopt(foreign)
        assert tracer.roots == [foreign]


class TestSummary:
    def test_summary_aggregates_and_sorts(self):
        tracer = Tracer(enabled=True)
        with tracer.span("z"):
            with tracer.span("a"):
                pass
        with tracer.span("a"):
            pass
        summary = tracer.summary()
        assert list(summary) == ["a", "z"]
        assert summary["a"]["count"] == 2
        assert summary["z"]["count"] == 1
        assert summary["a"]["seconds"] >= 0.0

    def test_empty_summary(self):
        assert Tracer(enabled=True).summary() == {}


class TestSerialization:
    def _tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("sweep", points=2):
            with tracer.span("point", index=0):
                with tracer.span("schedule", algorithm="treeschedule"):
                    pass
            with tracer.span("point", index=1):
                pass
        return tracer.roots[0]

    def test_round_trip_preserves_structure(self):
        root = self._tree()
        rebuilt = span_from_dict(span_to_dict(root))
        assert [s.name for s in rebuilt.iter_spans()] == [
            s.name for s in root.iter_spans()
        ]
        assert [s.attributes for s in rebuilt.iter_spans()] == [
            s.attributes for s in root.iter_spans()
        ]
        for original, copy in zip(root.iter_spans(), rebuilt.iter_spans()):
            assert copy.seconds == original.seconds

    def test_root_offset_is_zero(self):
        payload = span_to_dict(self._tree())
        assert payload["offset"] == 0.0

    def test_offsets_are_relative_to_parent(self):
        root = self._tree()
        payload = span_to_dict(root)
        for child_payload, child in zip(payload["children"], root.children):
            assert child_payload["offset"] == child.start - root.start

    def test_re_rooting_onto_a_new_base(self):
        root = self._tree()
        payload = span_to_dict(root)
        rebuilt = span_from_dict(payload, base=100.0)
        assert rebuilt.start == 100.0
        assert rebuilt.seconds == root.seconds
        # Children keep their relative placement inside the new frame.
        for original, copy in zip(root.children, rebuilt.children):
            assert copy.start - rebuilt.start == original.start - root.start

    def test_payload_pickles(self):
        payload = span_to_dict(self._tree())
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_payload_is_plain_data(self):
        payload = span_to_dict(self._tree())

        def check(node):
            assert set(node) == {
                "name",
                "offset",
                "seconds",
                "attributes",
                "children",
            }
            for child in node["children"]:
                check(child)

        check(payload)
