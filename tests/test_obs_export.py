"""Tests for the Perfetto exporters (repro.obs.export, repro.obs.timeline)."""

from __future__ import annotations

import json
import math

import pytest

from repro import (
    ConvexCombinationOverlap,
    PlacedClone,
    Schedule,
    SharingPolicy,
    WorkVector,
    simulate_phased,
)
from repro.core.schedule import PhasedSchedule
from repro.obs.export import (
    counter_event,
    duration_event,
    instant_event,
    process_name_event,
    span_events,
    thread_name_event,
    trace_payload,
    tracer_events,
    validate_trace_events,
    write_trace,
)
from repro.obs.timeline import (
    PHASE_LANE,
    schedule_result_events,
    simulation_events,
)
from repro.obs.tracer import Tracer
from repro.sim.faults import FaultPlan, FaultSpec

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # no-numpy CI job
    HAVE_NUMPY = False

OVERLAP = ConvexCombinationOverlap(0.5)


def clone(op, comps, index=0):
    w = WorkVector(comps)
    return PlacedClone(operator=op, clone_index=index, work=w, t_seq=OVERLAP.t_seq(w))


def make_phased():
    """Two phases x two sites with multi-clone loads (mirrors the faults
    test workload so fault plans built over it inject something)."""
    phased = PhasedSchedule()
    first = Schedule(2, 2)
    first.place(0, clone("a", [6.0, 1.0]))
    first.place(0, clone("b", [1.0, 5.0]))
    first.place(1, clone("c", [3.0, 3.0]))
    phased.append(first, "t1")
    second = Schedule(2, 2)
    second.place(0, clone("d", [2.0, 2.0]))
    second.place(1, clone("e", [4.0, 0.5]))
    second.place(1, clone("f", [0.5, 4.0]))
    phased.append(second, "t2")
    return phased


class TestEventBuilders:
    def test_duration_event_microseconds(self):
        event = duration_event("pack", start=1.5, seconds=0.25, pid=0, tid=3)
        assert event["ph"] == "X"
        assert event["ts"] == 1.5e6
        assert event["dur"] == 0.25e6
        assert event["pid"] == 0 and event["tid"] == 3
        assert "args" not in event

    def test_duration_event_clamps_negative(self):
        event = duration_event("x", start=0.0, seconds=-1e-12, pid=0, tid=0)
        assert event["dur"] == 0.0

    def test_instant_event_scope(self):
        event = instant_event("failure", at=2.0, pid=1, tid=4, scope="g")
        assert event["ph"] == "i"
        assert event["s"] == "g"

    def test_counter_event_copies_values(self):
        values = {"cpu": 0.5}
        event = counter_event("util", at=0.0, pid=1, values=values)
        values["cpu"] = 0.9
        assert event["args"] == {"cpu": 0.5}
        assert event["tid"] == 0

    def test_metadata_events(self):
        assert process_name_event(2, "sim")["args"] == {"name": "sim"}
        assert thread_name_event(2, 5, "site 4")["tid"] == 5


class TestSpanEvents:
    def _tracer(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", p=4):
            with tracer.span("inner"):
                pass
        return tracer

    def test_flatten_preserves_nesting_by_time_inclusion(self):
        tracer = self._tracer()
        root = tracer.roots[0]
        events = span_events(root, pid=0, tid=0, base=root.start)
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_attributes_become_args(self):
        tracer = self._tracer()
        root = tracer.roots[0]
        events = span_events(root, pid=0, tid=0, base=root.start)
        assert events[0]["args"] == {"p": 4}

    def test_tracer_events_prepends_metadata(self):
        events = tracer_events(self._tracer(), process_name="repro")
        assert events[0]["name"] == "process_name"
        assert events[1]["name"] == "thread_name"
        assert validate_trace_events(trace_payload(events)) == []

    def test_tracer_events_base_is_earliest_root(self):
        tracer = Tracer(enabled=True)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        events = [e for e in tracer_events(tracer) if e["ph"] == "X"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] >= 0.0

    def test_empty_tracer_exports_only_metadata(self):
        events = tracer_events(Tracer(enabled=True))
        assert [e["ph"] for e in events] == ["M", "M"]


class TestWriteTrace:
    def test_written_file_is_loadable_and_valid(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("run"):
            pass
        path = tmp_path / "trace.json"
        write_trace(str(path), tracer_events(tracer))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert validate_trace_events(payload) == []


class TestValidateTraceEvents:
    def test_valid_payload_has_no_problems(self):
        events = [
            process_name_event(0, "p"),
            duration_event("x", start=0.0, seconds=1.0, pid=0, tid=0),
            counter_event("c", at=0.0, pid=0, values={"v": 1.0}),
            instant_event("i", at=0.0, pid=0, tid=0),
        ]
        assert validate_trace_events(trace_payload(events)) == []

    def test_non_object_payload(self):
        assert validate_trace_events([1, 2]) == [
            "trace payload is not a JSON object"
        ]

    def test_missing_events_array(self):
        assert validate_trace_events({}) == [
            "trace payload has no 'traceEvents' array"
        ]

    def test_unknown_phase(self):
        problems = validate_trace_events({"traceEvents": [{"ph": "Z"}]})
        assert problems and "unknown phase" in problems[0]

    def test_negative_timestamp(self):
        bad = duration_event("x", start=-1.0, seconds=1.0, pid=0, tid=0)
        problems = validate_trace_events({"traceEvents": [bad]})
        assert any("'ts'" in p for p in problems)

    def test_complete_event_needs_duration(self):
        bad = duration_event("x", start=0.0, seconds=1.0, pid=0, tid=0)
        del bad["dur"]
        problems = validate_trace_events({"traceEvents": [bad]})
        assert any("'dur'" in p for p in problems)

    def test_non_integer_lane(self):
        bad = duration_event("x", start=0.0, seconds=1.0, pid=0, tid=0)
        bad["tid"] = "zero"
        problems = validate_trace_events({"traceEvents": [bad]})
        assert any("'tid'" in p for p in problems)

    def test_counter_tracks_must_be_numeric(self):
        bad = counter_event("c", at=0.0, pid=0, values={})
        bad["args"] = {"v": "high"}
        problems = validate_trace_events({"traceEvents": [bad]})
        assert any("not numeric" in p for p in problems)

    def test_instant_scope_flag(self):
        bad = instant_event("i", at=0.0, pid=0, tid=0)
        bad["s"] = "x"
        problems = validate_trace_events({"traceEvents": [bad]})
        assert any("scope" in p for p in problems)

    def test_problems_carry_event_index(self):
        good = duration_event("x", start=0.0, seconds=1.0, pid=0, tid=0)
        problems = validate_trace_events({"traceEvents": [good, {"ph": "Z"}]})
        assert problems[0].startswith("event[1]:")


class TestSimulationTimeline:
    def test_phase_lane_tiles_to_response_time(self):
        """The acceptance invariant: phase-lane durations sum exactly to
        the simulated makespan."""
        sim = simulate_phased(make_phased(), SharingPolicy.FAIR_SHARE)
        events = simulation_events(sim)
        phase_events = [
            e for e in events if e["ph"] == "X" and e["tid"] == PHASE_LANE
        ]
        assert len(phase_events) == len(sim.phases)
        total = math.fsum(e["dur"] for e in phase_events)
        assert total == math.fsum(p.makespan * 1e6 for p in sim.phases)
        assert abs(total - sim.response_time * 1e6) < 1e-6 * max(
            1.0, sim.response_time * 1e6
        )

    def test_phase_lane_under_faults_matches_faulted_makespan(self):
        """With a nonzero fault plan the timeline must tile to the
        *degraded* response time, not the analytic one."""
        phased = make_phased()
        plan = FaultPlan.build(FaultSpec.at_intensity(1.0), phased, seed=3)
        assert not plan.is_empty
        sim = simulate_phased(phased, SharingPolicy.FAIR_SHARE, plan=plan)
        assert sim.response_time > sim.analytic_response_time
        events = simulation_events(sim, plan=plan)
        total_us = math.fsum(
            e["dur"]
            for e in events
            if e["ph"] == "X" and e["tid"] == PHASE_LANE
        )
        assert total_us == math.fsum(p.makespan * 1e6 for p in sim.phases)

    def test_one_lane_per_site_with_clone_events(self):
        sim = simulate_phased(make_phased(), SharingPolicy.FAIR_SHARE)
        events = simulation_events(sim)
        lane_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lane_names[PHASE_LANE] == "phases"
        assert lane_names[1] == "site 0"
        assert lane_names[2] == "site 1"
        clones = [e for e in events if e.get("cat") == "clone"]
        placed = sum(
            len(site.clones)
            for phase in make_phased().phases
            for site in phase.sites
        )
        assert len(clones) == placed
        names = {e["name"] for e in clones}
        assert names == {"a#0", "b#0", "c#0", "d#0", "e#0", "f#0"}

    def test_clone_events_bounded_by_their_phase(self):
        sim = simulate_phased(make_phased(), SharingPolicy.FAIR_SHARE)
        events = simulation_events(sim)
        boundaries = []
        start = 0.0
        for phase in sim.phases:
            boundaries.append((start * 1e6, (start + phase.makespan) * 1e6))
            start += phase.makespan
        tolerance = 1e-3  # a microsecond fraction of rounding slack
        for e in events:
            if e.get("cat") != "clone":
                continue
            assert any(
                lo - tolerance <= e["ts"]
                and e["ts"] + e["dur"] <= hi + tolerance
                for lo, hi in boundaries
            ), e

    def test_counter_tracks_sample_utilization_and_close_at_zero(self):
        sim = simulate_phased(make_phased(), SharingPolicy.FAIR_SHARE)
        events = simulation_events(sim)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "expected utilization counter samples"
        for e in counters:
            assert all(isinstance(v, float) for v in e["args"].values())
        by_name: dict[str, list] = {}
        for e in counters:
            by_name.setdefault(e["name"], []).append(e)
        for samples in by_name.values():
            last = max(samples, key=lambda e: e["ts"])
            assert set(last["args"].values()) == {0.0}

    def test_fault_instants_emitted_under_a_plan(self):
        phased = make_phased()
        plan = FaultPlan.build(FaultSpec.at_intensity(1.0), phased, seed=3)
        sim = simulate_phased(phased, SharingPolicy.FAIR_SHARE, plan=plan)
        events = simulation_events(sim, plan=plan)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) > 0
        counts = plan.counts()
        slowdowns = [e for e in instants if e["name"] == "slowdown"]
        failures = [e for e in instants if e["name"] == "site failure"]
        assert len(slowdowns) == counts["slowdowns"]
        assert len(failures) == counts["failures"]
        for e in instants:
            assert e["s"] in ("t", "p", "g")
            assert e["ts"] >= 0.0

    def test_no_plan_means_no_instants(self):
        sim = simulate_phased(make_phased(), SharingPolicy.FAIR_SHARE)
        assert [e for e in simulation_events(sim) if e["ph"] == "i"] == []

    def test_events_validate(self):
        phased = make_phased()
        plan = FaultPlan.build(FaultSpec.at_intensity(1.0), phased, seed=3)
        sim = simulate_phased(phased, SharingPolicy.FAIR_SHARE, plan=plan)
        events = simulation_events(sim, plan=plan)
        assert validate_trace_events(trace_payload(events)) == []


@pytest.mark.skipif(not HAVE_NUMPY, reason="workload generation requires numpy")
class TestScheduleResultTimeline:
    def _result(self):
        from repro.experiments import prepare_workload
        from repro.experiments.runner import schedule_query

        query = prepare_workload(3, 1, 2)[0]
        return schedule_query("treeschedule", query, p=4, f=0.7, epsilon=0.5)

    def test_phase_lane_tiles_to_analytic_response_time(self):
        result = self._result()
        events = schedule_result_events(result)
        total_us = math.fsum(
            e["dur"]
            for e in events
            if e["ph"] == "X" and e["tid"] == PHASE_LANE
        )
        expected = math.fsum(s.makespan for s in result.timelines) * 1e6
        assert abs(total_us - expected) < 1e-6 * max(1.0, expected)

    def test_site_events_span_t_site(self):
        result = self._result()
        events = schedule_result_events(result)
        site_events = [e for e in events if e.get("cat") == "site"]
        busy = sum(
            1
            for shelf in result.timelines
            for site in shelf.sites
            if site.clones > 0
        )
        assert len(site_events) == busy
        assert validate_trace_events(trace_payload(events)) == []

    def test_bound_only_result_exports_metadata_only(self):
        from repro.experiments import prepare_workload
        from repro.experiments.runner import schedule_query

        query = prepare_workload(3, 1, 2)[0]
        bound = schedule_query("optbound", query, p=4, f=0.7, epsilon=0.5)
        assert bound.phased_schedule is None
        events = schedule_result_events(bound)
        assert [e["ph"] for e in events] == ["M", "M"]


class TestSpanVocabulary:
    def test_known_names_include_search_spans(self):
        from repro.obs.names import KNOWN_SPAN_NAMES

        assert {"plan_search", "plan_enumerate", "plan_screen", "plan_score"} <= KNOWN_SPAN_NAMES

    def test_unknown_span_names_walks_children(self):
        from repro.obs.names import unknown_span_names

        spans = [
            {"name": "plan_search", "children": [
                {"name": "bogus_inner", "children": []},
                {"name": "plan_score"},
            ]},
            {"name": "bogus_outer"},
            "not-a-span",
        ]
        assert unknown_span_names(spans) == {"bogus_inner", "bogus_outer"}

    def test_unknown_span_names_empty_for_clean_tree(self):
        from repro.obs.names import unknown_span_names

        assert unknown_span_names([{"name": "schedule", "children": [{"name": "shelf"}]}]) == set()

    @staticmethod
    def _traced_search():
        from repro import Catalog, QueryGraph, Relation
        from repro.engine import MetricsRecorder
        from repro.search import search_plans
        from repro.store import NO_STORE

        graph = QueryGraph(["A", "B", "C", "D"], [("A", "B"), ("B", "C"), ("C", "D")])
        catalog = Catalog(
            [Relation(n, t) for n, t in zip("ABCD", (50_000, 800, 12_000, 3_000))]
        )
        recorder = MetricsRecorder()
        result = search_plans(graph, catalog, p=8, store=NO_STORE, metrics=recorder)
        instrumentation = result.schedule.instrumentation
        return (
            {**recorder.counters, **instrumentation.counters},
            {**recorder.timers, **instrumentation.timers},
            [],
        )

    @staticmethod
    def _traced_serve():
        pytest.importorskip("numpy", exc_type=ImportError)
        from repro.serve import (
            GovernorConfig,
            SchedulerService,
            ServeConfig,
            TelemetryConfig,
            WorkloadSpec,
        )

        service = SchedulerService(
            ServeConfig(
                p=20,
                f=0.1,
                max_coresident=3,
                workload=WorkloadSpec(
                    duration=150.0, rate=0.15, seed=42, template_pool=4, query_sizes=(4, 6)
                ),
                governor=GovernorConfig(max_degree=8, min_degree=1, pressure_step=4),
                telemetry=TelemetryConfig(),
            )
        )
        service.run()
        return (
            service.metrics.counters,
            service.metrics.timers,
            service.telemetry.timeline_events(),
        )

    @pytest.mark.parametrize("run", ["search", "serve"])
    def test_traced_runs_record_only_declared_names(self, run):
        from repro.obs.names import (
            unknown_instant_names,
            unknown_metric_names,
            unknown_span_names,
        )
        from repro.obs.tracer import span_to_dict, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            counters, timers, events = (
                self._traced_search() if run == "search" else self._traced_serve()
            )
        spans = [span_to_dict(root) for root in tracer.roots]
        assert spans and counters and timers
        assert unknown_span_names(spans) == set()
        assert unknown_metric_names(counters, timers) == set()
        assert unknown_instant_names(tracer_events(tracer) + events) == set()


class TestCounterTrackValidation:
    """Satellite coverage: the ph:"C" paths of validate_trace_events."""

    def test_mixed_numeric_and_string_keys_flag_only_the_bad_one(self):
        event = counter_event("depth", at=1.0, pid=0, values={"a": 1.0})
        event["args"] = {"a": 1.0, "b": "busy", "c": 2}
        problems = validate_trace_events({"traceEvents": [event]})
        assert len(problems) == 1
        assert "counter track 'b' is not numeric" in problems[0]

    def test_boolean_track_values_pass_as_ints(self):
        # bool is an int subclass; the validator follows Python's model.
        event = counter_event("flag", at=0.0, pid=0, values={"on": 1.0})
        event["args"] = {"on": True}
        assert validate_trace_events({"traceEvents": [event]}) == []

    def test_counter_without_args_object_is_flagged_once(self):
        event = counter_event("c", at=0.0, pid=0, values={"v": 1.0})
        del event["args"]
        problems = validate_trace_events({"traceEvents": [event]})
        assert problems == ["event[0]: 'C' event missing 'args' object"]

    def test_empty_args_counter_is_valid(self):
        event = counter_event("c", at=0.0, pid=0, values={})
        assert validate_trace_events({"traceEvents": [event]}) == []


class TestInstantVocabulary:
    def test_known_instants_cover_fault_and_slo_names(self):
        from repro.obs.names import KNOWN_INSTANT_NAMES

        assert {"slowdown", "site failure", "slo_breach"} <= KNOWN_INSTANT_NAMES

    def test_unknown_instant_names_accepts_both_containers(self):
        from repro.obs.names import unknown_instant_names

        events = [
            instant_event("slo_breach", at=0.0, pid=0, tid=0),
            instant_event("straggler site 3", at=1.0, pid=0, tid=0),
            instant_event("skew burst", at=2.0, pid=0, tid=0),
            instant_event("totally bogus", at=3.0, pid=0, tid=0),
            duration_event("not an instant", start=0.0, seconds=1.0, pid=0, tid=0),
            "not-an-event",
        ]
        assert unknown_instant_names(events) == {"totally bogus"}
        assert unknown_instant_names({"traceEvents": events}) == {"totally bogus"}

    def test_clean_payload_has_no_unknown_instants(self):
        from repro.obs.names import unknown_instant_names

        assert unknown_instant_names([]) == set()


class TestFleetEvents:
    def test_lanes_tracks_and_instants_render_and_validate(self):
        from repro.obs.timeline import fleet_events

        events = fleet_events(
            residencies=[
                ("q1", 0, 0.0, 5.0, {"slo": "latency", "degree": 2}),
                ("q1", 3, 0.0, 5.0, {"slo": "latency", "degree": 2}),
                ("q2", 0, 2.0, 1.5, {}),
            ],
            tracks={"queue depth": [(0.0, {"latency": 1.0}), (5.0, {"latency": 0.0})]},
            instants=[("slo_breach", 5.0, {"job": "q1"})],
        )
        assert validate_trace_events({"traceEvents": events}) == []
        # Site j draws on lane j + 1; each site is thread-named once.
        lanes = {e["tid"] for e in events if e.get("cat") == "resident"}
        assert lanes == {1, 4}
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(names) == 2
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2 and all(e["cat"] == "serve" for e in counters)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["args"] == {"job": "q1"}

    def test_empty_inputs_export_only_process_metadata(self):
        from repro.obs.timeline import fleet_events

        events = fleet_events([], {})
        assert [e["ph"] for e in events] == ["M"]
        assert events[0]["name"] == "process_name"
