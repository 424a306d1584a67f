"""Tests for JSON-friendly serialization round-trips."""

from __future__ import annotations

import json

import pytest

from repro import (
    ConfigurationError,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    tree_schedule,
)
from repro.engine import Instrumentation, ScheduleResult
from repro.experiments.figures import FigureData, Series
from repro.serialization import (
    fault_report_from_dict,
    fault_report_to_dict,
    fault_spec_from_dict,
    fault_spec_to_dict,
    figure_from_dict,
    figure_to_dict,
    instrumentation_from_dict,
    instrumentation_to_dict,
    schedule_result_from_dict,
    schedule_result_to_dict,
    operator_spec_from_dict,
    operator_spec_to_dict,
    phased_schedule_from_dict,
    phased_schedule_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    work_vector_from_dict,
    work_vector_to_dict,
)
from repro.sim.faults import FaultReport, FaultSpec


class TestWorkVector:
    def test_roundtrip(self):
        w = WorkVector([1.5, 0.0, 3.25])
        assert work_vector_from_dict(work_vector_to_dict(w)) == w

    def test_json_compatible(self):
        payload = json.loads(json.dumps(work_vector_to_dict(WorkVector([1.0, 2.0]))))
        assert work_vector_from_dict(payload) == WorkVector([1.0, 2.0])

    def test_malformed(self):
        with pytest.raises(ConfigurationError):
            work_vector_from_dict({})


class TestOperatorSpec:
    def test_roundtrip(self):
        spec = OperatorSpec(name="probe(J1)", work=WorkVector([1.0, 0.0, 0.0]), data_volume=42.0)
        again = operator_spec_from_dict(operator_spec_to_dict(spec))
        assert again == spec

    def test_default_volume(self):
        payload = {"name": "x", "work": {"components": [1.0]}}
        assert operator_spec_from_dict(payload).data_volume == 0.0


class TestSchedule:
    def test_roundtrip_real_schedule(self, annotated_query, comm, overlap):
        result = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        original = result.phased_schedule.phases[0]
        payload = json.loads(json.dumps(schedule_to_dict(original)))
        restored = schedule_from_dict(payload)
        assert restored.makespan() == pytest.approx(original.makespan())
        assert restored.clone_count() == original.clone_count()
        assert {k: v.site_indices for k, v in restored.homes().items()} == {
            k: v.site_indices for k, v in original.homes().items()
        }

    def test_constraint_a_revalidated(self):
        payload = {
            "schema": "repro/1",
            "p": 1,
            "d": 2,
            "operators": [["a", [[[1.0, 0.0], 1.0]]]],
            "sites": [[0, 0, 0, 0, 1, 0]],
        }
        with pytest.raises(SchedulingError):
            schedule_from_dict(payload)

    def test_malformed(self):
        with pytest.raises(ConfigurationError):
            schedule_from_dict({"p": 1})


class TestPhased:
    def test_roundtrip(self, annotated_query, comm, overlap):
        result = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        payload = json.loads(json.dumps(phased_schedule_to_dict(result.phased_schedule)))
        restored = phased_schedule_from_dict(payload)
        assert restored.response_time() == pytest.approx(result.response_time)
        assert restored.labels == result.phased_schedule.labels


class TestInstrumentation:
    def test_roundtrip(self):
        inst = Instrumentation(
            wall_clock_seconds=0.125,
            operators_scheduled=9,
            clones_created=21,
            bins_opened=12,
            counters={"phases": 4.0},
            timers={"pack_phase": 0.25},
        )
        payload = json.loads(json.dumps(instrumentation_to_dict(inst)))
        assert instrumentation_from_dict(payload) == inst

    def test_all_fields_optional(self):
        assert instrumentation_from_dict({}) == Instrumentation()

    def test_span_tree_roundtrip(self):
        spans = [
            {
                "name": "schedule",
                "offset": 0.0,
                "seconds": 0.25,
                "attributes": {"algorithm": "treeschedule", "p": 8},
                "children": [
                    {
                        "name": "shelf",
                        "offset": 0.01,
                        "seconds": 0.2,
                        "attributes": {"label": "T0"},
                        "children": [],
                    }
                ],
            }
        ]
        inst = Instrumentation(spans=spans)
        payload = json.loads(json.dumps(instrumentation_to_dict(inst)))
        assert instrumentation_from_dict(payload) == inst

    def test_no_spans_key_when_untraced(self):
        """Pre-tracing payload layout is preserved byte for byte: the
        ``spans`` key appears only when spans were recorded."""
        assert "spans" not in instrumentation_to_dict(Instrumentation())


class TestScheduleResult:
    def test_roundtrip_full_result(self, annotated_query, comm, overlap):
        result = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        payload = json.loads(json.dumps(schedule_result_to_dict(result)))
        restored = schedule_result_from_dict(payload)
        assert restored.algorithm == "treeschedule"
        assert restored.makespan == pytest.approx(result.makespan)
        assert restored.num_phases == result.num_phases
        assert restored.phase_labels == result.phase_labels
        assert restored.degrees == result.degrees
        assert {k: v.site_indices for k, v in restored.homes.items()} == {
            k: v.site_indices for k, v in result.homes.items()
        }
        # Deterministic instrumentation round-trips; host time is not
        # stored, so it comes back at its defaults.
        before, after = result.instrumentation, restored.instrumentation
        assert after.operators_scheduled == before.operators_scheduled
        assert after.clones_created == before.clones_created
        assert after.bins_opened == before.bins_opened
        assert after.counters == before.counters
        assert after.wall_clock_seconds == 0.0
        assert after.timers == {}
        assert after.spans == []
        restored.validate()

    def test_roundtrip_preserves_timelines(self, annotated_query, comm, overlap):
        result = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        payload = json.loads(json.dumps(schedule_result_to_dict(result)))
        restored = schedule_result_from_dict(payload)
        for before, after in zip(result.timelines, restored.timelines):
            assert after.label == before.label
            assert after.makespan == pytest.approx(before.makespan)
            assert after.bins_opened == before.bins_opened
            for sa, sb in zip(after.sites, before.sites):
                assert sa.site_index == sb.site_index
                assert sa.clones == sb.clones
                assert sa.load == pytest.approx(sb.load)
                assert sa.t_site == pytest.approx(sb.t_site)

    def test_roundtrip_bound_only(self):
        result = ScheduleResult.from_value(
            "optbound", 17.25, wall_clock_seconds=0.01
        )
        payload = json.loads(json.dumps(schedule_result_to_dict(result)))
        restored = schedule_result_from_dict(payload)
        assert restored.is_bound_only
        assert restored.algorithm == "optbound"
        assert restored.makespan == 17.25
        assert restored.timelines == ()

    def test_malformed(self):
        with pytest.raises(ConfigurationError):
            schedule_result_from_dict({"algorithm": "x"})


class TestSchemaTag:
    """Readers must reject payloads from incompatible writers."""

    BAD = {"schema": "repro/2"}

    def test_schedule_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            schedule_from_dict(
                {**self.BAD, "p": 1, "d": 1, "operators": [], "sites": [[]]}
            )

    def test_phased_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            phased_schedule_from_dict({**self.BAD, "phases": [], "labels": []})

    def test_result_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            schedule_result_from_dict(
                {**self.BAD, "phased_schedule": None, "response_time": 1.0}
            )

    def test_figure_rejects_foreign_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            figure_from_dict(
                {
                    **self.BAD,
                    "figure_id": "f",
                    "title": "t",
                    "x_label": "x",
                    "y_label": "y",
                    "series": [],
                }
            )

    def test_missing_tag_accepted(self):
        # Pre-tag artifacts (and hand-built dicts) carry no schema key.
        schedule = schedule_from_dict({"p": 1, "d": 1, "operators": [], "sites": [[]]})
        assert schedule.p == 1
        phased = phased_schedule_from_dict({"phases": []})
        assert phased.num_phases == 0
        result = schedule_result_from_dict(
            {"phased_schedule": None, "response_time": 2.5}
        )
        assert result.makespan == 2.5

    def test_written_payloads_carry_the_tag(self):
        result = ScheduleResult.from_value("optbound", 1.0)
        assert schedule_result_to_dict(result)["schema"] == "repro/1"


class TestExtremeFloats:
    """ScheduleResult must survive an actual json.dumps/loads round-trip
    with denormal-tiny and near-overflow-huge stand-alone times."""

    @pytest.mark.parametrize("t_seq", [1e-308, 5e-324, 1e300])
    def test_roundtrip_through_json_text(self, t_seq):
        from repro import PlacedClone, Schedule, WorkVector
        from repro.core.schedule import PhasedSchedule

        schedule = Schedule(2, 2)
        schedule.place(
            0,
            PlacedClone(
                operator="tiny",
                clone_index=0,
                work=WorkVector([t_seq, 0.0]),
                t_seq=t_seq,
            ),
        )
        schedule.place(
            1,
            PlacedClone(
                operator="other",
                clone_index=0,
                work=WorkVector([1.0, 1.0]),
                t_seq=1.5,
            ),
        )
        phased = PhasedSchedule()
        phased.append(schedule, "t1")
        result = ScheduleResult(algorithm="treeschedule", phased_schedule=phased)
        text = json.dumps(schedule_result_to_dict(result))
        restored = schedule_result_from_dict(json.loads(text))
        # repr round-trip of Python floats through JSON text is exact.
        assert restored.makespan == result.makespan
        placed = restored.phased_schedule.phases[0].sites[0].clones[0]
        assert placed.t_seq == t_seq
        assert placed.work.components[0] == t_seq


class TestFaultSpecSerialization:
    def test_roundtrip(self):
        spec = FaultSpec.at_intensity(0.65, epsilon=0.3)
        payload = json.loads(json.dumps(fault_spec_to_dict(spec)))
        assert fault_spec_from_dict(payload) == spec

    def test_defaults_fill_in(self):
        assert fault_spec_from_dict({}) == FaultSpec.none()

    def test_foreign_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            fault_spec_from_dict({"schema": "repro/9"})

    def test_invalid_values_revalidated(self):
        with pytest.raises(ConfigurationError):
            fault_spec_from_dict({"slowdown_prob": 2.0})


class TestFaultReportSerialization:
    def test_roundtrip(self):
        report = FaultReport(
            slowdowns=2,
            skews=3,
            stragglers=1,
            failures=1,
            time_lost_slowdown=1.25,
            time_lost_skew=-0.5,
            time_lost_straggler=0.75,
            time_lost_failure=4.0,
            work_rerun=2.5,
        )
        payload = json.loads(json.dumps(fault_report_to_dict(report)))
        assert fault_report_from_dict(payload) == report

    def test_all_fields_optional(self):
        assert fault_report_from_dict({}) == FaultReport()


class TestFigure:
    def test_roundtrip(self):
        fig = FigureData(
            figure_id="figX",
            title="demo",
            x_label="x",
            y_label="y",
            series=(Series(label="A", xs=(1.0, 2.0), ys=(3.0, 4.0)),),
            notes=("n1",),
        )
        payload = json.loads(json.dumps(figure_to_dict(fig)))
        restored = figure_from_dict(payload)
        assert restored == fig
