"""A corrupt but parseable cached schedule is a miss at every store reader.

The store's own envelope checks catch truncated or foreign entries; a
payload that parses as JSON but fails to rebuild a schedule — a negative
work component, a clone placed twice on one site, a mistyped field —
only shows up when :func:`repro.serialization.schedule_result_from_dict`
rebuilds it.  That function reports every such failure as
:class:`~repro.exceptions.ConfigurationError`, and each of its three
store readers must then recompute the result and rewrite the entry:
``schedule_query`` (experiment runner), ``schedule_candidate`` (plan
search) and ``reschedule_cached`` (schedule repair).
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Catalog,
    CloneItem,
    ConvexCombinationOverlap,
    QueryGraph,
    Relation,
    ScheduleDelta,
    WorkVector,
    pack_vectors,
)
from repro.core.schedule import PhasedSchedule
from repro.cost.params import PAPER_PARAMETERS
from repro.engine import ScheduleResult, reschedule_cached
from repro.exceptions import ConfigurationError
from repro.search import candidate_point, greedy_plan, schedule_candidate
from repro.serialization import schedule_result_from_dict
from repro.store import NO_STORE, ArtifactStore

OVERLAP = ConvexCombinationOverlap(0.5)


def small_result() -> ScheduleResult:
    """A two-phase packed result with one clone per operator."""
    phased = PhasedSchedule()
    for k in range(2):
        items = [
            CloneItem(f"op{k}-{i}", 0, WorkVector([1.0 + i, 2.0, 0.5 * i]))
            for i in range(12)
        ]
        phased.append(pack_vectors(items, p=6, overlap=OVERLAP), f"shelf-{k}")
    return ScheduleResult(algorithm="treeschedule", phased_schedule=phased)


def _negative_work(value):
    placement = value["phased_schedule"]["phases"][0]["placements"][0]
    placement["work"]["components"][0] = -1.0


def _duplicated_clone(value):
    placements = value["phased_schedule"]["phases"][0]["placements"]
    placements.append(json.loads(json.dumps(placements[0])))


def _mistyped_int(value):
    value["phased_schedule"]["phases"][0]["p"] = "eight"


def _mistyped_float(value):
    value["response_time"] = [1.0]


CORRUPTIONS = {
    "negative_work": _negative_work,
    "duplicated_clone": _duplicated_clone,
    "mistyped_int": _mistyped_int,
    "mistyped_float": _mistyped_float,
}


def _corrupt_only_entry(root, corrupt):
    """Rewrite the store's one entry with ``corrupt`` applied to its value."""
    (path,) = root.rglob("*.json")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    corrupt(envelope["value"])
    path.write_text(json.dumps(envelope), encoding="utf-8")
    return path


def _assert_recovers(root, store, corrupt, call):
    """A corrupt entry is recomputed and rewritten; the next call hits.

    ``store.stats.writes`` tells the two apart: a recompute writes its
    result back, a hit writes nothing.
    """
    first = call()
    assert store.stats.writes == 1
    path = _corrupt_only_entry(root, corrupt)
    with pytest.raises(ConfigurationError):
        schedule_result_from_dict(json.loads(path.read_text("utf-8"))["value"])
    assert call().response_time == first.response_time
    assert store.stats.writes == 2
    schedule_result_from_dict(json.loads(path.read_text("utf-8"))["value"])
    assert call().response_time == first.response_time
    assert store.stats.writes == 2


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_schedule_query_recomputes(tmp_path, corrupt):
    pytest.importorskip("numpy")
    from repro.experiments.runner import prepare_workload, schedule_query

    (query,) = prepare_workload(6, 1, 3, store=NO_STORE)
    store = ArtifactStore(tmp_path)
    _assert_recovers(
        tmp_path, store, corrupt,
        lambda: schedule_query(
            "treeschedule", query, p=8, f=0.7, epsilon=0.5, store=store,
            cache_key={"workload": "recovery", "index": 0},
        ),
    )


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_schedule_candidate_recomputes(tmp_path, corrupt):
    cards = {"A": 9000, "B": 400, "C": 52000, "D": 7000}
    catalog = Catalog([Relation(name, n) for name, n in cards.items()])
    graph = QueryGraph(list(cards), [("A", "B"), ("B", "C"), ("C", "D")])
    point = candidate_point(
        greedy_plan(graph, catalog),
        p=8,
        f=0.7,
        shelf="min",
        params=PAPER_PARAMETERS,
        comm=PAPER_PARAMETERS.communication_model(),
        overlap=OVERLAP,
    )
    store = ArtifactStore(tmp_path)
    _assert_recovers(
        tmp_path, store, corrupt, lambda: schedule_candidate(point, store=store)[0]
    )


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_reschedule_cached_recomputes(tmp_path, corrupt):
    prev = small_result()
    store = ArtifactStore(tmp_path)
    _assert_recovers(
        tmp_path, store, corrupt,
        lambda: reschedule_cached(
            prev, ScheduleDelta(remove_sites=(2,)), overlap=OVERLAP,
            base_key="base", store=store,
        ),
    )


# ----------------------------------------------------------------------
# Annotation entries (prepare_workload's store reader)
# ----------------------------------------------------------------------
def _first_spec(value):
    specs = value["queries"][0]
    return specs[sorted(specs)[0]]


def _annotation_negative_work(value):
    _first_spec(value)["work"]["components"][0] = -1.0


def _annotation_mistyped_volume(value):
    _first_spec(value)["data_volume"] = [1.0]


def _annotation_mistyped_work(value):
    _first_spec(value)["work"]["components"] = 7


ANNOTATION_CORRUPTIONS = {
    "negative_work": _annotation_negative_work,
    "mistyped_volume": _annotation_mistyped_volume,
    "mistyped_work": _annotation_mistyped_work,
}


@pytest.mark.parametrize(
    "corrupt", ANNOTATION_CORRUPTIONS.values(), ids=ANNOTATION_CORRUPTIONS
)
def test_prepare_workload_recomputes_corrupt_annotations(
    tmp_path, monkeypatch, corrupt
):
    pytest.importorskip("numpy")
    from repro.experiments import runner
    from repro.serialization import operator_spec_from_dict

    computed = []
    compute = runner.compute_plan_annotation

    def counting_compute(*args, **kwargs):
        computed.append(1)
        return compute(*args, **kwargs)

    monkeypatch.setattr(runner, "compute_plan_annotation", counting_compute)
    store = ArtifactStore(tmp_path)

    def call():
        runner._ANNOTATION_CACHE.clear()
        (query,) = runner.prepare_workload(6, 1, 3, store=store)
        return {name: spec.work for name, spec in query.annotation.items()}

    first = call()
    assert (len(computed), store.stats.writes) == (1, 1)
    path = _corrupt_only_entry(tmp_path, corrupt)
    with pytest.raises(ConfigurationError):
        operator_spec_from_dict(
            _first_spec(json.loads(path.read_text("utf-8"))["value"])
        )
    assert call() == first
    assert (len(computed), store.stats.writes) == (2, 2)
    assert call() == first
    assert (len(computed), store.stats.writes) == (2, 2)
