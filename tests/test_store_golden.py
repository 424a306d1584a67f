"""A committed store entry pins the on-disk format.

``tests/data/golden_store`` holds one ``result`` entry: treeschedule on
``prepare_workload(6, 1, 3)`` at p=8, f=0.7, epsilon=0.5.  The same
coordinates must map to the same key and path, and decoding the entry
and writing it back must reproduce its bytes exactly.  A change that
moves either — the content-key encoding, the envelope, or the result
codec — orphans every cache on disk and must come with a
:data:`~repro.store.STORE_SCHEMA` bump (and a regenerated fixture).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serialization import schedule_result_from_dict, schedule_result_to_dict
from repro.store import KIND_RESULT, NO_STORE, ArtifactStore

GOLDEN_ROOT = Path(__file__).resolve().parent / "data" / "golden_store"
GOLDEN_KEY = "77913ca06b6de656da18c08040bc1878f63dbfeb9b14c61a31dab286e78d6ec4"
GOLDEN_RESPONSE_TIME = 23.9194732
CACHE_KEY = {"workload": {"n_joins": 6, "n_queries": 1, "seed": 3}, "index": 0}


def _golden_path() -> Path:
    return ArtifactStore(GOLDEN_ROOT).path_for(KIND_RESULT, GOLDEN_KEY)


def _schedule(store):
    pytest.importorskip("numpy")
    from repro.experiments.runner import prepare_workload, schedule_query

    (query,) = prepare_workload(6, 1, 3, store=NO_STORE)
    return schedule_query(
        "treeschedule", query, p=8, f=0.7, epsilon=0.5, store=store,
        cache_key=CACHE_KEY,
    )


def test_fixture_is_the_only_entry():
    entries = sorted(GOLDEN_ROOT.rglob("*.json"))
    assert entries == [_golden_path()]


def test_coordinates_reproduce_key_and_path(tmp_path):
    result = _schedule(ArtifactStore(tmp_path))
    assert result.response_time == GOLDEN_RESPONSE_TIME
    (written,) = tmp_path.rglob("*.json")
    assert written.relative_to(tmp_path) == _golden_path().relative_to(GOLDEN_ROOT)


def test_decode_then_encode_reproduces_bytes(tmp_path):
    golden = _golden_path().read_bytes()
    value = ArtifactStore(GOLDEN_ROOT).get(KIND_RESULT, GOLDEN_KEY)
    result = schedule_result_from_dict(value)
    assert result.response_time == GOLDEN_RESPONSE_TIME
    path = ArtifactStore(tmp_path).put(
        KIND_RESULT, GOLDEN_KEY, schedule_result_to_dict(result)
    )
    assert path.read_bytes() == golden


def test_golden_entry_is_served_as_a_hit(tmp_path):
    store = ArtifactStore(tmp_path)
    target = store.path_for(KIND_RESULT, GOLDEN_KEY)
    target.parent.mkdir(parents=True)
    target.write_bytes(_golden_path().read_bytes())
    result = _schedule(store)
    assert result.instrumentation.counters.get("store_hits") == 1.0
    assert store.stats.writes == 0
    envelope = json.loads(target.read_text(encoding="utf-8"))
    assert result.response_time == envelope["value"]["response_time"]
