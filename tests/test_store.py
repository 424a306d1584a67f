"""Tests for the content-addressed artifact store (no numpy required)."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ConfigurationError, PAPER_PARAMETERS
from repro.cost.params import SystemParameters
from repro.store import (
    ENV_CACHE_DIR,
    KIND_POINT,
    NO_STORE,
    STORE_SCHEMA,
    ArtifactStore,
    canonical_json,
    content_key,
    default_store,
    point_key_payload,
    resolve_store,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_dataclasses_and_tuples(self):
        text = canonical_json({"params": PAPER_PARAMETERS, "xs": (1, 2)})
        payload = json.loads(text)
        assert payload["xs"] == [1, 2]
        assert payload["params"]["cpu_mips"] == PAPER_PARAMETERS.cpu_mips

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": float("nan")})

    def test_rejects_non_string_keys(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})

    def test_float_repr_roundtrips(self):
        value = 0.1 + 0.2  # not exactly 0.3
        assert json.loads(canonical_json({"v": value}))["v"] == value


class TestContentKey:
    def test_deterministic(self):
        payload = {"p": 4, "params": PAPER_PARAMETERS}
        assert content_key("point", payload) == content_key("point", payload)

    def test_kind_separates_namespaces(self):
        payload = {"p": 4}
        assert content_key("point", payload) != content_key("result", payload)

    def test_any_coordinate_changes_key(self):
        base = {"p": 4, "f": 0.7, "epsilon": 0.5, "params": PAPER_PARAMETERS}
        key = content_key("point", base)
        for field, bumped in (
            ("p", 5),
            ("f", 0.71),
            ("epsilon", 0.49),
            ("params", PAPER_PARAMETERS.scaled(cpu_mips=2.0)),
        ):
            assert content_key("point", {**base, field: bumped}) != key

    def test_stable_across_interpreter_runs(self):
        """The cache outlives the process: keys must not depend on hash
        randomization, dict order, or anything per-interpreter."""
        payload = {"p": 4, "f": 0.7, "params": PAPER_PARAMETERS}
        expected = content_key("point", payload)
        script = (
            "from repro.store import content_key\n"
            "from repro.cost.params import PAPER_PARAMETERS\n"
            "print(content_key('point', "
            "{'p': 4, 'f': 0.7, 'params': PAPER_PARAMETERS}))\n"
        )
        keys = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            keys.add(out.stdout.strip())
        assert keys == {expected}

    if HAVE_HYPOTHESIS:

        @settings(max_examples=50, deadline=None)
        @given(
            field=st.sampled_from(
                [f.name for f in dataclasses.fields(SystemParameters)]
            ),
            multiplier=st.floats(
                min_value=0.25, max_value=4.0, allow_nan=False
            ),
        )
        def test_key_tracks_parameter_equality(self, field, multiplier):
            """content_key(params) == content_key(base) iff params == base,
            for any single-field scaling of SystemParameters."""
            base = PAPER_PARAMETERS
            value = getattr(base, field)
            scaled = base.scaled(
                **{field: type(value)(value * multiplier)}
            )
            same = content_key("point", {"params": base}) == content_key(
                "point", {"params": scaled}
            )
            assert same == (scaled == base)


class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        assert store.get(KIND_POINT, key) is None
        store.put(KIND_POINT, key, {"value": 12.5})
        assert store.get(KIND_POINT, key) == {"value": 12.5}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.writes == 1
        assert 0.0 < store.stats.hit_rate < 1.0

    def test_path_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        path = store.put(KIND_POINT, key, {"value": 1.0})
        assert path == tmp_path / KIND_POINT / key[:2] / f"{key}.json"
        assert path.is_file()

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            key = store.key(KIND_POINT, {"i": i})
            store.put(KIND_POINT, key, {"value": float(i)})
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        path = store.put(KIND_POINT, key, {"value": 1.0})
        path.write_text("{ truncated", encoding="utf-8")
        assert store.get(KIND_POINT, key) is None
        assert store.stats.corrupt == 1

    def test_foreign_schema_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        path = store.put(KIND_POINT, key, {"value": 1.0})
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["schema"] = "repro-store/999"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(KIND_POINT, key) is None

    def test_mismatched_key_field_is_a_miss(self, tmp_path):
        """An entry renamed onto the wrong path must not be trusted."""
        store = ArtifactStore(tmp_path)
        a = store.key(KIND_POINT, {"p": 4})
        b = store.key(KIND_POINT, {"p": 5})
        path_a = store.put(KIND_POINT, a, {"value": 1.0})
        path_b = store.path_for(KIND_POINT, b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(path_a.read_bytes())
        assert store.get(KIND_POINT, b) is None

    def test_get_or_compute_recomputes_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 7.0}

        payload = {"p": 7}
        assert store.get_or_compute(KIND_POINT, payload, compute) == {"value": 7.0}
        assert store.get_or_compute(KIND_POINT, payload, compute) == {"value": 7.0}
        assert len(calls) == 1
        store.path_for(KIND_POINT, store.key(KIND_POINT, payload)).write_text(
            "garbage", encoding="utf-8"
        )
        assert store.get_or_compute(KIND_POINT, payload, compute) == {"value": 7.0}
        assert len(calls) == 2

    def test_non_utf8_entry_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 3.0}

        payload = {"p": 3}
        key = store.key(KIND_POINT, payload)
        path = store.put(KIND_POINT, key, {"value": 3.0})
        good = path.read_bytes()
        # A UTF-16 byte-order mark followed by bytes no codec accepts.
        path.write_bytes(b"\xff\xfe\x00\xd8garbage\xc3")
        assert store.get(KIND_POINT, key) is None
        assert store.stats.corrupt == 1
        assert store.get_or_compute(KIND_POINT, payload, compute) == {"value": 3.0}
        assert calls == [1]
        assert path.read_bytes() == good

    def test_null_value_is_a_counted_miss(self, tmp_path):
        """``None`` is what a miss returns, so a stored null is corrupt."""
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        store.put(KIND_POINT, key, None)
        assert store.get(KIND_POINT, key) is None
        assert store.stats.snapshot() == {
            "hits": 0, "misses": 1, "writes": 1, "corrupt": 1,
        }
        assert store.get_or_compute(KIND_POINT, {"p": 4}, lambda: 5.0) == 5.0
        assert store.get(KIND_POINT, key) == 5.0
        assert store.stats.hits == 1

    def test_put_is_idempotent_overwrite(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        store.put(KIND_POINT, key, {"value": 1.0})
        store.put(KIND_POINT, key, {"value": 1.0})
        assert store.get(KIND_POINT, key) == {"value": 1.0}

    def test_envelope_is_self_describing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        path = store.put(KIND_POINT, key, {"value": 1.0})
        envelope = json.loads(path.read_text(encoding="utf-8"))
        assert envelope["schema"] == STORE_SCHEMA
        assert envelope["kind"] == KIND_POINT
        assert envelope["key"] == key


class TestResolution:
    def test_default_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        store = default_store()
        assert store is not None
        assert store.root == tmp_path

    def test_default_store_absent(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_store() is None

    def test_resolve_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        explicit = ArtifactStore(tmp_path / "explicit")
        assert resolve_store(explicit) is explicit

    def test_no_store_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        assert resolve_store(NO_STORE) is None


@dataclasses.dataclass(frozen=True)
class _FakePoint:
    algorithm: str
    p: int
    params: SystemParameters = PAPER_PARAMETERS


def _fake_evaluate(point):  # pragma: no cover - name only
    raise NotImplementedError


class TestPointKeyPayload:
    def test_dataclass_point(self):
        payload = point_key_payload(_FakePoint("treeschedule", 4), _fake_evaluate)
        assert payload is not None
        assert payload["coords"]["algorithm"] == "treeschedule"
        assert payload["evaluator"].endswith("_fake_evaluate")

    def test_non_dataclass_opts_out(self):
        assert point_key_payload({"p": 4}, _fake_evaluate) is None

    def test_evaluator_separates_keys(self):
        point = _FakePoint("treeschedule", 4)

        def other(p):  # pragma: no cover - name only
            raise NotImplementedError

        a = content_key(KIND_POINT, point_key_payload(point, _fake_evaluate))
        b = content_key(KIND_POINT, point_key_payload(point, other))
        assert a != b

    def test_coordinate_changes_key(self):
        a = content_key(
            KIND_POINT, point_key_payload(_FakePoint("treeschedule", 4), _fake_evaluate)
        )
        b = content_key(
            KIND_POINT, point_key_payload(_FakePoint("treeschedule", 5), _fake_evaluate)
        )
        c = content_key(
            KIND_POINT,
            point_key_payload(
                _FakePoint("treeschedule", 4, PAPER_PARAMETERS.scaled(cpu_mips=2.0)),
                _fake_evaluate,
            ),
        )
        assert len({a, b, c}) == 3


class TestCapacitySchemaBump:
    """Schema bumps orphan old entries.

    ``STORE_SCHEMA`` moved to ``repro-store/2`` when cluster specs
    started flowing into content keys, and to ``repro-store/3`` when
    schedules became an operator table plus per-site index rows; an
    entry written under an older schema must read as a (counted) corrupt
    miss, never as a hit, and heterogeneous clusters must never alias
    homogeneous keys.
    """

    def test_schema_is_bumped(self):
        assert STORE_SCHEMA == "repro-store/3"

    def test_pre_capacity_entry_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_POINT, {"p": 4})
        path = store.put(KIND_POINT, key, {"value": 1.0})
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["schema"] = "repro-store/1"  # what PR 1-8 stores wrote
        path.write_text(json.dumps(envelope), encoding="utf-8")
        assert store.get(KIND_POINT, key) is None
        assert store.stats.corrupt == 1
        assert store.stats.misses == 1
        # get_or_compute recovers by recomputing and rewriting in place.
        assert store.get_or_compute(
            KIND_POINT, {"p": 4}, lambda: {"value": 2.0}
        ) == {"value": 2.0}
        assert store.get(KIND_POINT, key) == {"value": 2.0}

    def test_cluster_coordinate_changes_point_key(self):
        from repro import parse_cluster_spec
        from repro.experiments.parallel import SweepPoint

        def coords(cluster):
            return point_key_payload(
                SweepPoint(
                    algorithm="treeschedule",
                    n_joins=10,
                    p=8,
                    f=0.7,
                    epsilon=0.5,
                    seed=1,
                    n_queries=2,
                    params=PAPER_PARAMETERS,
                    cluster=cluster,
                ),
                _fake_evaluate,
            )

        homogeneous = content_key(KIND_POINT, coords(None))
        heterogeneous = content_key(
            KIND_POINT, coords(parse_cluster_spec("fast:4:2.0,slow:4:1.0"))
        )
        assert homogeneous != heterogeneous
        # Same heterogeneous spec ⇒ same key (specs are value types).
        again = content_key(
            KIND_POINT, coords(parse_cluster_spec("fast:4:2.0,slow:4:1.0"))
        )
        assert heterogeneous == again
