"""Differential oracle for :func:`repro.store.canonical_json`.

``canonical_json`` encodes in one pass of the C JSON encoder, calling
back into Python only for objects JSON cannot encode natively.  The
reference below is the two-pass encoder it replaced: a full recursive
conversion to plain data, then ``json.dumps``.  Every accepted payload
must encode to the same bytes under both, and every payload the
reference rejects must be rejected with
:class:`~repro.exceptions.ConfigurationError` by both — content keys
and store entries written before the one-pass encoder stay reachable.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import json
import types
from collections.abc import Mapping, Sequence
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, PAPER_PARAMETERS, QueryGraph, Relation
from repro.core.resource_model import ConvexCombinationOverlap
from repro.exceptions import ConfigurationError
from repro.search import greedy_plan, plan_key
from repro.store import STORE_SCHEMA, canonical_json, content_key, to_jsonable


# ----------------------------------------------------------------------
# Reference encoder: convert everything in Python, then encode
# ----------------------------------------------------------------------
def _reference_jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _reference_jsonable(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _reference_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"content-key mapping keys must be strings, got {key!r}"
                )
            out[key] = _reference_jsonable(item)
        return out
    if isinstance(value, (list, tuple)) or (
        isinstance(value, Sequence) and not isinstance(value, (bytes, bytearray))
    ):
        return [_reference_jsonable(item) for item in value]
    raise ConfigurationError(
        f"value of type {type(value).__name__} cannot appear in a content key"
    )


def reference_canonical_json(payload: Any) -> str:
    try:
        return json.dumps(
            _reference_jsonable(payload),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except ValueError as exc:
        raise ConfigurationError(f"payload is not canonical-JSON-safe: {exc}") from None


def reference_content_key(kind: str, payload: Any) -> str:
    envelope = {"schema": STORE_SCHEMA, "kind": kind, "payload": payload}
    text = reference_canonical_json(envelope)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Payload vocabulary
# ----------------------------------------------------------------------
class Color(enum.Enum):
    RED = "red"
    BLUE = 3
    PAIR = (1, "a")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


class Poisoned(enum.Enum):
    KEYED = {1: "x"}


Pair = collections.namedtuple("Pair", "left right")


class KeyedDict(dict):
    """A dict subclass: the C encoder walks it natively."""


@dataclasses.dataclass(frozen=True)
class Box:
    label: str
    content: Any


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308, 0.1 + 0.2,
]

floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.text(max_size=8),
    st.sampled_from([*Color, *Level, *Mode]),
    st.integers(min_value=0, max_value=5).map(range),
)
keys = st.one_of(st.text(max_size=6), st.sampled_from(list(Mode)))


def _containers(children):
    dicts = st.dictionaries(keys, children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        dicts,
        dicts.map(collections.OrderedDict),
        dicts.map(KeyedDict),
        dicts.map(types.MappingProxyType),
        st.builds(Box, st.text(max_size=4), children),
    )


payloads = st.recursive(scalars, _containers, max_leaves=24)

bad_keys = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.tuples(st.integers()),
    st.sampled_from(list(Level)),
)
bad_leaves = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.binary(max_size=4),
    st.binary(max_size=4).map(bytearray),
    st.builds(object),
    st.frozensets(st.integers(), max_size=2),
    st.just(Poisoned.KEYED),
    st.builds(
        lambda key, value, factory: factory({key: value}),
        bad_keys,
        payloads,
        st.sampled_from(
            [dict, collections.OrderedDict, KeyedDict, types.MappingProxyType]
        ),
    ),
)


def _wrap(inner):
    """Bury ``inner`` one level deeper, among well-formed siblings."""
    siblings = st.dictionaries(keys, payloads, max_size=2)
    return st.one_of(
        st.tuples(payloads, inner, payloads).map(list),
        st.tuples(inner, payloads).map(tuple),
        st.builds(Pair, payloads, inner),
        st.builds(lambda k, v, rest: {**rest, k: v}, keys, inner, siblings),
        st.builds(
            lambda k, v, rest: collections.OrderedDict({**rest, k: v}),
            keys, inner, siblings,
        ),
        st.builds(
            lambda k, v, rest: types.MappingProxyType({**rest, k: v}),
            keys, inner, siblings,
        ),
        st.builds(Box, st.text(max_size=4), inner),
    )


poisoned = st.recursive(bad_leaves, _wrap, max_leaves=6)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(payloads)
def test_accepted_payloads_encode_identically(payload):
    assert canonical_json(payload) == reference_canonical_json(payload)
    assert content_key("point", payload) == reference_content_key("point", payload)


@settings(max_examples=400, deadline=None)
@given(poisoned)
def test_rejected_payloads_raise_in_both(payload):
    with pytest.raises(ConfigurationError):
        reference_canonical_json(payload)
    with pytest.raises(ConfigurationError):
        canonical_json(payload)


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_to_jsonable_is_the_plain_data_of_the_encoding(payload):
    assert canonical_json(to_jsonable(payload)) == canonical_json(payload)


# ----------------------------------------------------------------------
# Named rejections (the cases the C encoder would otherwise accept)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload",
    [
        {1: "x"},
        {True: "x"},
        {None: "x"},
        {1.5: "x"},
        {"ok": [{"deep": {2: "x"}}]},
        {"ok": (Pair(1, {False: 0}),)},
        KeyedDict({3: "x"}),
        {"ok": KeyedDict({None: 1})},
        collections.OrderedDict([("a", {4: "x"})]),
        Box("field", {5: "x"}),
        [Box("field", [{None: "x"}])],
        types.MappingProxyType({"a": {6: "x"}}),
        {Level.LOW: "x"},
        Poisoned.KEYED,
        {"x": float("nan")},
        [float("inf")],
        (float("-inf"),),
        Box("field", float("nan")),
        {"x": b"bytes"},
        [bytearray(b"x")],
        # An explicit id: repr() of a bare object() names its address.
        pytest.param({"x": object()}, id="{'x': object()}"),
        Box("field", object()),
        {"x": {1, 2}},
    ],
    ids=repr,
)
def test_named_rejections(payload):
    with pytest.raises(ConfigurationError):
        reference_canonical_json(payload)
    with pytest.raises(ConfigurationError):
        canonical_json(payload)


def test_special_floats_round_trip_bit_for_bit():
    text = canonical_json({"xs": SPECIAL_FLOATS})
    assert text == reference_canonical_json({"xs": SPECIAL_FLOATS})
    back = json.loads(text)["xs"]
    assert [x.hex() for x in back] == [x.hex() for x in SPECIAL_FLOATS]


# ----------------------------------------------------------------------
# Digests pinned before the one-pass encoder
# ----------------------------------------------------------------------
def _relations(cards: dict[str, int], joins: list[tuple[str, str]]):
    catalog = Catalog([Relation(name, tuples) for name, tuples in cards.items()])
    return QueryGraph(list(cards), joins), catalog


PINNED_CONTENT_KEYS = [
    (
        "point",
        {"p": 4, "f": 0.7, "params": PAPER_PARAMETERS},
        "f6f50045808577e11753631041d53e18a20e5d2159f6f825496a04453e71c321",
    ),
    (
        "result",
        {
            "algorithm": "treeschedule",
            "query": {
                "workload": {"n_joins": 6, "n_queries": 1, "seed": 3},
                "index": 0,
            },
            "p": 8,
            "f": 0.7,
            "epsilon": 0.5,
            "overlap": ConvexCombinationOverlap(0.5),
            "xs": (1, 2.5, -0.0, 5e-324, 1e308),
            "r": range(3),
        },
        "c42fe710333330ba1e193aa21f483a05104c62778f871525638309ca3306f54c",
    ),
    (
        "annotation",
        {
            "comm": PAPER_PARAMETERS.communication_model(),
            "nested": [{"b": None, "a": True}, ()],
        },
        "39ff67f26bbe50f34450bd53839a24e5ce9513a8987ee58949917733058746d7",
    ),
]


@pytest.mark.parametrize(
    "kind,payload,digest", PINNED_CONTENT_KEYS, ids=[k for k, _, _ in PINNED_CONTENT_KEYS]
)
def test_pinned_content_keys(kind, payload, digest):
    assert content_key(kind, payload) == digest
    assert reference_content_key(kind, payload) == digest


def test_pinned_plan_keys():
    tree = _relations(
        {
            "A": 120_000, "B": 4_000, "C": 45_000, "D": 800,
            "E": 60_000, "F": 9_000, "G": 2_500,
        },
        [("A", "B"), ("B", "C"), ("C", "D"), ("B", "E"), ("E", "F"), ("F", "G")],
    )
    chain = _relations(
        {"A": 9000, "B": 400, "C": 52000, "D": 7000, "E": 1100},
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")],
    )
    assert plan_key(greedy_plan(*tree)) == (
        "007ea3a87b67b4c38b9599759e7ff4a4a8c2ea9a2946f21b07e895de94ebbfeb"
    )
    assert plan_key(greedy_plan(*chain)) == (
        "4b2c5c189e00c2c0c5e53f65d8dbc4f507511d9f8ceb72e6fa6056eae1cb8be8"
    )


@pytest.mark.parametrize("shape", ["list", "dict", "dataclass"])
def test_cycles_overflow_in_both(shape):
    """No circular-reference check: a cycle fails as it always did."""
    if shape == "list":
        payload = []
        payload.append(payload)
    elif shape == "dict":
        payload = {}
        payload["self"] = payload
    else:
        box = Box("cycle", None)
        object.__setattr__(box, "content", [box])
        payload = {"box": box}
    with pytest.raises(RecursionError):
        reference_canonical_json(payload)
    with pytest.raises(RecursionError):
        canonical_json(payload)
