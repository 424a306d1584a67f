"""The schedule layout: an operator table plus per-site index rows.

``schedule_to_dict`` writes each operator's distinct ``(work, t_seq)``
variants once and every site as ``operator#, clone_index, variant#``
triples.  ``schedule_from_dict`` decodes each row in one folding pass.
These tests hold it to three contracts:

* a round trip over random schedules (skewed clones, ``-0.0``,
  subnormals, heterogeneous capacities, disabled sites, empty rows)
  rebuilds the same state, bit for bit, as :func:`replay`, the
  reference decoder that places the stored rows clone by clone with
  :meth:`Schedule.place`;
* every malformed schedule raises the exception class and message
  listed in :data:`DECODE_ERRORS`, and a ``T_seq`` that is not finite or
  lies outside ``[l(W), sum(W)]`` is rejected;
* every malformed payload raises
  :class:`~repro.exceptions.ConfigurationError` from the result decoder,
  including the old one-object-per-placement layout and a stored
  ``response_time`` that is not the sum of the decoded phases'
  makespans.
"""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConfigurationError, PlacedClone, SchedulingError, WorkVector
from repro.core.schedule import PhasedSchedule, Schedule
from repro.engine import ScheduleResult
from repro.serialization import (
    schedule_from_dict,
    schedule_result_from_dict,
    schedule_result_to_dict,
    schedule_to_dict,
)

#: Values whose bits a lossy codec would lose or merge.
AWKWARD = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.5, 1e300]

components = st.sampled_from(AWKWARD) | st.floats(0.0, 1e6)


@st.composite
def variants_of(draw, d):
    """A work vector and a ``T_seq`` in its ``[l(W), sum(W)]`` (a stored
    ``T_seq`` outside that range is rejected)."""
    work = draw(st.lists(components, min_size=d, max_size=d))
    lo, hi = max(work), math.fsum(work)
    choices = [lo, hi, lo + draw(st.floats(0.0, 1.0)) * (hi - lo)]
    if hi == 0.0:
        choices.append(-0.0)
    return work, draw(st.sampled_from(choices))


@st.composite
def schedules(draw):
    """Random site-major placements: ``(p, d, capacities, sites, disabled)``.

    Each operator draws a few variants and its clones pick among them,
    so some clones share a variant (the EA1 case) and others differ (a
    skewed clone).
    """
    p = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    n_ops = draw(st.integers(1, 4))
    variants = [
        draw(st.lists(variants_of(d), min_size=1, max_size=3)) for _ in range(n_ops)
    ]
    next_clone = [0] * n_ops
    sites = []
    for _ in range(p):
        ops = draw(st.permutations(range(n_ops)))[: draw(st.integers(0, n_ops))]
        row = []
        for op in ops:
            work, t_seq = variants[op][draw(st.integers(0, len(variants[op]) - 1))]
            row.append(PlacedClone(f"op{op}", next_clone[op], WorkVector(work), t_seq))
            next_clone[op] += 1
        sites.append(row)
    capacities = draw(
        st.none() | st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]), min_size=p, max_size=p)
    )
    disabled = draw(st.sets(st.integers(0, p - 1)))
    return p, d, capacities, sites, disabled


def oracle(p, d, capacities, sites, disabled) -> Schedule:
    """Place clone by clone, site after site, then disable sites."""
    schedule = Schedule(p, d, capacities)
    for j, clones in enumerate(sites):
        for clone in clones:
            schedule.place(j, clone)
    for j in sorted(disabled):
        schedule.disable_site(j)
    return schedule


def replay(payload: dict) -> Schedule:
    """The reference decoder: one :class:`PlacedClone` and one
    :meth:`Schedule.place` per stored triple, rows in site order."""
    table = [
        [(name, WorkVector(work), t_seq) for work, t_seq in variants]
        for name, variants in payload["operators"]
    ]
    schedule = Schedule(payload["p"], payload["d"], payload.get("capacities"))
    for j, row in enumerate(payload["sites"]):
        for number, clone_index, variant in zip(row[::3], row[1::3], row[2::3]):
            name, work, t_seq = table[number][variant]
            schedule.place(j, PlacedClone(name, clone_index, work, t_seq))
    for j in payload.get("disabled_sites", []):
        schedule.disable_site(j)
    return schedule


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def state(schedule: Schedule):
    """Everything the decoder rebuilds, floats as ``float.hex``."""
    return {
        "sites": [
            {
                "clones": [
                    (c.operator, c.clone_index, _hex(c.work.components), c.t_seq.hex())
                    for c in site.clones
                ],
                "operators": sorted(site.operators),
                "load": _hex(site.load_vector().components),
                "length": site.length().hex(),
                "total_load": site.total_load().hex(),
                "max_t_seq": site.max_t_seq().hex(),
                "capacity": site.capacity.hex(),
            }
            for site in schedule.sites
        ],
        # Home order is the order operators were first placed.
        "homes": [(op, h.site_indices) for op, h in schedule.homes().items()],
        "total_work": _hex(schedule.total_work().components),
        "clone_count": schedule.clone_count(),
        "disabled": sorted(schedule.disabled_sites),
    }


@settings(max_examples=150, deadline=None)
@given(schedules())
def test_round_trip_matches_clone_by_clone_oracle(case):
    expected = oracle(*case)
    payload = schedule_to_dict(expected)
    text = json.dumps(payload)
    decoded = schedule_from_dict(json.loads(text))
    assert state(decoded) == state(replay(json.loads(text))) == state(expected)
    # Re-encoding the decoded schedule gives the same text (JSON keeps
    # the sign of zero, so this also checks the variant bits).
    assert json.dumps(schedule_to_dict(decoded)) == text


def test_zero_signs_are_distinct_variants():
    schedule = Schedule(2, 1)
    schedule.place(0, PlacedClone("a", 0, WorkVector([0.0]), 0.0))
    schedule.place(1, PlacedClone("a", 1, WorkVector([-0.0]), -0.0))
    payload = schedule_to_dict(schedule)
    assert payload["operators"] == [["a", [[[0.0], 0.0], [[-0.0], -0.0]]]]
    assert payload["sites"] == [[0, 0, 0], [0, 1, 1]]
    decoded = schedule_from_dict(payload)
    clone = decoded.site(1).clones[0]
    assert clone.work.components[0].hex() == "-0x0.0p+0"
    assert clone.t_seq.hex() == "-0x0.0p+0"
    # The folds start from +0.0, so a -0.0 clone leaves them at +0.0.
    assert state(decoded) == state(schedule)
    assert decoded.site(1).max_t_seq().hex() == "0x0.0p+0"


def test_ea1_operator_stores_two_variants():
    """A coordinator plus identical other clones: one table row, two variants."""
    schedule = Schedule(4, 2)
    schedule.place(0, PlacedClone("scan", 0, WorkVector([2.0, 1.0]), 2.5))
    for k in range(1, 4):
        schedule.place(k, PlacedClone("scan", k, WorkVector([1.0, 1.0]), 1.5))
    payload = schedule_to_dict(schedule)
    assert payload["operators"] == [["scan", [[[2.0, 1.0], 2.5], [[1.0, 1.0], 1.5]]]]
    assert payload["sites"] == [[0, 0, 0], [0, 1, 1], [0, 2, 1], [0, 3, 1]]


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------
def _result_payload() -> dict:
    """A valid result over a three-site, two-operator schedule."""
    schedule = Schedule(3, 2)
    schedule.place(0, PlacedClone("a", 0, WorkVector([2.0, 1.0]), 2.0))
    schedule.place(0, PlacedClone("b", 0, WorkVector([1.0, 3.0]), 3.0))
    schedule.place(1, PlacedClone("a", 1, WorkVector([1.0, 1.0]), 1.0))
    schedule.place(2, PlacedClone("a", 2, WorkVector([1.0, 1.0]), 1.0))
    phased = PhasedSchedule()
    phased.append(schedule, "t0")
    result = ScheduleResult(algorithm="treeschedule", phased_schedule=phased)
    return json.loads(json.dumps(schedule_result_to_dict(result)))


def _schedule(payload: dict) -> dict:
    return payload["phased_schedule"]["phases"][0]


def _set_site_entry(row: int, position: int, value):
    def corrupt(payload):
        _schedule(payload)["sites"][row][position] = value

    return corrupt


def _old_placements(payload):
    schedule = _schedule(payload)
    del schedule["operators"], schedule["sites"]
    schedule["placements"] = [
        {"site": 0, "operator": "a", "clone_index": 0,
         "work": {"components": [2.0, 1.0]}, "t_seq": 2.0},
    ]


def _ragged_row(payload):
    _schedule(payload)["sites"][1].append(0)


def _too_few_rows(payload):
    _schedule(payload)["sites"].pop()


def _too_many_rows(payload):
    _schedule(payload)["sites"].append([])


def _duplicated_clone(payload):
    row = _schedule(payload)["sites"][1]
    row.extend(row[:3])


def _negative_component(payload):
    _schedule(payload)["operators"][0][1][0][0][1] = -1.0


def _wrong_dimension(payload):
    _schedule(payload)["operators"][1][1][0][0].append(1.0)


def _operator_listed_twice(payload):
    operators = _schedule(payload)["operators"]
    operators[1][0] = operators[0][0]


def _negative_home(payload):
    payload["homes"]["a"] = [0, -1, 2]


def _bool_degree(payload):
    payload["degrees"]["a"] = True


def _float_degree(payload):
    payload["degrees"]["a"] = 3.0


def _stale_response_time(payload):
    payload["response_time"] = 1.0


def _one_ulp_response_time(payload):
    payload["response_time"] = math.nextafter(payload["response_time"], math.inf)


REJECTIONS = {
    # Site 0's row is ``[0, 0, 0, 1, 0, 0]``: a#0 variant 0, then b#0.
    # A wrapped -1 would name b, so only the range check rejects it.
    "negative_operator_index": _set_site_entry(0, 3, -1),
    "out_of_range_operator_index": _set_site_entry(0, 0, 2),
    "bool_operator_index": _set_site_entry(0, 3, True),
    "negative_clone_index": _set_site_entry(0, 1, -1),
    "bool_clone_index": _set_site_entry(0, 1, False),
    "float_clone_index": _set_site_entry(0, 1, 0.0),
    "negative_variant_index": _set_site_entry(0, 2, -1),
    "out_of_range_variant_index": _set_site_entry(1, 2, 2),
    "bool_variant_index": _set_site_entry(0, 2, False),
    "ragged_row": _ragged_row,
    "too_few_rows": _too_few_rows,
    "too_many_rows": _too_many_rows,
    "duplicated_clone": _duplicated_clone,
    "negative_component": _negative_component,
    "wrong_dimension": _wrong_dimension,
    "operator_listed_twice": _operator_listed_twice,
    "old_placements_layout": _old_placements,
    "negative_home": _negative_home,
    "bool_degree": _bool_degree,
    "float_degree": _float_degree,
    "stale_response_time": _stale_response_time,
    "one_ulp_response_time": _one_ulp_response_time,
}


def test_payload_under_test_decodes():
    payload = _result_payload()
    assert _schedule(payload)["sites"][0] == [0, 0, 0, 1, 0, 0]
    assert schedule_result_from_dict(payload).makespan == 4.0


@pytest.mark.parametrize("corrupt", REJECTIONS.values(), ids=REJECTIONS)
def test_malformed_payload_is_rejected(corrupt):
    payload = copy.deepcopy(_result_payload())
    corrupt(payload)
    with pytest.raises(ConfigurationError):
        schedule_result_from_dict(payload)


# ----------------------------------------------------------------------
# Error classes and messages of the decoder itself
# ----------------------------------------------------------------------
def _set_entry(row: int, position: int, value):
    return lambda s: s["sites"][row].__setitem__(position, value)


def _set_capacities(capacities):
    return lambda s: s.__setitem__("capacities", capacities)


_BAD_CAPACITY = "site 1: capacity must be a positive finite number, got "

#: Each corruption of :func:`_result_payload`'s schedule, with the
#: exception class and message the decoder raises for it.  Site 0's row is ``[0, 0, 0, 1, 0, 0]``; sites
#: 1 and 2 hold a#1 and a#2 as variant 1 of ``a``.
DECODE_ERRORS = {
    "str_operator_index": (
        _set_entry(0, 0, "0"),
        ConfigurationError,
        "malformed schedule payload: site 0 has operator# '0', clone index 0",
    ),
    "bool_operator_index": (
        _set_entry(0, 3, True),
        ConfigurationError,
        "malformed schedule payload: site 0 has operator# True, clone index 0",
    ),
    "negative_operator_index": (
        _set_entry(0, 3, -1),
        ConfigurationError,
        "malformed schedule payload: site 0 has operator# -1, clone index 0",
    ),
    "out_of_range_operator_index": (
        _set_entry(2, 0, 2),
        ConfigurationError,
        "malformed schedule payload: site 2 has operator# 2, clone index 2",
    ),
    "float_clone_index": (
        _set_entry(1, 1, 1.0),
        ConfigurationError,
        "malformed schedule payload: site 1 has operator# 0, clone index 1.0",
    ),
    "negative_clone_index": (
        _set_entry(0, 4, -1),
        ConfigurationError,
        "malformed schedule payload: site 0 has operator# 1, clone index -1",
    ),
    "out_of_range_variant_index": (
        _set_entry(1, 2, 2),
        ConfigurationError,
        "malformed schedule payload: site 1 has variant# 2 of operator# 0",
    ),
    "negative_variant_index": (
        _set_entry(0, 2, -1),
        ConfigurationError,
        "malformed schedule payload: site 0 has variant# -1 of operator# 0",
    ),
    "bool_variant_index": (
        _set_entry(0, 5, False),
        ConfigurationError,
        "malformed schedule payload: site 0 has variant# False of operator# 1",
    ),
    "wrong_dimension": (
        lambda s: s["operators"][1][1][0][0].append(1.0),
        ConfigurationError,
        "malformed schedule payload: 'b' has d=3, schedule has d=2",
    ),
    "row_not_triples": (
        lambda s: s["sites"][1].append(0),
        ConfigurationError,
        "malformed schedule payload: site 1 row is not index triples",
    ),
    "row_not_a_list": (
        lambda s: s["sites"].__setitem__(2, "0,2,1"),
        ConfigurationError,
        "malformed schedule payload: site 2 row is not index triples",
    ),
    "too_few_rows": (
        lambda s: s["sites"].pop(),
        ConfigurationError,
        "malformed schedule payload: 'sites' must list P=3 rows",
    ),
    "too_many_rows": (
        lambda s: s["sites"].append([]),
        ConfigurationError,
        "malformed schedule payload: 'sites' must list P=3 rows",
    ),
    "no_sites": (
        lambda s: s.update(p=0, sites=[]),
        SchedulingError,
        "a schedule needs at least one site",
    ),
    "too_few_capacities": (
        _set_capacities([1.0, 2.0]),
        ConfigurationError,
        "malformed schedule payload: 2 capacities for P=3",
    ),
    "zero_capacity": (
        _set_capacities([1.0, 0.0, 1.0]), SchedulingError, _BAD_CAPACITY + "0.0"
    ),
    "negative_capacity": (
        _set_capacities([1.0, -2.0, 1.0]), SchedulingError, _BAD_CAPACITY + "-2.0"
    ),
    "nan_capacity": (
        _set_capacities([1.0, math.nan, 1.0]), SchedulingError, _BAD_CAPACITY + "nan"
    ),
    "infinite_capacity": (
        _set_capacities([1.0, math.inf, 1.0]), SchedulingError, _BAD_CAPACITY + "inf"
    ),
    "second_clone_on_site": (
        lambda s: s["sites"][1].extend([0, 0, 0]),
        SchedulingError,
        "site 1: already hosts a clone of 'a' (constraint (A) of Section 5.3)",
    ),
}


@pytest.mark.parametrize(
    "corrupt, error, message", DECODE_ERRORS.values(), ids=DECODE_ERRORS
)
def test_decode_error_class_and_message(corrupt, error, message):
    schedule = copy.deepcopy(_schedule(_result_payload()))
    corrupt(schedule)
    with pytest.raises(error) as raised:
        schedule_from_dict(schedule)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_result_decoder_wraps_constraint_a_violation():
    payload = _result_payload()
    _schedule(payload)["sites"][1].extend([0, 0, 0])
    with pytest.raises(ConfigurationError) as raised:
        schedule_result_from_dict(payload)
    assert str(raised.value) == (
        "malformed schedule result payload: SchedulingError: site 1: already "
        "hosts a clone of 'a' (constraint (A) of Section 5.3)"
    )


# Variant 0 of ``a`` is ``[[2.0, 1.0], 2.0]``: l(W) = 2 and sum(W) = 3.
@pytest.mark.parametrize(
    "t_seq", [math.inf, -math.inf, math.nan, -5.0, 1.5, 3.5], ids=str
)
def test_stored_t_seq_outside_the_bound_is_rejected(t_seq):
    payload = _result_payload()
    _schedule(payload)["operators"][0][1][0][1] = t_seq
    with pytest.raises(ConfigurationError) as raised:
        schedule_from_dict(_schedule(payload))
    assert str(raised.value) == (
        f"malformed schedule payload: 'a': sequential time {t_seq} "
        "outside [max W, sum W] = [2.0, 3.0]"
    )
    with pytest.raises(ConfigurationError):
        schedule_result_from_dict(payload)


def test_stored_t_seq_within_tolerance_of_the_bound_decodes():
    payload = _result_payload()
    _schedule(payload)["operators"][0][1][0][1] = 3.0 + 1e-12
    schedule = schedule_from_dict(_schedule(payload))
    assert schedule.site(0).max_t_seq() == 3.0 + 1e-12


def test_treeschedule_result_with_a_stale_response_time_is_rejected():
    pytest.importorskip("numpy")
    from repro.experiments.runner import prepare_workload, schedule_query
    from repro.store import NO_STORE

    (query,) = prepare_workload(10, 1, 1996, store=NO_STORE)
    result = schedule_query(
        "treeschedule", query, p=16, f=0.7, epsilon=0.5, store=NO_STORE
    )
    payload = json.loads(json.dumps(schedule_result_to_dict(result)))
    assert schedule_result_from_dict(payload).response_time == 50.185004711538454
    payload["response_time"] = 1.0
    with pytest.raises(ConfigurationError) as raised:
        schedule_result_from_dict(payload)
    assert str(raised.value) == (
        "malformed schedule result payload: response_time 1.0 is not its "
        "phases' 50.185004711538454"
    )
