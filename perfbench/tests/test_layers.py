"""Self-time arithmetic and wrapper hygiene of the layer tracer."""

import pytest

import repro.search.search
import repro.serve.pool
from layers import LAYERS, Layer, LayerTracer, find_wrappers


class FakeClock:
    """A clock that only moves when the synthetic call tree says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def _synthetic_tree(clock, tracer):
    """outer(A) 10s total: 1s own, mid(B) 6s, 3s own.

    mid(B) 6s total: 2s own, inner(A) 1.5s, same-layer helper(B) 2.5s
    (folded into mid: B is already the innermost open layer).
    """

    def inner():
        clock.spend(1.5)

    def helper():
        clock.spend(2.5)

    inner_w = tracer.wrap("A", inner)
    helper_w = tracer.wrap("B", helper)

    def mid():
        clock.spend(2.0)
        inner_w()
        helper_w()

    mid_w = tracer.wrap("B", mid)

    def outer():
        clock.spend(1.0)
        mid_w()
        clock.spend(3.0)

    return tracer.wrap("A", outer)


def test_self_time_on_a_synthetic_nested_call_tree():
    clock = FakeClock()
    tracer = LayerTracer(layers=(Layer("A", ()), Layer("B", ())), clock=clock)
    outer = _synthetic_tree(clock, tracer)
    outer()
    assert tracer.self_s["A"] == pytest.approx(1.0 + 3.0 + 1.5)
    assert tracer.self_s["B"] == pytest.approx(2.0 + 2.5)
    assert tracer.calls == {"A": 2, "B": 1}
    assert tracer.attributed_s == pytest.approx(10.0)


def test_rows_and_unattributed_sum_to_the_traced_wall():
    clock = FakeClock()
    tracer = LayerTracer(layers=(Layer("A", ()), Layer("B", ())), clock=clock)
    outer = _synthetic_tree(clock, tracer)
    started = clock()
    clock.spend(0.25)  # harness time outside every layer
    outer()
    outer()
    clock.spend(0.5)
    wall = clock() - started
    rows = tracer.rows(wall)
    assert [name for name, _, _ in rows] == ["A", "B", "unattributed_s"]
    assert sum(self_s for _, _, self_s in rows) == pytest.approx(wall)
    assert rows[-1][2] == pytest.approx(0.75)


def test_exceptions_still_close_the_frame():
    clock = FakeClock()
    tracer = LayerTracer(layers=(Layer("A", ()),), clock=clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("A", boom)()
    assert tracer.self_s["A"] == 1.0
    assert tracer._stack == []


def test_install_wraps_where_callers_look_up_and_uninstall_restores():
    screen = repro.search.search.candidate_lower_bounds
    residents_of = repro.serve.pool.SitePool.residents_of
    assert find_wrappers() == []
    with LayerTracer():
        assert repro.search.search.candidate_lower_bounds is not screen
        assert repro.serve.pool.SitePool.residents_of is not residents_of
        wrapped = find_wrappers()
        assert "repro.search.search.candidate_lower_bounds" in wrapped
        assert "repro.engine.driver.SHELF_POLICIES['min']" in wrapped
    assert find_wrappers() == []
    assert repro.search.search.candidate_lower_bounds is screen
    assert repro.serve.pool.SitePool.residents_of is residents_of


def test_every_layer_target_resolves():
    tracer = LayerTracer()
    tracer.install()
    try:
        names = {layer.name for layer in LAYERS}
        assert len(names) == len(LAYERS)
    finally:
        tracer.uninstall()
    assert find_wrappers() == []
