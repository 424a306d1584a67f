"""Unit tests for the serve layer's numpy-free components.

Clock, workload spec, admission controller, degree governor, site pool,
and fluid executor — everything below the service orchestration, driven
directly with hand-built inputs so the no-numpy CI job covers the whole
online-scheduling control plane.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import ConfigurationError, WorkVector
from repro.core.resource_model import ConvexCombinationOverlap
from repro.exceptions import ServiceError
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    DegreeGovernor,
    FluidExecutor,
    GovernorConfig,
    GovernorPolicy,
    JobFactory,
    QueryJob,
    QueryTemplate,
    SitePool,
    SLOClass,
    VirtualTimeEventLoop,
    WorkloadSpec,
    diurnal_factor,
    make_templates,
    run_virtual,
)


# ----------------------------------------------------------------------
# Virtual clock
# ----------------------------------------------------------------------
class TestVirtualClock:
    def test_sleep_advances_virtual_time_instantly(self):
        async def main():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.sleep(3600.0)
            return loop.time() - t0

        assert run_virtual(main()) == pytest.approx(3600.0)

    def test_interleaving_is_deterministic(self):
        async def main():
            order: list[str] = []

            async def ticker(name: str, period: float, n: int):
                for _ in range(n):
                    await asyncio.sleep(period)
                    order.append(name)

            await asyncio.gather(ticker("a", 1.0, 4), ticker("b", 1.5, 3))
            return order

        first = run_virtual(main())
        second = run_virtual(main())
        assert first == second
        assert first == ["a", "b", "a", "b", "a", "a", "b"]

    def test_genuine_deadlock_raises_service_error(self):
        async def main():
            await asyncio.get_running_loop().create_future()  # never resolves

        with pytest.raises(ServiceError, match="deadlock"):
            run_virtual(main())

    def test_returns_coroutine_result(self):
        async def main():
            await asyncio.sleep(1.0)
            return 42

        assert run_virtual(main()) == 42

    def test_cancelled_timer_is_skipped_not_jumped_to(self):
        loop = VirtualTimeEventLoop()
        timeouts: list[float | None] = []
        real_select = loop._selector.select

        def select(timeout=None):
            timeouts.append(timeout)
            return real_select(0)

        loop._selector.select = select

        async def main():
            loop.call_later(1.0, lambda: None).cancel()
            await asyncio.sleep(3.0)

        try:
            loop.run_until_complete(main())
            assert loop.time() == 3.0
            assert loop.advances == 1
            assert loop._timer_cancelled_count == 0
        finally:
            loop.close()
        assert timeouts and all(t is not None and t <= 0 for t in timeouts)

    def test_only_cancelled_timers_left_is_a_deadlock(self):
        async def main():
            loop = asyncio.get_running_loop()
            loop.call_later(1.0, lambda: None).cancel()
            await loop.create_future()

        with pytest.raises(ServiceError, match="deadlock"):
            run_virtual(main())


# ----------------------------------------------------------------------
# Workload spec + generator streams
# ----------------------------------------------------------------------
class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(duration=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(rate=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(diurnal_amplitude=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(latency_mix=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(query_sizes=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="closed", think_mean=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="sideways")

    def test_diurnal_factor_modulates_and_floors(self):
        spec = WorkloadSpec(duration=100.0, diurnal_amplitude=0.8)
        assert diurnal_factor(0.0, spec) == pytest.approx(1.0)
        assert diurnal_factor(25.0, spec) == pytest.approx(1.8)
        assert diurnal_factor(75.0, spec) == pytest.approx(0.2, abs=1e-9)
        flat = WorkloadSpec(duration=100.0)
        assert diurnal_factor(31.4, flat) == 1.0

    def test_templates_deterministic_and_cycling(self):
        spec = WorkloadSpec(query_sizes=(4, 6), template_pool=5, seed=3)
        templates = make_templates(spec)
        assert templates == make_templates(spec)
        assert [t.n_joins for t in templates] == [4, 6, 4, 6, 4]
        assert len({t.seed for t in templates}) == 5

    def test_job_factory_stream_is_seeded(self):
        spec = WorkloadSpec(seed=9, latency_mix=0.5)
        fa, fb = JobFactory(spec), JobFactory(spec)
        a = [fa.job(float(i)) for i in range(20)]
        b = [fb.job(float(i)) for i in range(20)]
        assert [(j.slo, j.template.index) for j in a] == [
            (j.slo, j.template.index) for j in b
        ]
        assert [j.job_id for j in a] == list(range(20))
        slos = {j.slo for j in a}
        assert slos == {SLOClass.LATENCY, SLOClass.BATCH}


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------
def _job(job_id: int, slo: SLOClass) -> QueryJob:
    return QueryJob(
        job_id=job_id,
        slo=slo,
        template=QueryTemplate(index=0, n_joins=4, seed=1),
        submitted_at=float(job_id),
    )


class TestAdmission:
    def make(self, **kwargs) -> AdmissionController:
        return AdmissionController(AdmissionConfig(**kwargs))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(high_water=100, max_queue=10)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(low_water=16, high_water=16)

    def test_admits_until_high_water_then_defers_batch(self):
        ctl = self.make(max_queue=10, high_water=3, low_water=1)
        for i in range(3):
            assert ctl.submit(_job(i, SLOClass.BATCH)) is AdmissionDecision.ADMITTED
        assert ctl.submit(_job(3, SLOClass.BATCH)) is AdmissionDecision.DEFERRED
        # Latency-class jobs keep being admitted past the high-water mark.
        assert ctl.submit(_job(4, SLOClass.LATENCY)) is AdmissionDecision.ADMITTED
        assert ctl.queued == 4
        assert ctl.parked == 1

    def test_sheds_at_hard_cap(self):
        ctl = self.make(max_queue=4, high_water=2, low_water=1)
        decisions = [ctl.submit(_job(i, SLOClass.LATENCY)) for i in range(5)]
        assert decisions[:4] == [AdmissionDecision.ADMITTED] * 4
        assert decisions[4] is AdmissionDecision.SHED
        assert ctl.decisions[("shed", "latency")] == 1

    def test_pop_latency_first_fifo_within_class(self):
        ctl = self.make(max_queue=10, high_water=10, low_water=2)
        ctl.submit(_job(0, SLOClass.BATCH))
        ctl.submit(_job(1, SLOClass.LATENCY))
        ctl.submit(_job(2, SLOClass.BATCH))
        ctl.submit(_job(3, SLOClass.LATENCY))
        assert [ctl.pop().job_id for _ in range(4)] == [1, 3, 0, 2]
        assert ctl.pop() is None

    def test_promotion_waits_for_low_water(self):
        ctl = self.make(max_queue=20, high_water=4, low_water=2)
        for i in range(4):
            ctl.submit(_job(i, SLOClass.BATCH))
        ctl.submit(_job(4, SLOClass.BATCH))
        assert ctl.parked == 1
        # Hysteresis: popping down to depth 3 (>= low_water) must not
        # promote yet.
        ctl.pop()
        assert ctl.parked == 1
        ctl.pop()
        ctl.pop()  # queued drops below low_water=2 -> promote
        assert ctl.parked == 0
        assert ctl.promoted == 1

    def test_drain_intake_promotes_parked(self):
        ctl = self.make(max_queue=20, high_water=2, low_water=1)
        ctl.submit(_job(0, SLOClass.BATCH))
        ctl.submit(_job(1, SLOClass.BATCH))
        ctl.submit(_job(2, SLOClass.BATCH))
        ctl.submit(_job(3, SLOClass.BATCH))
        assert ctl.parked == 2
        ctl.drain_intake()
        # Refilled up to high_water immediately, remainder as pops free room.
        assert ctl.queued == 2
        popped = []
        while (job := ctl.pop()) is not None:
            popped.append(job.job_id)
        assert popped == [0, 1, 2, 3]
        assert ctl.parked == 0

    def test_on_available_fires_for_enqueue_and_promotion(self):
        fired = []
        ctl = self.make(max_queue=20, high_water=2, low_water=1)
        ctl.on_available = lambda: fired.append(ctl.queued)
        ctl.submit(_job(0, SLOClass.BATCH))
        ctl.submit(_job(1, SLOClass.BATCH))
        ctl.submit(_job(2, SLOClass.BATCH))  # deferred: no signal
        assert len(fired) == 2
        ctl.pop()
        ctl.pop()  # promotes the parked job -> signal
        assert len(fired) == 3


# ----------------------------------------------------------------------
# Degree governor
# ----------------------------------------------------------------------
class TestGovernor:
    def test_fixed_policy_always_max(self):
        gov = DegreeGovernor(GovernorConfig(policy=GovernorPolicy.FIXED, max_degree=8))
        assert [gov.degree(p) for p in (0, 5, 50)] == [8, 8, 8]

    def test_adaptive_halves_per_pressure_step(self):
        gov = DegreeGovernor(
            GovernorConfig(max_degree=8, min_degree=1, pressure_step=4)
        )
        assert gov.degree(0) == 8
        assert gov.degree(3) == 8
        assert gov.degree(4) == 4
        assert gov.degree(8) == 2
        assert gov.degree(12) == 1
        # Floors at min_degree and recovers as pressure falls.
        assert gov.degree(400) == 1
        assert gov.degree(2) == 8
        assert gov.chosen == {8: 3, 4: 1, 2: 1, 1: 2}

    def test_min_degree_floor(self):
        gov = DegreeGovernor(
            GovernorConfig(max_degree=8, min_degree=2, pressure_step=1)
        )
        assert gov.degree(10) == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GovernorConfig(min_degree=0)
        with pytest.raises(ConfigurationError):
            GovernorConfig(max_degree=2, min_degree=4)
        with pytest.raises(ConfigurationError):
            GovernorConfig(pressure_step=0)


# ----------------------------------------------------------------------
# Site pool
# ----------------------------------------------------------------------
def _loads(*values: float) -> tuple[WorkVector, ...]:
    return tuple(WorkVector([v, 0.0, 0.0]) for v in values)


class TestSitePool:
    def make(self, p: int = 4, max_coresident: int = 2) -> SitePool:
        return SitePool(
            p=p, overlap=ConvexCombinationOverlap(0.5), max_coresident=max_coresident
        )

    def test_install_places_on_distinct_sites(self):
        pool = self.make()
        hosts = pool.install("q0", _loads(3.0, 2.0, 1.0))
        assert len(hosts) == 3
        assert len(set(hosts)) == 3
        assert pool.running == frozenset({"q0"})
        assert all(pool.residents_of(j) == 1 for j in hosts)

    def test_retire_frees_sites(self):
        pool = self.make()
        hosts = pool.install("q0", _loads(1.0, 1.0))
        pool.retire("q0")
        assert pool.running == frozenset()
        assert all(pool.residents_of(j) == 0 for j in hosts)
        assert pool.installs == 1
        assert pool.retires == 1

    def test_double_install_and_bad_retire_raise(self):
        pool = self.make()
        pool.install("q0", _loads(1.0))
        with pytest.raises(ServiceError):
            pool.install("q0", _loads(1.0))
        with pytest.raises(ServiceError):
            pool.retire("q9")
        with pytest.raises(ServiceError):
            pool.install("q1", ())
        with pytest.raises(ServiceError):
            pool.install("q1", _loads(*([1.0] * 9)))

    def test_has_capacity_respects_coresidency(self):
        pool = self.make(p=3, max_coresident=1)
        assert pool.has_capacity(3)
        pool.install("q0", _loads(1.0, 1.0))
        assert pool.has_capacity(1)
        assert not pool.has_capacity(2)
        pool.install("q1", _loads(1.0))
        assert not pool.has_capacity(1)
        pool.retire("q0")
        assert pool.has_capacity(2)

    def test_utilization_snapshot(self):
        pool = self.make()
        assert pool.resident_queries == 0
        assert pool.occupied_sites == 0
        pool.install("q0", _loads(1.0, 1.0))
        pool.install("q1", _loads(1.0))
        assert pool.resident_queries == 2
        assert pool.occupied_sites == 3
        assert [pool.residents_of(j) for j in range(pool.p)] == [1, 1, 1, 0]

    def test_placement_balances_load(self):
        # Repair placement uses the least-loaded rule, so equal installs
        # spread across the pool rather than stacking one site.
        pool = self.make(p=4, max_coresident=4)
        for i in range(4):
            pool.install(f"q{i}", _loads(1.0))
        assert [pool.residents_of(j) for j in range(4)] == [1, 1, 1, 1]
        assert pool.placement_scans > 0


# ----------------------------------------------------------------------
# Fluid executor
# ----------------------------------------------------------------------
class _MiniPool:
    """Site -> residents bookkeeping for executor tests."""

    def __init__(self):
        self.sites: dict[int, set[str]] = {}

    def add(self, name: str, hosts: tuple[int, ...]) -> None:
        for j in hosts:
            self.sites.setdefault(j, set()).add(name)

    def remove(self, name: str) -> None:
        for residents in self.sites.values():
            residents.discard(name)

    def residents_of(self, j: int) -> int:
        return len(self.sites.get(j, ()))


def _run_executor(launches):
    """Run ``launches`` (name, demand, hosts, at) and return finish times."""
    finished: dict[str, float] = {}
    mini = _MiniPool()

    async def main():
        def on_complete(name: str, at: float) -> None:
            mini.remove(name)
            finished[name] = at

        executor = FluidExecutor(
            residents_of=mini.residents_of, on_complete=on_complete
        )
        runner = asyncio.ensure_future(executor.run())

        async def feed():
            loop = asyncio.get_running_loop()
            for name, demand, hosts, at in launches:
                delay = at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                mini.add(name, hosts)
                executor.launch(name, demand, hosts, loop.time())

        await feed()
        executor.stop_when_idle()
        await runner

    run_virtual(main())
    return finished


class TestFluidExecutor:
    def test_lone_query_finishes_at_demand(self):
        finished = _run_executor([("a", 10.0, (0, 1), 0.0)])
        assert finished["a"] == pytest.approx(10.0)

    def test_fair_share_on_contended_site(self):
        # Both queries share site 0: each runs at rate 1/2.
        finished = _run_executor(
            [("a", 10.0, (0,), 0.0), ("b", 10.0, (0,), 0.0)]
        )
        assert finished["a"] == pytest.approx(20.0)
        assert finished["b"] == pytest.approx(20.0)

    def test_completion_speeds_up_survivor(self):
        # a and b share site 0; a finishes first (rate 1/2 until t=20),
        # then b runs alone at full rate: 30 - 10 = 20 more -> t=40.
        finished = _run_executor(
            [("a", 10.0, (0,), 0.0), ("b", 30.0, (0,), 0.0)]
        )
        assert finished["a"] == pytest.approx(20.0)
        assert finished["b"] == pytest.approx(40.0)

    def test_rate_is_worst_site_share(self):
        # b straggles on site 0 (shared with a) even though site 1 is
        # private: its rate is the worst share across its hosts.
        finished = _run_executor(
            [("a", 10.0, (0,), 0.0), ("b", 10.0, (0, 1), 0.0)]
        )
        assert finished["b"] == pytest.approx(20.0)

    def test_late_arrival_changes_rates(self):
        # a alone until t=5 (half done), then b joins site 0: both at
        # rate 1/2.  a needs 5 more demand -> 10 elapsed -> t=15; b has
        # done 5 of 10 by then and finishes alone at full rate at t=20.
        finished = _run_executor(
            [("a", 10.0, (0,), 0.0), ("b", 10.0, (0,), 5.0)]
        )
        assert finished["a"] == pytest.approx(15.0)
        assert finished["b"] == pytest.approx(20.0)

    def test_duplicate_launch_rejected(self):
        async def main():
            executor = FluidExecutor(
                residents_of=lambda j: 1, on_complete=lambda n, t: None
            )
            executor.launch("a", 1.0, (0,), 0.0)
            executor.launch("a", 1.0, (0,), 0.0)

        with pytest.raises(ServiceError, match="already running"):
            run_virtual(main())

    def test_utilization_integrals(self):
        finished = _run_executor(
            [("a", 10.0, (0,), 0.0), ("b", 10.0, (1,), 0.0)]
        )
        assert finished["a"] == pytest.approx(10.0)
        assert finished["b"] == pytest.approx(10.0)
