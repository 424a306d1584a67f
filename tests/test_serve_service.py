"""End-to-end tests of the online scheduler service (numpy required).

These drive :class:`repro.serve.SchedulerService` through full virtual-
time runs with real workload generation and real TREESCHEDULE
placements, so they are listed in ``conftest.collect_ignore`` for the
no-numpy CI job.  The unit-level serve tests live in ``test_serve.py``
and stay numpy-free.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import main
from repro.serve import (
    AdmissionConfig,
    GovernorConfig,
    GovernorPolicy,
    SchedulerService,
    ServeConfig,
    WorkloadSpec,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _config(**overrides) -> ServeConfig:
    """The bench-calibrated service config, scaled for tests.

    f=0.1 makes total work k*T0(k) grow with the clone degree, which is
    the regime where adaptive degree control pays off; p=20 with a
    co-residency cap of 3 keeps the pool contended at rate 0.15.
    """
    workload = overrides.pop(
        "workload",
        WorkloadSpec(
            duration=300.0,
            rate=0.15,
            seed=42,
            template_pool=6,
            query_sizes=(4, 6, 8),
            diurnal_amplitude=0.3,
        ),
    )
    governor = overrides.pop(
        "governor",
        GovernorConfig(max_degree=8, min_degree=1, pressure_step=4),
    )
    return ServeConfig(
        p=20,
        f=0.1,
        max_coresident=3,
        workload=workload,
        governor=governor,
        **overrides,
    )


class TestDeterminism:
    def test_open_mode_summary_identity(self):
        first = SchedulerService(_config()).run().summary()
        second = SchedulerService(_config()).run().summary()
        assert first == second
        assert first["offered"] > 20
        assert first["outcomes"].get("completed", 0) > 0

    def test_closed_mode_summary_identity(self):
        spec = WorkloadSpec(
            duration=200.0,
            arrival="closed",
            clients=6,
            think_mean=15.0,
            seed=11,
            template_pool=4,
        )
        first = SchedulerService(_config(workload=spec)).run().summary()
        second = SchedulerService(_config(workload=spec)).run().summary()
        assert first == second
        assert first["offered"] > 0
        # Closed loop: every offered job resolves (completed or shed).
        assert sum(first["outcomes"].values()) == first["offered"]


class TestServiceBehavior:
    def test_adaptive_beats_fixed_throughput_at_high_load(self):
        # The acceptance criterion of the degree governor: under heavy
        # load, lowering the clone degree (less per-query work inflation
        # at f=0.1) sustains strictly more throughput than always
        # scheduling at max degree.
        adaptive = SchedulerService(_config()).run().summary()
        fixed = SchedulerService(
            _config(
                governor=GovernorConfig(
                    policy=GovernorPolicy.FIXED, max_degree=8
                )
            )
        ).run().summary()
        assert adaptive["qps"] > fixed["qps"]
        # And the governor really moved: multiple degrees in play.
        assert len(adaptive["degrees"]["histogram"]) > 1
        assert fixed["degrees"]["histogram"] == {
            "8": sum(fixed["degrees"]["histogram"].values())
        }

    @staticmethod
    def _overloaded_config() -> ServeConfig:
        # Double the offered rate and shrink the queue so the admission
        # thresholds actually bite (at rate 0.15 the pool keeps up and
        # every job is placed on arrival).
        return _config(
            workload=WorkloadSpec(
                duration=300.0,
                rate=0.3,
                seed=42,
                template_pool=6,
                query_sizes=(4, 6, 8),
                diurnal_amplitude=0.3,
            ),
            admission=AdmissionConfig(max_queue=6, high_water=3, low_water=1),
        )

    def test_latency_class_waits_less_than_batch(self):
        summary = SchedulerService(self._overloaded_config()).run().summary()
        lat = summary["latency"]["latency_class"]
        bat = summary["latency"]["batch_class"]
        assert lat["completed"] > 0 and bat["completed"] > 0
        # Strict class priority in the queue: latency jobs wait less on
        # average than batch jobs under sustained load.
        assert lat["mean_wait"] < bat["mean_wait"]

    def test_small_queue_sheds_and_defers(self):
        summary = SchedulerService(self._overloaded_config()).run().summary()
        assert summary["outcomes"].get("shed", 0) > 0
        assert summary["deferred_then_run"] > 0
        assert sum(summary["outcomes"].values()) == summary["offered"]

    def test_records_and_counters_consistent(self):
        service = SchedulerService(_config())
        report = service.run()
        summary = report.summary()
        completed = [r for r in report.records if r.outcome == "completed"]
        assert len(completed) == summary["outcomes"]["completed"]
        for record in completed:
            assert record.started is not None and record.finished is not None
            assert record.finished >= record.started >= record.submitted
            # Fluid contention can only slow a query down.
            assert record.latency >= record.base_response - 1e-9
            assert 1 <= record.degree <= 8
            assert 1 <= record.sites <= 20
        counters = report.metrics.counters
        assert counters["queries_offered"] == summary["offered"]
        assert counters["queries_completed"] == len(completed)
        assert summary["mean_slowdown"] >= 1.0
        assert 0.0 < summary["pool"]["site_utilization"] <= 1.0

    def test_each_memoized_schedule_is_collapsed_once(self, monkeypatch):
        collapse = SchedulerService._footprint
        calls = []

        def counted(result):
            calls.append(result)
            return collapse(result)

        monkeypatch.setattr(SchedulerService, "_footprint", staticmethod(counted))
        service = SchedulerService(_config())
        summary = service.run().summary()
        memo = service._schedule_memo
        assert summary["outcomes"]["completed"] > len(memo) > 1
        assert len(calls) == len(memo)
        assert [result for result, _ in memo.values()] == calls


class TestServeCLI:
    ARGS = [
        "serve",
        "--duration",
        "150",
        "--rate",
        "0.12",
        "--seed",
        "42",
        "--max-coresident",
        "3",
    ]

    def test_cli_runs_and_output_is_worker_invariant(self, capsys):
        # The service is single-loop virtual-time code: --workers must
        # not leak into the summary (nor anything else on stdout).
        assert main([*self.ARGS, "--workers", "1"]) == 0
        first = capsys.readouterr().out
        assert main([*self.ARGS, "--workers", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "Online scheduler service" in first
        assert "throughput" in first

    def test_cli_json_payload(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "serve"
        assert payload["seed"] == 42
        assert payload["governor"] == "adaptive"
        summary = payload["summary"]
        assert summary["offered"] == sum(summary["outcomes"].values())
        assert summary["qps"] > 0


class TestElasticCapacity:
    """Mid-serve capacity deltas: the PR-9 elasticity primitive."""

    def test_elastic_run_is_deterministic(self):
        events = ((50.0, 0, 2.0), (150.0, 1, 0.5))
        first = SchedulerService(
            _config(capacity_events=events)
        ).run().summary()
        second = SchedulerService(
            _config(capacity_events=events)
        ).run().summary()
        assert first == second
        assert first["pool"]["sites_resized"] == 2

    def test_sites_resized_key_only_when_elastic(self):
        # Byte-identity leg: a run that never resizes must not even
        # carry the key, so historical summaries hash unchanged.
        static = SchedulerService(_config()).run().summary()
        assert "sites_resized" not in static["pool"]
        elastic = SchedulerService(
            _config(capacity_events=((50.0, 0, 2.0),))
        ).run().summary()
        assert elastic["pool"]["sites_resized"] == 1

    def test_heterogeneous_pool_from_cluster(self):
        from repro import parse_cluster_spec

        spec = parse_cluster_spec("fast:4:4.0,slow:16:1.0")
        hetero = SchedulerService(_config(cluster=spec)).run().summary()
        uniform = SchedulerService(_config()).run().summary()
        assert hetero != uniform  # capacities really reach the fluid rates
        assert hetero["outcomes"].get("completed", 0) > 0

    def test_scale_up_beats_scale_down(self):
        # Same workload; quadrupling site 0..3 early beats throttling
        # them to a tenth of a unit — capacity changes must reach the
        # fluid rates, not just the counters.
        def run(capacity):
            events = tuple((10.0, j, capacity) for j in range(4))
            return SchedulerService(
                _config(capacity_events=events)
            ).run().summary()

        up, down = run(4.0), run(0.1)
        assert up["pool"]["sites_resized"] == 4
        assert up["mean_slowdown"] <= down["mean_slowdown"]

    def test_cli_resize_and_cluster(self, capsys):
        args = [*TestServeCLI.ARGS, "--cluster", "fast:4:2.0,slow:16:1.0",
                "--resize", "30:0:0.5", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 20
        assert payload["cluster"] == "fast:4:2.0,slow:16:1.0"
        assert payload["summary"]["pool"]["sites_resized"] == 1

    def test_cli_rejects_malformed_resize(self, capsys):
        assert main([*TestServeCLI.ARGS, "--resize", "30:0"]) == 2
        capsys.readouterr()

    def test_cli_uniform_cluster_matches_sites(self, capsys):
        # `--cluster 20` is the same run, cache keys included, as the
        # bare default pool of 20 sites.
        assert main([*TestServeCLI.ARGS]) == 0
        baseline = capsys.readouterr().out
        assert main([*TestServeCLI.ARGS, "--cluster", "20"]) == 0
        uniform = capsys.readouterr().out
        assert uniform == baseline

    def test_cli_cluster_and_sites_are_exclusive(self, capsys):
        assert main(
            [*TestServeCLI.ARGS, "--cluster", "20", "--sites", "20"]
        ) == 2
        capsys.readouterr()
