"""End-to-end tests of the service telemetry plane (numpy required).

Full virtual-time runs with the sampler task attached, checking the
load-bearing invariants of :mod:`repro.serve.telemetry`: the summary is
byte-identical with telemetry on or off, the exported streams are
deterministic, and the final samples reconcile exactly with
:meth:`ServiceReport.summary`.  Listed in ``conftest.collect_ignore``
for the no-numpy CI job (workload generation needs numpy).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    unknown_instant_names,
    validate_metrics_payload,
    validate_trace_events,
)
from repro.obs.metrics_stream import parse_metrics_jsonl
from repro.obs.names import INSTANT_SLO_BREACH
from repro.serve import (
    GovernorConfig,
    SchedulerService,
    ServeConfig,
    SLOTarget,
    TelemetryConfig,
    WorkloadSpec,
)
from repro.serve.service import _percentile

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _config(**overrides) -> ServeConfig:
    """The same bench-calibrated shape test_serve_service.py uses."""
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


@pytest.fixture(scope="module")
def observed():
    """One telemetry-enabled run: (service, summary)."""
    service = SchedulerService(_config(telemetry=TelemetryConfig()))
    report = service.run()
    return service, report.summary()


class TestReadOnlyInvariant:
    def test_summary_identical_with_and_without_telemetry(self, observed):
        _, with_telemetry = observed
        without = SchedulerService(_config()).run().summary()
        assert with_telemetry == without

    def test_streams_deterministic_across_runs(self, observed):
        service, _ = observed
        again = SchedulerService(_config(telemetry=TelemetryConfig()))
        again.run()
        assert (
            again.telemetry.registry.jsonl()
            == service.telemetry.registry.jsonl()
        )
        assert (
            again.telemetry.registry.prometheus_text()
            == service.telemetry.registry.prometheus_text()
        )
        assert again.telemetry.timeline_events() == service.telemetry.timeline_events()


class TestReconciliation:
    def test_final_qps_and_utilization_match_summary_exactly(self, observed):
        service, summary = observed
        registry = service.telemetry.registry
        assert registry.series("serve_qps")[-1]["value"] == summary["qps"]
        assert (
            registry.series("serve_pool_utilization")[-1]["value"]
            == summary["pool"]["site_utilization"]
        )

    def test_final_counter_mirrors_match_summary(self, observed):
        service, summary = observed
        registry = service.telemetry.registry
        assert (
            registry.series("serve_completed_total")[-1]["value"]
            == summary["outcomes"]["completed"]
        )
        assert registry.series("serve_offered_total")[-1]["value"] == summary["offered"]

    def test_sketch_p95_within_one_growth_factor_of_summary(self, observed):
        service, summary = observed
        registry = service.telemetry.registry
        growth = 2.0 ** 0.25
        for cls, block_key in (("latency", "latency_class"), ("batch", "batch_class")):
            block = summary["latency"][block_key]
            if block["completed"] == 0:
                continue
            record = registry.series(f"serve_latency_seconds_{cls}")[-1]
            assert record["count"] == block["completed"]
            exact = block["p95"]
            sketch = record["quantiles"]["p95"]
            assert exact <= sketch <= exact * growth * (1.0 + 1e-9)

    def test_sample_counts_line_up(self, observed):
        service, _ = observed
        registry = service.telemetry.registry
        ticks = service.metrics.counters["telemetry_samples"]
        assert ticks > 10
        instruments = 16 + 6 + 3  # gauges + counter mirrors + histograms
        assert len(registry.samples) == int(ticks) * instruments


class TestStreamsAndTimeline:
    def test_jsonl_stream_validates(self, observed):
        service, _ = observed
        records = parse_metrics_jsonl(service.telemetry.registry.jsonl().splitlines())
        assert validate_metrics_payload(records) == []

    def test_prometheus_text_has_every_instrument(self, observed):
        service, _ = observed
        text = service.telemetry.registry.prometheus_text()
        for needle in (
            "serve_qps",
            "serve_pool_utilization",
            "serve_slo_burn_rate_latency",
            'serve_latency_seconds_batch_bucket{le="+Inf"}',
        ):
            assert needle in text

    def test_fleet_timeline_is_valid_and_shaped(self, observed):
        service, summary = observed
        events = service.telemetry.timeline_events()
        payload = {"traceEvents": events}
        assert validate_trace_events(payload) == []
        assert unknown_instant_names(payload) == set()
        tracks = {e["name"] for e in events if e.get("ph") == "C"}
        assert len(tracks) >= 3
        lanes = {
            e["tid"]
            for e in events
            if e.get("ph") == "X" and e.get("cat") == "resident"
        }
        assert lanes
        assert all(1 <= tid <= service.config.p for tid in lanes)
        # One closed lane per host site per completed query.
        completed = summary["outcomes"]["completed"]
        residents = [e for e in events if e.get("ph") == "X" and e.get("cat") == "resident"]
        assert len(residents) >= completed

    def test_counter_tracks_equal_gauge_samples(self, observed):
        """Every fleet counter-track value is the gauge's sampled value."""
        service, _ = observed
        registry = service.telemetry.registry
        gauges = {
            "queue depth": {
                "latency": "serve_queue_latency_depth",
                "batch": "serve_queue_batch_depth",
                "parked": "serve_queue_parked_depth",
            },
            "pool utilization": {"utilization": "serve_pool_utilization"},
            "pool residents": {
                "occupied_sites": "serve_pool_occupied_sites",
                "resident_queries": "serve_pool_resident_queries",
            },
            "governor": {"pressure": "serve_pressure", "degree": "serve_degree_last"},
        }
        events = service.telemetry.timeline_events()
        samples = len(registry.series("serve_qps"))
        assert samples > 2
        assert sum(e.get("ph") == "C" for e in events) == len(gauges) * samples
        for track, keys in gauges.items():
            track_events = [e for e in events if e.get("ph") == "C" and e["name"] == track]
            series = {key: registry.series(gauge) for key, gauge in keys.items()}
            for i, event in enumerate(track_events):
                for key, records in series.items():
                    assert event["ts"] == records[i]["t"] * 1e6
                    assert event["args"][key] == records[i]["value"]
                assert set(event["args"]) == set(keys)

    def test_breach_accounting_is_consistent(self, observed):
        service, _ = observed
        telemetry = service.telemetry
        breaches = service.metrics.counters["slo_breaches"]
        assert breaches > 0  # rate 0.15 at p=20/f=0.1 misses some SLOs
        registry_total = telemetry.registry.series("serve_slo_breaches_total")[-1]["value"]
        assert registry_total == breaches
        instants = [
            e
            for e in telemetry.timeline_events()
            if e.get("ph") == "i" and e["name"] == INSTANT_SLO_BREACH
        ]
        assert len(instants) == breaches
        assert {tuple(e["args"]) for e in instants} == {
            ("job", "slo", "latency", "target")
        }

    def test_burn_rate_definition(self, observed):
        service, _ = observed
        telemetry = service.telemetry
        for cls, target in telemetry.config.targets().items():
            expected = (1.0 - telemetry.attainment(cls)) / (1.0 - target.objective)
            assert telemetry.burn_rate(cls) == pytest.approx(expected)
            assert 0.0 <= telemetry.attainment(cls) <= 1.0


class TestConfigValidation:
    def test_slo_target_bounds(self):
        with pytest.raises(ConfigurationError):
            SLOTarget(target=0.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(target=10.0, objective=1.0)
        with pytest.raises(ConfigurationError):
            SLOTarget(target=10.0, objective=0.0)

    def test_telemetry_config_bounds(self):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(interval=0.0)
        with pytest.raises(ConfigurationError):
            TelemetryConfig(interval=float("nan"))
        with pytest.raises(ConfigurationError):
            TelemetryConfig(interval=float("inf"))  # would sample only twice
        with pytest.raises(ConfigurationError):
            TelemetryConfig(window=0)
        targets = TelemetryConfig().targets()
        assert set(targets) == {"latency", "batch"}


class TestPercentileEdges:
    """Satellite: ``_percentile`` must be total over its edge inputs."""

    def test_empty_returns_zero_sentinel(self):
        assert _percentile([], 50.0) == 0.0
        assert _percentile([], 99.0) == 0.0

    def test_single_element_is_every_percentile(self):
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert _percentile([7.5], q) == 7.5

    def test_rank_clamps_at_both_ends(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.0) == 1.0  # rank floor
        assert _percentile(values, 100.0) == 4.0
        assert _percentile(values, 100.0 + 1e-9) == 4.0  # float noise past 100
        assert _percentile(values, 50.0) == 2.0  # nearest rank, no interpolation

    def test_summary_with_zero_completions_uses_sentinels(self):
        # A duration too short for any placement to finish: the latency
        # blocks must come back whole, all-zero, without IndexError.
        spec = WorkloadSpec(duration=1.0, rate=0.01, seed=3, template_pool=2)
        summary = SchedulerService(_config(workload=spec)).run().summary()
        block = summary["latency"]["all"]
        assert block["completed"] == 0
        assert block["p50"] == block["p95"] == block["p99"] == 0.0
        assert summary["qps"] == 0.0
        assert summary["mean_slowdown"] == 0.0
