"""The three workloads: inputs from a seed, one timed pass, output checks.

A workload's :meth:`setup` draws its inputs from the seed and does every
piece of preparation a user pays before the first operation; it is run
several times per benchmark run so ``setup_s`` is a median.  Each
:meth:`run_pass` does one fixed unit of work and returns a
:class:`PassResult`: the host CPU time (:data:`CLOCK`) of its primary
and auxiliary operations, the exact virtual-time results, and the outcome of every
output check.  Every pass of one run does the same work, so passes can
be repeated until the run's time is used up, and traced passes can be
compared with untraced ones.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cost.params import PAPER_PARAMETERS, SystemParameters
from repro.experiments import runner
from repro.plans.query_graph import QueryGraph
from repro.plans.relations import Catalog, Relation
from repro.search import search
from repro.serve import (
    ArrivalMode,
    GovernorConfig,
    GovernorPolicy,
    SchedulerService,
    ServeConfig,
    TelemetryConfig,
    WorkloadSpec,
    make_templates,
)
from repro.store import NO_STORE, ArtifactStore

__all__ = ["CLOCK", "WORKLOADS", "PassResult"]

#: The clock every operation is timed with: CPU seconds of this process.
#: Everything runs single-threaded in one process and the store does not
#: fsync, so an operation's CPU time is its wall time minus the time the
#: host ran other tenants instead; on a shared machine that time swings
#: wall clocks by 1.5x and more.
CLOCK = time.process_time


@dataclass
class PassResult:
    """One pass: host CPU times, exact virtual results, check outcomes.

    ``op_ms`` and ``aux_ms`` hold host CPU milliseconds per operation of
    the workload's primary and auxiliary kind (see each workload), one
    entry per timed unit, in the same order in every pass.
    ``virtual`` holds only exact functions of the inputs, so two passes
    over the same inputs must report equal dicts.  ``stats`` holds
    per-pass counts for the layer table.
    """

    op_ms: list[float] = field(default_factory=list)
    aux_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    virtual: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _per_second(ms_lists) -> float:
    """Operations per host CPU second over every pass."""
    samples = [ms for ms_list in ms_lists for ms in ms_list]
    return 1000.0 * len(samples) / math.fsum(samples)


def _jittered_params(seed: int, spread: float) -> SystemParameters:
    """Table 2 with CPU, disk and network speed each scaled by a seeded
    factor in ``1 +- spread``: the seed moves every virtual time a little
    without changing how much work the workload is."""
    rng = random.Random(seed)
    base = PAPER_PARAMETERS
    return base.scaled(
        cpu_mips=base.cpu_mips * rng.uniform(1.0 - spread, 1.0 + spread),
        disk_seconds_per_page=base.disk_seconds_per_page
        * rng.uniform(1.0 - spread, 1.0 + spread),
        beta_seconds_per_byte=base.beta_seconds_per_byte
        * rng.uniform(1.0 - spread, 1.0 + spread),
    )


def _clear_workload_caches() -> None:
    """Drop the in-process cohort caches so set-up is cold every time."""
    runner._STRUCTURAL_CACHE.clear()
    runner._ANNOTATION_CACHE.clear()


# ----------------------------------------------------------------------
# plansearch
# ----------------------------------------------------------------------
#: The skewed 8-relation chain of ``BENCH_plansearch.json``: plan space
#: Catalan(7) = 429, enumerated exhaustively.
CHAIN_CARDS = {
    "A": 180_000, "B": 3_500, "C": 64_000, "D": 900,
    "E": 41_000, "F": 7_200, "G": 150_000, "H": 2_100,
}
#: Two more relations make a 10-relation chain (Catalan(9) = 4862 plans,
#: beyond ``max_exhaustive``), searched by seeded local search.
LONG_CHAIN_CARDS = {**CHAIN_CARDS, "I": 26_000, "J": 5_400}
#: The recorded winner of the fixed chain (``BENCH_plansearch.json``).
CHAIN_WINNER_KEY = "06b97eed5b699424ed4a0720543c1736c8c01fefc61fb6c4b67ea9148eaeadb4"
CHAIN_WINNER_RESPONSE = 53.73735416666666


def _chain(cards: dict[str, int]) -> tuple[QueryGraph, Catalog]:
    names = list(cards)
    joins = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    catalog = Catalog([Relation(name, tuples) for name, tuples in cards.items()])
    return QueryGraph(names, joins), catalog


def _jittered(cards: dict[str, int], rng: random.Random, spread: float) -> dict[str, int]:
    return {
        name: round(tuples * rng.uniform(1.0 - spread, 1.0 + spread))
        for name, tuples in cards.items()
    }


class PlanSearch:
    """Cold ``search_plans`` over a fixed set of tree queries.

    Primary operation: one search in the exhaustive regime (the fixed
    chain and its seeded variants: enumeration, lower-bound screen,
    scoring of the survivors).  Auxiliary operation: one search beyond
    ``max_exhaustive`` (seeded local search, scoring-dominated).
    """

    name = "plansearch"
    P = 16
    #: Seeded variants of each chain: every cardinality scaled by a
    #: factor drawn from ``1 +- JITTER``.
    EXHAUSTIVE_VARIANTS = 1
    LOCAL_QUERIES = 3
    JITTER = 0.02
    SEARCH_KW = {"prune": True, "chunk_size": 8, "seed": 0, "workers": 1}

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    def shape(self) -> dict:
        return {
            "p": self.P,
            "exhaustive_queries": 1 + self.EXHAUSTIVE_VARIANTS,
            "local_search_queries": self.LOCAL_QUERIES,
            "cardinality_jitter": self.JITTER,
            "store": "NO_STORE",
            **self.SEARCH_KW,
        }

    def setup(self):
        rng = random.Random(self.seed)
        exhaustive = [("chain8", *_chain(CHAIN_CARDS))]
        exhaustive += [
            (f"chain8-{i}", *_chain(_jittered(CHAIN_CARDS, rng, self.JITTER)))
            for i in range(self.EXHAUSTIVE_VARIANTS)
        ]
        local = [
            (f"chain10-{i}", *_chain(_jittered(LONG_CHAIN_CARDS, rng, self.JITTER)))
            for i in range(self.LOCAL_QUERIES)
        ]
        return exhaustive, local

    def _search(self, out: PassResult, label: str, graph, catalog) -> float:
        """One checked search; returns its host CPU milliseconds."""
        started = CLOCK()
        result = search.search_plans(
            graph, catalog, p=self.P, store=NO_STORE, **self.SEARCH_KW
        )
        seconds = CLOCK() - started
        out.attempted += 1
        winner = result.winner
        out.check(
            winner.response_time == result.schedule.response_time,
            f"{label}: winner schedule disagrees with its score",
        )
        out.check(
            all(winner.response_time <= c.response_time for c in result.candidates),
            f"{label}: winner is not the best scored candidate",
        )
        if label == "chain8":
            out.check(
                winner.key == CHAIN_WINNER_KEY
                and winner.response_time == CHAIN_WINNER_RESPONSE,
                f"chain8: winner {winner.key[:8]} {winner.response_time!r} != "
                f"recorded {CHAIN_WINNER_KEY[:8]} {CHAIN_WINNER_RESPONSE!r}",
            )
        out.virtual[f"winner_response_s.{label}"] = winner.response_time
        out.virtual[f"winner_key.{label}"] = winner.key
        out.stats["unique"] = out.stats.get("unique", 0) + result.stats.unique
        out.stats["scored"] = out.stats.get("scored", 0) + result.stats.scored
        return 1000.0 * seconds

    def run_pass(self, inputs) -> PassResult:
        exhaustive, local = inputs
        out = PassResult()
        for label, graph, catalog in exhaustive:
            out.op_ms.append(self._search(out, label, graph, catalog))
        for label, graph, catalog in local:
            out.aux_ms.append(self._search(out, label, graph, catalog))
        winners = [v for k, v in out.virtual.items() if k.startswith("winner_response_s.")]
        out.virtual["response_s"] = math.fsum(winners) / len(winners)
        return out

    def report(self, passes) -> dict:
        first = passes[0].virtual
        return {
            "search_p50_s": (
                statistics.median(ms for p in passes for ms in p.op_ms + p.aux_ms) / 1000.0,
                "s",
            ),
            **{
                key: (value, "s")
                for key, value in first.items()
                if key.startswith("winner_response_s.")
            },
        }

    def layer_stats(self, passes) -> dict:
        unique = sum(p.stats["unique"] for p in passes)
        scored = sum(p.stats["scored"] for p in passes)
        return {"search.scored_ratio": scored / unique}


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class Batch:
    """A fixed cohort under seeded cost parameters, stored and read back.

    Primary operation: one result computed by ``schedule_query``,
    serialized and written to a fresh :class:`ArtifactStore` (cold
    pass).  Auxiliary operation: the same call answered from the store,
    read and decoded (warm pass).
    """

    name = "batch"
    N_JOINS = 40
    N_QUERIES = 4
    #: The cohort is the same for every seed; the seed scales the cost
    #: parameters (see :func:`_jittered_params`).
    COHORT_SEED = 1996
    PARAM_JITTER = 0.03
    ALGORITHMS = ("treeschedule", "synchronous", "malleable")
    SITES = (32, 256)
    F = 0.7
    EPSILON = 0.5

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.params = _jittered_params(seed, self.PARAM_JITTER)
        self.scratch = root / ".perfbench_tmp"

    def shape(self) -> dict:
        return {
            "n_joins": self.N_JOINS,
            "n_queries": self.N_QUERIES,
            "cohort_seed": self.COHORT_SEED,
            "param_jitter": self.PARAM_JITTER,
            "algorithms": list(self.ALGORITHMS),
            "p": list(self.SITES),
            "f": self.F,
            "epsilon": self.EPSILON,
            "store": "fresh ArtifactStore per pass",
        }

    def setup(self):
        _clear_workload_caches()
        return runner.prepare_workload(
            self.N_JOINS, self.N_QUERIES, self.COHORT_SEED, self.params, store=NO_STORE
        )

    def _points(self, cohort):
        workload = {
            "n_joins": self.N_JOINS,
            "n_queries": self.N_QUERIES,
            "seed": self.COHORT_SEED,
        }
        for algorithm in self.ALGORITHMS:
            for p in self.SITES:
                for index, query in enumerate(cohort):
                    yield algorithm, p, query, {"workload": workload, "index": index}

    def _schedule(self, store, algorithm, p, query, cache_key):
        return runner.schedule_query(
            algorithm, query, p=p, f=self.F, epsilon=self.EPSILON,
            params=self.params, store=store, cache_key=cache_key,
        )

    def run_pass(self, cohort) -> PassResult:
        out = PassResult()
        self.scratch.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="batch-", dir=self.scratch))
        try:
            store = ArtifactStore(root)
            points = list(self._points(cohort))
            cold = []
            for algorithm, p, query, cache_key in points:
                started = CLOCK()
                result = self._schedule(store, algorithm, p, query, cache_key)
                out.op_ms.append(1000.0 * (CLOCK() - started))
                out.attempted += 1
                out.check(
                    result.instrumentation.counters.get("store_misses") == 1.0,
                    f"cold {algorithm} p={p} #{cache_key['index']} was not computed",
                )
                cold.append(result.response_time)
            out.stats["store_bytes"] = sum(
                path.stat().st_size for path in root.rglob("*.json")
            )
            for (algorithm, p, query, cache_key), expected in zip(points, cold):
                started = CLOCK()
                result = self._schedule(store, algorithm, p, query, cache_key)
                out.aux_ms.append(1000.0 * (CLOCK() - started))
                out.attempted += 1
                label = f"{algorithm} p={p} #{cache_key['index']}"
                out.check(
                    result.instrumentation.counters.get("store_hits") == 1.0,
                    f"warm {label} was not read from the store",
                )
                out.check(
                    result.response_time == expected,
                    f"warm {label}: {result.response_time!r} != cold {expected!r}",
                )
        finally:
            shutil.rmtree(root, ignore_errors=True)
            try:
                self.scratch.rmdir()
            except OSError:
                pass  # another pass's directory is still there
        out.virtual["response_s"] = math.fsum(cold) / len(cold)
        return out

    def report(self, passes) -> dict:
        return {
            "schedules_per_s": (_per_second(p.op_ms for p in passes), "1/s"),
            "reads_per_s": (_per_second(p.aux_ms for p in passes), "1/s"),
            "store_bytes_per_result": (
                passes[0].stats["store_bytes"] / len(passes[0].op_ms),
                "B",
            ),
            "mean_response_s": (passes[0].virtual["response_s"], "s"),
        }

    def layer_stats(self, passes) -> dict:
        return {}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve:
    """A large closed-loop :class:`SchedulerService` run.

    The clients are coroutines on one single-threaded virtual-time
    loop.  Primary operation: one completed query of the service with
    telemetry on, costed as the run's host CPU time over its completed
    queries.  Auxiliary operation: the same with telemetry off; the two
    runs must agree exactly on every virtual-time result.
    """

    name = "serve"
    P = 256
    CLIENTS = 128
    THINK_MEAN = 5.0
    DURATION = 3000.0
    MAX_CORESIDENT = 4
    MAX_DEGREE = 32
    TEMPLATES = 12
    QUERY_SIZES = (4, 6, 8, 10, 12, 14, 16)
    #: Templates, arrivals and think times are the same for every seed;
    #: the seed scales the cost parameters (see :func:`_jittered_params`).
    WORKLOAD_SEED = 1996
    PARAM_JITTER = 0.03

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    def shape(self) -> dict:
        return {
            "p": self.P,
            "arrival": "closed",
            "clients": self.CLIENTS,
            "think_mean_s": self.THINK_MEAN,
            "duration_s": self.DURATION,
            "max_coresident": self.MAX_CORESIDENT,
            "governor": f"adaptive, degree 1..{self.MAX_DEGREE}",
            "templates": self.TEMPLATES,
            "workload_seed": self.WORKLOAD_SEED,
            "param_jitter": self.PARAM_JITTER,
            "query_sizes": list(self.QUERY_SIZES),
            "telemetry": "on (primary) / off (auxiliary)",
            "store": "NO_STORE",
        }

    def _config(self, telemetry: bool) -> ServeConfig:
        return ServeConfig(
            p=self.P,
            params=_jittered_params(self.seed, self.PARAM_JITTER),
            max_coresident=self.MAX_CORESIDENT,
            workload=WorkloadSpec(
                duration=self.DURATION,
                arrival=ArrivalMode.CLOSED,
                clients=self.CLIENTS,
                think_mean=self.THINK_MEAN,
                template_pool=self.TEMPLATES,
                query_sizes=self.QUERY_SIZES,
                seed=self.WORKLOAD_SEED,
            ),
            governor=GovernorConfig(
                policy=GovernorPolicy.ADAPTIVE,
                max_degree=self.MAX_DEGREE,
                min_degree=1,
            ),
            telemetry=TelemetryConfig() if telemetry else None,
        )

    def setup(self):
        """Annotate every template the service will place."""
        _clear_workload_caches()
        config = self._config(telemetry=True)
        for template in make_templates(config.workload):
            runner.prepare_workload(
                template.n_joins, 1, template.seed, config.params, store=NO_STORE
            )
        return config

    def _run(self, config: ServeConfig):
        service = SchedulerService(config, store=NO_STORE)
        started = CLOCK()
        report = service.run()
        return service, report, CLOCK() - started

    def run_pass(self, config: ServeConfig) -> PassResult:
        out = PassResult()
        service, report, cpu = self._run(config)
        summary = report.summary()
        completed = summary["latency"]["all"]["completed"]
        shed = summary["outcomes"].get("shed", 0)
        out.op_ms.append(1000.0 * cpu / completed)
        out.attempted += summary["offered"]
        out.failures.extend(f"query {i} shed" for i in range(shed))
        out.check(
            summary["offered"] == completed + shed,
            f"offered {summary['offered']} != completed {completed} + shed {shed}",
        )
        final_qps = service.telemetry.registry.series("serve_qps")[-1]["value"]
        out.check(
            final_qps == summary["qps"],
            f"telemetry serve_qps {final_qps!r} != summary qps {summary['qps']!r}",
        )
        _, plain_report, plain_cpu = self._run(replace(config, telemetry=None))
        plain_completed = plain_report.summary()["latency"]["all"]["completed"]
        out.aux_ms.append(1000.0 * plain_cpu / plain_completed)
        out.check(
            plain_report.summary() == summary,
            "telemetry changed the service's virtual-time results",
        )

        latencies = [r.latency for r in report.records if r.latency is not None]
        waits = sorted(r.wait for r in report.records if r.wait is not None)
        out.virtual.update(
            response_s=math.fsum(latencies) / len(latencies),
            latency_p99_s=summary["latency"]["all"]["p99"],
            qps=summary["qps"],
            latency_p50_s=summary["latency"]["all"]["p50"],
        )
        out.stats.update(
            completed=completed,
            deferred=summary["deferred_then_run"],
            shed=shed,
            wait_p99_s=waits[max(0, math.ceil(0.99 * len(waits)) - 1)] if waits else 0.0,
            mean_degree=summary["degrees"]["mean"],
            schedule_misses=len(service._schedule_memo),
            telemetry_samples=service.metrics.counters.get("telemetry_samples", 0.0),
        )
        return out

    def report(self, passes) -> dict:
        first = passes[0].virtual
        return {
            "serve_queries_per_s": (_per_second(p.op_ms for p in passes), "1/s"),
            "qps": (first["qps"], "1/s"),
            "latency_p50_s": (first["latency_p50_s"], "s"),
            "latency_p99_s": (first["latency_p99_s"], "s"),
            "completed_per_run": (passes[0].stats["completed"], "count"),
        }

    def layer_stats(self, passes) -> dict:
        stats = passes[0].stats
        return {
            "obs.telemetry.samples": stats["telemetry_samples"],
            "serve.admission.deferred": stats["deferred"],
            "serve.admission.shed": stats["shed"],
            "serve.admission.wait_p99_s": stats["wait_p99_s"],
            "serve.mean_degree": stats["mean_degree"],
            "serve.schedule_misses": stats["schedule_misses"],
        }


WORKLOADS = {cls.name: cls for cls in (PlanSearch, Batch, Serve)}
