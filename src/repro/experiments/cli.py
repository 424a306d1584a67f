"""Command-line entry point: ``repro-experiments <figure> [options]``.

Examples
--------
Regenerate Figure 5(a) with the reduced (quick) sweep::

    repro-experiments fig5a --quick

Regenerate every figure with the paper's full sweep and save the report::

    repro-experiments all > experiments.txt

Print the Table 2 configuration::

    repro-experiments table2

List the registered scheduling algorithms::

    repro-experiments algorithms

Fan a figure's sweep grid over four worker processes (results are
bit-identical to the serial run)::

    repro-experiments fig5a --workers 4

Cache sweep artifacts in a content-addressed store so reruns (and killed
runs restarted) recompute only what is missing — the output bytes are
identical either way::

    repro-experiments fig6a --cache-dir /tmp/repro-cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence

from repro.exceptions import ConfigurationError

__all__ = ["build_parser", "main"]

# Each target imports its modules in its handler, so ``--help`` and a
# mistyped option load almost nothing.  The parser's choices and help
# text therefore spell out three names of modules it does not import;
# tests/test_import_surface.py holds them equal to their sources.

#: The figure targets: the keys of ``repro.experiments.figures.FIGURES``.
FIGURE_TARGETS = ("fig5a", "fig5b", "fig6a", "fig6b")

#: The ``--policy`` choices: the values of ``repro.sim.policies.SharingPolicy``.
SHARING_POLICIES = ("optimal_stretch", "fair_share", "serial")

#: ``repro.store.ENV_CACHE_DIR``, the cache-directory environment variable.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Sensitivity sweep targets: name -> (field, multipliers).
SENSITIVITY_TARGETS = {
    "sens-cpu": ("cpu_mips", (0.1, 0.5, 1.0, 2.0, 10.0)),
    "sens-disk": ("disk_seconds_per_page", (0.1, 0.5, 1.0, 2.0, 10.0)),
    "sens-startup": ("alpha_startup_seconds", (0.1, 0.5, 1.0, 2.0, 10.0)),
    "sens-network": ("beta_seconds_per_byte", (0.1, 0.5, 1.0, 2.0, 10.0)),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of 'Multi-dimensional Resource "
            "Scheduling for Parallel Queries' (SIGMOD 1996)."
        ),
    )
    parser.add_argument(
        "target",
        choices=[
            *FIGURE_TARGETS,
            *SENSITIVITY_TARGETS,
            "robustness",
            "plansearch",
            "serve",
            "all",
            "table2",
            "algorithms",
        ],
        help=(
            "figure to regenerate, a sensitivity sweep (sens-*), "
            "'robustness' for the fault-injection degradation sweep, "
            "'plansearch' for the schedule-aware plan search, 'serve' "
            "for the online multi-query scheduler service, 'all' "
            "for every figure, 'table2' for the configuration, or "
            "'algorithms' to list the registered schedulers"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced sweep (fewer queries/sites; same shapes)",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="override the number of random queries per size",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    parser.add_argument(
        "--sites",
        type=int,
        nargs="+",
        default=None,
        metavar="P",
        help="override the swept site counts",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="SPEC",
        help=(
            "heterogeneous cluster for fig/serve/plansearch targets: "
            "'name:count[:capacity],...' (e.g. 'fast:4:2.0,slow:12:1.0') "
            "or a bare site count for a uniform pool; pins the site axis "
            "to the spec's total site count"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the series as JSON instead of ASCII tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="evaluate sweep points over N processes (identical results)",
    )
    parser.add_argument(
        "--intensities",
        type=float,
        nargs="+",
        default=None,
        metavar="I",
        help="fault intensities in [0, 1] for the robustness sweep",
    )
    parser.add_argument(
        "--policy",
        choices=SHARING_POLICIES,
        default="fair_share",
        help="sharing policy simulated under fault injection",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=1996,
        metavar="S",
        help="base seed of the deterministic fault plans",
    )
    parser.add_argument(
        "--relations",
        type=int,
        default=9,
        metavar="N",
        help="number of relations in the plansearch query (default 9)",
    )
    parser.add_argument(
        "--pareto",
        action="store_true",
        help=(
            "plansearch: score every candidate and report the ε-approximate "
            "Pareto frontier over (response time, total work, max site load)"
        ),
    )
    parser.add_argument(
        "--pareto-eps",
        type=float,
        default=0.05,
        metavar="E",
        help="plansearch: Pareto approximation factor (default 0.05)",
    )
    serve = parser.add_argument_group(
        "serve", "options of the online scheduler service target"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=600.0,
        metavar="T",
        help="serve: virtual seconds of load generation (default 600)",
    )
    serve.add_argument(
        "--arrival",
        choices=["open", "closed"],
        default="open",
        help="serve: open (Poisson) or closed (client-loop) arrivals",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.06,
        metavar="R",
        help="serve: mean open-arrival rate in queries/s (default 0.06)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="N",
        help="serve: closed-loop client population (default 8)",
    )
    serve.add_argument(
        "--think-mean",
        type=float,
        default=10.0,
        metavar="T",
        help="serve: mean closed-loop think time in seconds (default 10)",
    )
    serve.add_argument(
        "--diurnal",
        type=float,
        default=0.3,
        metavar="A",
        help="serve: diurnal rate-modulation amplitude in [0,1) (default 0.3)",
    )
    serve.add_argument(
        "--governor",
        choices=["adaptive", "fixed"],
        default="adaptive",
        help="serve: degree-governor policy (default adaptive)",
    )
    serve.add_argument(
        "--max-degree",
        type=int,
        default=8,
        metavar="K",
        help="serve: clone-degree budget per query (default 8)",
    )
    serve.add_argument(
        "--max-coresident",
        type=int,
        default=3,
        metavar="M",
        help="serve: co-resident query cap per site (default 3)",
    )
    serve.add_argument(
        "--granularity",
        type=float,
        default=0.1,
        metavar="F",
        help="serve: granularity parameter f (default 0.1)",
    )
    serve.add_argument(
        "--resize",
        action="append",
        default=None,
        metavar="AT:SITE:CAP",
        help=(
            "serve: apply an elastic capacity change at virtual time AT, "
            "setting site SITE's capacity to CAP (repeatable)"
        ),
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "serve: sample live metrics (queue depths, utilization, "
            "pressure, SLO attainment) on the virtual clock; stdout "
            "stays byte-identical"
        ),
    )
    serve.add_argument(
        "--telemetry-interval",
        type=float,
        default=None,
        metavar="T",
        help=(
            "serve: virtual seconds between telemetry samples "
            "(implies --telemetry; default 5)"
        ),
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help=(
            "serve: write the Prometheus snapshot (metrics.prom) and the "
            "JSONL sample stream (metrics.jsonl) into DIR (implies "
            "--telemetry)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed artifact cache directory; reruns and "
            "resumed sweeps recompute only missing points (default: "
            f"${ENV_CACHE_DIR} if set)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"disable artifact caching even when ${ENV_CACHE_DIR} is set",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable span tracing and print a per-span summary to stderr "
            "(stdout stays byte-identical)"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable span tracing and write trace.json (Chrome trace-event "
            "/ Perfetto), events.jsonl, and manifest.json into DIR"
        ),
    )
    return parser


def _run_plansearch(args, config, store) -> int:
    """The ``plansearch`` target: schedule-aware search on a random query.

    Stdout carries only search-determined facts (stats, winner, ranking,
    frontier) and is byte-identical at any ``--workers`` count and with
    the cache disabled, cold, or warm; store hit/miss accounting — which
    legitimately varies with cache state — goes to stderr.
    """
    import numpy as np

    from repro.plans.query_graph import random_tree_query
    from repro.plans.relations import random_catalog
    from repro.search import search_plans

    p = args.sites[0] if args.sites else 16
    rng = np.random.default_rng(config.seed)
    catalog = random_catalog(args.relations, rng)
    graph = random_tree_query(catalog, rng)
    start = time.perf_counter()
    result = search_plans(
        graph,
        catalog,
        p=p,
        params=config.params,
        seed=config.seed,
        workers=args.workers,
        store=store,
        pareto=args.pareto,
        pareto_eps=args.pareto_eps,
        cluster=config.cluster,
    )
    elapsed = time.perf_counter() - start
    stats = result.stats

    def row(sp):
        return {
            "key": sp.key,
            "response_time": sp.response_time,
            "num_phases": sp.num_phases,
            "total_work": sp.total_work,
            "max_site_load": sp.max_site_load,
        }

    if args.json:
        payload = {
            "schema": 1,
            "target": "plansearch",
            "relations": args.relations,
            "p": p,
            "seed": config.seed,
            # Emitted only for heterogeneous runs so homogeneous stdout
            # stays byte-identical.
            **(
                {"cluster": config.cluster.spec_string()}
                if config.cluster is not None
                else {}
            ),
            "exhaustive": stats.exhaustive,
            "enumerated": stats.enumerated,
            "unique": stats.unique,
            "pruned": stats.pruned,
            "scored": stats.scored,
            "winner": row(result.winner),
            "candidates": [row(sp) for sp in result.candidates],
            "frontier": [row(sp) for sp in result.frontier],
        }
        print(json.dumps(payload, indent=2))
    else:
        regime = "exhaustive" if stats.exhaustive else "local search"
        print(
            f"Schedule-aware plan search: {args.relations} relations, "
            f"p={p}, seed={config.seed}"
        )
        if config.cluster is not None:
            print(f"cluster: {config.cluster.spec_string()}")
        print(
            f"regime: {regime}; enumerated {stats.enumerated}, "
            f"unique {stats.unique}, pruned {stats.pruned} "
            f"({stats.prune_rate:.0%}), scored {stats.scored}"
        )
        w = result.winner
        print(
            f"winner {w.key[:12]}: response={w.response_time:.6g} "
            f"phases={w.num_phases} work={w.total_work:.6g} "
            f"max_site_load={w.max_site_load:.6g}"
        )
        for rank, sp in enumerate(result.candidates[:5], start=1):
            print(
                f"  {rank}. {sp.key[:12]}  response={sp.response_time:.6g}  "
                f"phases={sp.num_phases}"
            )
        if result.frontier:
            print(
                f"pareto frontier (eps={args.pareto_eps:g}): "
                f"{len(result.frontier)} plans"
            )
            for sp in result.frontier:
                print(
                    f"  {sp.key[:12]}  response={sp.response_time:.6g} "
                    f"work={sp.total_work:.6g} load={sp.max_site_load:.6g}"
                )
        print(f"(searched in {elapsed:.1f}s)")
    print(
        f"[plansearch] store: {stats.store_hits} hits, "
        f"{stats.store_misses} misses ({stats.hit_rate:.0%} hit rate)",
        file=sys.stderr,
    )
    return 0


def _run_serve(args, config, store, session=None) -> int:
    """The ``serve`` target: one online multi-query scheduling run.

    Stdout carries the deterministic run summary only — identical for
    identical seeds at any ``--workers`` count (the service is
    single-loop virtual-time code; worker processes do not exist in it),
    with the cache disabled, cold, or warm, and with telemetry on or
    off.  Wall-clock, telemetry accounting, and metric artifacts go to
    stderr and files.
    """
    from repro.obs.names import COUNTER_SLO_BREACHES
    from repro.serve import (
        GovernorConfig,
        GovernorPolicy,
        SchedulerService,
        ServeConfig,
        TelemetryConfig,
        WorkloadSpec,
    )

    p = args.sites[0] if args.sites else 20
    events = []
    for text in args.resize or ():
        try:
            at, site, capacity = text.split(":")
            events.append((float(at), int(site), float(capacity)))
        except ValueError:
            print(
                f"--resize wants AT:SITE:CAP, got {text!r}", file=sys.stderr
            )
            return 2
    telemetry_config = None
    if (
        args.telemetry
        or args.telemetry_interval is not None
        or args.metrics_out is not None
    ):
        telemetry_config = TelemetryConfig(
            interval=(
                args.telemetry_interval
                if args.telemetry_interval is not None
                else 5.0
            )
        )
    spec = WorkloadSpec(
        duration=args.duration,
        arrival=args.arrival,
        rate=args.rate,
        diurnal_amplitude=args.diurnal,
        clients=args.clients,
        think_mean=args.think_mean,
        seed=config.seed,
    )
    serve_config = ServeConfig(
        p=p,
        f=args.granularity,
        epsilon=config.default_epsilon,
        params=config.params,
        workload=spec,
        governor=GovernorConfig(
            policy=GovernorPolicy(args.governor), max_degree=args.max_degree
        ),
        max_coresident=args.max_coresident,
        cluster=config.cluster,
        capacity_events=tuple(events),
        telemetry=telemetry_config,
    )
    service = SchedulerService(serve_config, store=store)
    report = service.run()
    summary = report.summary()
    if args.json:
        payload = {
            "schema": 1,
            "target": "serve",
            "p": p,
            "arrival": args.arrival,
            "governor": args.governor,
            "seed": config.seed,
            **(
                {"cluster": config.cluster.spec_string()}
                if config.cluster is not None
                else {}
            ),
            "summary": summary,
        }
        print(json.dumps(payload, indent=2))
    else:
        lat = summary["latency"]["all"]
        print(
            f"Online scheduler service: p={p}, {args.arrival} arrivals, "
            f"{args.governor} governor, seed={config.seed}"
        )
        if config.cluster is not None:
            print(f"cluster: {config.cluster.spec_string()}")
        print(
            f"offered {summary['offered']}, outcomes {summary['outcomes']}, "
            f"deferred-then-run {summary['deferred_then_run']}"
        )
        print(
            f"throughput {summary['qps']:.6g} queries/s over "
            f"{summary['elapsed']:.6g}s (virtual)"
        )
        print(
            f"latency p50={lat['p50']:.6g} p95={lat['p95']:.6g} "
            f"p99={lat['p99']:.6g} mean_wait={lat['mean_wait']:.6g}"
        )
        deg = summary["degrees"]
        print(
            f"degrees min={deg['min']} max={deg['max']} mean={deg['mean']:.6g} "
            f"histogram={deg['histogram']}"
        )
        pool = summary["pool"]
        print(
            f"pool utilization {pool['site_utilization']:.6g}, mean "
            f"concurrency {pool['mean_concurrency']:.6g}, "
            f"placement scans {pool['placement_scans']}"
        )
        if "sites_resized" in pool:
            print(f"elastic capacity changes {pool['sites_resized']}")
    # Telemetry output rides the tracing/caching rule: files and stderr
    # only, never stdout.
    if service.telemetry is not None:
        telemetry = service.telemetry
        if args.metrics_out:
            os.makedirs(args.metrics_out, exist_ok=True)
            telemetry.registry.write_prometheus(
                os.path.join(args.metrics_out, "metrics.prom")
            )
            telemetry.registry.write_jsonl(
                os.path.join(args.metrics_out, "metrics.jsonl")
            )
        if session is not None:
            session.add_events(telemetry.timeline_events())
        wrote = f", wrote {args.metrics_out}" if args.metrics_out else ""
        print(
            f"[telemetry] {len(telemetry.registry.samples)} samples, "
            f"{int(telemetry.metrics.counters.get(COUNTER_SLO_BREACHES, 0))} "
            f"SLO breaches{wrote}",
            file=sys.stderr,
        )
    print(f"[serve] ran in {report.wall_seconds:.2f}s wall", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.core.cluster import parse_cluster_spec
    from repro.experiments.config import PAPER_CONFIG, quick_config
    from repro.store import NO_STORE, ArtifactStore

    if args.no_cache and args.cache_dir:
        print("--no-cache and --cache-dir are mutually exclusive", file=sys.stderr)
        return 2
    cluster_spec = None
    if args.cluster is not None:
        if args.sites is not None:
            print(
                "--cluster and --sites are mutually exclusive "
                "(the cluster spec pins the site count)",
                file=sys.stderr,
            )
            return 2
        try:
            cluster_spec = parse_cluster_spec(args.cluster)
        except ConfigurationError as exc:
            print(f"--cluster: {exc}", file=sys.stderr)
            return 2
        # The spec pins the site axis for every target; a uniform spec
        # is normalized away by ExperimentConfig, so '--cluster 20'
        # behaves (and caches) exactly like '--sites 20'.
        args.sites = [cluster_spec.p]
    # The store travels two ways: as an object for inline evaluation and
    # through the environment for forked sweep workers.  Stats and the
    # summary go to stderr only — stdout (figures, JSON) must stay
    # byte-identical whether the cache is disabled, cold, or warm.
    store: ArtifactStore | None
    if args.no_cache:
        os.environ.pop(ENV_CACHE_DIR, None)
        store = NO_STORE  # type: ignore[assignment]
    elif args.cache_dir:
        os.environ[ENV_CACHE_DIR] = args.cache_dir
        store = ArtifactStore(args.cache_dir)
    else:
        store = None

    def cache_summary() -> None:
        if isinstance(store, ArtifactStore):
            stats = store.stats
            print(
                f"[cache] {stats.hits} hits, {stats.misses} misses, "
                f"{stats.writes} writes ({stats.hit_rate:.0%} hit rate) "
                f"in {store.root}",
                file=sys.stderr,
            )

    config = quick_config() if args.quick else PAPER_CONFIG
    overrides = {}
    if args.queries is not None:
        overrides["n_queries"] = args.queries
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sites is not None:
        overrides["site_counts"] = tuple(args.sites)
    if cluster_spec is not None:
        overrides["cluster"] = cluster_spec
    if overrides:
        config = config.with_overrides(**overrides)

    # Tracing rides the same rule as caching: trace artifacts and the
    # span summary go to files and stderr only, so stdout is
    # byte-identical with tracing enabled or disabled at any --workers.
    session = None
    if args.trace or args.trace_dir is not None:
        from repro.obs.session import TraceSession

        session = TraceSession(
            args.trace_dir,
            target=args.target,
            argv=list(argv) if argv is not None else sys.argv[1:],
            config=config,
            store=store if isinstance(store, ArtifactStore) else None,
        )

    def emit(figure, elapsed: float) -> None:
        if args.json:
            from repro.serialization import figure_to_dict

            print(json.dumps(figure_to_dict(figure), indent=2))
        else:
            from repro.experiments.report import render_figure

            print(render_figure(figure))
            print(f"(regenerated in {elapsed:.1f}s)")
            print()
        if session is not None and session.log is not None:
            session.log.emit(
                "figure", figure_id=figure.figure_id, seconds=round(elapsed, 6)
            )

    def dispatch() -> int:
        if args.target == "table2":
            from repro.experiments.report import render_parameters

            print(render_parameters(config.params))
            return 0

        if args.target == "algorithms":
            from repro.engine.registry import describe_algorithms

            entries = describe_algorithms()
            width = max(len(name) for name in entries)
            for name, entry in entries.items():
                suffix = " (lower bound)" if entry.kind == "bound" else ""
                print(f"{name.ljust(width)}  {entry.description}{suffix}")
            return 0

        if args.target == "robustness":
            from repro.experiments.robustness import (
                DEFAULT_INTENSITIES,
                robustness_sweep,
            )
            from repro.sim.policies import SharingPolicy

            intensities = (
                DEFAULT_INTENSITIES
                if args.intensities is None
                else tuple(args.intensities)
            )
            start = time.perf_counter()
            figure = robustness_sweep(
                config,
                intensities=intensities,
                policy=SharingPolicy(args.policy),
                fault_seed=args.fault_seed,
                workers=args.workers,
                store=store,
            )
            emit(figure, time.perf_counter() - start)
            cache_summary()
            return 0

        if args.target in SENSITIVITY_TARGETS:
            from repro.experiments.sensitivity import parameter_sensitivity

            field, multipliers = SENSITIVITY_TARGETS[args.target]
            start = time.perf_counter()
            figure = parameter_sensitivity(
                field, multipliers, config, workers=args.workers, store=store
            )
            emit(figure, time.perf_counter() - start)
            cache_summary()
            return 0

        if args.target == "plansearch":
            code = _run_plansearch(args, config, store)
            cache_summary()
            return code

        if args.target == "serve":
            code = _run_serve(args, config, store, session)
            cache_summary()
            return code

        from repro.experiments.figures import FIGURES

        targets = list(FIGURES) if args.target == "all" else [args.target]
        for name in targets:
            start = time.perf_counter()
            figure = FIGURES[name](config, workers=args.workers, store=store)
            emit(figure, time.perf_counter() - start)
        cache_summary()
        return 0

    if session is None:
        return dispatch()
    with session:
        code = dispatch()
    for line in session.summary_lines():
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
