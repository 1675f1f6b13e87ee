"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show every registered experiment (paper table/figure).
* ``run <id> [<id> ...]`` — regenerate experiments and print their
  tables; ``run all`` runs everything.  Runs go through the resilient
  runner (``repro.experiments.runner``): a crashing or timed-out
  experiment is reported and the batch continues, with the exit code
  reflecting the failures.  Each experiment runs once on its registered
  seed.  ``--timeout`` and ``--checkpoint`` tune the harness;
  ``--jobs N`` fans independent experiments out over N worker
  processes; ``--trace PATH`` writes the run as a JSONL artifact
  (manifest + results + metrics + trace events, see
  ``docs/OBSERVABILITY.md``).
* ``report <run.jsonl>`` — render a ``--trace`` artifact back into
  markdown; its experiment blocks are byte-identical to EXPERIMENTS.md
  blocks for the same results.  ``report --catalog`` prints the metrics
  catalogue; ``--update-doc``/``--check-doc`` maintain the generated
  table in ``docs/OBSERVABILITY.md``.
* ``demo`` — the quickstart byte transfer, for a 10-second sanity check.
* ``serve`` — run the fault-tolerant experiment service: a line-JSON
  TCP front end with admission control, bounded per-pool queues,
  circuit breakers, and a checksummed result cache; a request it cannot
  execute gets an error naming the cause.  SIGINT/SIGTERM drain
  gracefully: in-flight requests finish and the cache is flushed, so
  reconnecting clients get bit-identical results.  See
  ``docs/SERVICE.md``.
* ``request`` — one client request against a running service
  (``run`` an experiment, ``--ping``, or ``--stats``); prints the
  JSON response.

Both ``run`` and ``demo`` accept ``--sanitize``: every machine built
during the run is wrapped in the invariant-checking proxies of
``repro.analysis`` and state corruption raises a structured
``InvariantViolation`` at the offending transition.  The companion
static checks live under ``python -m repro.analysis lint``.

``run``, ``demo`` and ``serve`` accept ``--engine {reference,fast}``:
``fast``, the table-driven default, is bit-identical to ``reference``,
the oracle (``docs/PERFORMANCE.md``), so the engine is provenance and
never changes a result; a bad ``REPRO_ENGINE`` exits 2 up front.
``run <alg1|alg2> --trials N`` runs N independent channel transfers
through the lockstep batch engine (``repro.sim.batch``) in
checkpointable blocks, whichever engine is selected.

``run <alg1|alg2|occupancy> --defense <design>`` runs one channel
against a defense design from the registry (``repro.defenses``) —
including the randomized designs ``ceaser`` and ``skew`` — and prints
the matrix cell (error rate and capacity bound; see
``docs/DEFENSES.md``).  ``--trials`` cannot be combined with
``--defense``: the lockstep batch engine compiles the undefended
single-set layout into its policy tables, so defended runs are scalar
only and the combination is refused up front.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(args) -> int:
    from repro.experiments import EXPERIMENT_REGISTRY

    print("registered experiments (paper tables and figures):")
    for experiment_id in sorted(EXPERIMENT_REGISTRY):
        fn = EXPERIMENT_REGISTRY[experiment_id]
        doc = (fn.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {experiment_id:8s} {summary}")
    return 0


def _cmd_run(args) -> int:
    from repro.common.errors import ConfigurationError

    try:
        return _run(args)
    except ConfigurationError as error:
        # A bad run configuration (an artifact path in a missing
        # directory, an impossible defense) is refused up front.
        print(f"run: {error}", file=sys.stderr)
        return 2


def _run(args) -> int:
    from repro.experiments import EXPERIMENT_REGISTRY
    from repro.experiments.runner import ExperimentRunner, auto_jobs

    jobs = auto_jobs() if args.jobs is None else args.jobs
    if args.defense != "none" or args.attacker != "auto" or args.intensity:
        if args.trials:
            print(
                "--trials cannot be combined with --defense: the "
                "lockstep batch engine compiles the undefended "
                "single-set layout into its policy tables (see "
                "docs/DEFENSES.md); run defended channels without "
                "--trials",
                file=sys.stderr,
            )
            return 2
        return _run_defended(args)
    if args.trials:
        return _run_trials(args)
    ids = args.ids
    chosen = sorted(EXPERIMENT_REGISTRY) if ids == ["all"] else ids
    unknown = [i for i in chosen if i not in EXPERIMENT_REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use `python -m repro list` to see options", file=sys.stderr)
        return 2

    def show_result(result, elapsed):
        print()
        print(result.render())
        if elapsed > 0:
            print(f"({elapsed:.1f}s)")
        else:
            print("(restored from checkpoint)")

    def show_failure(failure):
        print()
        print(failure.render(), file=sys.stderr)

    runner = ExperimentRunner(
        timeout_seconds=args.timeout,
        checkpoint_path=args.checkpoint,
        sanitize=args.sanitize,
        trace_path=args.trace,
        max_task_crashes=args.max_task_crashes,
        heartbeat_interval=args.heartbeat_interval,
        drain_timeout=args.drain_timeout,
    )
    report = runner.run_many(
        chosen, on_result=show_result, on_failure=show_failure, jobs=jobs
    )
    written = runner.write_trace(report, chosen, jobs=jobs)
    print()
    print(f"summary: {report.summary()}")
    if written is not None:
        print(f"trace written to {written}")
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def _run_defended(args) -> int:
    """``run <channel> --defense X``: one channel vs one defense design."""
    import time

    from repro.experiments.randomized import (
        DEFENDED_CHANNELS,
        run_defended_channel,
    )

    bad = [i for i in args.ids if i not in DEFENDED_CHANNELS]
    if bad:
        print(
            f"--defense runs channel algorithms "
            f"({', '.join(DEFENDED_CHANNELS)}), got: {' '.join(bad)}",
            file=sys.stderr,
        )
        return 2
    for channel_id in args.ids:
        started = time.perf_counter()
        result = run_defended_channel(
            channel_id,
            defense=args.defense,
            intensity=args.intensity,
            attacker=args.attacker,
        )
        print()
        print(result.render())
        print(f"({time.perf_counter() - started:.1f}s)")
    return 0


def _run_trials(args) -> int:
    """``run <algorithm> --trials N``: lockstep multi-trial transfers."""
    from repro.experiments.runner import ExperimentRunner
    from repro.sim.batch import BATCH_CHANNELS

    ids = args.ids
    if len(ids) != 1 or ids[0] not in BATCH_CHANNELS:
        print(
            f"--trials needs exactly one channel algorithm "
            f"({', '.join(sorted(BATCH_CHANNELS))}), got: {' '.join(ids)}",
            file=sys.stderr,
        )
        return 2
    algorithm = ids[0]

    def show_block(result, elapsed):
        rates = [row[2] for row in result.rows]
        mean = sum(rates) / len(rates)
        tag = f"({elapsed:.1f}s)" if elapsed > 0 else "(restored)"
        print(
            f"  {result.experiment_id}: {len(result.rows)} trials, "
            f"mean BER {mean:.4f} {tag}"
        )

    def show_failure(failure):
        print(failure.render(), file=sys.stderr)

    runner = ExperimentRunner(
        checkpoint_path=args.checkpoint, trace_path=args.trace, observe=True
    )
    print(f"{algorithm}: {args.trials} trials in blocks of {args.block_size}")
    report = runner.run_trials(
        algorithm,
        args.trials,
        block_size=args.block_size,
        on_result=show_block,
        on_failure=show_failure,
    )
    rows = [row for result in report.results for row in result.rows]
    if rows:
        overall = sum(row[2] for row in rows) / len(rows)
        print(f"overall: {len(rows)} trials, mean BER {overall:.4f}")
    written = runner.write_trace(
        report, [r.experiment_id for r in report.results]
    )
    print(f"summary: {report.summary()}")
    if written is not None:
        print(f"trace written to {written}")
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    from repro.obs.report import (
        read_records,
        render_report,
        update_catalog_doc,
    )

    if args.catalog:
        from repro.obs.catalog import catalog_markdown

        print(catalog_markdown())
        return 0
    check_doc = args.check_doc
    if args.update_doc is not None or check_doc is not None:
        doc = args.update_doc if args.update_doc is not None else check_doc
        current = update_catalog_doc(doc, check=check_doc is not None)
        if check_doc is not None:
            if current:
                print(f"{doc}: metrics catalogue is current")
                return 0
            print(
                f"{doc}: metrics catalogue is stale; run "
                "`python -m repro report --update-doc` to regenerate",
                file=sys.stderr,
            )
            return 1
        print(f"{doc}: {'already current' if current else 'updated'}")
        return 0
    if args.path is None:
        print("report: need a trace file (or --catalog)", file=sys.stderr)
        return 2
    from repro.common.errors import ObservabilityError

    try:
        print(render_report(read_records(args.path)))
    except (OSError, ObservabilityError) as error:
        print(f"report: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_demo(args) -> int:
    if args.sanitize:
        from repro.analysis.sanitize import enable_sanitize

        enable_sanitize()
    from repro.channels import (
        CovertChannelProtocol,
        ProtocolConfig,
        SharedMemoryLRUChannel,
        runlength_decode,
        sample_bits,
    )
    from repro.sim import INTEL_E5_2690, Machine

    machine = Machine(INTEL_E5_2690, rng=2024)
    channel = SharedMemoryLRUChannel.build(
        machine.spec.hierarchy.l1, target_set=1, d=8
    )
    protocol = CovertChannelProtocol(
        machine, channel, ProtocolConfig(ts=6000, tr=600)
    )
    message = [1, 0, 1, 1, 0, 0, 1, 0]
    run = protocol.run_hyper_threaded(message)
    decoded = runlength_decode(sample_bits(run), 10)[: len(message)]
    print(f"sent    {''.join(map(str, message))}")
    print(f"decoded {''.join(map(str, decoded))}")
    print("channel works" if decoded == message else "decode mismatch")
    return 0 if decoded == message else 1


def _serve_until_signalled(front_end, banner, farewell: str) -> int:
    """Start a node or router, print ``banner(port)``, serve until
    SIGINT/SIGTERM, drain, and print ``farewell``."""
    import asyncio
    import signal

    async def serve() -> None:
        await front_end.start()
        print(banner(front_end.port), flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await front_end.serve_until(stop)
        print(farewell)

    asyncio.run(serve())
    return 0


def _cmd_serve(args) -> int:
    from repro.common.errors import ServiceError
    from repro.service.server import ExperimentService, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            pools=args.pools,
            queue_depth=args.queue_depth,
            rate=args.rate,
            burst=args.burst,
            timeout_seconds=args.timeout,
            sanitize=args.sanitize,
            cache_dir=args.cache_dir,
            drain_timeout=args.drain_timeout,
            seed=args.seed,
        )
    except ServiceError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    return _serve_until_signalled(
        ExperimentService(config),
        lambda port: f"serving on {config.host}:{port}",
        "drained: in-flight requests finished, cache flushed",
    )


def _cmd_request(args) -> int:
    import json

    from repro.common.errors import ServiceError
    from repro.service.client import ServiceClient

    if args.port < 1:
        print("request: --port is required (see `serve` or `route` "
              "output)", file=sys.stderr)
        return 2
    if not (args.ping or args.stats or args.analyze or args.experiment_id):
        print("request: need an experiment id (or --ping/--stats/"
              "--analyze)", file=sys.stderr)
        return 2
    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        with client:
            if args.ping:
                response = client.ping()
            elif args.stats:
                response = client.stats()
            elif args.analyze:
                response = client.analyze(
                    args.analyze,
                    args.ways,
                    defense=args.defense,
                    deadline_ms=args.deadline_ms,
                    refresh=args.refresh,
                )
            else:
                response = client.request(
                    args.experiment_id,
                    deadline_ms=args.deadline_ms,
                    refresh=args.refresh,
                    trials=args.trials,
                    defense=args.defense,
                )
    except (OSError, ServiceError) as error:
        print(f"request: {error}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    if response.get("status") in ("ok", "pong", "stats"):
        return 0
    return 1


def _cmd_route(args) -> int:
    from repro.cluster import ClusterRouter, Membership, RouterConfig
    from repro.common.errors import ClusterError

    if bool(args.peers) == bool(args.peers_file):
        print("route: exactly one of --peers or --peers-file is "
              "required", file=sys.stderr)
        return 2
    try:
        membership = (
            Membership.from_spec(args.peers)
            if args.peers
            else Membership.from_file(args.peers_file)
        )
        config = RouterConfig(
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            vnodes=args.vnodes,
            seed=args.seed,
            request_timeout=args.request_timeout,
            health_interval=args.health_interval,
        )
        router = ClusterRouter(config, membership)
    except ClusterError as error:
        print(f"route: {error}", file=sys.stderr)
        return 2
    return _serve_until_signalled(
        router,
        lambda port: (
            f"routing on {config.host}:{port} "
            f"across {len(membership)} peer(s)"
        ),
        "router drained",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed so docs tests can audit flags)."""
    from repro.sim.fastpath import ENGINES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Leaking Information Through Cache LRU "
            "States' (HPCA 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_flag = argparse.ArgumentParser(add_help=False)
    engine_flag.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine: 'fast' (precompiled replacement "
        "tables) or 'reference', the oracle it is bit-identical to "
        "(default: the REPRO_ENGINE environment variable, else fast)",
    )
    sub.add_parser(
        "list", help="list registered experiments"
    ).set_defaults(handler=_cmd_list)
    run_parser = sub.add_parser(
        "run", parents=[engine_flag], help="run experiments by id"
    )
    run_parser.set_defaults(handler=_cmd_run)
    run_parser.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per experiment, "
        "enforced by killing its worker process (default: none)",
    )
    run_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSON progress file; completed experiments are restored "
        "from it on rerun instead of recomputed",
    )
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="wrap every machine in invariant-checking proxies; state "
        "corruption fails the experiment with an InvariantViolation",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the batch; experiments are seeded "
        "deterministically so results match a sequential run "
        "(default: os.cpu_count(); values above it warn and time-slice)",
    )
    run_parser.add_argument(
        "--trials",
        type=int,
        default=0,
        metavar="N",
        help="run N independent channel transfers through the lockstep "
        "batch engine instead of registered experiments; the positional "
        "id names the algorithm (alg1 or alg2)",
    )
    run_parser.add_argument(
        "--block-size",
        type=int,
        default=256,
        metavar="N",
        help="lockstep batch width per checkpointable block under "
        "--trials; results never depend on it (default: 256)",
    )
    run_parser.add_argument(
        "--defense",
        choices=["none", "fifo", "random", "no-hit-update", "ceaser", "skew"],
        default="none",
        help="run the positional channel id (alg1, alg2, or occupancy) "
        "against this defense design from the registry instead of a "
        "registered experiment; 'ceaser' and 'skew' are the randomized "
        "index designs (docs/DEFENSES.md); incompatible with --trials",
    )
    run_parser.add_argument(
        "--intensity",
        type=float,
        default=0.0,
        metavar="X",
        help="fault-suite intensity for --defense runs: 0 is the "
        "paper's quiet pinned core, 1 the calibrated Figure 4 noise "
        "floor (default: 0)",
    )
    run_parser.add_argument(
        "--attacker",
        choices=["auto", "naive", "profiled"],
        default="auto",
        help="attacker model for --defense runs: 'naive' agrees on "
        "modulo set indices, 'profiled' builds a congruent set under "
        "the current CEASER key; 'auto' picks profiled where a keyed "
        "congruent set exists (default: auto)",
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the run as a JSONL observability artifact: run "
        "manifest, results, metrics snapshots, and ring-buffered trace "
        "events (render it with `python -m repro report PATH`)",
    )
    run_parser.add_argument(
        "--max-task-crashes",
        type=int,
        default=3,
        metavar="K",
        help="quarantine an experiment as a structured failure after K "
        "consecutive worker crashes on it, instead of aborting the "
        "batch (default: 3)",
    )
    run_parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="how often parallel workers stamp their heartbeat; a "
        "worker silent for 10 intervals is hard-killed and its task "
        "requeued (default: 1.0)",
    )
    run_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGINT/SIGTERM, wait this long for in-flight "
        "experiments to finish and the checkpoint to flush before "
        "killing workers; a second signal aborts immediately "
        "(default: 10.0)",
    )
    report_parser = sub.add_parser(
        "report", help="render a --trace artifact as markdown"
    )
    report_parser.set_defaults(handler=_cmd_report)
    report_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="JSONL trace file written by `run --trace`",
    )
    report_parser.add_argument(
        "--catalog",
        action="store_true",
        help="print the metrics catalogue table instead of a report",
    )
    report_parser.add_argument(
        "--update-doc",
        default=None,
        metavar="PATH",
        help="regenerate the metrics-catalogue section of the given "
        "doc (docs/OBSERVABILITY.md) in place",
    )
    report_parser.add_argument(
        "--check-doc",
        default=None,
        metavar="PATH",
        help="exit non-zero if the doc's generated catalogue section "
        "is stale (the CI docs-drift gate)",
    )
    serve_parser = sub.add_parser(
        "serve",
        parents=[engine_flag],
        help="run the fault-tolerant experiment service",
    )
    serve_parser.set_defaults(handler=_cmd_serve)
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks a free one and prints it (default: 0)",
    )
    serve_parser.add_argument(
        "--pools",
        type=int,
        default=2,
        metavar="N",
        help="worker pools; requests shard across them by experiment "
        "id so one wedged pool cannot absorb everything (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="bound of each pool's request queue; a full queue sheds "
        "the request with a retry hint (default: 8)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="R",
        help="admission-control token refill rate, requests/second "
        "(default: 200)",
    )
    serve_parser.add_argument(
        "--burst",
        type=int,
        default=50,
        metavar="N",
        help="admission-control burst allowance (default: 50)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per execution; a bounded execution runs "
        "in a supervised worker process (default: none)",
    )
    serve_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run executions with the runtime sanitizer armed",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default="service-cache",
        metavar="PATH",
        help="directory of the durable, checksummed result cache "
        "(default: service-cache)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGINT/SIGTERM, let in-flight requests finish for "
        "this long before stopping their pools (default: 10.0)",
    )
    serve_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="master seed for circuit-breaker probe jitter "
        "(default: 0)",
    )
    request_parser = sub.add_parser(
        "request", help="send one request to a running service"
    )
    request_parser.set_defaults(handler=_cmd_request)
    request_parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="experiment id to run (omit with --ping/--stats)",
    )
    request_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="service address (default: 127.0.0.1)",
    )
    request_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="service port (required; printed by `serve`)",
    )
    request_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="end-to-end budget for this request; the server refuses "
        "to start work that would overrun it",
    )
    request_parser.add_argument(
        "--refresh",
        action="store_true",
        help="bypass the result cache and recompute",
    )
    request_parser.add_argument(
        "--ping",
        action="store_true",
        help="liveness check instead of running an experiment",
    )
    request_parser.add_argument(
        "--stats",
        action="store_true",
        help="print service stats (breakers, queues, metrics) instead "
        "of running an experiment",
    )
    request_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="client socket timeout (default: 30.0)",
    )
    request_parser.add_argument(
        "--analyze",
        metavar="POLICY",
        default=None,
        help="static leakage analysis of this replacement policy "
        "instead of running an experiment (zero simulation; "
        "docs/LEAKAGE.md)",
    )
    request_parser.add_argument(
        "--ways",
        type=int,
        default=4,
        metavar="N",
        help="associativity for --analyze (default: 4)",
    )
    request_parser.add_argument(
        "--defense",
        choices=["none", "fifo", "random", "no-hit-update", "ceaser", "skew"],
        default="none",
        help="defense design: with --analyze, the static analyzer's "
        "defense model (randomized designs get a structured refusal); "
        "with a channel id (alg1/alg2/occupancy), the server runs the "
        "channel against the defended machine (default: none)",
    )
    request_parser.add_argument(
        "--trials",
        type=int,
        default=0,
        metavar="N",
        help="multi-trial batch request: the positional id names a "
        "channel algorithm (alg1/alg2) and the server runs N lockstep "
        "transfers through the vectorized batch engine",
    )
    route_parser = sub.add_parser(
        "route",
        help="run the cluster router in front of service nodes",
    )
    route_parser.set_defaults(handler=_cmd_route)
    route_parser.add_argument(
        "--peers",
        metavar="SPEC",
        default=None,
        help="comma-separated [name=]host:port peer list naming the "
        "service nodes to route over",
    )
    route_parser.add_argument(
        "--peers-file",
        metavar="PATH",
        default=None,
        help="peers.json membership file (alternative to --peers)",
    )
    route_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="client-facing bind address (default: 127.0.0.1)",
    )
    route_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="client-facing bind port; 0 picks a free one and prints "
        "it (default: 0)",
    )
    route_parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        metavar="R",
        help="replica-set size on the consistent-hash ring "
        "(default: 2)",
    )
    route_parser.add_argument(
        "--vnodes",
        type=int,
        default=64,
        metavar="N",
        help="ring points per peer (default: 64)",
    )
    route_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="master seed for per-peer breaker probe jitter "
        "(default: 0)",
    )
    route_parser.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-peer attempt budget when the client sets no "
        "deadline (default: 10.0)",
    )
    route_parser.add_argument(
        "--health-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between peer health-check rounds (default: 0.5)",
    )
    demo_parser = sub.add_parser(
        "demo",
        parents=[engine_flag],
        help="10-second covert-channel sanity check",
    )
    demo_parser.set_defaults(handler=_cmd_demo)
    demo_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the demo with the runtime sanitizer armed",
    )
    return parser


def main(argv: list = None) -> int:
    args = build_parser().parse_args(argv)
    if "engine" in args:
        from repro.common.errors import ConfigurationError
        from repro.sim.fastpath import resolve_engine, set_default_engine

        try:  # without --engine, an inherited REPRO_ENGINE must name one
            resolve_engine(args.engine)
        except ConfigurationError as error:
            print(f"{args.command}: {error}", file=sys.stderr)
            return 2
        if args.engine is not None:
            set_default_engine(args.engine)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
