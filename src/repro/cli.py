"""Command-line interface: ``repro-imin`` / ``python -m repro.cli``.

Subcommands
-----------
``datasets``
    List the built-in dataset stand-ins with paper vs stand-in stats.
``block``
    Run a blocking algorithm on a dataset and print blockers + spread.
``spread``
    Estimate the expected spread of a seed set (optionally blocked).
``serve``
    Run the long-lived blocker-query service (``repro.service``).
``query``
    Send one request to a running service and print the JSON reply.
``update``
    Apply a batched graph delta (insert/delete/reweight edges) to a
    running service's warm artifact — patched in place, not rebuilt.
``profile``
    Sample a running service's wall-clock for a few seconds and write
    the collapsed stacks (flamegraph.pl / speedscope input).

Examples
--------
::

    repro-imin datasets
    repro-imin block --dataset email-core --model tr --budget 10 \\
        --algorithm gr --theta 200 --seeds 5 --rng 7
    repro-imin spread --dataset facebook --model wc --seeds 3 --rng 1
    repro-imin serve --port 7727 &
    repro-imin query block --graph toy --budget 2
    repro-imin update --graph toy --insert 0:5:0.3 --delete 1:2 --seq 1
    repro-imin query shutdown
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

from .bench import evaluate_spread, pick_seeds, prepare_graph
from .core import ALGORITHMS, solve_imin
from .datasets import DATASETS, load_dataset
from .engine import BACKENDS, build_evaluator, EngineSpec
from .sampling import estimate_spread_sampled, resolve_theta

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-imin",
        description=(
            "Influence minimization via vertex blocking (ICDE 2023 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in dataset stand-ins")

    block = sub.add_parser("block", help="select blockers on a dataset")
    _common_args(block)
    block.add_argument(
        "--algorithm",
        choices=ALGORITHMS + ("ag", "gr", "bg", "rand", "outdeg"),
        default="greedy-replace",
        help="blocking algorithm (default: greedy-replace)",
    )
    block.add_argument(
        "--budget", type=int, default=10, help="max blockers b"
    )
    block.add_argument(
        "--theta",
        type=int,
        default=None,
        help=(
            "sampled graphs per round for ag/gr (default 200; "
            "alternatively derive it from --eps/--ell)"
        ),
    )
    block.add_argument(
        "--mcs-rounds",
        type=int,
        default=200,
        help="Monte-Carlo rounds per evaluation for bg",
    )

    spread = sub.add_parser("spread", help="estimate expected spread")
    _common_args(spread)
    spread.add_argument(
        "--theta",
        type=int,
        default=None,
        help=(
            "sampled graphs (default 2000; alternatively derive it "
            "from --eps/--ell)"
        ),
    )
    spread.add_argument(
        "--block",
        type=int,
        nargs="*",
        default=[],
        help="vertex ids to block before estimating",
    )

    experiment = sub.add_parser(
        "experiment",
        help="reproduce one of the paper's tables/figures",
    )
    experiment.add_argument(
        "key",
        nargs="?",
        default=None,
        help="experiment id (omit to list all)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived blocker-query service (repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 7727; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor for the registered dataset stand-ins",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=8,
        help="max resident warm artifacts (LRU beyond; default: 8)",
    )
    serve.add_argument(
        "--cache-mb", type=float, default=None,
        help="max resident sample-pool megabytes (LRU beyond)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help=(
            "persist sample pools here so evicted artifacts rehydrate "
            "from disk (mmapped)"
        ),
    )
    serve.add_argument(
        "--edge-list",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help=(
            "register a SNAP edge-list file (.gz accepted) under NAME; "
            "repeatable"
        ),
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help=(
            "also serve Prometheus metrics over HTTP on this port "
            "(GET /metrics; 0 binds an ephemeral port). The JSON "
            "protocol's `metrics` op exposes the same registry"
        ),
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit structured request logs: one JSON object per event "
            "on stderr (trace_id, op, graph, duration_ms)"
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, default=None,
        help=(
            "bound on the queries waiting for one artifact's lock: "
            "queries beyond it are rejected with error code "
            "`overloaded` instead of queueing without bound (default: "
            "unbounded)"
        ),
    )
    serve.add_argument(
        "--profile-hz", type=float, default=None,
        help=(
            "arm the sampling wall-clock profiler from boot at this "
            "rate (collapsed stacks via the `profile` op / "
            "`repro-imin profile`; default: off)"
        ),
    )
    serve.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "declare a latency/error SLO (repeatable): p99=250ms, "
            "p95=1s@2m, error_rate=1%%. Burn rates are exported as "
            "repro_slo_* gauges and under `query stats`"
        ),
    )
    serve.add_argument(
        "--serve-workers", type=int, default=None,
        help=(
            "run the sharded topology: an asyncio front end routing "
            "each graph to one of N worker processes (stable hash of "
            "the graph name). Artifact locks, single-flight builds "
            "and LRU accounting stay shard-local; --max-pending becomes "
            "the front end's global admission bound (default: one "
            "threaded process, no front end)"
        ),
    )
    serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help=(
            "persist per-artifact access counts here on drain; the "
            "next start prewarms the hottest keys from it before "
            "traffic arrives (needs --serve-workers)"
        ),
    )
    serve.add_argument(
        "--slow-ms", type=float, default=1000.0,
        help=(
            "slow-query threshold in milliseconds; slower requests are "
            "logged with their per-phase breakdown and kept in the "
            "slow-query ring visible under `query stats` "
            "(default: 1000)"
        ),
    )

    query = sub.add_parser(
        "query",
        help="send one request to a running service, print the JSON reply",
    )
    query.add_argument(
        "op",
        choices=(
            "ping", "graphs", "stats", "metrics", "warm", "spread",
            "block", "shutdown",
        ),
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument(
        "--port", type=int, default=None,
        help="TCP port of the service (default: 7727)",
    )
    query.add_argument(
        "--timeout", type=float, default=60.0,
        help="socket timeout in seconds (default: 60)",
    )
    query.add_argument("--graph", default=None, help="registered graph name")
    query.add_argument("--model", choices=("tr", "wc"), default=None)
    query.add_argument("--theta", type=int, default=None)
    query.add_argument(
        "--seed", type=int, default=None,
        help="artifact seed: keys the samples and the TR assignment",
    )
    query.add_argument(
        "--seeds", type=int, nargs="*", default=None,
        help="explicit seed vertex ids (default: server-picked)",
    )
    query.add_argument(
        "--num-seeds", type=int, default=None,
        help="how many seeds the server should pick",
    )
    query.add_argument(
        "--blocked", type=int, nargs="*", default=None,
        help="blocked vertex ids (spread op)",
    )
    query.add_argument("--budget", type=int, default=None)
    query.add_argument(
        "--algorithm", choices=ALGORITHMS, default=None,
        help="blocking algorithm (block op)",
    )
    query.add_argument(
        "--rng", type=int, default=None,
        help="algorithm RNG seed (block op; default: artifact seed)",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help=(
            "ask the server for this request's span breakdown (queue "
            "wait, artifact resolution, engine phases) and print it "
            "after the JSON reply"
        ),
    )
    query.add_argument(
        "--trace-id", default=None,
        help=(
            "client-chosen trace id to stamp on the request (default: "
            "server-assigned; always echoed in the reply)"
        ),
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help=(
            "after the op, also fetch the warm artifact's stats "
            "(sample-pool counters plus the sketch index's "
            "arena/postings gauges) and attach them to the printed "
            "reply; `query stats --graph NAME` asks for them directly"
        ),
    )

    update = sub.add_parser(
        "update",
        help=(
            "apply a batched graph delta (insert/delete/reweight "
            "edges) to a running service's warm artifact"
        ),
    )
    update.add_argument("--host", default="127.0.0.1")
    update.add_argument(
        "--port", type=int, default=None,
        help="TCP port of the service (default: 7727)",
    )
    update.add_argument(
        "--timeout", type=float, default=60.0,
        help="socket timeout in seconds (default: 60)",
    )
    update.add_argument(
        "--graph", default=None, help="registered graph name"
    )
    update.add_argument("--model", choices=("tr", "wc"), default=None)
    update.add_argument("--theta", type=int, default=None)
    update.add_argument(
        "--seed", type=int, default=None,
        help="artifact seed: keys the samples and the TR assignment",
    )
    update.add_argument(
        "--insert", action="append", default=[], metavar="U:V:P",
        help="edge (u, v) to insert with probability p; repeatable",
    )
    update.add_argument(
        "--delete", action="append", default=[], metavar="U:V",
        help="edge (u, v) to remove; repeatable",
    )
    update.add_argument(
        "--reweight", action="append", default=[], metavar="U:V:P",
        help="existing edge whose probability becomes p; repeatable",
    )
    update.add_argument(
        "--seq", type=int, default=None,
        help=(
            "monotone sequence number for exactly-once delivery: the "
            "server applies each seq at most once and acknowledges a "
            "duplicate with applied=false, so resending after a "
            "dropped connection is safe"
        ),
    )

    profile = sub.add_parser(
        "profile",
        help=(
            "sample a running service's wall-clock and write the "
            "collapsed stacks (flamegraph.pl / speedscope input)"
        ),
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument(
        "--port", type=int, default=None,
        help="TCP port of the service (default: 7727)",
    )
    profile.add_argument(
        "--hz", type=float, default=None,
        help="sampling rate (default: the server's, 67 Hz)",
    )
    profile.add_argument(
        "--seconds", type=float, default=10.0,
        help="how long to sample before dumping (default: 10)",
    )
    profile.add_argument(
        "--output", default=None, metavar="FILE",
        help=(
            "write the collapsed stacks here (default: stdout); pipe "
            "into flamegraph.pl for the flamegraph"
        ),
    )
    profile.add_argument(
        "--limit", type=int, default=None,
        help="keep only the N hottest stacks",
    )
    profile.add_argument(
        "--keep-running",
        action="store_true",
        help=(
            "leave the server's profiler sampling after the dump "
            "(default: stop it)"
        ),
    )
    return parser


def _common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--dataset",
        default="email-core",
        help="dataset key (see `repro-imin datasets`)",
    )
    sub.add_argument(
        "--model", choices=("tr", "wc"), default="tr",
        help="propagation probability model",
    )
    sub.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )
    sub.add_argument(
        "--seeds", type=int, default=10, help="number of random seeds"
    )
    sub.add_argument("--rng", type=int, default=42, help="random seed")
    sub.add_argument(
        "--engine",
        choices=BACKENDS,
        default="scalar",
        help=(
            "spread-evaluation backend (default: scalar, the exact "
            "historical behaviour; see repro.engine)"
        ),
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "persist pooled samples and sketch arena artifacts here "
            "(--engine pooled/sketch): a rerun with the same "
            "dataset/model/rng re-attaches them memory-mapped instead "
            "of re-drawing and re-building"
        ),
    )
    sub.add_argument(
        "--eps",
        type=float,
        default=None,
        help=(
            "Theorem-5 relative estimation error; derives theta via "
            "required_samples (mutually exclusive with --theta)"
        ),
    )
    sub.add_argument(
        "--ell",
        type=float,
        default=1.0,
        help=(
            "Theorem-5 confidence exponent l (success probability "
            "1 - n^-l; only meaningful with --eps)"
        ),
    )
    sub.add_argument(
        "--max-theta",
        type=int,
        default=None,
        help="cap on the theta derived from --eps (the bound is "
        "conservative; Figure 5 shows quality is flat in theta)",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "block":
        return _cmd_block(args)
    if args.command == "spread":
        return _cmd_spread(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "update":
        return _cmd_update(args)
    if args.command == "profile":
        return _cmd_profile(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_datasets() -> int:
    print(
        f"{'key':<12}{'paper name':<12}{'directed':<10}"
        f"{'paper n':>10}{'paper m':>10}  description"
    )
    for info in DATASETS.values():
        print(
            f"{info.key:<12}{info.paper_name:<12}"
            f"{str(info.directed):<10}{info.paper_n:>10}{info.paper_m:>10}"
            f"  {info.description}"
        )
    return 0


def _load(args) -> tuple:
    graph = load_dataset(args.dataset, scale=args.scale)
    graph = prepare_graph(graph, args.model, rng=args.rng)
    seeds = pick_seeds(graph, args.seeds, rng=args.rng)
    return graph, seeds


def _resolve_theta(args, graph, default: int) -> int:
    """``--theta``/``--eps``/``--ell`` -> a concrete sample count.

    Mapped through :func:`repro.sampling.resolve_theta` (Theorem 5);
    prints the derived value so runs are reproducible from the log.
    """
    if args.eps is not None and args.theta is not None:
        print("error: pass either --theta or --eps, not both")
        raise SystemExit(2)
    if args.eps is None:
        return args.theta if args.theta is not None else default
    theta = resolve_theta(
        graph.n, epsilon=args.eps, ell=args.ell, max_theta=args.max_theta
    )
    print(
        f"theta={theta} from Theorem 5 "
        f"(eps={args.eps}, ell={args.ell}, n={graph.n})"
    )
    return theta


_SHORT_NAMES = {
    "ag": "advanced-greedy",
    "gr": "greedy-replace",
    "bg": "baseline-greedy",
    "rand": "random",
    "outdeg": "out-degree",
}


def _engine_spec(args, theta: int | None = None) -> EngineSpec:
    """The :class:`~repro.engine.EngineSpec` the CLI flags pin down."""
    return EngineSpec(
        engine=args.engine,
        model=args.model,
        theta=theta if theta is not None else 200,
        seed=args.rng,
        cache_dir=getattr(args, "cache_dir", None),
    )


def _make_engine(args, graph, stream: int = 0, theta: int | None = None):
    """The injected evaluator, or None for the historical default.

    A thin shell over :func:`repro.engine.build_evaluator` (shared
    with the serving layer) driven by one :class:`EngineSpec`, which
    owns the stream discipline: the selection loop and the final
    quality evaluation get independent RNG streams from ``--rng`` so
    they never share random worlds (with the pooled backend, sharing
    would score the winner on the very samples that selected it).
    """
    if args.engine == "scalar":
        return None
    return build_evaluator(
        graph, _engine_spec(args, theta), stream=stream
    )


def _cmd_block(args) -> int:
    graph, seeds = _load(args)
    print(
        f"dataset={args.dataset} n={graph.n} m={graph.m} "
        f"model={args.model} seeds={seeds}"
    )
    algorithm = _SHORT_NAMES.get(args.algorithm, args.algorithm)
    theta = _resolve_theta(args, graph, default=200)
    with contextlib.ExitStack() as stack:
        selector = _make_engine(args, graph, stream=0, theta=theta)
        if selector is not None:
            stack.enter_context(selector)
        start = time.perf_counter()
        blockers = solve_imin(
            graph,
            seeds,
            args.budget,
            algorithm=algorithm,
            theta=theta,
            mcs_rounds=args.mcs_rounds,
            rng=args.rng,
            evaluator=selector,
        ).blockers
        elapsed = time.perf_counter() - start
        # final quality is judged by a separate evaluator stream so the
        # selection's random worlds are never reused to score their
        # winner
        judge = _make_engine(args, graph, stream=1, theta=theta)
        if judge is not None:
            stack.enter_context(judge)
        spread = evaluate_spread(
            graph, seeds, blockers, rng=args.rng, evaluator=judge
        )
        unblocked = evaluate_spread(
            graph, seeds, [], rng=args.rng, evaluator=judge
        )
    print(f"algorithm={args.algorithm} time={elapsed:.3f}s")
    print(f"blockers={sorted(blockers)}")
    print(
        f"expected spread: {unblocked:.3f} (unblocked) -> "
        f"{spread:.3f} (blocked)"
    )
    return 0


def _cmd_spread(args) -> int:
    graph, seeds = _load(args)
    bad = [v for v in args.block if not 0 <= v < graph.n]
    if bad:
        print(f"error: --block id {bad[0]} out of range [0, {graph.n})")
        return 2
    blocked = [v for v in args.block if v not in set(seeds)]
    if len(blocked) != len(args.block):
        print("note: ignoring blocked ids that are seeds")
    print(
        f"dataset={args.dataset} n={graph.n} m={graph.m} "
        f"model={args.model} seeds={seeds} blocked={blocked}"
    )
    theta = _resolve_theta(args, graph, default=2000)
    evaluator = _make_engine(args, graph, theta=theta)
    if evaluator is not None:
        with evaluator:
            mean = evaluator.expected_spread(seeds, theta, blocked)
        print(
            f"expected spread = {mean:.3f} "
            f"(engine={args.engine}, rounds={theta})"
        )
        return 0
    estimate = estimate_spread_sampled(
        graph, seeds, theta=theta, rng=args.rng, blocked=blocked
    )
    low, high = estimate.confidence_interval()
    print(
        f"expected spread = {estimate.mean:.3f} "
        f"(95% CI [{low:.3f}, {high:.3f}], theta={estimate.theta})"
    )
    return 0


def _cmd_serve(args) -> int:
    """``serve``: one threaded process, or with ``--serve-workers N``
    an asyncio front end over N shard worker processes.

    Every flag is checked here, once, into one :class:`WorkerSpec`
    before anything binds or spawns; the standalone server and each
    shard worker build their service from that spec.  The sharded
    listener never loads a graph, and ``--max-pending`` moves up to it,
    capping in-flight queries across every shard.
    """
    from .obs import EventLog, start_metrics_server
    from .service import (
        build_service,
        DEFAULT_PORT,
        ServiceServer,
        ShardedFrontend,
        WorkerSpec,
    )

    edge_pairs: list[tuple[str, str]] = []
    for spec in args.edge_list:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"error: --edge-list expects NAME=PATH, got {spec!r}")
            return 2
        edge_pairs.append((name, path))
    if args.cache_entries < 1:
        print("error: --cache-entries must be >= 1")
        return 2
    if args.cache_mb is not None and not 0 < args.cache_mb < math.inf:
        print("error: --cache-mb must be a positive, finite size")
        return 2
    if args.max_pending is not None and args.max_pending < 0:
        print("error: --max-pending must be >= 0")
        return 2
    if args.serve_workers is not None and args.serve_workers < 1:
        print("error: --serve-workers must be >= 1")
        return 2
    if args.access_log is not None and args.serve_workers is None:
        print("error: --access-log needs --serve-workers")
        return 2
    try:
        spec = WorkerSpec(
            scale=args.scale,
            edge_lists=tuple(edge_pairs),
            cache_entries=args.cache_entries,
            cache_bytes=(
                None if args.cache_mb is None else int(args.cache_mb * 2**20)
            ),
            cache_dir=args.cache_dir,
            slow_ms=args.slow_ms,
            profile_hz=args.profile_hz,
            slo_specs=tuple(args.slo),
            log_json=args.log_json,
        )
    except ValueError as error:  # bad --profile-hz / --slo
        print(f"error: {error}")
        return 2
    log = EventLog(json_mode=args.log_json)
    port = DEFAULT_PORT if args.port is None else args.port
    try:
        if args.serve_workers is None:
            service = build_service(spec, "standalone", log, args.max_pending)
            if args.profile_hz is not None:
                log.event("profiler_started", hz=args.profile_hz)
            for slo in spec.slos():
                log.event("slo_declared", slo=slo.name, spec=slo.spec)
            server = ServiceServer((args.host, port), service)
            host, port = server.server_address[:2]
            scrape = {"registry": service.metrics}
        else:
            server = ShardedFrontend(
                host=args.host,
                port=port,
                workers=args.serve_workers,
                worker_spec=spec,
                max_pending=args.max_pending,
                access_log=args.access_log,
                log=log,
            ).start()
            host, port = server.address
            scrape = {
                "registry": server.metrics,
                "render_fn": server.render_metrics,
                "health_fn": server.health,
            }
    except (OSError, RuntimeError, ValueError) as error:
        print(f"error: {error}")
        return 1
    with server, contextlib.ExitStack() as stack:
        if args.metrics_port is not None:
            metrics_server = start_metrics_server(
                host=args.host, port=args.metrics_port, **scrape
            )
            stack.callback(metrics_server.server_close)
            stack.callback(metrics_server.shutdown)
            log.event(
                "metrics_listening", host=args.host, port=metrics_server.port
            )
        print(f"repro.service listening on {host}:{port}", flush=True)
        log.event(
            "listening", host=host, port=port, workers=args.serve_workers
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
    log.event("stopped")
    print("repro.service stopped")
    return 0


def _cmd_query(args) -> int:
    from .obs import format_trace
    from .service import DEFAULT_PORT, ServiceClient, ServiceError

    port = DEFAULT_PORT if args.port is None else args.port
    client = ServiceClient(args.host, port, timeout=args.timeout)
    params = {
        "graph": args.graph,
        "model": args.model,
        "theta": args.theta,
        "seed": args.seed,
        "seeds": args.seeds,
        "num_seeds": args.num_seeds,
        "blocked": args.blocked,
        "budget": args.budget,
        "algorithm": args.algorithm,
        "rng": args.rng,
        "trace_id": args.trace_id,
        "trace": True if args.trace else None,
    }
    try:
        with client:
            response = client.request(args.op, **params)
            if args.stats and args.op != "stats" and response.get("ok"):
                # the per-artifact stats form: same key fields, never
                # builds server-side (peek-only)
                response["artifact_stats"] = client.request(
                    "stats",
                    artifact=True,
                    graph=args.graph,
                    model=args.model,
                    theta=args.theta,
                    seed=args.seed,
                ).get("result")
    except (OSError, ServiceError) as error:
        print(
            json.dumps(
                {"ok": False, "error": f"{error}"}, indent=2
            )
        )
        return 1
    if args.op == "metrics" and response.get("ok"):
        # exposition text, not JSON — print it raw for scrape parity
        print(response.get("result", ""), end="")
        return 0
    trace_dict = response.pop("trace", None)
    print(json.dumps(response, indent=2, sort_keys=True))
    if trace_dict is not None:
        print(format_trace(trace_dict))
    return 0 if response.get("ok") else 1


def _parse_edge(spec: str, with_prob: bool):
    """``U:V`` / ``U:V:P`` -> an edge tuple for the update op."""
    parts = spec.split(":")
    expected = 3 if with_prob else 2
    if len(parts) != expected:
        raise ValueError(
            f"expected {'U:V:P' if with_prob else 'U:V'}, got {spec!r}"
        )
    u, v = int(parts[0]), int(parts[1])
    return (u, v, float(parts[2])) if with_prob else (u, v)


def _cmd_update(args) -> int:
    """Round-trip the ``update`` op: one batched delta, one reply."""
    from .service import DEFAULT_PORT, ServiceClient, ServiceError

    try:
        inserts = [_parse_edge(s, True) for s in args.insert]
        deletes = [_parse_edge(s, False) for s in args.delete]
        reweights = [_parse_edge(s, True) for s in args.reweight]
    except ValueError as error:
        print(f"error: {error}")
        return 2
    if not (inserts or deletes or reweights):
        print("error: pass at least one --insert/--delete/--reweight")
        return 2
    port = DEFAULT_PORT if args.port is None else args.port
    client = ServiceClient(args.host, port, timeout=args.timeout)
    try:
        with client:
            result = client.update(
                graph=args.graph,
                model=args.model,
                theta=args.theta,
                seed=args.seed,
                inserts=inserts or None,
                deletes=deletes or None,
                reweights=reweights or None,
                seq=args.seq,
            )
    except (OSError, ServiceError) as error:
        print(json.dumps({"ok": False, "error": f"{error}"}, indent=2))
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_profile(args) -> int:
    """Round-trip the `profile` op: start, sample, dump, (stop).

    The dump is collapsed-stack text — ``repro-imin profile --output
    prof.collapsed && flamegraph.pl prof.collapsed > prof.svg`` is the
    whole flamegraph workflow.
    """
    from .service import DEFAULT_PORT, ServiceClient, ServiceError

    if args.seconds <= 0:
        print("error: --seconds must be positive")
        return 2
    port = DEFAULT_PORT if args.port is None else args.port
    client = ServiceClient(args.host, port, timeout=args.seconds + 60.0)
    started_here = False
    try:
        with client:
            status = None
            if args.hz is None:
                try:
                    status = client.profile("status")
                except ServiceError:
                    status = None  # profiler never started on the server
            if status is None or not status.get("active"):
                client.profile("start", hz=args.hz)
                started_here = True
                print(
                    f"sampling {args.host}:{port} for "
                    f"{args.seconds:g}s ...",
                    file=sys.stderr,
                )
                time.sleep(args.seconds)
            dump = client.profile("dump", limit=args.limit)
            if started_here and not args.keep_running:
                client.profile("stop")
    except (OSError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    collapsed = dump.pop("collapsed", "")
    print(
        "profile: "
        + " ".join(f"{k}={dump[k]}" for k in sorted(dump)),
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(collapsed + ("\n" if collapsed else ""))
        print(f"wrote {args.output}", file=sys.stderr)
    elif collapsed:
        print(collapsed)
    return 0


def _cmd_experiment(args) -> int:
    from .bench import experiment_command, EXPERIMENTS

    if args.key is None:
        print(f"{'key':<22}{'paper item':<12}description")
        for experiment in EXPERIMENTS.values():
            print(
                f"{experiment.key:<22}{experiment.paper_item:<12}"
                f"{experiment.description}"
            )
        print(
            "\nrun one with: repro-imin experiment <key>  "
            "(from the repository root)"
        )
        return 0
    try:
        command = experiment_command(args.key)
    except KeyError as error:
        print(error.args[0])
        return 2
    print("+", " ".join(command))
    import subprocess

    return subprocess.call(command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
