"""Smoke tests for the command-line interface."""

import json
import socket
import threading

import pytest

from repro.cli import build_parser, main
from repro.datasets.toy import figure1_graph
from repro.engine import BACKENDS, build_evaluator, EngineSpec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_block_defaults(self):
        args = build_parser().parse_args(["block"])
        assert args.algorithm == "greedy-replace"
        assert args.budget == 10
        assert args.model == "tr"

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["block", "--algorithm", "magic"])


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "email-core" in out
        assert "youtube" in out
        assert "4039" in out  # Facebook's paper n

    @pytest.mark.parametrize("algorithm", ["ag", "gr", "rand", "outdeg"])
    def test_block_small_run(self, capsys, algorithm):
        code = main(
            [
                "block",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--budget", "3",
                "--theta", "30",
                "--seeds", "2",
                "--algorithm", algorithm,
                "--rng", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blockers=" in out
        assert "expected spread" in out

    def test_block_bg(self, capsys):
        code = main(
            [
                "block",
                "--dataset", "email-core",
                "--scale", "0.05",
                "--budget", "1",
                "--mcs-rounds", "20",
                "--seeds", "2",
                "--algorithm", "bg",
                "--rng", "2",
            ]
        )
        assert code == 0
        assert "algorithm=bg" in capsys.readouterr().out

    def test_spread_estimation(self, capsys):
        code = main(
            [
                "spread",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--theta", "50",
                "--seeds", "2",
                "--rng", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "expected spread" in out
        assert "95% CI" in out

    def test_spread_with_blocked_vertices(self, capsys):
        code = main(
            [
                "spread",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--theta", "30",
                "--seeds", "1",
                "--rng", "4",
                "--block", "0", "1",
            ]
        )
        assert code == 0


    @pytest.mark.parametrize("engine", BACKENDS)
    def test_spread_rejects_out_of_range_block(self, capsys, engine):
        for bad in ("-1", "5000"):
            code = main(
                [
                    "spread",
                    "--dataset", "email-core",
                    "--scale", "0.08",
                    "--theta", "20",
                    "--seeds", "1",
                    "--engine", engine,
                    "--block", "1", bad,
                ]
            )
            out = capsys.readouterr().out
            assert code == 2
            assert out.startswith(f"error: --block id {bad} out of range")
            assert len(out.splitlines()) == 1


class TestEngineFlag:
    def test_engine_defaults_to_scalar(self):
        args = build_parser().parse_args(["block"])
        assert args.engine == "scalar"

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["block", "--engine", "quantum"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["block", "--workers", "2"],
            ["spread", "--workers", "2"],
            ["serve", "--build-workers", "2"],
            ["block", "--engine", "parallel"],
        ],
        ids=["block-workers", "spread-workers", "build-workers", "parallel"],
    )
    def test_process_pool_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_unknown_engine_lists_backends(self):
        with pytest.raises(ValueError) as error:
            build_evaluator(figure1_graph(), EngineSpec(engine="quantum"))
        message = str(error.value)
        assert "quantum" in message
        for name in BACKENDS:
            assert name in message

    @pytest.mark.parametrize("engine", ["vectorized", "pooled", "sketch"])
    def test_block_with_engine(self, capsys, engine):
        code = main(
            [
                "block",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--budget", "2",
                "--theta", "30",
                "--seeds", "2",
                "--algorithm", "gr",
                "--rng", "1",
                "--engine", engine,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "blockers=" in out
        assert "expected spread" in out

    def test_spread_with_engine(self, capsys):
        code = main(
            [
                "spread",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--seeds", "2",
                "--theta", "200",
                "--rng", "1",
                "--engine", "vectorized",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=vectorized" in out
        assert "expected spread" in out


class TestServeQueryVerbs:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port is None
        assert args.cache_entries == 8
        assert args.edge_list == []

    def test_query_requires_known_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "teleport"])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "ping"])
        assert args.op == "ping"
        assert args.port is None
        assert args.graph is None

    def test_serve_rejects_malformed_edge_list(self, capsys):
        assert main(["serve", "--edge-list", "nopath"]) == 2
        assert "NAME=PATH" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cache-entries", "0"], "--cache-entries must be >= 1"),
            (["--cache-mb", "-1"], "--cache-mb must be a positive"),
            (["--cache-mb", "0"], "--cache-mb must be a positive"),
            (["--cache-mb", "nan"], "--cache-mb must be a positive"),
            (
                ["--access-log", "access.json"],
                "--access-log needs --serve-workers",
            ),
        ],
        ids=["entries-0", "mb-negative", "mb-0", "mb-nan", "access-log"],
    )
    def test_serve_rejects_bad_cache_bounds(
        self, capsys, monkeypatch, flags, message
    ):
        def registry(*args, **kwargs):
            raise AssertionError("registry built before validation")

        monkeypatch.setattr(
            "repro.service.server.default_registry", registry
        )
        assert main(["serve", "--port", "0", *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().out

    def test_sharded_serve_rejects_bad_cache_bounds_before_spawning(
        self, capsys, monkeypatch
    ):
        from repro.service.frontend import WorkerHandle

        spawned = []

        def spawn(handle, *args, **kwargs):
            spawned.append(handle.index)
            raise RuntimeError("shard worker spawned")

        monkeypatch.setattr(WorkerHandle, "start", spawn)
        argv = ["serve", "--port", "0", "--serve-workers", "1"]
        assert main([*argv, "--cache-entries", "0"]) == 2
        assert "error: --cache-entries must be >= 1" in (
            capsys.readouterr().out
        )
        assert spawned == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--profile-hz", "0"], "hz must be in (0, 1000]"),
            (
                ["--slo", "p99=250ms", "--slo", "p99=250ms"],
                "duplicate SLO specs",
            ),
        ],
        ids=["profile-hz-0", "duplicate-slo"],
    )
    def test_sharded_serve_rejects_bad_flags_before_spawning(
        self, capsys, monkeypatch, flags, message
    ):
        from repro.service.frontend import WorkerHandle

        spawned = []

        def spawn(handle, *args, **kwargs):
            spawned.append(handle.index)
            raise RuntimeError("shard worker spawned")

        monkeypatch.setattr(WorkerHandle, "start", spawn)
        argv = ["serve", "--port", "0", "--serve-workers", "1", *flags]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {message}")
        assert len(out.splitlines()) == 1
        assert spawned == []

    @pytest.mark.parametrize("workers", [[], ["--serve-workers", "1"]])
    def test_serve_on_busy_port_reports_the_bind_error(
        self, capsys, workers
    ):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = str(busy.getsockname()[1])
            code = main(
                ["serve", "--scale", "0.05", "--port", port, *workers]
            )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and len(out.splitlines()) == 1

    def test_query_against_unreachable_server(self, capsys):
        code = main(
            ["query", "ping", "--port", "1", "--timeout", "0.5"]
        )
        assert code == 1
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is False

    def test_serve_query_round_trip(self, capsys):
        """`repro serve` + `repro query` end-to-end on the toy graph."""
        from repro.service import (
            ArtifactCache,
            BlockerService,
            default_registry,
            ServiceServer,
        )

        registry = default_registry(scale=0.05)
        service = BlockerService(
            registry=registry,
            cache=ArtifactCache(registry, max_entries=2),
        )
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        port = str(server.server_address[1])
        try:
            code = main(
                [
                    "query", "block", "--port", port, "--graph", "toy",
                    "--theta", "100", "--budget", "2", "--seeds", "0",
                ]
            )
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["ok"] is True
            result = response["result"]
            assert result["budget"] == 2
            assert result["spread_blocked"] <= result["spread_unblocked"]

            code = main(["query", "spread", "--port", port,
                         "--graph", "toy", "--theta", "100",
                         "--seeds", "0", "--blocked", "4"])
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["result"]["spread"] == pytest.approx(3.0)

            # --stats attaches the warm artifact's description — the
            # block query above warmed the sketch index, so the arena
            # and postings gauges must be live
            code = main(["query", "spread", "--port", port,
                         "--graph", "toy", "--theta", "100",
                         "--seeds", "0", "--stats"])
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["ok"] is True
            sketch_stats = response["artifact_stats"]["sketch"]
            assert sketch_stats["trees_built"] > 0
            assert sketch_stats["arena_bytes"] > 0
            assert sketch_stats["postings_bytes"] > 0

            # the direct per-artifact form of the stats op
            code = main(["query", "stats", "--port", port,
                         "--graph", "toy", "--theta", "100"])
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["result"]["sketch"] == sketch_stats

            code = main(["query", "shutdown", "--port", port])
            assert code == 0
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            server.server_close()


class TestThetaFlags:
    def test_eps_derives_theta_from_theorem5(self, capsys):
        code = main(
            [
                "spread",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--seeds", "2",
                "--rng", "1",
                "--engine", "sketch",
                "--eps", "0.5",
                "--ell", "0.5",
                "--max-theta", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "from Theorem 5" in out
        assert "eps=0.5" in out

    def test_theta_and_eps_conflict_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "spread",
                    "--dataset", "email-core",
                    "--scale", "0.08",
                    "--seeds", "2",
                    "--theta", "50",
                    "--eps", "0.3",
                ]
            )
        out = capsys.readouterr().out
        assert "either --theta or --eps" in out

    def test_block_accepts_eps(self, capsys):
        code = main(
            [
                "block",
                "--dataset", "email-core",
                "--scale", "0.08",
                "--budget", "2",
                "--seeds", "2",
                "--rng", "1",
                "--algorithm", "ag",
                "--engine", "sketch",
                "--eps", "0.5",
                "--max-theta", "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "from Theorem 5" in out
        assert "blockers=" in out


class TestUpdateVerb:
    def test_parse_edge_formats(self):
        from repro.cli import _parse_edge

        assert _parse_edge("0:5", False) == (0, 5)
        assert _parse_edge("0:5:0.3", True) == (0, 5, 0.3)
        with pytest.raises(ValueError, match="U:V"):
            _parse_edge("0:5:0.3", False)
        with pytest.raises(ValueError, match="U:V:P"):
            _parse_edge("0:5", True)
        with pytest.raises(ValueError):
            _parse_edge("a:b", False)

    def test_update_defaults(self):
        args = build_parser().parse_args(
            ["update", "--graph", "toy", "--delete", "0:1"]
        )
        assert args.graph == "toy"
        assert args.delete == ["0:1"]
        assert args.insert == [] and args.reweight == []
        assert args.seq is None

    def test_update_requires_an_edit(self, capsys):
        code = main(["update", "--graph", "toy"])
        assert code == 2
        assert "at least one" in capsys.readouterr().out

    def test_update_rejects_malformed_edge(self, capsys):
        code = main(
            ["update", "--graph", "toy", "--delete", "0:1:0.5"]
        )
        assert code == 2
        assert "U:V" in capsys.readouterr().out

    def test_update_round_trip(self, capsys):
        """`repro update` against a live server: apply, dup-ack."""
        from repro.service import (
            ArtifactCache,
            BlockerService,
            default_registry,
            ServiceServer,
        )

        registry = default_registry(scale=0.05)
        service = BlockerService(
            registry=registry,
            cache=ArtifactCache(registry, max_entries=2),
        )
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        port = str(server.server_address[1])
        try:
            code = main(["query", "spread", "--port", port,
                         "--graph", "toy", "--theta", "100",
                         "--seeds", "0"])
            assert code == 0
            before = json.loads(capsys.readouterr().out)

            code = main(["update", "--port", port, "--graph", "toy",
                         "--theta", "100", "--delete", "0:1",
                         "--seq", "1"])
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["applied"] is True
            assert response["seq"] == 1

            code = main(["query", "spread", "--port", port,
                         "--graph", "toy", "--theta", "100",
                         "--seeds", "0"])
            assert code == 0
            after = json.loads(capsys.readouterr().out)
            assert after["result"]["spread"] != \
                before["result"]["spread"]

            # an explicit resend of the same seq is acknowledged,
            # never double-applied
            code = main(["update", "--port", port, "--graph", "toy",
                         "--theta", "100", "--delete", "0:1",
                         "--seq", "1"])
            assert code == 0
            response = json.loads(capsys.readouterr().out)
            assert response["applied"] is False

            code = main(["query", "shutdown", "--port", port])
            assert code == 0
            thread.join(timeout=5)
        finally:
            server.server_close()
