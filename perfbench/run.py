"""The repository's benchmark: one command, three serving workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spread-read --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: the server
(``repro-imin serve --serve-workers 1``, no cache dir, so every set-up
is a cold build) runs in its own process and this process drives it
over at most two connections.  ``--trace 1`` is the separate per-layer
run: the same stream untraced and then traced (the server's own
``service.*`` / ``frontend.route`` spans against client wall time),
followed by an in-process replay through the public engine API that
times each layer.  Both runs check every served answer against that
replay, bit for bit, and exit non-zero on a mismatch.

Human-readable lines go to stdout first; the last line is the JSON
result.  Metric names and units come from ``BENCHMARK.json``.  Work
files (edge lists, the compiled native kernel, temp files, the server
log) live under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return _fail("run from the root of a checkout (no src/repro here)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.harness import run

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(workloads.WORKLOADS))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
