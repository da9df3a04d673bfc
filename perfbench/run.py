"""Benchmark entry point.

    python3 perfbench/run.py --workload hopf --seed 1 --seconds 30 --trace 0

Runs one workload in a fresh worker process with the BLAS threads capped at
the CPUs this process may use, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (set-up time is the median over two set-up-only processes
and the worker itself); with --trace 1 they are the per-layer ones of a traced run.
Exits non-zero without a result when the source tree or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A worker process, killed if it outlives the deadline."""

    def __init__(self, args, extra, deadline):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> float:
        """Seconds from spawning the process to its 'ready' line."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError("worker did not get ready")
        return time.perf_counter() - self.t0

    def stop(self):
        self.timer.cancel()
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.stop()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="knotflows benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "knotflows" / "__init__.py").is_file():
        print(f"no knotflows source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = Worker(args, ["--setup-only"], deadline)
                setup.append(probe.ready())
                probe.finish()
        worker = Worker(args, [], deadline)
        setup.append(worker.ready())
        lines = worker.finish().strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(f"{args.workload}: {result['rounds']} round(s)", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
