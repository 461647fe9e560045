"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload lattice-exact --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the tree holding ``src/deconv``).
With ``--trace 0`` it runs the workload untraced in a fresh worker process
and takes the CPU time of fresh interpreter start-ups before and after it
(``setup_s``, scaled to the reference pace of :mod:`pace`); with
``--trace 1`` the worker wraps deconv's public functions in spans and
reports per-layer metrics instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the source tree is missing, and 1 when the
worker fails or overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from pace import REFERENCE_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOADS = ("lattice-exact", "spectral-float", "cli-files")
SETUP_PROBES = 16            # fresh start-ups per run, half before the worker and half
                             # after it; setup_s is their median
DEADLINE_S = 175.0           # a run must end within 180 s; this leaves 5 s to stop and report

# Pinned for every child: one hash seed, so dict and set layouts do not vary
# between runs, and one thread for numpy's BLAS and OpenMP pools, so the
# import does not start thread pools and the workload stays single-threaded.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The child takes its CPU time right after the imports: the work of starting
# the interpreter and importing, without interpreter tear-down and without
# the time the host spends elsewhere.  Then it times the calibration task,
# so that the start-up is scaled by the pace of the same fresh process.
PROBE = ("import deconv, deconv.cli, time; start_up = time.process_time(); import pace; "
         "print(start_up, *[pace.calibration_ms() for _ in range(5)])")


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    paths = [SOURCE, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def startup_times(env: dict, deadline: float, count: int) -> list[list[float]]:
    """For each fresh interpreter: its CPU time in s up to deconv and deconv.cli
    imported, then its calibration times in ms."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
        times.append([float(x) for x in out.stdout.split()])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the job count: seconds x the workload's nominal rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SOURCE, "deconv", "__init__.py")):
        print(f"error: no deconv source tree at {SOURCE}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        # the first start-up fills the bytecode cache and is not counted; the
        # rest are split around the worker so that they see more of the host
        probes = 0 if args.trace else SETUP_PROBES // 2
        startup_times(env, deadline, min(probes, 1))
        setup = startup_times(env, deadline, probes)
        # its own process group, so that an overrun also stops the children
        # it forks to check outputs
        worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, _ = worker.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
        setup += startup_times(env, deadline, probes)
    except subprocess.TimeoutExpired:
        print("error: the run overran its deadline", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: a start-up probe exited {exc.returncode}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"error: the worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup:
        start_up = statistics.median(t[0] for t in setup)
        pace = statistics.median(ms for t in setup for ms in t[1:]) / REFERENCE_MS
        print(f"setup pace {pace:.4f}; as measured: setup_s={start_up:.4f}", file=sys.stderr)
        result["metrics"]["setup_s"] = {"value": start_up / pace, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
