"""One workload in one fresh process: warm up, run the fixed job list, check it.

Started by ``run.py`` with the source tree on ``PYTHONPATH``.  A job's time
is the CPU time of this process; after each job the calibration task of
:mod:`pace` is timed the same way, and the end-to-end times are scaled to
the reference pace.  Each job's outputs are checked in a forked child.
Prints one JSON object as its last line: attempted and failed job counts
and either the end-to-end metrics (untraced) or the per-layer metrics
(traced), with the units BENCHMARK.json gives them.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import process_time

import numpy as np

import tracer as tracing
from pace import REFERENCE_MS, calibration_ms
from workloads import WORKLOADS

WARMUP_JOBS = 2
TAIL_BEYOND = 10             # jobs slower than the one job_tail_ms reports
HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def units() -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json at the root of the checkout names it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def checked(check, job, results) -> list[str]:
    """The names of the checks that fail, computed in a forked child so that
    what the checks allocate does not count toward this process's peak_rss_mb."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                bad = check(job, results)
            except Exception as exc:  # an output the check cannot even read is wrong
                bad = [f"check raised {exc!r}"]
            with os.fdopen(write, "w") as fh:
                json.dump(bad, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return [f"check process exited {os.waitstatus_to_exitcode(status)}"]
    return json.loads(data)


def job_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * WORKLOADS[workload][0]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    _, prepare, run, check = WORKLOADS[args.workload]
    jobs = job_count(args.workload, args.seconds)
    rng = random.Random(args.seed)
    nrng = np.random.default_rng(args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    spans = tracing.Tracer() if args.trace else None
    try:
        for _ in range(WARMUP_JOBS):
            run(prepare(rng, nrng, workdir))
        if spans is not None:
            spans.install()
        latencies, done_ms, calibration, failed, wrong = [], [], [], 0, 0
        for index in range(jobs):
            job = prepare(rng, nrng, workdir)
            gc.collect()
            if spans is not None:
                spans.trace = index
            start = process_time()
            try:
                results = run(job)
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                results, bad = None, [f"raised {exc!r}"]
            else:
                bad = []
            latencies.append(process_time() - start)
            if spans is not None:
                spans.trace = None
            calibration.append(calibration_ms())
            if not bad:
                bad = checked(check, job, results)
                wrong += bool(bad)
            del job, results     # so the next job's inputs and outputs do not sit beside these
            if bad:
                failed += 1
                print(f"job {index} failed: {', '.join(bad)}", file=sys.stderr)
            else:
                done_ms.append(latencies[-1] * 1e3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unit = units()
    ms = done_ms or [t * 1e3 for t in latencies]
    # the highest percentile with TAIL_BEYOND jobs beyond it; a run with fewer
    # than 4 * TAIL_BEYOND jobs has no tail, and its slowest job stands in
    if len(ms) >= 4 * TAIL_BEYOND:
        tail = sorted(ms)[-TAIL_BEYOND - 1]
        tail_name = f"p{100 - 100 * TAIL_BEYOND / len(ms):.1f}"
    else:
        tail, tail_name = max(ms), "max"
    # the mean rate scales by the calibration's mean time, the job time
    # percentiles by its median time: each against the reference pace
    mean_pace = statistics.mean(calibration) / REFERENCE_MS
    median_pace = statistics.median(calibration) / REFERENCE_MS
    values = {
        "jobs_per_s": len(done_ms) / sum(latencies) * mean_pace,
        "job_p50_ms": statistics.median(ms) / median_pace,
        "job_tail_ms": tail / median_pace,
        # this process only: imports, inputs and jobs; the checks ran in children
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"pace {mean_pace:.4f} (mean) {median_pace:.4f} (median); as measured: "
          f"jobs_per_s={len(done_ms) / sum(latencies):.4f} "
          f"job_p50_ms={statistics.median(ms):.4f} "
          f"job_tail_ms={tail:.4f} ({tail_name} of {len(ms)} jobs)", file=sys.stderr)
    if spans is not None:
        spans.write(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        print(f"traced jobs_per_s={values['jobs_per_s']:.4f}", file=sys.stderr)
        values = tracing.aggregate(spans.spans, jobs)
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in values.items()}
    # failed counts jobs that raised or whose outputs failed a check; correct
    # is false when any completed job's output was wrong
    print(json.dumps({"correct": wrong == 0, "attempted": jobs, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
