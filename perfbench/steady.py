"""Steadiness check: two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, at its
``run_seconds``, with distinct seeds (set k uses seeds 100k+1 .. 100k+10),
interleaving workloads so that a slow spell of the machine is shared out.
For every end-to-end metric it prints each set's median and quartiles, the
spread (q3 - q1) / median, and whether the metric is steady: every set's
spread within the bound, and the second set's median within the bound of
the first's, in either direction.  It also requires the same failed share
in both sets.  Exits 0 when everything agrees, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from run import DEADLINE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10                    # runs per workload in each set
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=DEADLINE_S + 10)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    # results[set][workload] -> list of run results
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for k in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                res = one_run(w, 100 * k + i + 1, spec["run_seconds"])
                results[k][w].append(res)
                print(f"set {k + 1} run {i + 1} {w}: failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    steady = True
    print(f"{'workload':15s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'worse':>7s}  verdict")
    for w in workloads:
        shares = {(sum(r["failed"] for r in s[w]), sum(r["attempted"] for r in s[w]))
                  for s in results}
        if len({f / a for f, a in shares}) != 1 or any(
                not r["correct"] for s in results for r in s[w]):
            steady = False
            print(f"{w}: failed shares differ or a check failed: {sorted(shares)}")
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for k, s in enumerate(results):
                vals = [r["metrics"][name]["value"] for r in s[w]]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                worse = (med - first) / first if lower else (first - med) / first
                ok = spread <= bound and abs(worse) <= bound
                steady &= ok
                note = "ok" if ok else "NOT STEADY"
                if ok and spread > bound / 3:
                    note = "ok (spread above a third of the bound)"
                print(f"{w:15s} {name:12s} {k + 1:3d} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{spread:7.3f} {bound:6.2f} {worse:+7.3f}  {note}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
