"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 bench/spread.py --workloads mot17_evaluate --seeds 1-5 --trace 0
    python3 bench/spread.py --seeds 1-10 --sets 2 --trace 0 1 --record "label"

With ``--sets N`` it makes N sets of runs of the same code, set k using the
seed range shifted by k times its length, and interleaves them run by run
(and workload by workload), so that a change in the machine's speed over the
session hits every set alike.  For every workload and metric it prints each
set's median, quartiles and interquartile distance as a share of the median,
next to the metric's bound from ``BENCHMARK.json``, and how far each later
set's median lies from the first set's.  ``--record`` appends the medians of
every metric and workload over all sets to ``bench/baseline.json`` under the
given label, so later changes can be compared with an earlier commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict | None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def _better(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative: b is better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1, help="interleaved sets of runs")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--record", metavar="LABEL", help="append medians to baseline.json")
    args = parser.parse_args()

    e2e = {m["name"]: m for m in config["end_to_end"]}
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",")
    # runs[workload][set] = metrics of each run, in run order
    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    failed, started, count = False, time.monotonic(), 0
    for k, seed in enumerate(seeds):
        for trace in args.trace:
            for workload in workloads:
                # Per-layer metrics have no bound, so one set of them is enough.
                for set_no in range(args.sets if trace == 0 else 1):
                    result = _run(workload, seed + set_no * len(seeds), trace,
                                  config["run_seconds"])
                    count += 1
                    failed |= result is None or not result["correct"]
                    if result:
                        runs[workload][set_no].append(result["metrics"])
        print(f"seed {k + 1} of {len(seeds)} done, "
              f"{(time.monotonic() - started) / count:.1f} s per run", flush=True)

    entry = {"label": args.record, "machine": f"{platform.machine()}, "
             f"{os.cpu_count()} cpus, Python {platform.python_version()}",
             "seeds": f"{seeds[0]}-{seeds[-1] + (args.sets - 1) * len(seeds)} "
                      f"(per-layer: {seeds[0]}-{seeds[-1]})",
             "run_seconds": config["run_seconds"], "workloads": {}}
    for workload in workloads:
        sets = runs[workload]
        medians = entry["workloads"].setdefault(workload, {})
        for name in dict.fromkeys(k for s in sets for r in s for k in r):
            values = [[r[name]["value"] for r in s if name in r] for s in sets]
            pooled = [v for s in values for v in s]
            unit = next(r[name]["unit"] for s in sets for r in s if name in r)
            medians[name] = {"value": statistics.median(pooled), "unit": unit}
            if name not in e2e:
                print(f"{workload:18} {name:30} median {statistics.median(pooled):.6g}")
                continue
            bound = e2e[name]["bound"]
            first = None
            for set_no, vals in enumerate(values):
                if len(vals) < 2:
                    continue
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line = (f"{workload:18} {name:12} set {set_no + 1}  median {med:.6g}  "
                        f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f} "
                        f"({'ok' if spread < bound / 3 else 'WIDE'} vs bound/3)")
                if first is None:
                    first = med
                else:
                    worse = _better(first, med, e2e[name]["better"])
                    line += (f"  worse than set 1 by {worse:+.3f} "
                             f"({'ok' if abs(worse) <= bound else 'OUT'} vs bound {bound})")
                print(line + f"  n={len(vals)}")
    if args.record:
        path = BENCH / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
        baseline.append(entry)
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
