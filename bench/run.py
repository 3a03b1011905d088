"""motbench benchmark: seeded synthetic trees, closed-loop runs, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload mot17_evaluate --seed 1 --seconds 25 --trace 0

For the chosen workload the benchmark writes a seeded synthetic benchmark
tree, then runs the workload's command as a closed loop with one client: each
repetition starts only after the previous one finished, in a fresh child
interpreter (``child.py``), so set-up and peak memory are per invocation.
Every output is checked (``checks.py``); a non-zero exit or a failed check
counts as a failed operation.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median wall time
of one invocation after imports), ``rows_per_s`` (input rows the command
consumes per second of ``wall_s``), ``peak_rss_mb`` (median peak resident
memory of the child) and ``setup_s`` (median time from spawning a fresh
interpreter until ``motbench.cli`` is imported).  ``--trace 1`` alternates
untraced invocations with traced runs (``commands.py``) and reports the
per-layer metrics from the traced runs' spans, plus the tracing overhead.
A traced run is the same command with motbench's public functions wrapped in
span recorders.  Layer times are busy seconds: CPU time of the thread inside
the layer's spans, without the spans nested in them, summed over threads.
The ``model`` module (box types, IoU) has no span of its own: it runs inside
the spans of the layers that call it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the input sizes and the failure rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from gen import MOT17_DETECTORS, SeqSpec, TreeStats, write_tree  # noqa: E402

MIN_SAMPLES = 5  # invocations per run, even when they are slow
CHILD_TIMEOUT_S = 40  # a repetition takes seconds; keeps a run under 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "evaluate" or "sweep"
    benchmark: str
    jobs: int
    out_format: str
    specs: tuple[SeqSpec, ...]
    detectors: tuple[str, ...] = ()
    with_detections: bool = True


def _mot17() -> Workload:
    # How leaderboard users run the tool: 7 sequences x 3 detector partitions,
    # long tracks with rare switches, det files present (parsed, never read).
    # Ingest-bound, identity LSAs stay small, and it is the only workload that
    # runs the --jobs pool.  Sequences have 100 frames, a sixth of MOT17's, so
    # that about ten repetitions fit in one run.
    crowd = {"02": 20, "04": 45, "05": 8, "09": 25, "10": 30, "11": 12, "13": 35}
    specs = tuple(
        SeqSpec(f"MOT17-{k}", 100, c, (35, 100), None, switch_p=0.004, miss_p=0.12,
                fp_tracks=c, twin_p=0.003)
        for k, c in crowd.items()
    )
    return Workload("mot17_evaluate", "evaluate", "MOT17", 2, "text", specs, MOT17_DETECTORS)


def _fragmented() -> Workload:
    # Identity and matching stress: crowded scenes whose tracker emits ~3-frame
    # tracklets, so the dense identity LSA is thousands wide with few
    # co-detecting pairs, and carryover breaks every few frames so fresh
    # assignment solves dominate matching.  --jobs 1 bypasses the pool.
    specs = tuple(
        SeqSpec(f"MOT16-{k}", 250, 60, (125, 250), (2, 4), miss_p=0.05, fp_tracks=250,
                twin_p=0.01, width_share=0.5)
        for k in ("03", "08")
    )
    return Workload("fragmented_crowd", "evaluate", "MOT16", 1, "json", specs,
                    with_detections=False)


def _sweep() -> Workload:
    # Detector PR sweep in both GT modes on detection sets with continuous
    # scores at three densities, plus error-analysis on the same small tree.
    # The seed sweep is quadratic in detections, so sets are sized for seconds;
    # ingest and identity barely run, which makes this the bypass case for
    # identity and ingest changes.
    specs = tuple(
        SeqSpec(f"MOT16-{k}", frames, crowd, (frames // 3, frames), None, switch_p=0.01,
                det_boxes=300, twin_p=0.005)
        for k, frames, crowd in (("02", 60, 8), ("05", 30, 14), ("09", 20, 25))
    )
    return Workload("detector_sweep", "sweep", "MOT16", 1, "text", specs)


WORKLOADS = {w.name: w for w in (_mot17(), _fragmented(), _sweep())}

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "ingest.parse_s": "s", "ingest.rows": "count", "ingest.rows_per_s": "1/s",
    "ingest.rows_used_ratio": "ratio",
    "assignment.preprocess_s": "s", "assignment.match_s": "s", "assignment.frames": "count",
    "clearmot.accumulate_s": "s",
    "identity.table_s": "s", "identity.solve_s": "s", "identity.lsa_dim": "count",
    "identity.co_pairs": "count", "identity.useful_ratio": "ratio",
    "deteval.pr_s": "s", "deteval.thresholds": "count", "deteval.frame_rescores": "count",
    "deteval.rescore_useful_ratio": "ratio",
    "cli.render_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Session:
    """Child invocations of one benchmark run, with their operation counts."""

    def __init__(self, work: Path, workload: Workload, stats: TreeStats):
        self.work = work
        self.workload = workload
        self.stats = stats
        self.attempted = 0
        self.failed = 0
        self.calls = 0
        data = work / "data"
        self.command = {
            "kind": workload.kind, "benchmark": workload.benchmark, "jobs": workload.jobs,
            "format": workload.out_format, "gt": str(data), "res": str(data / "res"),
        }
        self.expected_points = (
            {label: checks.operating_points(data, label) for label in stats.res_boxes}
            if workload.kind == "sweep" else None
        )

    def child(self, mode: str, **command) -> tuple[dict, str] | None:
        """Run one child; returns (result, output) or None if it failed."""
        self.calls += 1
        out = self.work / f"out{self.calls}"
        spec_path = self.work / f"spec{self.calls}.json"
        result_path = self.work / f"result{self.calls}.json"
        spec = {"src": str(SRC), "mode": mode, "result": str(result_path),
                "command": {**self.command, **command, "out": str(out)}}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"{mode} child killed after {CHILD_TIMEOUT_S} s\n")
            return None
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(f"{mode} child exited with {proc.returncode}\n{proc.stderr}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup"] = result["ready"] - spawned
        text = out.read_text(encoding="utf-8")
        out.unlink()
        return result, text

    def op(self, problems: list[str]) -> bool:
        """Count one operation; it fails if there are problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            sys.stderr.write("".join(f"check failed: {p}\n" for p in problems))
        return not problems

    def check(self, text: str, out_format: str) -> list[str]:
        try:
            if self.workload.kind == "sweep":
                return checks.check_sweep(text, self.expected_points)
            if out_format == "json":
                return checks.check_json_report(text, self.stats)
            return checks.check_text_report(text, self.stats)
        except (ValueError, KeyError, IndexError, TypeError) as err:
            return [f"unreadable output: {err!r}"]

    def rep(self, mode: str, **command) -> tuple[dict, str] | None:
        """One checked invocation of the workload's command."""
        got = self.child(mode, **command)
        if got is None:
            self.op(["command failed"])
            return None
        result, text = got
        fmt = command.get("format", self.workload.out_format)
        return (result, text) if self.op(self.check(text, fmt)) else None


def input_rows(workload: Workload, stats: TreeStats) -> int:
    """Rows the command consumes: GT + results, or detections for the sweep."""
    if workload.kind == "sweep":
        return stats.det_rows
    return stats.gt_rows + stats.res_rows


def measure_end_to_end(s: Session, seconds: float) -> dict[str, float]:
    walls, setups, rss, first = [], [], [], None
    # Every invocation is also a set-up sample: its child is a fresh
    # interpreter that notes when ``motbench.cli`` is imported.
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(walls) < MIN_SAMPLES:
        got = s.rep("run")
        if got:
            walls.append(got[0]["wall"])
            setups.append(got[0]["setup"])
            rss.append(got[0]["maxrss_kb"] / 1024.0)
            first = first or got[1]
        elif s.failed >= 3:
            break

    if s.workload.jobs > 1 and first is not None:
        # Reports must be byte-identical at any --jobs value; checked once per run.
        got = s.child("run", jobs=1)
        s.op([] if got and got[1] == first else ["--jobs 1 report differs from --jobs 2"])
        # The text table has no TP or identity counts; check them on JSON once.
        s.rep("run", format="json")
    if not walls:
        return {}
    wall = statistics.median(walls)
    print(f"samples: {len(walls)} invocations, each also a set-up")
    print("wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
    print("setup_s samples: " + " ".join(f"{w:.3f}" for w in setups))
    return {
        "wall_s": wall,
        "rows_per_s": input_rows(s.workload, s.stats) / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }


def _self_time(spans: list[dict], root: dict) -> float:
    """Root wall time not covered by its direct children (intervals merged)."""
    covered, cur_start, cur_end = 0.0, None, None
    for sp in sorted((c for c in spans if c["parent"] == root["id"]), key=lambda c: c["start"]):
        if cur_end is None or sp["start"] > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = sp["start"], sp["end"]
        else:
            cur_end = max(cur_end, sp["end"])
    if cur_end is not None:
        covered += cur_end - cur_start
    return (root["end"] - root["start"]) - covered


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; times are busy (thread CPU) seconds."""
    spans, counts = result["spans"], result["counts"]

    def busy(name: str) -> float:
        return sum(sp["cpu"] for sp in spans if sp["name"] == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    root = next(sp for sp in spans if sp["parent"] is None)
    parse_s = busy("ingest.load")
    rows = counts.get("ingest.rows", 0)
    rescores = counts.get("deteval.frame_rescores", 0)
    return {
        "ingest.parse_s": parse_s,
        "ingest.rows": rows,
        "ingest.rows_per_s": ratio(rows, parse_s),
        "ingest.rows_used_ratio": ratio(counts.get("ingest.rows_used", 0), rows),
        "assignment.preprocess_s": busy("assignment.preprocess"),
        "assignment.match_s": busy("assignment.match"),
        "assignment.frames": counts.get("assignment.frames", 0),
        "clearmot.accumulate_s": busy("clearmot.accumulate"),
        "identity.table_s": busy("identity.table"),
        "identity.solve_s": busy("identity.solve"),
        "identity.lsa_dim": counts.get("identity.lsa_dim", 0),
        "identity.co_pairs": counts.get("identity.co_pairs", 0),
        "identity.useful_ratio": ratio(counts.get("identity.co_pairs", 0),
                                       counts.get("identity.lsa_cells", 0)),
        "deteval.pr_s": busy("deteval.pr"),
        "deteval.thresholds": counts.get("deteval.thresholds", 0),
        "deteval.frame_rescores": rescores,
        "deteval.rescore_useful_ratio": ratio(counts.get("deteval.frame_changes", 0), rescores),
        "cli.render_s": busy("cli.render"),
        "cli.self_s": _self_time(spans, root),
    }


def measure_per_layer(s: Session, seconds: float) -> dict[str, float]:
    # Untraced and traced runs go in pairs, alternating which runs first, so
    # that each pair's difference is the tracing overhead at one moment.
    diffs, layers = [], []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not layers:
        order = ("run", "trace") if len(diffs) % 2 == 0 else ("trace", "run")
        got = {mode: s.rep(mode) for mode in order}
        untraced, traced = got["run"], got["trace"]
        if traced:
            layers.append(layer_metrics(traced[0]))
        if untraced and traced:
            diffs.append(traced[0]["wall"] - untraced[0]["wall"])
            # The traced run must write exactly what the untraced one writes.
            s.op([] if traced[1] == untraced[1] else ["traced output differs"])
        if not diffs and s.failed >= 3:
            break
    if not diffs:
        return {}
    print(f"samples: {len(diffs)} pairs of untraced and traced runs")
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = overhead = statistics.median(diffs)
    note = "unresolved: fewer than two pairs"
    if len(diffs) > 1:
        q1, _, q3 = statistics.quantiles(diffs, n=4)
        note = f"pairs' quartiles {q1:.4f} .. {q3:.4f} s"
        if q1 <= 0.0 <= q3:
            note = "unresolved: the " + note + " include 0"
    print(f"tracing overhead: {overhead:.4f} s, median of paired traced-minus-untraced "
          f"walls ({note})")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motbench" / "cli.py").is_file():
        print(f"error: motbench sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stats = write_tree(work / "data", args.seed, list(workload.specs), workload.detectors,
                           workload.with_detections)
        session = Session(work, workload, stats)
        print(f"workload {workload.name}, seed {args.seed}; one client, closed loop")
        print("input: " + ", ".join(f"{k}={v}" for k, v in stats.summary().items())
              + f", rows consumed={input_rows(workload, stats)}")
        if args.trace:
            metrics, units = measure_per_layer(session, args.seconds), PER_LAYER_UNITS
        else:
            metrics, units = measure_end_to_end(session, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if not metrics:
        print("error: no repetition succeeded", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    fail_rate = session.failed / session.attempted
    print(f"fail_rate: {fail_rate:.6g} ({session.failed} of {session.attempted} operations)")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
