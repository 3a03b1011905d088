"""Benchmark commands, run untraced or traced.

Both modes run the same code: ``motbench.cli.main`` for the CLI commands and
``motbench.deteval`` for the PR sweep.  A traced run wraps the public
functions that code looks up at call time (the names ``motbench.cli`` binds,
plus ``build_table``/``solve_identity`` in ``motbench.identity``) in
span-recording wrappers for the duration of one command, and takes its counts
from the wrappers' arguments and return values.  No tracing runs inside
motbench, and the traced run cannot drift from what the CLI does.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import motbench.assignment as assignment
import motbench.cli as cli
import motbench.deteval as deteval
import motbench.identity as identity
from motbench import Benchmark, SequenceData

PR_MODES = ("tracking_gt", "visible_only")


class Tracer:
    """Spans and counts kept in memory until the process writes them out.

    A span holds its name, wall start and end, its parent span, the unit
    label of the sequence it served and its busy time: the CPU time of its
    thread inside the span minus that of the spans nested in it.  A span
    opened on a thread with no open span (a pool worker) is a child of the
    root span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.root: int | None = None
        self.consumed: tuple[str, ...] = ()  # row kinds the running command reads
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, unit: str = ""):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else self.root
        frame = [span_id, 0.0]  # id, CPU time of the spans nested in this one
        stack.append(frame)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield span_id
        finally:
            end, total = time.perf_counter(), time.thread_time() - cpu
            stack.pop()
            if stack:
                stack[-1][1] += total
            with self._lock:
                self.spans.append({"id": span_id, "name": name, "parent": parent,
                                   "unit": unit, "start": start, "end": end,
                                   "cpu": total - frame[1]})

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)


def rescore_counts(dets) -> tuple[int, int]:
    """(frames re-scored, frames whose kept set changed) over a full PR sweep.

    Counted from the inputs: at each distinct score threshold the sweep
    re-scores every frame holding a detection at or above it, and that
    frame's kept set changed only if it holds a detection with exactly that
    score.
    """
    by_frame: dict[int, set[float]] = {}
    for d in dets:
        by_frame.setdefault(d.frame, set()).add(d.confidence)
    thresholds = sorted({d.confidence for d in dets})
    rescored = sum(bisect.bisect_right(thresholds, max(s)) for s in by_frame.values())
    return rescored, sum(len(s) for s in by_frame.values())


def _count_rows(tr: Tracer, args, seq_set) -> None:
    # A GT file shared by several detector partitions is parsed once.
    rows = {
        "gt": sum({u.data.name: len(u.data.gt) for u in seq_set.units}.values()),
        "res": sum(len(u.data.results) for u in seq_set.units),
        "det": sum(len(u.data.detections) for u in seq_set.units),
    }
    tr.add("ingest.rows", sum(rows.values()))
    tr.add("ingest.rows_used", sum(rows[k] for k in tr.consumed))


def _count_frames(tr: Tracer, args, frames) -> None:
    tr.add("assignment.frames", len(frames))


def _count_lsa(tr: Tracer, args, table) -> None:
    n, m = len(table.gt_lengths), len(table.pred_lengths)
    tr.peak("identity.lsa_dim", n + m)
    tr.add("identity.lsa_cells", n * m)
    tr.add("identity.co_pairs", len(table.co_detections))


def _count_sweep(tr: Tracer, args, curve) -> None:
    rescored, changed = rescore_counts(args[0])
    tr.add("deteval.thresholds", len(curve.points))
    tr.add("deteval.frame_rescores", rescored)
    tr.add("deteval.frame_changes", changed)


def _wrap(tr: Tracer, fn, name: str, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        unit = args[0].name if args and isinstance(args[0], SequenceData) else ""
        with tr.span(name, unit):
            out = fn(*args, **kwargs)
        if count:
            count(tr, args, out)
        return out
    return traced


# (module, attribute, span name, counter): every name the commands resolve.
# ``run_sequence`` preprocesses by itself when the caller did not (as in
# error-analysis), through ``motbench.assignment.preprocess_sequence``.
_TRACED = (
    (cli, "load_sequence_set", "ingest.load", _count_rows),
    (cli, "preprocess_sequence", "assignment.preprocess", _count_frames),
    (assignment, "preprocess_sequence", "assignment.preprocess", _count_frames),
    (cli, "run_sequence", "assignment.match", None),
    (cli, "accumulate", "clearmot.accumulate", None),
    (identity, "build_table", "identity.table", _count_lsa),
    (identity, "solve_identity", "identity.solve", None),
    (cli, "render_error_analysis", "cli.render", None),
    (deteval, "pr_curve", "deteval.pr", _count_sweep),
    (deteval, "export_curve", "cli.render", None),
)


@contextmanager
def tracing(tr: Tracer | None):
    """Wrap the traced functions for one command, under a root span."""
    if tr is None:
        yield
        return
    with ExitStack() as stack:
        for module, attr, name, count in _TRACED:
            fn = getattr(module, attr)
            stack.enter_context(mock.patch.object(module, attr, _wrap(tr, fn, name, count)))
        stack.enter_context(mock.patch.dict(cli._RENDERERS, {
            fmt: _wrap(tr, fn, "cli.render") for fmt, fn in cli._RENDERERS.items()}))
        with tr.span("command") as root:
            tr.root = root
            yield


def _consumes(tr: Tracer | None, *kinds: str) -> None:
    if tr:
        tr.consumed = kinds


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"motbench {argv[0]} exited with {rc}")


def sweep(cmd: dict, tr: Tracer | None) -> str:
    """PR curves in both GT modes for every detection set, then error-analysis."""
    _consumes(tr, "gt", "det")
    seq_set = cli.load_sequence_set(cmd["gt"], Benchmark(cmd["benchmark"]),
                                    results_root=cmd["res"])
    parts = []
    for unit in seq_set.units:
        for mode in PR_MODES:
            curve = deteval.pr_curve(unit.data.detections, unit.data.gt, mode=mode)
            parts.append(f"# {unit.label} {mode} ap={curve.ap!r}\n"
                         + deteval.export_curve(curve))
    _consumes(tr, "gt", "res", "det")
    out = Path(cmd["out"] + ".ea")
    _cli(["error-analysis", "--benchmark", cmd["benchmark"], "--gt", cmd["gt"],
          "--res", cmd["res"], "--format", cmd["format"], "--out", str(out)])
    parts.append(out.read_text(encoding="utf-8"))
    out.unlink()
    return "".join(parts)


def run(cmd: dict, tr: Tracer | None) -> None:
    """Run one command, traced when ``tr`` is given; it writes ``cmd["out"]``."""
    with tracing(tr):
        if cmd["kind"] == "sweep":
            Path(cmd["out"]).write_text(sweep(cmd, tr), encoding="utf-8")
            return
        _consumes(tr, "gt", "res")
        _cli(["evaluate", "--benchmark", cmd["benchmark"], "--gt", cmd["gt"],
              "--res", cmd["res"], "--jobs", str(cmd["jobs"]), "--format", cmd["format"],
              "--out", cmd["out"]])
