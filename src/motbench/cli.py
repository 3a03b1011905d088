"""Command-line front end: evaluate, validate, and error-analysis.

:func:`main` is the whole front end: it checks the matching threshold and
``--jobs`` before any file is read, runs one task per sequence-map row,
renders the report and writes it to stdout or ``--out``.  A task loads one
row's files and evaluates every unit of that sequence.  With ``--jobs 1``
the tasks run one after another in this process; with ``--jobs N``,
``min(N, rows)`` forked child processes pull the rows, largest input first,
from one queue (in process where the platform cannot fork), and each child
holds one sequence in memory at a time.  Children send back only counts, the
repair warnings they logged and the error they met; these are replayed in
sequence-map order, up to the first error, so stdout and stderr are the same
bytes for any ``--jobs`` value.  A child that exits abnormally, killed or
with a non-zero status, ends the run with exit 2.

Reports carry one row per evaluated (sequence, detector) unit plus a pooled
OVERALL row computed from summed counts, the identity counts included.  Rows
are ordered by tracking accuracy, best first, mirroring leaderboard tables.
Both reports, the leaderboard and the error analysis, print through one
formatter: a row is a dict, JSON prints the rows, and text and CSV print
the columns of a list of ``(heading, key)`` pairs.  Undefined metrics render
as ``N/A``; text and CSV print two decimals, JSON keeps full precision.  CSV
quotes a cell that holds a comma, a double quote or a line break.

Exit codes: 0 success, 1 input error, 2 internal error (a child that exits
abnormally included).  Poor scores are never an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import pickle
import sys
from pathlib import Path

from .assignment import preprocess_sequence, run_sequence
from .clearmot import Counts, accumulate, pool, summarize
from .identity import evaluate_identity
from .ingest import (
    Benchmark,
    EvalUnit,
    IngestError,
    input_bytes,
    load_sequence_set,
    unit_frames,
    validate_submission,
)
from .model import Rows, SequenceData, _check_threshold

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

# (heading, row key) of each text and CSV column; JSON prints every key
REPORT_COLUMNS = [
    ("Sequence", "name"), ("MOTA", "mota"), ("IDF1", "idf1"), ("MOTP", "motp"),
    ("FAR", "far"), ("MT", "mt"), ("ML", "ml"), ("FP", "fp"), ("FN", "fn"),
    ("IDSW", "idsw"), ("FM", "fm"), ("IDSWR", "idswr"), ("FMR", "fmr"),
]
ERROR_COLUMNS = [
    ("Sequence", "sequence"), ("FP_trk", "fp_tracker"), ("FP_det", "fp_detector"),
    ("FP_ratio", "fp_ratio"), ("FN_trk", "fn_tracker"), ("FN_det", "fn_detector"),
    ("FN_ratio", "fn_ratio"),
]


def _evaluate_unit(unit: EvalUnit, iou_threshold: float) -> Counts:
    """The counts of one unit, its identity counts merged in."""
    table = preprocess_sequence(unit.data, iou_threshold)
    counts = accumulate(run_sequence(table))
    identity = evaluate_identity(table)
    return dataclasses.replace(counts, idtp=identity.idtp, idfp=identity.idfp,
                               idfn=identity.idfn)


def _leaderboard(units: list[tuple[str, Counts]]) -> list[dict]:
    """Rows per unit, best MOTA first, then the pooled OVERALL row; needs a unit.

    A row holds the fields of its ``MetricsReport``, in field order.
    """
    reports = [summarize(label, counts) for label, counts in units]
    reports.sort(key=lambda r: (r.mota is None, -(r.mota or 0.0), r.name))
    reports.append(summarize("OVERALL", pool([counts for _, counts in units])))
    return [vars(r) for r in reports]


def _cell(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _text_table(table: list[list[str]]) -> str:
    """Aligned columns: the first left-justified, the rest right-justified."""
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _csv_field(cell: str) -> str:
    """``cell`` quoted as RFC 4180 asks where it holds ``,``, ``"``, CR or LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _render(columns: list[tuple[str, str]], rows: list[dict], out_format: str) -> str:
    """The rows as JSON, or their ``columns`` as a text or CSV table."""
    if out_format == "json":
        return json.dumps(rows, indent=2) + "\n"
    table = [[heading for heading, _ in columns]]
    table += [[_cell(row[key]) for _, key in columns] for row in rows]
    if out_format == "csv":
        return "".join(",".join(map(_csv_field, line)) + "\n" for line in table)
    return _text_table(table)


_RENDERERS = {fmt: functools.partial(_render, REPORT_COLUMNS, out_format=fmt)
              for fmt in ("text", "csv", "json")}
render_error_analysis = functools.partial(_render, ERROR_COLUMNS)


def _detections_as_tracker(data: SequenceData) -> SequenceData:
    """Rebrand raw detections as a degenerate tracker, one id per box."""
    dets = data.detections
    pseudo = dataclasses.replace(dets, track_id=range(1, len(dets) + 1))
    return dataclasses.replace(data, results=pseudo, detections=Rows())


def _error_counts(unit: EvalUnit, iou_threshold: float) -> dict | None:
    """The FP and FN of the tracker and of the detector; None without detections.

    Detector errors come from evaluating the provided detections as if they
    were a tracker, all of them, with no confidence gating.
    """
    if not unit.data.detections:
        return None
    tracker, detector = (accumulate(run_sequence(preprocess_sequence(data, iou_threshold)))
                         for data in (unit.data, _detections_as_tracker(unit.data)))
    return {
        "sequence": unit.label,
        "fp_tracker": tracker.fp,
        "fp_detector": detector.fp,
        "fn_tracker": tracker.fn,
        "fn_detector": detector.fn,
    }


def _error_table(units: list[tuple[str, dict | None]]) -> list[dict]:
    """Tracker-versus-detector error ratios, per unit plus pooled totals.

    Ratios above one mean the tracker makes more of that error than its
    detector.  A unit without detections is an input error.
    """
    missing = [label for label, row in units if row is None]
    if missing:
        raise IngestError(f"no detections available for: {', '.join(missing)}")
    rows = [row for _, row in units]
    rows.append({"sequence": "TOTAL", **{
        key: sum(r[key] for r in rows)
        for key in ("fp_tracker", "fp_detector", "fn_tracker", "fn_detector")}})
    for row in rows:
        for kind in ("fp", "fn"):
            detector = row[f"{kind}_detector"]
            row[f"{kind}_ratio"] = row[f"{kind}_tracker"] / detector if detector else None
    return rows


def _sequence_task(gt: Path, res: Path, benchmark: Benchmark, strict: bool,
                   analysis: bool, iou_threshold: float, row: int) -> tuple[list, object]:
    """Load seqmap row ``row`` and evaluate its units, for error analysis or not.

    Returns the repair warnings the loading logged and either the units'
    ``(label, outcome)`` pairs or the error raised; the caller replays the
    one and raises the other.
    """
    records: list[logging.LogRecord] = []
    logger = logging.getLogger("motbench.ingest")
    logger.addFilter(records.append)  # a filter's false result stops the record
    try:
        seq_set = load_sequence_set(gt, benchmark, results_root=res, strict=strict,
                                    read_detections=analysis, rows=slice(row, row + 1))
        evaluate = _error_counts if analysis else _evaluate_unit
        outcome = [(unit.label, evaluate(unit, iou_threshold)) for unit in seq_set.units]
    except Exception as err:  # raised by the caller, in seqmap order
        outcome = err
    finally:
        logger.removeFilter(records.append)
    return records, outcome


def _forked(task, sizes: list[int], workers: int) -> list:
    """``task`` of every row, in row order, run in ``workers`` forked children.

    Forked, not spawned: a fresh interpreter would import numpy and the
    package again, which costs more than most sequences take to evaluate.
    The children pull row numbers, largest input first, from one pipe; each
    number is one 4-byte write, so no read gets part of one.  A child
    pickles its ``[(row, result), ...]`` into a pipe of its own and exits.
    The parent reads each child's pipe to its end, then reaps the child: one
    that exits other than with 0 raises :class:`RuntimeError`.  An exception
    in the parent kills and reaps the children first.
    """
    take_fd, give_fd = os.pipe()
    take, give = open(take_fd, "rb", buffering=0), open(give_fd, "wb", buffering=0)
    pipes = [take, give]  # every end the parent opened, closed on the way out
    children = {}  # pid: the read end of its result pipe, until it is reaped
    try:
        for _ in range(workers):
            receive_fd, send_fd = os.pipe()
            receive, send = open(receive_fd, "rb"), open(send_fd, "wb")
            pipes += receive, send
            pid = os.fork()
            if pid == 0:
                _work(task, take, give, send)
            send.close()
            children[pid] = receive
        try:
            for row in sorted(range(len(sizes)), key=lambda row: -sizes[row]):
                give.write(row.to_bytes(4, "little"))
        except BrokenPipeError:  # every child has exited; its status says why
            pass
        give.close()
        results = {}
        for pid, receive in list(children.items()):
            data = receive.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                raise RuntimeError(f"worker process {pid} " + (
                    f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"))
            results.update(pickle.loads(data))
        return [results[row] for row in range(len(sizes))]
    finally:
        for pipe in pipes:
            pipe.close()
        if children:  # left only by an exception
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _work(task, take, give, send) -> None:
    """A forked child: run ``task`` on each row it takes, send the results, exit."""
    code = 1
    try:
        give.close()  # the parent's end: EOF follows the last row
        done = []
        while record := take.read(4):
            row = int.from_bytes(record, "little")
            done.append((row, task(row)))
        with send:
            pickle.dump(done, send)
        code = 0
    finally:
        os._exit(code)


def _run_sequences(task, sizes: list[int], jobs: int) -> list[tuple[str, object]]:
    """Every unit's ``(label, outcome)`` in seqmap order, one ``task`` per row.

    With ``jobs`` above 1 and more than one row, the rows run in up to
    ``min(jobs, rows)`` forked children (:func:`_forked`); without fork,
    they run in process.  Each row's repair warnings are replayed before its
    outcome is read, and the first row's error in seqmap order is raised,
    after its warnings.
    """
    workers = min(jobs, len(sizes))
    if workers > 1 and hasattr(os, "fork"):
        results = _forked(task, sizes, workers)
    else:
        results = map(task, range(len(sizes)))
    units = []
    for records, outcome in results:
        for record in records:
            logging.getLogger(record.name).handle(record)
        if isinstance(outcome, Exception):
            raise outcome
        units += outcome
    return units


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motbench",
        description="Multi-object tracking benchmark evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--benchmark", required=True,
                       choices=[b.value for b in Benchmark])
        p.add_argument("--gt", required=True, type=Path,
                       help="benchmark root with seqmap.txt, gt/ and det/")
        p.add_argument("--res", required=True, type=Path,
                       help="directory with tracker result files")
        p.add_argument("--out", type=Path, default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", default="text", choices=["text", "csv", "json"])
        p.add_argument("--iou", type=float, default=0.5,
                       help="matching overlap threshold (default 0.5)")
        p.add_argument("--jobs", type=int, default=1,
                       help="evaluate sequences in up to N forked child processes "
                            "that pull them largest first, one each at a time "
                            "(default 1: in process); output is the same for any N, "
                            "and a child that exits abnormally ends the run with exit 2")
        p.add_argument("--lenient", action="store_true",
                       help="tolerate recoverable format deviations")

    p_eval = sub.add_parser("evaluate", help="compute all tracking metrics")
    add_common(p_eval)

    p_val = sub.add_parser("validate", help="check a submission archive or directory")
    p_val.add_argument("submission", type=Path)
    p_val.add_argument("--benchmark", required=True,
                       choices=[b.value for b in Benchmark])
    p_val.add_argument("--seqmap", required=True, type=Path,
                       help="sequence map listing the expected sequences")

    p_err = sub.add_parser("error-analysis",
                           help="tracker error counts relative to the detector")
    add_common(p_err)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        benchmark = Benchmark(args.benchmark)
        if args.command == "validate":
            report = validate_submission(args.submission, unit_frames(args.seqmap, benchmark),
                                         benchmark.variant)
            sys.stdout.write(report.summary() + "\n")
            return EXIT_OK if report.passed else EXIT_INPUT
        _check_threshold(args.iou)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        analysis = args.command == "error-analysis"
        sizes = input_bytes(args.gt, benchmark, results_root=args.res,
                            read_detections=analysis)
        task = functools.partial(_sequence_task, args.gt, args.res, benchmark,
                                 not args.lenient, analysis, args.iou)
        units = _run_sequences(task, sizes, args.jobs)
        if analysis:
            text = render_error_analysis(_error_table(units), args.format)
        else:
            text = _RENDERERS[args.format](_leaderboard(units))
        if args.out is None:
            sys.stdout.write(text)
        else:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text, encoding="utf-8")
        return EXIT_OK
    except (OSError, ValueError) as err:  # IngestError and ParseError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
