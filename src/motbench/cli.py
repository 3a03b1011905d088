"""Command-line front end: evaluate, validate, and error-analysis.

:func:`main` is the whole front end: it checks the matching threshold and
``--jobs`` before any file is read, runs one task per sequence-map row,
renders the report and writes it to stdout or ``--out``.  A task loads one
row's files and evaluates every unit of that sequence.  With ``--jobs 1``
the tasks run one after another in this process; with ``--jobs N`` they run
in up to ``min(N, rows)`` forked worker processes (in process where the
platform cannot fork), largest input first, and each worker holds one
sequence in memory at a time.  Workers send back only counts, the repair
warnings they logged and the error they met; these are replayed in
sequence-map order, up to the first error, so stdout and stderr are the same
bytes for any ``--jobs`` value.

Reports carry one row per evaluated (sequence, detector) unit plus a pooled
OVERALL row computed from summed counts, the identity counts included.  Rows
are ordered by tracking accuracy, best first, mirroring leaderboard tables.
Undefined metrics render as ``N/A``; text and CSV print two decimals, JSON
keeps full precision.

Exit codes: 0 success, 1 input error, 2 internal error (a worker process
that dies included).  Poor scores are never an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

from .assignment import MatchingConfig, preprocess_sequence, run_sequence
from .clearmot import Counts, MetricsReport, accumulate, pool, summarize
from .identity import evaluate_identity
from .ingest import (
    Benchmark,
    EvalUnit,
    IngestError,
    ParseError,
    input_bytes,
    load_sequence_set,
    read_seqmap,
    validate_submission,
)
from .model import SequenceData

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

REPORT_COLUMNS = (
    "MOTA", "IDF1", "MOTP", "FAR", "MT", "ML",
    "FP", "FN", "IDSW", "FM", "IDSWR", "FMR",
)


def _evaluate_unit(unit: EvalUnit, cfg: MatchingConfig) -> Counts:
    """The counts of one unit, its identity counts merged in."""
    table = preprocess_sequence(unit.data, cfg)
    counts = accumulate(run_sequence(unit.data, cfg, preprocessed=table))
    identity = evaluate_identity(table)
    return dataclasses.replace(counts, idtp=identity.idtp, idfp=identity.idfp,
                               idfn=identity.idfn)


def _leaderboard(units: list[tuple[str, Counts]]) -> list[MetricsReport]:
    """Rows per unit, best MOTA first, then the pooled OVERALL row; needs a unit."""
    reports = [summarize(label, counts) for label, counts in units]
    reports.sort(key=lambda r: (r.mota is None, -(r.mota or 0.0), r.name))
    reports.append(summarize("OVERALL", pool([counts for _, counts in units])))
    return reports


def _cell(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _report_row(r: MetricsReport) -> list[str]:
    return [
        r.name,
        _cell(r.mota), _cell(r.idf1), _cell(r.motp), _cell(r.far),
        _cell(r.mt), _cell(r.ml), _cell(r.fp), _cell(r.fn),
        _cell(r.idsw), _cell(r.fm), _cell(r.idswr), _cell(r.fmr),
    ]


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    """Aligned columns: the first left-justified, the rest right-justified."""
    table = [header, *rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render_text(reports: list[MetricsReport]) -> str:
    return _text_table(["Sequence", *REPORT_COLUMNS], [_report_row(r) for r in reports])


def render_csv(reports: list[MetricsReport]) -> str:
    lines = [",".join(["Sequence", *REPORT_COLUMNS])]
    lines += [",".join(_report_row(r)) for r in reports]
    return "\n".join(lines) + "\n"


def render_json(reports: list[MetricsReport]) -> str:
    payload = []
    for r in reports:
        row = dataclasses.asdict(r)
        row["mt_ratio"] = r.mt_ratio
        row["ml_ratio"] = r.ml_ratio
        payload.append(row)
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"text": render_text, "csv": render_csv, "json": render_json}


def _detections_as_tracker(data: SequenceData) -> SequenceData:
    """Rebrand raw detections as a degenerate tracker, one id per box."""
    dets = data.detections
    pseudo = dataclasses.replace(dets, track_id=range(1, len(dets) + 1))
    return dataclasses.replace(data, results=pseudo, detections=())


def _error_counts(unit: EvalUnit, cfg: MatchingConfig) -> dict | None:
    """The FP and FN of the tracker and of the detector; None without detections.

    Detector errors come from evaluating the provided detections as if they
    were a tracker, all of them, with no confidence gating.
    """
    if not unit.data.detections:
        return None
    tracker = accumulate(run_sequence(unit.data, cfg))
    detector = accumulate(run_sequence(_detections_as_tracker(unit.data), cfg))
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
                   analysis: bool, cfg: MatchingConfig, row: int) -> tuple[list, object]:
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
        outcome = [(unit.label, evaluate(unit, cfg)) for unit in seq_set.units]
    except Exception as err:  # raised by the caller, in seqmap order
        outcome = err
    finally:
        logger.removeFilter(records.append)
    return records, outcome


def _forked_map(task, sizes: list[int], workers: int):
    """``task`` of every row in ``workers`` forked processes, largest row first.

    Results come back in row order, after every worker has exited.  Without
    fork, the rows run in process.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return map(task, range(len(sizes)))
    order = sorted(range(len(sizes)), key=lambda row: -sizes[row])
    # fork, not spawn: a spawned worker would import numpy and the package
    # again, which costs more than most sequences take to evaluate
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as executor:
        done = list(executor.map(task, order))
    results = [None] * len(sizes)
    for row, result in zip(order, done):
        results[row] = result
    return results


def _run_sequences(task, sizes: list[int], jobs: int) -> list[tuple[str, object]]:
    """Every unit's ``(label, outcome)`` in seqmap order, one ``task`` per row.

    Each row's repair warnings are replayed before its outcome is read, and
    the first row's error in seqmap order is raised, after its warnings.
    """
    workers = min(jobs, len(sizes))
    if workers > 1:
        results = _forked_map(task, sizes, workers)
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


def render_error_analysis(rows: list[dict], out_format: str) -> str:
    header = ["Sequence", "FP_trk", "FP_det", "FP_ratio", "FN_trk", "FN_det", "FN_ratio"]
    if out_format == "json":
        return json.dumps(rows, indent=2) + "\n"
    table = [
        [
            row["sequence"],
            str(row["fp_tracker"]), str(row["fp_detector"]), _cell(row["fp_ratio"]),
            str(row["fn_tracker"]), str(row["fn_detector"]), _cell(row["fn_ratio"]),
        ]
        for row in rows
    ]
    if out_format == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in table]) + "\n"
    return _text_table(header, table)


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
                       help="evaluate sequences in up to N forked worker processes, "
                            "one sequence each at a time (default 1: in process); "
                            "output is the same for any N")
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
            if args.seqmap.suffix != ".txt" or not args.seqmap.is_file():
                raise IngestError(f"cannot read sequence map {args.seqmap}")
            try:
                expected = [name for name, _, _ in read_seqmap(args.seqmap)]
            except ParseError as err:
                raise IngestError(f"{args.seqmap}: {err}") from err
            if not expected:
                raise IngestError(f"{args.seqmap}: lists no sequence")
            if benchmark.detectors:
                expected = [f"{n}-{d}" for n in expected for d in benchmark.detectors]
            report = validate_submission(args.submission, expected, benchmark.variant)
            sys.stdout.write(report.summary() + "\n")
            return EXIT_OK if report.passed else EXIT_INPUT
        cfg = MatchingConfig(iou_threshold=args.iou)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        analysis = args.command == "error-analysis"
        sizes = input_bytes(args.gt, benchmark, results_root=args.res,
                            read_detections=analysis)
        if not sizes:
            raise IngestError(f"{args.gt / 'seqmap.txt'}: lists no sequence")
        task = functools.partial(_sequence_task, args.gt, args.res, benchmark,
                                 not args.lenient, analysis, cfg)
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
    except (IngestError, ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
