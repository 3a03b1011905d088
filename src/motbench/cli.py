"""Command-line front end: evaluate, validate, and error-analysis.

Reports carry one row per evaluated (sequence, detector) unit plus a pooled
OVERALL row computed from summed counts.  Rows are ordered by tracking
accuracy, best first, mirroring leaderboard tables.  Undefined metrics render
as ``N/A``; text and CSV print two decimals, JSON keeps full precision.

Exit codes: 0 success, 1 input error, 2 internal error.  Poor scores are
never an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .assignment import MatchingConfig, preprocess_sequence, run_sequence
from .clearmot import Counts, MetricsReport, accumulate, pool, summarize
from .identity import IdentityScores, evaluate_identity, pool_identity
from .ingest import (
    Benchmark,
    EvalUnit,
    IngestError,
    ParseError,
    SequenceSet,
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one evaluation run needs."""

    benchmark: Benchmark
    gt_root: Path
    results_root: Path
    output: Path | None = None
    out_format: str = "text"
    matching: MatchingConfig = MatchingConfig()
    strict: bool = True

    def __post_init__(self) -> None:
        if self.out_format not in ("text", "csv", "json"):
            raise ValueError(f"unknown output format {self.out_format!r}")


def _evaluate_unit(
    unit: EvalUnit, cfg: MatchingConfig
) -> tuple[str, Counts, IdentityScores]:
    table = preprocess_sequence(unit.data, cfg)
    log = run_sequence(unit.data, cfg, preprocessed=table)
    counts = accumulate(log)
    ident = evaluate_identity(table)
    return unit.label, counts, ident


def _with_identity(report: MetricsReport, ident: IdentityScores) -> MetricsReport:
    return dataclasses.replace(
        report, idf1=ident.idf1, idp=ident.idp, idr=ident.idr
    )


def evaluate_benchmark(seq_set: SequenceSet, cfg: RunConfig) -> list[MetricsReport]:
    """Evaluate every unit of a loaded benchmark and append the pooled row.

    Units are evaluated in order and reduced with an ordered fold.
    """
    results = [_evaluate_unit(unit, cfg.matching) for unit in seq_set.units]
    reports = [
        _with_identity(summarize(label, counts), ident)
        for label, counts, ident in results
    ]
    reports.sort(key=lambda r: (r.mota is None, -(r.mota or 0.0), r.name))
    if results:
        pooled_counts = pool(counts for _, counts, _ in results)
        pooled_ident = pool_identity(ident for _, _, ident in results)
        reports.append(_with_identity(summarize("OVERALL", pooled_counts), pooled_ident))
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


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")


def _load(cfg: RunConfig, read_detections: bool) -> SequenceSet:
    seq_set = load_sequence_set(
        cfg.gt_root, cfg.benchmark, results_root=cfg.results_root, strict=cfg.strict,
        read_detections=read_detections,
    )
    if not seq_set.units:
        raise IngestError(f"{cfg.gt_root / 'seqmap.txt'}: lists no sequence")
    return seq_set


def cmd_evaluate(cfg: RunConfig) -> int:
    reports = evaluate_benchmark(_load(cfg, read_detections=False), cfg)
    _emit(_RENDERERS[cfg.out_format](reports), cfg.output)
    return EXIT_OK


def cmd_validate(
    path: Path, benchmark: Benchmark, expected_sequences: list[str]
) -> int:
    report = validate_submission(path, expected_sequences, benchmark.variant)
    sys.stdout.write(report.summary() + "\n")
    return EXIT_OK if report.passed else EXIT_INPUT


def _detections_as_tracker(data: SequenceData) -> SequenceData:
    """Rebrand raw detections as a degenerate tracker, one id per box."""
    dets = data.detections
    pseudo = dataclasses.replace(dets, track_id=range(1, len(dets) + 1))
    return dataclasses.replace(data, results=pseudo, detections=())


def error_analysis(seq_set: SequenceSet, cfg: RunConfig) -> list[dict]:
    """Tracker-versus-detector error ratios, per unit plus pooled totals.

    Detector errors come from evaluating the provided detections as if they
    were a tracker, all of them, with no confidence gating.  Ratios above one
    mean the tracker makes more of that error than its detector.
    """
    missing = [unit.label for unit in seq_set.units if not unit.data.detections]
    if missing:
        raise IngestError(f"no detections available for: {', '.join(missing)}")

    def one(unit: EvalUnit) -> dict:
        tracker = accumulate(run_sequence(unit.data, cfg.matching))
        detector = accumulate(run_sequence(_detections_as_tracker(unit.data), cfg.matching))
        return {
            "sequence": unit.label,
            "fp_tracker": tracker.fp,
            "fp_detector": detector.fp,
            "fn_tracker": tracker.fn,
            "fn_detector": detector.fn,
        }

    rows = [one(unit) for unit in seq_set.units]
    rows.append({"sequence": "TOTAL", **{
        key: sum(r[key] for r in rows)
        for key in ("fp_tracker", "fp_detector", "fn_tracker", "fn_detector")}})
    for row in rows:
        for kind in ("fp", "fn"):
            detector = row[f"{kind}_detector"]
            row[f"{kind}_ratio"] = row[f"{kind}_tracker"] / detector if detector else None
    return rows


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


def cmd_error_analysis(cfg: RunConfig) -> int:
    rows = error_analysis(_load(cfg, read_detections=True), cfg)
    _emit(render_error_analysis(rows, cfg.out_format), cfg.output)
    return EXIT_OK


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
                       help="accepted for compatibility; has no effect, sequences "
                            "are evaluated one after another")
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


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        benchmark=Benchmark(args.benchmark),
        gt_root=args.gt,
        results_root=args.res,
        output=args.out,
        out_format=args.format,
        matching=MatchingConfig(iou_threshold=args.iou),
        strict=not args.lenient,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(_run_config(args))
        if args.command == "validate":
            if args.seqmap.suffix != ".txt" or not args.seqmap.is_file():
                raise IngestError(f"cannot read sequence map {args.seqmap}")
            try:
                expected = [name for name, _, _ in read_seqmap(args.seqmap)]
            except ParseError as err:
                raise IngestError(f"{args.seqmap}: {err}") from err
            if not expected:
                raise IngestError(f"{args.seqmap}: lists no sequence")
            detectors = Benchmark(args.benchmark).detectors
            if detectors:
                expected = [f"{n}-{d}" for n in expected for d in detectors]
            return cmd_validate(args.submission, Benchmark(args.benchmark), expected)
        if args.command == "error-analysis":
            return cmd_error_analysis(_run_config(args))
        raise AssertionError(f"unhandled command {args.command}")
    except (IngestError, ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
