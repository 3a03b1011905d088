"""Evaluation engine for multi-object tracking benchmarks.

Parses the benchmark's comma-separated ground-truth, detection, and result
files, runs the frame-by-frame target assignment protocol, and computes the
full frame-level (MOTA, MOTP), identity (IDF1), track-coverage (MT/PT/ML,
fragmentations), and detector (PR, AP) metric families, with benchmark-level
pooling and leaderboard reporting.
"""

from .assignment import (
    EdgeTable,
    EventLog,
    preprocess_sequence,
    run_sequence,
)
from .clearmot import (
    Counts,
    MetricsReport,
    accumulate,
    mota,
    motp,
    pool,
    summarize,
)
from .deteval import PRCurve, PRPoint, export_curve, pr_curve
from .identity import (
    IdentityScores,
    TrackMatchTable,
    build_table,
    evaluate_identity,
    solve_identity,
)
from .ingest import (
    Benchmark,
    EvalUnit,
    FileKind,
    FormatVariant,
    IngestError,
    ParseError,
    SequenceSet,
    ValidationReport,
    load_sequence_set,
    parse_file,
    read_seqmap,
    validate_submission,
    write_result_file,
)
from .model import (
    NEUTRAL_CLASSES,
    ObjectClass,
    Rows,
    SequenceData,
)

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "Counts",
    "EdgeTable",
    "EvalUnit",
    "EventLog",
    "FileKind",
    "FormatVariant",
    "IdentityScores",
    "IngestError",
    "MetricsReport",
    "NEUTRAL_CLASSES",
    "ObjectClass",
    "PRCurve",
    "PRPoint",
    "ParseError",
    "Rows",
    "SequenceData",
    "SequenceSet",
    "TrackMatchTable",
    "ValidationReport",
    "accumulate",
    "build_table",
    "evaluate_identity",
    "export_curve",
    "load_sequence_set",
    "mota",
    "motp",
    "parse_file",
    "pool",
    "pr_curve",
    "preprocess_sequence",
    "read_seqmap",
    "run_sequence",
    "solve_identity",
    "summarize",
    "validate_submission",
    "write_result_file",
]
