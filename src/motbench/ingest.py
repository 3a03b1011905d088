"""Reading and writing the benchmark's comma-separated file formats.

Two line layouts exist.  The older 10-column variant ends with three world
coordinates that 2D evaluation reads and discards; the newer 9-column variant
ends with a class code and a visibility ratio instead:

    10 columns:  frame, id, left, top, width, height, conf, x, y, z
     9 columns:  frame, id, left, top, width, height, conf, class, visibility

For detections the 7th column is the detector score and the id column is -1.
For ground truth and results the 7th column is a 0/1 flag that marks whether
the entry is considered by the evaluation.  All coordinates are 1-based; no
origin shift is applied anywhere downstream.

Whitespace around commas is tolerated (published sample files contain it).
Strict parsing demands the exact column count of the declared variant; lenient
parsing accepts 7 to 10 columns, downgrades unknown class codes to
``ObjectClass.OTHER`` and clamps out-of-range visibility values, logging each
repair.
"""

from __future__ import annotations

import logging
import math
import zipfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

from .model import Box, BoxEntry, ObjectClass, SequenceData

logger = logging.getLogger(__name__)

MOT17_DETECTORS = ("DPM", "FRCNN", "SDP")


class FormatVariant(Enum):
    MOT15 = "MOT15"        # 10 columns, trailing x, y, z
    MOT16_17 = "MOT16_17"  # 9 columns, class + visibility

    @property
    def columns(self) -> int:
        return 10 if self is FormatVariant.MOT15 else 9


class FileKind(Enum):
    DETECTION = "det"
    GROUND_TRUTH = "gt"
    RESULT = "result"


@dataclass(frozen=True)
class FormatSchema:
    variant: FormatVariant
    kind: FileKind

    @property
    def columns(self) -> int:
        return self.variant.columns


class Benchmark(Enum):
    MOT15 = "MOT15"
    MOT16 = "MOT16"
    MOT17 = "MOT17"

    @property
    def variant(self) -> FormatVariant:
        return FormatVariant.MOT15 if self is Benchmark.MOT15 else FormatVariant.MOT16_17

    @property
    def detectors(self) -> tuple[str, ...]:
        """Detector partitions; empty for benchmarks with a single result set."""
        return MOT17_DETECTORS if self is Benchmark.MOT17 else ()


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class IngestError(ValueError):
    """Missing or inconsistent files in a sequence-set directory."""


def _as_text(source: str | bytes | IO | Path) -> str:
    """The text of a file, path, stream or buffer.

    Raises :class:`ParseError` with the 1-based line of the first byte that
    is not UTF-8.
    """
    if isinstance(source, Path):
        source = source.read_bytes()
    elif hasattr(source, "read"):
        source = source.read()
    if not isinstance(source, bytes):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = source.count(b"\n", 0, err.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{source[err.start]:02x}", line_no) from None


def _number(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"malformed number {token!r} in {what} field", line_no) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r} in {what} field", line_no)
    return value


def _integer(token: str, line_no: int, what: str) -> int:
    value = _number(token, line_no, what)
    if value != int(value):
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no)
    return int(value)


def parse_file(
    source: str | bytes | IO | Path,
    schema: FormatSchema,
    strict: bool = True,
) -> list[BoxEntry]:
    """Parse one annotation, detection, or result file into entries.

    Raises :class:`ParseError` with a line number on malformed numbers, wrong
    column counts (strict mode), non-positive box extents, or duplicate
    (frame, id) pairs in ground-truth/result files.  Blank lines are skipped.
    """
    entries: list[BoxEntry] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(_as_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if strict:
            if len(tokens) != schema.columns:
                raise ParseError(
                    f"expected {schema.columns} columns for {schema.variant.value}, "
                    f"got {len(tokens)}",
                    line_no,
                )
        elif not 7 <= len(tokens) <= 10:
            raise ParseError(f"expected 7 to 10 columns, got {len(tokens)}", line_no)

        frame = _integer(tokens[0], line_no, "frame")
        if frame < 1:
            raise ParseError(f"frame index must be >= 1, got {frame}", line_no)
        track_id = _integer(tokens[1], line_no, "id")
        left = _number(tokens[2], line_no, "left")
        top = _number(tokens[3], line_no, "top")
        width = _number(tokens[4], line_no, "width")
        height = _number(tokens[5], line_no, "height")
        if width <= 0 or height <= 0:
            raise ParseError(
                f"non-positive box extent width={width} height={height}", line_no
            )
        confidence = _number(tokens[6], line_no, "confidence")

        object_class = ObjectClass.PEDESTRIAN
        visibility = 1.0
        if schema.kind is FileKind.GROUND_TRUTH and schema.variant is FormatVariant.MOT16_17:
            if len(tokens) >= 8:
                code = _integer(tokens[7], line_no, "class")
                try:
                    object_class = ObjectClass(code)
                    if object_class is ObjectClass.OTHER:
                        raise ValueError
                except ValueError:
                    if strict:
                        raise ParseError(f"unknown class code {code}", line_no) from None
                    logger.warning("line %d: unknown class code %d, using OTHER", line_no, code)
                    object_class = ObjectClass.OTHER
            if len(tokens) >= 9:
                visibility = _number(tokens[8], line_no, "visibility")
                if not 0.0 <= visibility <= 1.0:
                    if strict:
                        raise ParseError(
                            f"visibility {visibility} outside [0, 1]", line_no
                        )
                    logger.warning("line %d: clamping visibility %g", line_no, visibility)
                    visibility = min(1.0, max(0.0, visibility))
        # The 10-column layout's world coordinates and the class/visibility
        # columns of non-GT files are read and discarded.

        if schema.kind is not FileKind.DETECTION and track_id >= 0:
            key = (frame, track_id)
            if key in seen:
                raise ParseError(f"duplicate (frame, id) pair {key}", line_no)
            seen.add(key)

        entries.append(
            BoxEntry(
                frame=frame,
                track_id=track_id,
                box=Box(left, top, width, height),
                confidence=confidence,
                object_class=object_class,
                visibility=visibility,
            )
        )
    return entries


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips; integral values print without '.0'."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def write_result_file(
    entries: Iterable[BoxEntry],
    variant: FormatVariant = FormatVariant.MOT16_17,
) -> str:
    """Serialize result entries, sorted by (frame, id), one row per entry.

    Unknown trailing fields are written as -1.  Entries with a negative track
    id are rejected: writers must supply assigned identities.
    """
    rows = []
    for e in sorted(entries, key=lambda e: (e.frame, e.track_id)):
        if e.track_id < 0:
            raise ValueError(
                f"result entry at frame {e.frame} has unassigned track id {e.track_id}"
            )
        fields = [
            str(e.frame),
            str(e.track_id),
            _fmt(e.box.left),
            _fmt(e.box.top),
            _fmt(e.box.width),
            _fmt(e.box.height),
            _fmt(e.confidence),
        ]
        fields += ["-1", "-1", "-1"] if variant is FormatVariant.MOT15 else ["-1", "-1"]
        rows.append(",".join(fields))
    return "\n".join(rows) + ("\n" if rows else "")


@dataclass
class ValidationReport:
    """Outcome of checking a submission archive or directory."""

    expected: list[str]
    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    file_errors: dict[str, list[str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.missing and not self.extra and not self.file_errors

    def summary(self) -> str:
        lines = []
        for name in self.missing:
            lines.append(f"missing sequence: {name}")
        for name in self.extra:
            lines.append(f"unexpected file: {name}")
        for name, errors in sorted(self.file_errors.items()):
            for err in errors:
                lines.append(f"{name}: {err}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _submission_files(path: Path) -> tuple[dict[str, bytes], list[str]]:
    """'<stem>.txt' basenames mapped to contents, plus duplicated basenames."""
    files: dict[str, bytes] = {}
    duplicates: list[str] = []
    if zipfile.is_zipfile(path):
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if info.is_dir():
                    continue
                base = Path(info.filename).name
                if not base.endswith(".txt") or base.startswith("."):
                    continue
                if base in files:
                    duplicates.append(base)
                files[base] = archive.read(info)
    elif path.is_dir():
        for child in sorted(path.iterdir()):
            if child.is_file() and child.suffix == ".txt":
                files[child.name] = child.read_bytes()
    else:
        raise IngestError(f"{path} is neither a zip archive nor a directory")
    return files, sorted(set(duplicates))


def validate_submission(
    archive_or_dir: str | Path,
    expected_sequences: Sequence[str],
    variant: FormatVariant = FormatVariant.MOT16_17,
) -> ValidationReport:
    """Check packaging rules: one well-formed '<Sequence-Name>.txt' per sequence.

    Content problems never raise; they are recorded in the report.  Only an
    unreadable path raises.
    """
    path = Path(archive_or_dir)
    if not path.exists():
        raise IngestError(f"submission path does not exist: {path}")
    files, duplicates = _submission_files(path)
    report = ValidationReport(expected=list(expected_sequences))
    for name in duplicates:
        report.file_errors.setdefault(name, []).append(
            "file name appears more than once in the archive"
        )
    expected_names = {f"{seq}.txt" for seq in expected_sequences}
    report.missing = sorted(
        seq for seq in expected_sequences if f"{seq}.txt" not in files
    )
    report.extra = sorted(name for name in files if name not in expected_names)
    schema = FormatSchema(variant, FileKind.RESULT)
    for seq in expected_sequences:
        name = f"{seq}.txt"
        if name not in files:
            continue
        try:
            parse_file(files[name], schema, strict=True)
        except ParseError as err:
            report.file_errors.setdefault(name, []).append(str(err))
    return report


@dataclass(frozen=True)
class EvalUnit:
    """One evaluation unit: a sequence paired with an optional detector tag."""

    detector: str | None
    data: SequenceData

    @property
    def label(self) -> str:
        return f"{self.data.name}-{self.detector}" if self.detector else self.data.name


@dataclass(frozen=True)
class SequenceSet:
    """The sequences of one benchmark, expanded into evaluation units.

    Single-detector benchmarks contribute one unit per sequence; a benchmark
    with detector partitions contributes one unit per (sequence, detector)
    pair and requires every partition's result file to be present.
    """

    benchmark: Benchmark
    units: tuple[EvalUnit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        seen: set[tuple[str | None, str]] = set()
        for unit in self.units:
            key = (unit.detector, unit.data.name)
            if key in seen:
                raise IngestError(f"duplicate sequence {unit.label!r} in partition")
            seen.add(key)

    @property
    def sequence_names(self) -> list[str]:
        names = []
        for unit in self.units:
            if unit.data.name not in names:
                names.append(unit.data.name)
        return names


def read_seqmap(path: Path) -> list[tuple[str, int, float | None]]:
    """Parse the sequence-map file: one 'name num_frames [fps]' row per line.

    Blank lines and lines starting with '#' are skipped.
    """
    rows: list[tuple[str, int, float | None]] = []
    for line_no, raw in enumerate(_as_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError("expected 'name num_frames [fps]'", line_no)
        try:
            num_frames = int(tokens[1])
            fps = float(tokens[2]) if len(tokens) == 3 else None
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line_no) from None
        rows.append((tokens[0], num_frames, fps))
    return rows


def load_sequence_set(
    root: str | Path,
    benchmark: Benchmark,
    results_root: str | Path | None = None,
    strict: bool = True,
    require_results: bool = True,
) -> SequenceSet:
    """Load a full benchmark directory into a :class:`SequenceSet`.

    Expected layout under ``root``::

        seqmap.txt          one 'name num_frames [fps]' row per sequence
        gt/<Seq>.txt        ground truth (required)
        det/<Seq>.txt       public detections (optional; per detector for
                            partitioned benchmarks: det/<Seq>-<DET>.txt)

    Result files live under ``results_root`` (default ``root/res``) as
    ``<Seq>.txt``, or ``<Seq>-<DET>.txt`` for each detector partition.
    """
    root = Path(root)
    results_dir = Path(results_root) if results_root is not None else root / "res"
    seqmap_path = root / "seqmap.txt"
    if not seqmap_path.is_file():
        raise IngestError(f"missing sequence map {seqmap_path}")
    variant = benchmark.variant
    try:
        seqmap = read_seqmap(seqmap_path)
    except ParseError as err:
        raise IngestError(f"{seqmap_path}: {err}") from err

    units: list[EvalUnit] = []
    for name, num_frames, fps in seqmap:
        gt_path = root / "gt" / f"{name}.txt"
        if not gt_path.is_file():
            raise IngestError(f"missing ground truth for sequence {name!r}: {gt_path}")
        try:
            gt = parse_file(gt_path, FormatSchema(variant, FileKind.GROUND_TRUTH), strict)
        except ParseError as err:
            raise IngestError(f"{gt_path}: {err}") from err

        detectors: tuple[str | None, ...] = benchmark.detectors or (None,)
        for detector in detectors:
            suffix = f"-{detector}" if detector else ""
            detections: list[BoxEntry] = []
            det_path = root / "det" / f"{name}{suffix}.txt"
            if not det_path.is_file() and detector:
                det_path = root / "det" / f"{name}.txt"
            if det_path.is_file():
                try:
                    detections = parse_file(
                        det_path, FormatSchema(variant, FileKind.DETECTION), strict
                    )
                except ParseError as err:
                    raise IngestError(f"{det_path}: {err}") from err

            results: list[BoxEntry] = []
            res_path = results_dir / f"{name}{suffix}.txt"
            if res_path.is_file():
                try:
                    results = parse_file(
                        res_path, FormatSchema(variant, FileKind.RESULT), strict
                    )
                except ParseError as err:
                    raise IngestError(f"{res_path}: {err}") from err
            elif require_results:
                raise IngestError(f"missing result file for {name}{suffix!r}: {res_path}")

            try:
                data = SequenceData(
                    name=name,
                    num_frames=num_frames,
                    gt=tuple(gt),
                    results=tuple(results),
                    detections=tuple(detections),
                    fps=fps,
                )
            except ValueError as err:
                raise IngestError(str(err)) from err
            units.append(EvalUnit(detector=detector, data=data))

    return SequenceSet(benchmark=benchmark, units=tuple(units))
