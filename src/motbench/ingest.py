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
Strict parsing demands the exact column count of the declared variant and a
number in every column, the discarded ones included; lenient parsing accepts
7 to 10 columns, downgrades unknown class codes to ``ObjectClass.OTHER`` and
clamps out-of-range visibility values, logging each repair.

:func:`parse_file` returns a file's rows as columns
(:class:`~motbench.model.Rows`) along one of two paths.  A columnar pass reads
the file with one call to numpy's C text reader and checks every rule of the
format over whole columns; it accepts only files of one valid column count in
which nothing is malformed, out of range, duplicated or in need of a repair.
Every other file, including one holding a token that ``float()`` reads and the
C reader refuses (``1_0``, non-ASCII digits), goes to the row loop, which checks
one line at a time, names the 1-based line of each error and logs each lenient
repair.  The row loop is the format's reference: the columnar pass may hand it
a file the row loop accepts, but never accepts a file the row loop rejects or
repairs, and on any file it accepts it returns the same columns, value for value.
"""

from __future__ import annotations

import codecs
import logging
import math
import zipfile
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .model import BoxEntry, ObjectClass, Rows, SequenceData, _geometry

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
    """The text of a file, path, stream or buffer, without a leading byte-order mark.

    Raises :class:`ParseError` with the 1-based line of the first byte that
    is not UTF-8.
    """
    if isinstance(source, Path):
        source = source.read_bytes()
    elif hasattr(source, "read"):
        source = source.read()
    if not isinstance(source, bytes):
        return source.removeprefix("\ufeff")
    # As the utf-8-sig codec reads it, but its error offsets skip the mark.
    source = source.removeprefix(codecs.BOM_UTF8)
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = source.count(b"\n", 0, err.start) + 1
        raise ParseError(f"invalid UTF-8 byte 0x{source[err.start]:02x}", line_no) from None


#: Integer columns are stored as int64; a magnitude at or above this is an error.
_INT64_LIMIT = 2.0**63

#: Largest magnitude of a box edge or area: up to it, the sums and
#: differences of the IoU arithmetic stay finite.
_GEOMETRY_LIMIT = 2.0**1022


#: The columns after ``conf`` that a variant's files other than MOT16/17
#: ground truth carry and evaluation discards; strict parsing checks that
#: they hold numbers.
_DISCARDED = {FormatVariant.MOT15: ("x", "y", "z"),
              FormatVariant.MOT16_17: ("class", "visibility")}


def _float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"malformed number {token!r} in {what} field", line_no) from None


def _number(token: str, line_no: int, what: str) -> float:
    value = _float(token, line_no, what)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r} in {what} field", line_no)
    return value


def _integer(token: str, line_no: int, what: str) -> int:
    value = _number(token, line_no, what)
    if value != int(value):
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no)
    if abs(value) >= _INT64_LIMIT:
        raise ParseError(f"{what} out of range, got {token!r}", line_no)
    return int(value)


def parse_file(
    source: str | bytes | IO | Path,
    variant: FormatVariant,
    kind: FileKind,
    strict: bool = True,
    num_frames: int | None = None,
) -> Rows:
    """Parse one annotation, detection, or result file into rows.

    Raises :class:`ParseError` with a line number on malformed numbers, wrong
    column counts (strict mode), integers beyond int64, non-positive box
    extents, box edges or areas that are not finite or beyond 2**1022, box
    areas that are 0 between the rounded edges (an extent lost to rounding,
    or an underflow), frames outside ``[1, num_frames]`` (if given), or
    duplicate (frame, id) pairs in ground-truth/result files.
    Blank lines and a leading byte-order mark are skipped.
    Lenient repair warnings name ``source`` when it is a :class:`Path`.
    """
    text = _as_text(source)
    rows = _parse_columns(text, variant, kind, strict, num_frames)
    if rows is None:
        origin = f"{source}: " if isinstance(source, Path) else ""
        rows = _parse_rows(text, variant, kind, strict, num_frames, origin)
    return rows


def _parse_columns(
    text: str,
    variant: FormatVariant,
    kind: FileKind,
    strict: bool,
    num_frames: int | None,
) -> Rows | None:
    """The rows of ``text`` in one columnar pass, or None to leave it to the row loop.

    One ``np.loadtxt`` call reads every column of the stripped, non-blank lines
    (``comments=None``: no cut at ``#``).  Returns None if it raises (ragged
    lines, a token it refuses), on an invalid column count, or when a row breaks
    a check of :func:`_parse_rows` or needs one of its lenient repairs.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        return Rows()
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    n, k = table.shape
    if not (k == variant.columns if strict else 7 <= k <= 10):
        return None
    # The row loop reads class and visibility of MOT16/17 ground truth only.
    labelled = kind is FileKind.GROUND_TRUTH and variant is FormatVariant.MOT16_17
    read = min(k, 9) if labelled else 7
    columns = table[:, :read].T
    if not np.isfinite(columns).all():
        return None
    integers = columns[[0, 1, 7] if read > 7 else [0, 1]]
    if not ((np.trunc(integers) == integers).all()
            and (np.abs(integers) < _INT64_LIMIT).all()):
        return None
    frame, track_id = columns[:2].astype(np.int64)
    ltwh = np.ascontiguousarray(columns[2:6].T)  # row-major, as the row loop builds it
    if (frame.min() < 1 or (num_frames is not None and int(frame.max()) > num_frames)
            or not (ltwh[:, 2:] > 0).all()):
        return None
    # Positive extents put each left and top at or below its right and
    # bottom, so the least left or top and the greatest right or bottom
    # bound every edge.  The area is the one every IoU divides by.
    with np.errstate(over="ignore", invalid="ignore"):
        left, top, right, bottom, area = _geometry(ltwh)
        if not (min(left.min(), top.min()) >= -_GEOMETRY_LIMIT
                and max(right.max(), bottom.max()) <= _GEOMETRY_LIMIT
                and area.max() <= _GEOMETRY_LIMIT and area.min() > 0):
            return None
    code = np.full(n, ObjectClass.PEDESTRIAN, dtype=np.int64)
    visibility = np.ones(n)
    if read > 7:
        code = integers[2].astype(np.int64)
        if not ((code > ObjectClass.OTHER) & (code <= ObjectClass.REFLECTION)).all():
            return None
    if read > 8:
        visibility = columns[8]
        if not ((visibility >= 0.0) & (visibility <= 1.0)).all():
            return None
    if kind is not FileKind.DETECTION:
        order = np.lexsort((track_id, frame))
        f, i = frame[order], track_id[order]
        if ((f[1:] == f[:-1]) & (i[1:] == i[:-1])).any():
            return None
    return Rows(frame, track_id, ltwh, columns[6], code, visibility)


def _parse_rows(
    text: str,
    variant: FormatVariant,
    kind: FileKind,
    strict: bool = True,
    num_frames: int | None = None,
    origin: str = "",
) -> Rows:
    """Parse ``text`` one line at a time: the reference for :func:`parse_file`.

    Every error names its 1-based line; ``origin`` prefixes each lenient
    repair warning.
    """
    records: list[tuple] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if strict:
            if len(tokens) != variant.columns:
                raise ParseError(
                    f"expected {variant.columns} columns for {variant.value}, "
                    f"got {len(tokens)}",
                    line_no,
                )
        elif not 7 <= len(tokens) <= 10:
            raise ParseError(f"expected 7 to 10 columns, got {len(tokens)}", line_no)

        frame = _integer(tokens[0], line_no, "frame")
        if frame < 1:
            raise ParseError(f"frame index must be >= 1, got {frame}", line_no)
        if num_frames is not None and frame > num_frames:
            raise ParseError(f"frame {frame} outside [1, {num_frames}]", line_no)
        track_id = _integer(tokens[1], line_no, "id")
        left = _number(tokens[2], line_no, "left")
        top = _number(tokens[3], line_no, "top")
        width = _number(tokens[4], line_no, "width")
        height = _number(tokens[5], line_no, "height")
        if width <= 0 or height <= 0:
            raise ParseError(
                f"non-positive box extent width={width} height={height}", line_no
            )
        right, bottom = left + width, top + height
        area = (right - left) * (bottom - top)
        if not all(map(math.isfinite, (right, bottom, area))):
            raise ParseError("box right edge, bottom edge or area is not finite", line_no)
        if max(*map(abs, (left, top, right, bottom)), area) > _GEOMETRY_LIMIT:
            raise ParseError("box edge or area beyond 2**1022", line_no)
        if area == 0:
            raise ParseError("box area (right - left) * (bottom - top) is 0", line_no)
        confidence = _number(tokens[6], line_no, "confidence")

        code = ObjectClass.PEDESTRIAN
        visibility = 1.0
        if kind is FileKind.GROUND_TRUTH and variant is FormatVariant.MOT16_17:
            if len(tokens) >= 8:
                code = _integer(tokens[7], line_no, "class")
                if not ObjectClass.OTHER < code <= ObjectClass.REFLECTION:
                    if strict:
                        raise ParseError(f"unknown class code {code}", line_no)
                    logger.warning("%sline %d: unknown class code %d, using OTHER",
                                   origin, line_no, code)
                    code = ObjectClass.OTHER
            if len(tokens) >= 9:
                visibility = _number(tokens[8], line_no, "visibility")
                if not 0.0 <= visibility <= 1.0:
                    if strict:
                        raise ParseError(
                            f"visibility {visibility} outside [0, 1]", line_no
                        )
                    logger.warning("%sline %d: clamping visibility %g",
                                   origin, line_no, visibility)
                    visibility = min(1.0, max(0.0, visibility))
        elif strict:  # discarded, but still numbers; finite or not
            for token, what in zip(tokens[7:], _DISCARDED[variant]):
                _float(token, line_no, what)

        if kind is not FileKind.DETECTION:
            key = (frame, track_id)
            if key in seen:
                raise ParseError(f"duplicate (frame, id) pair {key}", line_no)
            seen.add(key)

        records.append((frame, track_id, (left, top, width, height), confidence, code,
                        visibility))
    return Rows(*zip(*records))


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips; integral values print without '.0'."""
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def write_result_file(
    entries: Rows | Iterable[BoxEntry],
    variant: FormatVariant = FormatVariant.MOT16_17,
) -> str:
    """Serialize result rows, sorted by (frame, id), one line per row.

    Unknown trailing fields are written as -1.  Rows with a negative track
    id are rejected: writers must supply assigned identities.
    """
    rows = Rows.of(entries).sorted()
    lines = []
    for frame, track_id, ltwh, confidence in zip(
        rows.frame.tolist(), rows.track_id.tolist(), rows.ltwh.tolist(),
        rows.confidence.tolist(),
    ):
        if track_id < 0:
            raise ValueError(
                f"result entry at frame {frame} has unassigned track id {track_id}"
            )
        fields = [str(frame), str(track_id), *map(_fmt, ltwh), _fmt(confidence)]
        fields += ["-1", "-1", "-1"] if variant is FormatVariant.MOT15 else ["-1", "-1"]
        lines.append(",".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


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


#: What the zip reader raises on a damaged archive: bad headers, a bad CRC or
#: deflate stream, an unknown compression method or version, an encrypted
#: entry, a truncated entry or extra field, a seek to a negative offset.
_ZIP_ERRORS = (zipfile.BadZipFile, zlib.error, NotImplementedError, EOFError,
               RuntimeError, IndexError, OSError)


def _submission_files(path: Path) -> tuple[dict[str, bytes], list[str]]:
    """'<stem>.txt' basenames mapped to contents, plus duplicated basenames."""
    files: dict[str, bytes] = {}
    duplicates: list[str] = []
    if zipfile.is_zipfile(path):
        try:
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
        except _ZIP_ERRORS as err:
            reason = str(err) or type(err).__name__
            raise IngestError(f"{path}: unreadable zip archive: {reason}") from err
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
    for seq in expected_sequences:
        name = f"{seq}.txt"
        if name not in files:
            continue
        try:
            parse_file(files[name], variant, FileKind.RESULT, strict=True)
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


def read_seqmap(path: Path) -> list[tuple[str, int, float | None]]:
    """Parse the sequence-map file: one 'name num_frames [fps]' row per line.

    Blank lines and lines starting with '#' are skipped.  A frame count
    below 1 and a name listed before are errors at their line.
    """
    rows: list[tuple[str, int, float | None]] = []
    names: set[str] = set()
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
        if num_frames < 1:
            raise ParseError(f"sequence {tokens[0]!r}: num_frames must be > 0", line_no)
        if tokens[0] in names:
            raise ParseError(f"duplicate sequence {tokens[0]!r}", line_no)
        names.add(tokens[0])
        rows.append((tokens[0], num_frames, fps))
    return rows


def load_sequence_set(
    root: str | Path,
    benchmark: Benchmark,
    results_root: str | Path | None = None,
    strict: bool = True,
    read_detections: bool = True,
) -> SequenceSet:
    """Load a full benchmark directory into a :class:`SequenceSet`.

    Expected layout under ``root``::

        seqmap.txt          one 'name num_frames [fps]' row per sequence
        gt/<Seq>.txt        ground truth (required)
        det/<Seq>.txt       public detections (optional; per detector for
                            partitioned benchmarks: det/<Seq>-<DET>.txt)

    Result files live under ``results_root`` (default ``root/res``) as
    ``<Seq>.txt``, or ``<Seq>-<DET>.txt`` for each detector partition.
    With ``read_detections`` false, ``det/`` is not read and every unit has
    no detections.
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

    def parse(path: Path, kind: FileKind, num_frames: int) -> Rows:
        try:
            return parse_file(path, variant, kind, strict, num_frames)
        except ParseError as err:
            raise IngestError(f"{path}: {err}") from err

    units: list[EvalUnit] = []
    for name, num_frames, fps in seqmap:
        gt_path = root / "gt" / f"{name}.txt"
        if not gt_path.is_file():
            raise IngestError(f"missing ground truth for sequence {name!r}: {gt_path}")
        gt = parse(gt_path, FileKind.GROUND_TRUTH, num_frames).sorted()

        for detector in benchmark.detectors or (None,):
            suffix = f"-{detector}" if detector else ""
            detections: Rows | tuple = ()
            det_path = root / "det" / f"{name}{suffix}.txt"
            if not det_path.is_file() and detector:
                det_path = root / "det" / f"{name}.txt"
            if read_detections and det_path.is_file():
                detections = parse(det_path, FileKind.DETECTION, num_frames)

            res_path = results_dir / f"{name}{suffix}.txt"
            if not res_path.is_file():
                raise IngestError(f"missing result file for {name + suffix!r}: {res_path}")
            results = parse(res_path, FileKind.RESULT, num_frames)

            data = SequenceData(name, num_frames, gt, results, detections, fps)
            units.append(EvalUnit(detector=detector, data=data))

    return SequenceSet(benchmark=benchmark, units=tuple(units))
