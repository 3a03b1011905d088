"""Reading the benchmark's comma-separated file formats.

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
(:class:`~motbench.model.Rows`), and one columnar pass checks every rule of
the format.  Numpy's C text reader reads most files with one call into a
table of floats, which also decides a file whose lines all have too few
or too many columns.  When it refuses a file (ragged lines, a token that
``float()`` reads and it does not, such as ``1_0`` or non-ASCII digits), a
per-token reader fills the same table from ``float()`` of each stripped
token and marks the tokens it refuses; it stops after the first line whose
column count or tokens the rules reject.  Each rule is then
a mask over the lines.  A line meets the rules in a fixed order: its column
count, then field by field (malformed, not finite, not an integer, of
magnitude 2**53 or more, then the field's own rules such as frame bounds or
box geometry), and last the duplicate (frame, id) rule.  The error names the first line
that breaks a rule, by its 1-based number, with the first rule it breaks
there.  Lenient repairs on the lines before it, and on that line before
that rule, are logged first, in line order.  ``tests/oracles.py`` keeps a
line-at-a-time row loop as the format's reference; the two agree on every
file, error text and repair warnings included.
"""

from __future__ import annotations

import codecs
import itertools
import logging
import zipfile
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

from .model import ObjectClass, Rows, SequenceData, _row_rules

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
    is not UTF-8, numbered by ``str.splitlines`` as every other error is.
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
        # The bytes before the bad one decode; a placeholder for it makes
        # its line the last one.
        line_no = len((source[:err.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"invalid UTF-8 byte 0x{source[err.start]:02x}", line_no) from None


#: Integer fields are read as float64, which holds every integer below this
#: magnitude and rounds some above it (2**53 + 1 reads as 2**53); a
#: magnitude at or above it is an error.
_INT_LIMIT = 2.0**53


#: The fields of a line, in column order: seven in every variant, then the
#: variant's own.  Evaluation reads class and visibility of MOT16/17 ground
#: truth only; strict parsing checks that the trailing columns it discards
#: hold numbers.
_FIELDS = ("frame", "id", "left", "top", "width", "height", "confidence")
_TRAILING = {FormatVariant.MOT15: ("x", "y", "z"),
             FormatVariant.MOT16_17: ("class", "visibility")}


def _read_tokens(lines: list[str], widths: tuple[int, int],
                 checked: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first 10 fields of the lines as columns, each line's width, and the cells read.

    A cell holds ``float()`` of its stripped token, or NaN where ``float()``
    refuses it.  A cell past the end of its line reads 1: the class and the
    visibility of a line without them (a pedestrian in full view).  Reading
    stops after the first line with a width outside ``widths`` or a token
    ``float()`` refuses among its first ``checked``: the rules reject that
    line, so no line after it can hold the first error.
    """
    columns = np.ones((10, len(lines)))
    readable = np.ones(columns.shape, bool)
    width = np.empty(len(lines), np.int64)
    low, high = widths
    for i, line in enumerate(lines):
        tokens = line.split(",")
        width[i] = len(tokens)
        for j, token in enumerate(tokens[:10]):
            try:
                columns[j, i] = float(token.strip())
            except ValueError:
                columns[j, i], readable[j, i] = np.nan, False
        if not low <= width[i] <= high or not readable[:checked, i].all():
            return columns[:, :i + 1], width[:i + 1], readable[:, :i + 1]
    return columns, width, readable


def parse_file(
    source: str | bytes | IO | Path,
    variant: FormatVariant,
    kind: FileKind,
    strict: bool = True,
    num_frames: int | None = None,
) -> Rows:
    """Parse one annotation, detection, or result file into rows.

    Raises :class:`ParseError` with a line number on malformed numbers, wrong
    column counts (strict mode), integers of magnitude 2**53 or more (the
    float64 reader could round them onto another id), non-positive box
    extents, box edges or areas that are not finite or beyond 2**1022, box
    areas that are 0 between the rounded edges (an extent lost to rounding,
    or an underflow), frames outside ``[1, num_frames]`` (if given), or
    duplicate (frame, id) pairs in ground-truth/result files.
    Blank lines and a leading byte-order mark are skipped.
    Lenient repair warnings name ``source`` when it is a :class:`Path`.
    """
    split = _as_text(source).splitlines()
    lines = [line for line in map(str.strip, split) if line]
    if not lines:
        return Rows()
    n = len(lines)
    labelled = kind is FileKind.GROUND_TRUTH and variant is FormatVariant.MOT16_17
    read = 9 if labelled else 7  # the columns read into rows
    # The column counts the mode accepts, and the columns that must hold
    # numbers: in strict mode, the columns discarded too.
    if strict:
        widths, checked = (variant.columns,) * 2, variant.columns
        accepted = f"{variant.columns} columns for {variant.value}"
    else:
        widths, checked, accepted = (7, 10), read, "7 to 10 columns"
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is not None:
        width, readable = np.full(n, table.shape[1]), None  # every cell read
        columns = np.ones((read, n))  # as the token reader pads a line
        columns[:table.shape[1]] = table[:, :read].T
    else:
        columns, width, readable = _read_tokens(lines, widths, checked)
        n = len(width)
        lines = lines[:n]
    del table  # freed before the rules allocate: it sets the peak memory of a large file
    fields = _FIELDS + _TRAILING[variant]

    # A rule is the mask of the lines that break it, or a block of masks for
    # the run of fields from ``column`` on.  A line meets the rules by
    # field, its column count before them all and the duplicate rule after;
    # on one field, by ``step``: 0 malformed, 1 not finite, 2 not an integer,
    # 3 out of range, then the field's own rules.  ``repair`` marks a rule
    # that lenient parsing repairs instead of rejecting the line.
    rules: list[tuple[int, int, np.ndarray, Callable[[int, int], str], bool]] = []

    def check(column: int, step: int, failing: np.ndarray,
              message: Callable[[int, int], str], repair: bool = False) -> None:
        rules.append((column, step, failing, message, repair))

    def check_fields(column: int, step: int, failing: np.ndarray, message: str) -> None:
        check(column, step, failing, lambda i, j: message.format(
            token=lines[i].split(",")[j].strip(), what=fields[j]))

    def check_integers(column: int, values: np.ndarray) -> None:
        check_fields(column, 2, np.trunc(values) != values,
                     "{what} must be an integer, got {token!r}")
        check_fields(column, 3, np.abs(values) >= _INT_LIMIT,
                     "{what} out of range, got {token!r}")

    # Each rule need only hold on the lines that pass every rule before it,
    # so values on the others may be NaN, overflow or cast to garbage.
    with np.errstate(all="ignore"):
        check(-1, 0, (width < widths[0]) | (width > widths[1]),
              lambda i, j: f"expected {accepted}, got {width[i]}")
        if readable is not None:
            check_fields(0, 0, ~readable[:checked],
                         "malformed number {token!r} in {what} field")
        check_fields(0, 1, ~np.isfinite(columns[:read]),
                     "non-finite number {token!r} in {what} field")
        check_integers(0, columns[:2])
        frame, track_id = columns[:2].astype(np.int64)
        ltwh = columns[2:6].T

        code, visibility = np.full(n, ObjectClass.PEDESTRIAN), np.ones(n)
        if labelled:
            label, shown = columns[7:9]
            check_integers(7, label)
            unknown = (label <= ObjectClass.OTHER) | (label > ObjectClass.REFLECTION)
            check(7, 4, unknown, lambda i, j: f"unknown class code {int(label[i])}"
                                              + ("" if strict else ", using OTHER"), not strict)
            outside = (shown < 0.0) | (shown > 1.0)
            check(8, 4, outside, (lambda i, j: f"visibility {float(shown[i])} outside [0, 1]")
                  if strict else lambda i, j: f"clamping visibility {float(shown[i]):g}",
                  not strict)
            code = np.where(unknown, ObjectClass.OTHER, label)
            visibility = np.clip(shown, 0.0, 1.0)  # values in [0, 1], -0.0 too, stay as read

        # The shared row rules, at their fields; the class rule above is the
        # files' own, stricter one, and the finiteness rule above covers the
        # confidence and the visibility.  Detection files share the id -1.
        at = {"frame": 0, "box": 5, "key": len(fields)}
        for step, (name, failing, message) in enumerate(_row_rules(
                frame, track_id, ltwh, columns[6], code, visibility, num_frames,
                kind is not FileKind.DETECTION), start=4):
            if name in at:
                check(at[name], step, failing, lambda i, j, message=message: message(i))

    # The first line that breaks a rule and the first rule it breaks; the
    # repairs on the lines before it, and on that line before that rule.
    errors, repairs = [], []
    for column, step, failing, message, repair in rules:
        if not failing.any():
            continue
        if repair:
            repairs += [(i, column, step, message) for i in np.flatnonzero(failing).tolist()]
        else:
            by_column = failing.reshape(-1, n)
            i = int(by_column.any(axis=0).argmax())
            errors.append((i, column + int(by_column[:, i].argmax()), step, message))
    first = min(errors, key=lambda e: e[:3], default=(n,))
    if errors or repairs:
        numbered = (no for no, line in enumerate(split, start=1) if line.strip())
        line_no = list(itertools.islice(numbered, first[0] + 1))  # up to the error line
        origin = f"{source}: " if isinstance(source, Path) else ""
        for i, column, step, message in sorted(repairs, key=lambda r: r[:3]):
            if (i, column, step) < first[:3]:
                logger.warning("%sline %d: %s", origin, line_no[i], message(i, column))
        if errors:
            i, column, _, message = first
            raise ParseError(message(i, column), line_no[i])
    return Rows(frame, track_id, ltwh, columns[6], code, visibility)


@dataclass
class ValidationReport:
    """Outcome of checking a submission archive or directory."""

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


def _is_result_name(base: str, expected: set[str]) -> bool:
    """Whether a submission holds a result file under the basename ``base``.

    It does under each ``expected`` name, and under every other '.txt' name
    that is no dot file, such as an archiver's '._S1.txt'.
    """
    return base in expected or (base.endswith(".txt") and not base.startswith("."))


def _submission_files(path: Path, expected: set[str]) -> tuple[dict[str, bytes], list[str]]:
    """Result basenames mapped to contents, plus duplicated basenames."""
    files: dict[str, bytes] = {}
    duplicates: list[str] = []
    if zipfile.is_zipfile(path):
        try:
            with zipfile.ZipFile(path) as archive:
                for info in archive.infolist():
                    if info.is_dir():
                        continue
                    base = Path(info.filename).name
                    if not _is_result_name(base, expected):
                        continue
                    if base in files:
                        duplicates.append(base)
                    files[base] = archive.read(info)
        except _ZIP_ERRORS as err:
            reason = str(err) or type(err).__name__
            raise IngestError(f"{path}: unreadable zip archive: {reason}") from err
    elif path.is_dir():
        for child in sorted(path.iterdir()):
            if child.is_file() and _is_result_name(child.name, expected):
                files[child.name] = child.read_bytes()
    else:
        raise IngestError(f"{path} is neither a zip archive nor a directory")
    return files, sorted(set(duplicates))


def validate_submission(
    archive_or_dir: str | Path,
    expected_sequences: Mapping[str, int],
    variant: FormatVariant = FormatVariant.MOT16_17,
) -> ValidationReport:
    """Check a submission by the rules ``evaluate`` reads its result files with.

    ``expected_sequences`` maps each expected unit name, '<Seq>' or
    '<Seq>-<DET>' as :func:`unit_frames` gives them, to its sequence's
    frame count.  The submission must hold one '<name>.txt' per unit and no
    other '.txt' file, and each must parse as a strict result file whose
    frames lie in ``[1, frame count]``.  A zip and a directory (its top
    level) are read by one name rule, which skips a dot file that no unit
    expects.  Content problems never raise; they are recorded in the
    report.  Only an unreadable path raises.
    """
    path = Path(archive_or_dir)
    if not path.exists():
        raise IngestError(f"submission path does not exist: {path}")
    expected = {f"{seq}.txt" for seq in expected_sequences}
    files, duplicates = _submission_files(path, expected)
    report = ValidationReport(
        missing=sorted(seq for seq in expected_sequences if f"{seq}.txt" not in files),
        extra=sorted(files.keys() - expected),
        file_errors={name: ["file name appears more than once in the archive"]
                     for name in duplicates},
    )
    for seq, num_frames in expected_sequences.items():
        name = f"{seq}.txt"
        if name in files:
            try:
                parse_file(files[name], variant, FileKind.RESULT, strict=True,
                           num_frames=num_frames)
            except ParseError as err:
                report.file_errors.setdefault(name, []).append(str(err))
    return report


def _unit_name(sequence: str, detector: str | None) -> str:
    """The name of a (sequence, detector) unit, also its result file's stem."""
    return f"{sequence}-{detector}" if detector else sequence


@dataclass(frozen=True)
class EvalUnit:
    """One evaluation unit: a sequence paired with an optional detector tag."""

    detector: str | None
    data: SequenceData

    @property
    def label(self) -> str:
        return _unit_name(self.data.name, self.detector)


@dataclass(frozen=True)
class SequenceSet:
    """The sequences of one benchmark, expanded into evaluation units.

    Single-detector benchmarks contribute one unit per sequence; a benchmark
    with detector partitions contributes one unit per (sequence, detector)
    pair and requires every partition's result file to be present.
    """

    units: tuple[EvalUnit, ...]


def read_seqmap(path: Path) -> dict[str, int]:
    """Read a sequence-map file: each sequence's frame count, in map order.

    The file holds one 'name num_frames [fps]' row per line; the fps token
    must be a number, but nothing reads it.  Blank lines and lines starting
    with '#' are skipped.  Every fault of the map raises
    :class:`IngestError` naming ``path``: a path that is not a file, and,
    at their 1-based line, a byte that is not UTF-8, a malformed row, a
    frame count below 1 and a name listed before.
    """
    if not path.is_file():
        raise IngestError(f"missing sequence map {path}")
    frames: dict[str, int] = {}
    try:
        for line_no, raw in enumerate(_as_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) not in (2, 3):
                raise ParseError("expected 'name num_frames [fps]'", line_no)
            try:
                num_frames = int(tokens[1])
                if len(tokens) == 3:
                    float(tokens[2])  # the fps must be a number
            except ValueError:
                raise ParseError(f"malformed number in {line!r}", line_no) from None
            if num_frames < 1:
                raise ParseError(f"sequence {tokens[0]!r}: num_frames must be > 0", line_no)
            if tokens[0] in frames:
                raise ParseError(f"duplicate sequence {tokens[0]!r}", line_no)
            frames[tokens[0]] = num_frames
    except ParseError as err:
        raise IngestError(f"{path}: {err}") from err
    return frames


def unit_frames(seqmap: Path, benchmark: Benchmark) -> dict[str, int]:
    """The frame count of every unit the map lists, by unit name, in map order.

    A map that lists no sequence is an error, as are the faults
    :func:`read_seqmap` raises.
    """
    units = {_unit_name(name, detector): num_frames
             for name, num_frames in read_seqmap(seqmap).items()
             for detector in benchmark.detectors or (None,)}
    if not units:
        raise IngestError(f"{seqmap}: lists no sequence")
    return units


def _sequence_files(
    root: Path,
    benchmark: Benchmark,
    results_root: str | Path | None,
    read_detections: bool,
    rows: slice,
) -> list[tuple[str, int, Path, list[tuple[str | None, Path | None, Path]]]]:
    """The seqmap rows in ``rows`` with their files.

    Each row is ``(name, num_frames, gt_path, units)``, and a unit is
    ``(detector, det_path, res_path)``; ``det_path`` is None where no
    detection file is read.  Only the sequence map is read and checked.
    """
    results_dir = Path(results_root) if results_root is not None else root / "res"
    out = []
    for name, num_frames in list(read_seqmap(root / "seqmap.txt").items())[rows]:
        units = []
        for detector in benchmark.detectors or (None,):
            unit = _unit_name(name, detector)
            det_path = root / "det" / f"{unit}.txt"
            if not det_path.is_file() and detector:
                det_path = root / "det" / f"{name}.txt"
            read = read_detections and det_path.is_file()
            units.append((detector, det_path if read else None, results_dir / f"{unit}.txt"))
        out.append((name, num_frames, root / "gt" / f"{name}.txt", units))
    return out


def input_bytes(
    root: str | Path,
    benchmark: Benchmark,
    results_root: str | Path | None = None,
    read_detections: bool = True,
) -> list[int]:
    """The size of each seqmap row's input files, in seqmap order.

    The files are those :func:`load_sequence_set` reads with the same
    arguments; a missing file counts 0 bytes.  Errors in the sequence map
    raise as they do there, and a map that lists no sequence is an error.
    """
    def size(path: Path | None) -> int:
        try:
            return path.stat().st_size if path else 0
        except OSError:
            return 0

    root = Path(root)
    rows = _sequence_files(root, benchmark, results_root, read_detections, slice(None))
    if not rows:
        raise IngestError(f"{root / 'seqmap.txt'}: lists no sequence")
    return [size(gt_path) + sum(size(det) + size(res) for _, det, res in units)
            for _, _, gt_path, units in rows]


def load_sequence_set(
    root: str | Path,
    benchmark: Benchmark,
    results_root: str | Path | None = None,
    strict: bool = True,
    read_detections: bool = True,
    rows: slice = slice(None),
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
    no detections.  ``rows`` slices the seqmap rows to load; the others'
    files are not read.
    """
    variant = benchmark.variant

    def parse(path: Path, kind: FileKind, num_frames: int) -> Rows:
        try:
            return parse_file(path, variant, kind, strict, num_frames)
        except ParseError as err:
            raise IngestError(f"{path}: {err}") from err

    units: list[EvalUnit] = []
    for name, num_frames, gt_path, files in _sequence_files(
            Path(root), benchmark, results_root, read_detections, rows):
        if not gt_path.is_file():
            raise IngestError(f"missing ground truth for sequence {name!r}: {gt_path}")
        gt = parse(gt_path, FileKind.GROUND_TRUTH, num_frames).sorted()

        for detector, det_path, res_path in files:
            detections = parse(det_path, FileKind.DETECTION, num_frames) if det_path else Rows()
            if not res_path.is_file():  # its stem is the unit's name
                raise IngestError(f"missing result file for {res_path.stem!r}: {res_path}")
            results = parse(res_path, FileKind.RESULT, num_frames)

            units += [EvalUnit(detector, SequenceData(name, num_frames, gt, results, detections))]

    return SequenceSet(units=tuple(units))
