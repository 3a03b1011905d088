"""Parser, submission validation, and sequence-set loading tests."""

import codecs
import inspect
import logging
import random
import time
import zipfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from motbench import ingest
from motbench.ingest import (
    Benchmark,
    FileKind,
    FormatVariant,
    IngestError,
    ParseError,
    load_sequence_set,
    parse_file,
    read_seqmap,
    validate_submission,
)
from motbench.model import ObjectClass
import oracles
from conftest import entries, gt, gt_file_text, hyp, rows, seq, write_benchmark_tree

DET_16 = (FormatVariant.MOT16_17, FileKind.DETECTION)
GT_16 = (FormatVariant.MOT16_17, FileKind.GROUND_TRUTH)
RES_16 = (FormatVariant.MOT16_17, FileKind.RESULT)
GT_15 = (FormatVariant.MOT15, FileKind.GROUND_TRUTH)


class TestParse:
    def test_detection_line(self):
        (e,) = entries(parse_file("1, -1, 794.2, 47.5, 71.2, 174.8, 67.5, -1, -1", *DET_16))
        assert e.frame == 1
        assert e.track_id == -1
        assert (e.left, e.top, e.width, e.height) == (794.2, 47.5, 71.2, 174.8)
        assert e.confidence == 67.5
        assert e.object_class is ObjectClass.PEDESTRIAN
        assert e.visibility == 1.0

    def test_ground_truth_line_with_flag_class_visibility(self):
        (e,) = entries(parse_file("2, 4, 781.7, 25.1, 69.2, 170.2, 0, 12, 1.", *GT_16))
        assert e.confidence == 0
        assert e.object_class is ObjectClass.REFLECTION
        assert e.visibility == 1.0

    def test_ten_column_ground_truth(self):
        (e,) = entries(parse_file("1, 3, 875.4, 39.9, 25.3, 35.0, 0, -1, -1, -1", *GT_15))
        assert e.track_id == 3
        assert e.confidence == 0
        # world coordinates are discarded; everything defaults to pedestrian
        assert e.object_class is ObjectClass.PEDESTRIAN

    def test_empty_file(self):
        assert len(parse_file("", *DET_16)) == 0
        assert len(parse_file("\n\n", *DET_16)) == 0

    def test_accepts_bytes(self):
        rows = parse_file(b"1, -1, 1, 1, 5, 5, 0.9, -1, -1", *DET_16)
        assert rows.confidence.tolist() == [0.9]

    def test_accepts_stream_and_path(self, tmp_path):
        import io

        line = "1, -1, 1, 1, 5, 5, 0.9, -1, -1\n"
        assert parse_file(io.StringIO(line), *DET_16).confidence.tolist() == [0.9]
        path = tmp_path / "det.txt"
        path.write_text(line)
        assert parse_file(path, *DET_16).confidence.tolist() == [0.9]

    def test_wrong_column_count_strict(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_file("1, -1, 1, 1, 5, 5, 0.9", *DET_16)

    def test_lenient_accepts_seven_to_ten_columns(self):
        rows = parse_file("1, -1, 1, 1, 5, 5, 0.9", *DET_16, strict=False)
        assert rows.confidence.tolist() == [0.9]
        rows = parse_file("1, 2, 1, 1, 5, 5, 1, -1, -1, -1", *RES_16, strict=False)
        assert rows.track_id.tolist() == [2]

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_file("1, -1, 1, 1, 5, 5, 1, -1, -1\n1, -1, x, 1, 5, 5, 1, -1, -1", *DET_16)

    @pytest.mark.parametrize("line, fmt, field", [
        ("1,1,10,10,5,5,1,1,0.5,", GT_15, "z"),
        ("1,2,10,10,5,5,1,x,0,0", (FormatVariant.MOT15, FileKind.RESULT), "x"),
        ("1,2,10,10,5,5,1,abc,", RES_16, "class"),
        ("1,-1,10,10,5,5,0.9,-1,vis", DET_16, "visibility"),
    ])
    def test_strict_discarded_columns_must_hold_numbers(self, line, fmt, field):
        # world coordinates, and class and visibility outside MOT16/17 GT
        text = "1,9,10,10,5,5,1," + ("-1,-1,-1" if fmt[0] is FormatVariant.MOT15 else "-1,-1")
        text += "\n" + line + "\n"
        with pytest.raises(ParseError, match=f"^line 2: malformed number .* in {field} field$"):
            parse_file(text, *fmt)
        assert len(parse_file(text, *fmt, strict=False)) == 2

    @pytest.mark.parametrize("line, fmt", [
        ("1,1,10,10,5,5,1,-1,-1,-1", GT_15),
        ("1,1,10,10,5,5,1,nan,inf,-inf", GT_15),
        ("1,1,10,10,5,5,1,nan,-1", RES_16),
        ("1,-1,10,10,5,5,0.9,-1,nan", DET_16),
    ])
    def test_strict_discarded_columns_take_any_number(self, line, fmt):
        # finite or not: the columns are read and dropped
        assert len(parse_file(line, *fmt)) == 1

    def test_non_finite_numbers_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1.*non-finite"):
            parse_file("1, -1, 1, 1, nan, 5, 1, -1, -1", *DET_16)
        with pytest.raises(ParseError, match="line 1.*non-finite"):
            parse_file("1, -1, inf, 1, 5, 5, 1, -1, -1", *DET_16)

    @pytest.mark.parametrize("line", [
        "1,5,1e308,10,1e308,40,1,-1,-1",  # right edge
        "1,5,10,1e308,10,1e308,1,-1,-1",  # bottom edge
        "1,5,10,10,1e200,1e200,1,-1,-1",  # area
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_finite_geometry_rejected_on_both_paths(self, line, strict):
        text = "1,4,10,10,5,5,1,-1,-1\n" + line + "\n"
        for parse in (parse_file, oracles.parse_rows):
            with pytest.raises(ParseError) as err:
                parse(text, *RES_16, strict=strict)
            assert str(err.value) == "line 2: box right edge, bottom edge or area is not finite"

    @pytest.mark.parametrize("line", [
        "1,5,0,0,1e154,1e154,1,-1,-1",  # area 1e308: two areas overflow their sum
        "1,5,-8.9e307,0,10,10,1,-1,-1",  # left
        "1,5,0,-8.9e307,10,10,1,-1,-1",  # top
        "1,5,4e307,0,4e307,0.001,1,-1,-1",  # right edge
        "1,5,0,4e307,0.001,4e307,1,-1,-1",  # bottom edge
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_geometry_beyond_2_pow_1022_rejected_on_both_paths(self, line, strict):
        text = "1,4,10,10,5,5,1,-1,-1\n" + line + "\n"
        for parse in (parse_file, oracles.parse_rows):
            with pytest.raises(ParseError) as err:
                parse(text, *RES_16, strict=strict)
            assert str(err.value) == "line 2: box edge or area beyond 2**1022"
        # the largest legal values still parse
        edge = "1,5,0,0,4.49423283715579e307,1,1,-1,-1"
        assert len(parse_file(edge, *RES_16, strict=strict)) == 1

    @pytest.mark.parametrize("line", [
        "1,5,0,0,1e-200,1e-200,1,-1,-1",
        "1,5,3,4,5e-324,0.25,1,-1,-1",  # 3 + width rounds to 3
        "1,5,1,1,1e-17,1,1,-1,-1",  # 1 + width rounds to 1
        "1,5,1,1e18,5,1,1,-1,-1",  # 1e18 + height rounds to 1e18
    ])
    @pytest.mark.parametrize("strict", [True, False])
    def test_area_underflow_rejected_on_both_paths(self, line, strict):
        text = "1,4,10,10,5,5,1,-1,-1\n" + line + "\n"
        for parse in (parse_file, oracles.parse_rows):
            with pytest.raises(ParseError) as err:
                parse(text, *RES_16, strict=strict)
            assert str(err.value) == "line 2: box area (right - left) * (bottom - top) is 0"
        # a denormal area is not an underflow to 0, and an extent below one
        # ulp of its edge rounds up to a positive one
        assert len(parse_file("1,5,0,0,1e-200,1e-110,1,-1,-1", *RES_16, strict=strict)) == 1
        assert len(parse_file("1,5,1,1,1.6653345369377348e-16,1.6653345369377348e-16,1,-1,-1",
                              *RES_16, strict=strict)) == 1

    def test_leading_byte_order_mark_is_skipped(self):
        text = "1,1,10,10,5,5,1,-1,-1\n2,1,10,10,5,5,1,-1,-1\n"
        expected = _columns(parse_file(text, *RES_16))
        assert _columns(parse_file(codecs.BOM_UTF8 + text.encode(), *RES_16)) == expected
        assert _columns(parse_file("\ufeff" + text, *RES_16)) == expected
        # the row loop sees the same text: a BOM before a bad line still
        # names that line and its byte
        with pytest.raises(ParseError) as err:
            parse_file(codecs.BOM_UTF8 + b"1,1,10,10,5,5,1,-1,-1\n2,1,1\xff,0,5,5,1,-1,-1",
                       *RES_16)
        assert str(err.value) == "line 2: invalid UTF-8 byte 0xff"
        with pytest.raises(ParseError, match="line 1: expected 9 columns"):
            parse_file(codecs.BOM_UTF8 + b"1,1,10,10,5,5,1,-1", *RES_16)

    def test_bad_bytes_are_numbered_as_other_errors(self):
        # a bad byte gets the line number by str.splitlines that a bad
        # token in its place gets, for every line boundary
        lines = ["1,1,0,0,10,10,1,-1,-1", "2,1,0,0,10,10,1,-1,-1", "3,1,x,0,10,10,1,-1,-1"]
        for sep in ("\n", "\r\n", "\r", "\x1c", "\u2028"):
            text = sep.join(lines)
            with pytest.raises(ParseError, match="^line 3: malformed number 'x'"):
                parse_file(text, *RES_16)
            with pytest.raises(ParseError, match="^line 3: invalid UTF-8 byte 0xff$"):
                parse_file(text.encode().replace(b"x", b"\xff"), *RES_16)
        # a bad byte in the middle of a CR-only line, and a "\r\n" file as before
        with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff$"):
            parse_file(b"1,1,0,0,10,10,1,-1,-1\r2,1\xff,0,0,10,10,1,-1,-1\r", *RES_16)
        with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff$"):
            parse_file(b"1,1,0,0,10,10,1,-1,-1\r\n2,1\xff,0,0,10,10,1,-1,-1\r\n", *RES_16)

    def test_non_positive_extent(self):
        with pytest.raises(ParseError, match="non-positive"):
            parse_file("1, 1, 10, 10, 0, 5, 1, 1, 1", *GT_16)

    def test_fractional_frame_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_file("1.5, 1, 10, 10, 5, 5, 1, 1, 1", *GT_16)

    def test_duplicate_frame_id_pair(self):
        text = "1, 7, 0, 0, 5, 5, 1, 1, 1\n1, 7, 10, 10, 5, 5, 1, 1, 1"
        with pytest.raises(ParseError, match=r"line 2.*duplicate"):
            parse_file(text, *GT_16)

    @pytest.mark.parametrize("kind", [FileKind.GROUND_TRUTH, FileKind.RESULT])
    @pytest.mark.parametrize("strict", [True, False])
    def test_duplicate_unassigned_ids_rejected_on_both_paths(self, kind, strict):
        text = "1, -1, 0, 0, 5, 5, 1, 1, 1\n1, 2, 0, 0, 5, 5, 1, 1, 1\n1, -1, 9, 9, 5, 5, 1, 1, 1\n"
        for parse in (parse_file, oracles.parse_rows):
            with _token_reader() as reader, pytest.raises(
                    ParseError, match=r"line 3: duplicate \(frame, id\) pair \(1, -1\)"):
                parse(text, FormatVariant.MOT16_17, kind, strict)
            assert not reader.called  # the C reader read it; the rules found the repeat

    def test_duplicate_detection_ids_allowed(self):
        text = "1, -1, 0, 0, 5, 5, 1, -1, -1\n1, -1, 10, 10, 5, 5, 1, -1, -1"
        assert len(parse_file(text, *DET_16)) == 2

    def test_unknown_class_strict_vs_lenient(self):
        line = "1, 1, 0, 0, 5, 5, 1, 77, 1"
        with pytest.raises(ParseError, match="unknown class"):
            parse_file(line, *GT_16)
        (e,) = entries(parse_file(line, *GT_16, strict=False))
        assert e.object_class is ObjectClass.OTHER

    def test_visibility_out_of_range(self):
        line = "1, 1, 0, 0, 5, 5, 1, 1, 1.5"
        with pytest.raises(ParseError, match="visibility"):
            parse_file(line, *GT_16)
        assert parse_file(line, *GT_16, strict=False).visibility.tolist() == [1.0]

    @pytest.mark.parametrize("line, field", [
        ("1, 1e19, 1, 1, 5, 5, 1, -1, -1", "id"),
        ("1, -9223372036854775808, 1, 1, 5, 5, 1, -1, -1", "id"),
        ("9.3e18, 1, 1, 1, 5, 5, 1, -1, -1", "frame"),
        # float64 holds every integer below 2**53 and rounds some above it
        ("1, 9007199254740993, 0, 0, 10, 10, 1, -1, -1", "id"),
        ("1, -9007199254740992, 1, 1, 5, 5, 1, -1, -1", "id"),
        ("9007199254740992, 1, 1, 1, 5, 5, 1, -1, -1", "frame"),
    ])
    def test_integer_of_magnitude_2_53_or_more_names_its_line(self, line, field):
        text = "1, 1, 1, 1, 5, 5, 1, -1, -1\n" + line
        token = line.split(", ")[0 if field == "frame" else 1]
        with pytest.raises(ParseError) as err:
            parse_file(text, *RES_16)
        assert str(err.value) == f"line 2: {field} out of range, got {token!r}"

    def test_ids_that_round_to_one_float_are_out_of_range_not_duplicates(self):
        # read as float64, both ids became 2**53: "line 3: duplicate (frame,
        # id) pair", and the first alone parsed as id 2**53 without an error
        text = ("1,9007199254740991,0,0,10,10,1,-1,-1\n1,9007199254740993,0,0,10,10,1,-1,-1\n"
                "1,9007199254740992,0,0,10,10,1,-1,-1\n")
        with pytest.raises(ParseError) as err:
            parse_file(text, *RES_16)
        assert str(err.value) == "line 2: id out of range, got '9007199254740993'"
        (e,) = parse_file(text.splitlines()[0], *RES_16)
        assert (e.frame, e.track_id) == (1, 2**53 - 1)  # the largest id float64 holds exactly

    def test_lenient_repair_warnings_name_the_file(self, tmp_path, caplog):
        text = "1, 1, 0, 0, 5, 5, 1, 77, 1\n2, 1, 0, 0, 5, 5, 1, 1, 1.5\n"
        path = tmp_path / "gt.txt"
        path.write_text(text)
        with caplog.at_level(logging.WARNING, logger="motbench.ingest"):
            parse_file(path, *GT_16, strict=False)
            parse_file(text, *GT_16, strict=False)
        assert caplog.messages == [
            f"{path}: line 1: unknown class code 77, using OTHER",
            f"{path}: line 2: clamping visibility 1.5",
            "line 1: unknown class code 77, using OTHER",
            "line 2: clamping visibility 1.5",
        ]

    @pytest.mark.parametrize("second, error", [
        ("2, 1, 0, 0, 5, 5, 1, 1, x", "line 2: malformed number 'x' in visibility field"),
        ("1, 1, 0, 0, 5, 5, 1, 99, 0.5", "line 2: duplicate (frame, id) pair (1, 1)"),
    ])
    def test_repairs_before_an_error_are_logged_first(self, caplog, second, error):
        # the repairs of the lines before the error, and of the error's line
        # before the rule it breaks, in line order, as the row loop logs them
        text = "1, 1, 0, 0, 5, 5, 1, 77, 1\n" + second + "\n"
        for parse in (parse_file, oracles.parse_rows):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="motbench.ingest"), \
                    pytest.raises(ParseError) as err:
                parse(text, *GT_16, strict=False)
            assert str(err.value) == error
            assert caplog.messages == ["line 1: unknown class code 77, using OTHER"] + (
                ["line 2: unknown class code 99, using OTHER"] if "duplicate" in error else [])

    def test_repair_warnings_take_linear_time(self, caplog):
        # Every line of a 20,000-line file is repaired twice; a blank line
        # after each thousandth shifts the numbers.  A search for each
        # repaired line's number would be quadratic.
        lines = []
        for k in range(20000):
            lines.append(f"{k // 10 + 1},{k % 10 + 1},0,0,5,5,1,77,1.5")
            if k % 1000 == 999:
                lines.append("")
        expected = []
        for line_no, line in enumerate(lines, start=1):
            if line:
                expected += [f"line {line_no}: unknown class code 77, using OTHER",
                             f"line {line_no}: clamping visibility 1.5"]
        start = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="motbench.ingest"):
            rows = parse_file("\n".join(lines), *GT_16, strict=False)
        elapsed = time.perf_counter() - start
        assert len(expected) == 40000 and caplog.messages == expected
        assert set(rows.object_class.tolist()) == {ObjectClass.OTHER}
        assert set(rows.visibility.tolist()) == {1.0}
        assert elapsed < 8.0  # about 0.8 s on a 2-vCPU x86_64 VM

    def test_rows_iterate_back_to_the_written_entries(self):
        rng = random.Random(19)
        written = [
            hyp(rng.randint(1, 30), tid, rng.uniform(-20, 900), rng.uniform(-20, 500),
                rng.uniform(0.5, 120), rng.uniform(0.5, 300), conf=rng.choice([0.0, 1.0]))
            for tid in range(1, 60)
        ]
        parsed = parse_file(gt_file_text(rows(written)), *RES_16)
        assert len(parsed) == len(written)
        assert Counter(entries(parsed)) == Counter(written)
        assert parsed.frame.dtype == np.int64 and parsed.ltwh.dtype == np.float64

    def test_round_trip_on_random_fixture(self):
        rng = random.Random(11)
        written = [
            hyp(
                rng.randint(1, 50), tid,
                rng.uniform(-20, 900), rng.uniform(-20, 500),
                rng.uniform(0.5, 120), rng.uniform(0.5, 300),
                conf=rng.uniform(0, 100),
            )
            for tid in range(1, 101)
        ]
        parsed = parse_file(gt_file_text(rows(written)), *RES_16)
        assert sorted(entries(parsed), key=lambda e: (e.frame, e.track_id)) == sorted(
            written, key=lambda e: (e.frame, e.track_id)
        )

    def test_shuffling_lines_preserves_entry_multiset(self):
        rng = random.Random(5)
        lines = [
            f"{f}, {i}, {rng.uniform(0, 50):.3f}, {rng.uniform(0, 50):.3f}, 8, 12, 1, 1, 0.5"
            for f in range(1, 6) for i in range(1, 5)
        ]
        reference = sorted(
            entries(parse_file("\n".join(lines), *GT_16)),
            key=lambda e: (e.frame, e.track_id),
        )
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert sorted(
            entries(parse_file("\n".join(shuffled), *GT_16)),
            key=lambda e: (e.frame, e.track_id),
        ) == reference


# Tokens on which a columnar conversion could disagree with the row loop.
EDGE_TOKENS = ("nan", "-inf", "Infinity", "x", "", "1e19", "-1e19", "9.3e18",
               "9223372036854775807", "-9223372036854775808", "9007199254740991",
               "9007199254740992", "-9007199254740993", "1e300", "1e308", "1e154",
               "-8.9e307", "1e-200", "5e-324", "1_0", "\u0661", "\uff11", "#", "1#2",
               "'1'", '"1"', "0x10", "1d5", " 4 ", "\xa04\xa0", "\x1f1", "-0", "0.5",
               "1.5", "13", "99", "-1", "0")

# Every line boundary of str.splitlines besides "\n" and "\r\n".
LINE_SEPARATORS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _random_line(rng: random.Random, columns: int) -> str:
    values = [rng.randint(1, 4), rng.randint(-1, 3), rng.randint(-5, 50),
              rng.uniform(-5, 50), rng.choice([1, 7.5, 20]), rng.randint(1, 30),
              rng.choice([0, 1, 0.25]), rng.choice([1, 1, 2, 7, 12]),
              rng.choice([0, 0.5, 1, 1.0]), -1]
    tokens = [str(v) for v in values[:columns]] + ["-1"] * (columns - len(values))
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        tokens[rng.randrange(columns)] = rng.choice(EDGE_TOKENS)
    pad = rng.choice(["", "", " ", "\t"])
    return pad + f"{pad},{pad}".join(tokens) + pad


def _random_file(rng: random.Random, variant: FormatVariant) -> str:
    columns = rng.choice([variant.columns] * 3 + [7, 8, 10, 11])
    lines = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  "]))
            continue
        ragged = rng.random() < 0.1
        lines.append(_random_line(rng, rng.randint(6, 11) if ragged else columns))
    text = lines[0] if lines else ""
    for line in lines[1:]:
        text += rng.choice(("\n",) * 9 + LINE_SEPARATORS) + line
    return text + rng.choice(["", "\n", "\r\n"])


def _columns(rows) -> list:
    return [(column.dtype, column.shape, column.tolist()) for column in vars(rows).values()]


def _outcome(parse, *args):
    try:
        return _columns(parse(*args))
    except ParseError as err:
        return type(err), str(err)


def _outcome_and_warnings(caplog, parse, *args):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="motbench.ingest"):
        outcome = _outcome(parse, *args)
    return outcome, caplog.messages


def _token_reader():
    """A spy on the parser's per-token reader, which reads what numpy's C reader refuses."""
    return mock.patch.object(ingest, "_read_tokens", wraps=ingest._read_tokens)


# Three rows of each kind, as published MOT16/17 files write them.
WELL_FORMED = {
    FileKind.GROUND_TRUTH: ("1,1,912,484,97,109,0,7,1", "1,2,1338,418,167,379,1,1,0.86",
                            "2,2,1342,417,168,380,1,12,0"),
    FileKind.RESULT: ("1,1,912.5,484,97,109,1,-1,-1", "1,2,1338,418,167.5,379,1,-1,-1",
                      "2,2,1342,417,168,380,0,-1,-1"),
    FileKind.DETECTION: ("1,-1,1359.1,413.27,120.26,362.77,2.3092,-1,-1",
                         "1,-1,571.03,402.13,104.56,315.68,1.5028,-1,-1",
                         "2,-1,1359.1,413.27,120.26,362.77,-0.35,-1,-1"),
}


def _long_file(rng: random.Random, kind: FileKind, columns: int) -> list[str]:
    """2,000 well-formed lines: ten boxes in each of 200 frames."""
    lines = []
    for frame in range(1, 201):
        for track_id in range(1, 11):
            values = [frame, -1 if kind is FileKind.DETECTION else track_id,
                      round(rng.uniform(-50, 1800), 2), round(rng.uniform(-50, 1000), 2),
                      round(rng.uniform(5, 200), 2), round(rng.uniform(10, 400), 2),
                      round(rng.uniform(-1, 3), 4) if kind is FileKind.DETECTION
                      else rng.choice([0, 1]),
                      rng.choice([1, 1, 2, 7, 12]), round(rng.random(), 3), -1]
            lines.append(",".join(map(str, values[:columns])))
    return lines


def _with_defect(rng: random.Random, lines: list[str], defect: str) -> int:
    """Break one line of ``lines`` in place; returns its 0-based index."""
    at = rng.randrange(1, len(lines))
    tokens = lines[at].split(",")
    if defect == "ragged":
        tokens = (tokens + ["-1"] * 4)[:rng.choice([6, 11])]
    elif defect == "token":
        tokens[rng.randrange(7)] = rng.choice(["x", "", "1#2", "0x10"])
    elif defect == "duplicate":
        tokens[:2] = lines[at - 1].split(",")[:2]
    elif defect == "frame":
        tokens[0] = "201"
    elif defect == "area":
        tokens[2], tokens[4] = "1", "1e-17"  # 1 + 1e-17 rounds to 1
    lines[at] = ",".join(tokens)
    return at


class TestColumnarPath:
    def test_one_validator(self):
        # the row loop and its helpers live in the test oracles only
        source = inspect.getsource(ingest)
        for name in ("_parse_rows", "_parse_columns", "_float", "_number", "_integer"):
            assert f"def {name}(" not in source and not hasattr(ingest, name)

    def test_matches_the_row_loop(self, caplog):
        # Each file gives the same columns, dtypes included, or the same
        # error, after the same repair warnings.
        rng = random.Random(2024)
        accepted = 0
        for _ in range(3000):
            variant = rng.choice(list(FormatVariant))
            kind = rng.choice(list(FileKind))
            strict = rng.random() < 0.5
            num_frames = rng.choice([None, 3, 6, 2**63, 10**30])
            text = _random_file(rng, variant)
            args = text, variant, kind, strict, num_frames
            expected = _outcome_and_warnings(caplog, oracles.parse_rows, *args)
            with _token_reader() as reader:
                assert _outcome_and_warnings(caplog, parse_file, *args) == expected, args
            accepted += not reader.called
        assert accepted > 500

    @pytest.mark.parametrize("variant", list(FormatVariant))
    @pytest.mark.parametrize("kind", list(FileKind))
    def test_well_formed_files_never_reach_the_token_reader(self, variant, kind):
        # A silent fallback would keep every result and lose the speed.
        lines = base = WELL_FORMED[kind]
        if variant is FormatVariant.MOT15:
            lines = [line.rsplit(",", 2)[0] + world for line, world in
                     zip(lines, (",12.5,-3.25,0", ",-7,0.5,1e3", ",-1,-1,-1"))]
        files = [("\n".join(lines) + "\n", True), ("\r\n".join(lines) + "\r\n", True),
                 ("\n".join(line.replace(",", ", ") for line in lines), True)]
        if kind is FileKind.GROUND_TRUTH:
            files += [("\n".join(",".join(line.split(",")[:width]) for line in base), False)
                      for width in (7, 8)]
            files.append(("\n".join(line + ",-1" for line in base), False))
        for text, strict in files:
            expected = _columns(oracles.parse_rows(text, variant, kind, strict))
            with mock.patch.object(ingest, "_read_tokens",
                                   side_effect=AssertionError("token reader used")):
                assert _columns(parse_file(text, variant, kind, strict, 2)) == expected, text

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("kind", list(FileKind))
    @pytest.mark.parametrize("variant", list(FormatVariant))
    @pytest.mark.parametrize("lines", [
        ("1,1,10,10,5,5,1,1", "2,1,10,10,5,5,1,1,0.5,-1"),
        ("1,1,10,10,5,5,1,1,0.5,-1", "2,1,10,10,5,5,1,1"),
        ("1,1,10,10,5,5,1,1,0.5,-1", "2,1,10,10,5,5,1,1,0.5,"),
    ], ids=["8-then-10", "10-then-8", "trailing-comma"])
    def test_ragged_lines_keeping_the_comma_total_reach_the_token_reader(
            self, lines, variant, kind, strict):
        # Each file has as many commas as lines of one width would have.
        text = "\n".join(lines) + "\n"
        with _token_reader() as reader:
            assert _outcome(parse_file, text, variant, kind, strict) == _outcome(
                oracles.parse_rows, text, variant, kind, strict)
        assert reader.called

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("defect", ["token", "ragged"])
    def test_token_reader_stops_at_the_line_that_decides_the_error(self, defect, strict):
        # line 2 of a 2,000-line file holds 'x' as its left edge, or 6 columns
        lines = _long_file(random.Random(defect), FileKind.RESULT, 9)
        tokens = lines[1].split(",")
        lines[1] = ",".join(tokens[:2] + ["x"] + tokens[3:] if defect == "token" else tokens[:6])
        text = "\n".join(lines) + "\n"
        read, returned = ingest._read_tokens, []

        def recorded(*args):
            returned.append(read(*args))
            return returned[-1]

        with mock.patch.object(ingest, "_read_tokens", wraps=recorded) as reader:
            outcome = _outcome(parse_file, text, *RES_16, strict)
        assert outcome == _outcome(oracles.parse_rows, text, *RES_16, strict)
        assert outcome[1].startswith("line 2: ")
        assert reader.call_count == 1
        assert all(len(part.T) <= 2 for part in returned[0])

    @pytest.mark.parametrize("defect", ["ragged", "token", "duplicate", "frame", "area"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_one_defect_in_a_long_file_names_its_line(self, defect, strict):
        rng = random.Random(f"{defect}-{strict}")
        for variant in FormatVariant:
            for kind in FileKind:
                columns = variant.columns if strict else rng.randint(7, 10)
                lines = _long_file(rng, kind, columns)
                text = "\n".join(lines) + "\n"
                with _token_reader() as reader:
                    parse_file(text, variant, kind, strict, 200)
                assert not reader.called
                at = _with_defect(rng, lines, defect)
                text = "\n".join(lines) + "\n"
                expected = _outcome(oracles.parse_rows, text, variant, kind, strict, 200)
                assert _outcome(parse_file, text, variant, kind, strict, 200) == expected, (
                    variant, kind, lines[at])
                if defect != "duplicate" or kind is not FileKind.DETECTION:
                    assert expected[1].startswith(f"line {at + 1}: "), expected


class TestValidateSubmission:
    def make_submission(self, tmp_path: Path, names, rows=None, as_zip=False):
        rows = rows if rows is not None else "1,1,10,10,5,5,1,-1,-1\n"
        target = tmp_path / "submission"
        target.mkdir(exist_ok=True)
        for name in names:
            (target / f"{name}.txt").write_text(rows)
        if not as_zip:
            return target
        archive = tmp_path / "submission.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for child in target.iterdir():
                zf.write(child, arcname=child.name)
        return archive

    def test_conforming_directory_passes(self, tmp_path):
        expected = {f"SEQ-{i:02d}": 10 for i in range(1, 8)}
        path = self.make_submission(tmp_path, expected)
        report = validate_submission(path, expected)
        assert report.passed
        assert "PASS" in report.summary()

    def test_conforming_zip_passes(self, tmp_path):
        expected = {"SEQ-01": 10, "SEQ-02": 10}
        path = self.make_submission(tmp_path, expected, as_zip=True)
        assert validate_submission(path, expected).passed

    def test_missing_sequence(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01"])
        report = validate_submission(path, {"SEQ-01": 10, "SEQ-07": 10})
        assert not report.passed
        assert report.missing == ["SEQ-07"]
        assert "missing sequence: SEQ-07" in report.summary()

    def test_extra_file_flagged(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01", "SEQ-99"])
        report = validate_submission(path, {"SEQ-01": 10})
        assert not report.passed
        assert report.extra == ["SEQ-99.txt"]

    def test_duplicate_row_diagnosed_with_line_number(self, tmp_path):
        rows = "1,1,10,10,5,5,1,-1,-1\n1,1,12,12,5,5,1,-1,-1\n"
        path = self.make_submission(tmp_path, ["SEQ-01"], rows=rows)
        report = validate_submission(path, {"SEQ-01": 10})
        assert not report.passed
        (message,) = report.file_errors["SEQ-01.txt"]
        assert "line 2" in message and "duplicate" in message

    def test_duplicate_basename_in_zip_recorded_not_raised(self, tmp_path):
        archive = tmp_path / "sub.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("a/SEQ-01.txt", "1,1,0,0,5,5,1,-1,-1\n")
            zf.writestr("b/SEQ-01.txt", "1,1,0,0,5,5,1,-1,-1\n")
        report = validate_submission(archive, {"SEQ-01": 10})
        assert not report.passed
        assert any("more than once" in e for e in report.file_errors["SEQ-01.txt"])

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(IngestError):
            validate_submission(tmp_path / "nope", {"SEQ-01": 10})

    def test_non_utf8_byte_recorded_not_raised(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01", "SEQ-02"])
        (path / "SEQ-02.txt").write_bytes(b"1,1,10,10,5,5,1,-1,-1\n2,1,1\xff,10,5,5,1,-1,-1\n")
        report = validate_submission(path, {"SEQ-01": 10, "SEQ-02": 10})
        assert not report.passed
        (message,) = report.file_errors["SEQ-02.txt"]
        assert "line 2" in message and "0xff" in message
        assert "SEQ-01.txt" not in report.file_errors


def small_sequence(name="SEQ-01", frames=3):
    gt_entries = [gt(t, 1, 0, 0) for t in range(1, frames + 1)]
    results = [hyp(t, 7, 0, 0) for t in range(1, frames + 1)]
    detections = [gt(t, -1, 0, 0, conf=0.9) for t in range(1, frames + 1)]
    return seq(name, frames, gt_entries, results, detections)


class TestLoadSequenceSet:
    def test_empty_map_yields_empty_set(self, tmp_path):
        (tmp_path / "seqmap.txt").write_text("")
        (tmp_path / "gt").mkdir()
        loaded = load_sequence_set(tmp_path, Benchmark.MOT16)
        assert loaded.units == ()

    def test_single_detector_benchmark(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01"), small_sequence("SEQ-02")])
        loaded = load_sequence_set(tmp_path, Benchmark.MOT16)
        assert [u.label for u in loaded.units] == ["SEQ-01", "SEQ-02"]
        assert loaded.units[0].data.gt
        assert loaded.units[0].data.results
        assert loaded.units[0].data.detections

    def test_three_detector_partitions_expand_to_pairs(self, tmp_path):
        sequences = [small_sequence(f"SEQ-{i:02d}") for i in range(1, 8)]
        write_benchmark_tree(tmp_path, sequences, Benchmark.MOT17)
        loaded = load_sequence_set(tmp_path, Benchmark.MOT17)
        assert len(loaded.units) == 21
        assert sorted({u.detector for u in loaded.units}) == ["DPM", "FRCNN", "SDP"]

    def test_missing_partition_file_is_an_error(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")], Benchmark.MOT17)
        (tmp_path / "res" / "SEQ-01-SDP.txt").unlink()
        with pytest.raises(IngestError, match="SEQ-01-SDP"):
            load_sequence_set(tmp_path, Benchmark.MOT17)

    @pytest.mark.parametrize("bench, label", [
        (Benchmark.MOT16, "SEQ-01"), (Benchmark.MOT17, "SEQ-01-SDP"),
    ])
    def test_missing_result_file_names_the_sequence(self, tmp_path, bench, label):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")], bench)
        path = tmp_path / "res" / f"{label}.txt"
        path.unlink()
        with pytest.raises(IngestError) as err:
            load_sequence_set(tmp_path, bench)
        assert str(err.value) == f"missing result file for {label!r}: {path}"

    def test_rows_load_only_their_files(self, tmp_path):
        sequences = [small_sequence(f"SEQ-{i:02d}") for i in (1, 2, 3)]
        write_benchmark_tree(tmp_path, sequences, Benchmark.MOT17)
        (tmp_path / "gt" / "SEQ-01.txt").unlink()
        (tmp_path / "res" / "SEQ-03-DPM.txt").unlink()
        loaded = load_sequence_set(tmp_path, Benchmark.MOT17, rows=slice(1, 2))
        assert [u.label for u in loaded.units] == ["SEQ-02-DPM", "SEQ-02-FRCNN", "SEQ-02-SDP"]
        with pytest.raises(IngestError, match="SEQ-03-DPM"):
            load_sequence_set(tmp_path, Benchmark.MOT17, rows=slice(2, 3))

    @pytest.mark.parametrize("read_detections", [True, False])
    def test_input_bytes_count_the_files_loaded(self, tmp_path, read_detections):
        sequences = [small_sequence("SEQ-01"), small_sequence("SEQ-02", frames=6)]
        write_benchmark_tree(tmp_path, sequences, Benchmark.MOT17)
        (tmp_path / "res" / "SEQ-02-SDP.txt").unlink()  # counts 0 bytes

        def size(*parts):
            return (tmp_path.joinpath(*parts)).stat().st_size

        det = {name: size("det", f"{name}.txt") if read_detections else 0
               for name in ("SEQ-01", "SEQ-02")}
        assert ingest.input_bytes(tmp_path, Benchmark.MOT17,
                                  read_detections=read_detections) == [
            size("gt", "SEQ-01.txt") + 3 * (det["SEQ-01"] + size("res", "SEQ-01-DPM.txt")),
            size("gt", "SEQ-02.txt") + 3 * det["SEQ-02"] + 2 * size("res", "SEQ-02-DPM.txt"),
        ]

    def test_missing_gt_is_an_error(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")])
        (tmp_path / "gt" / "SEQ-01.txt").unlink()
        with pytest.raises(IngestError, match="ground truth"):
            load_sequence_set(tmp_path, Benchmark.MOT16)

    def test_frame_count_smaller_than_gt_max_frame(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01", frames=5)])
        (tmp_path / "seqmap.txt").write_text("SEQ-01 3\n")
        with pytest.raises(IngestError, match="outside"):
            load_sequence_set(tmp_path, Benchmark.MOT16)

    def test_gt_frame_past_frame_count_names_the_file_and_line(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01", frames=1)])
        gt_path = tmp_path / "gt" / "SEQ-01.txt"
        gt_path.write_text(gt_path.read_text() + "5,2,0,0,10,10,1,1,1.0\n")
        with pytest.raises(IngestError) as err:
            load_sequence_set(tmp_path, Benchmark.MOT16)
        assert str(err.value) == f"{gt_path}: line 2: frame 5 outside [1, 1]"

    def test_result_frame_past_frame_count_names_the_file_and_line(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01", frames=3)])
        res_path = tmp_path / "res" / "SEQ-01.txt"
        res_path.write_text("4,7,0,0,10,10,1,-1,-1\n" + res_path.read_text())
        with pytest.raises(IngestError) as err:
            load_sequence_set(tmp_path, Benchmark.MOT16)
        assert str(err.value) == f"{res_path}: line 1: frame 4 outside [1, 3]"

    def test_zero_frame_count_names_the_file_and_line(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")])
        (tmp_path / "seqmap.txt").write_text("SEQ-01 3\n\nSEQ-02 -2\n")
        with pytest.raises(IngestError, match=(
            r"seqmap\.txt: line 3: sequence 'SEQ-02': num_frames must be > 0"
        )):
            load_sequence_set(tmp_path, Benchmark.MOT16)

    def test_malformed_seqmap_names_the_file_and_line(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")])
        (tmp_path / "seqmap.txt").write_text("SEQ-01 abc\n")
        with pytest.raises(IngestError, match=r"seqmap\.txt: line 1: malformed number"):
            load_sequence_set(tmp_path, Benchmark.MOT16)

    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")])
        res = tmp_path / "res" / "SEQ-01.txt"
        res.write_bytes(res.read_bytes().replace(b"\n2,", b"\n2\xff,", 1))
        with pytest.raises(IngestError, match=r"SEQ-01\.txt: line 2: invalid UTF-8 byte 0xff"):
            load_sequence_set(tmp_path, Benchmark.MOT16)

    def test_seqmap_bad_byte_is_numbered_by_splitlines(self, tmp_path):
        path = tmp_path / "seqmap.txt"
        path.write_bytes(b"# comment\rSEQ-01 600\rSEQ-\xff 450\r")
        with pytest.raises(IngestError, match=r"seqmap\.txt: line 3: invalid UTF-8 byte 0xff"):
            read_seqmap(path)
        path.write_bytes(b"# comment\rSEQ-01 600\rSEQ-02 abc\r")
        with pytest.raises(IngestError, match=r"seqmap\.txt: line 3: malformed number"):
            read_seqmap(path)

    def test_seqmap_with_fps_and_comments(self, tmp_path):
        path = tmp_path / "seqmap.txt"
        path.write_text("# comment\nSEQ-01 600 30\n\nSEQ-02 450\n")
        assert list(read_seqmap(path).items()) == [("SEQ-01", 600), ("SEQ-02", 450)]

    def test_seqmap_fps_must_be_a_number(self, tmp_path):
        # nothing reads the fps, but the map's row format still holds
        path = tmp_path / "seqmap.txt"
        path.write_text("SEQ-01 600 30\nSEQ-02 450 fast\n")
        with pytest.raises(IngestError, match=r"seqmap\.txt: line 2: malformed number"):
            read_seqmap(path)

    def test_ten_column_benchmark_round_trip(self, tmp_path):
        data = small_sequence("SEQ-01")
        write_benchmark_tree(tmp_path, [data], Benchmark.MOT15)
        gt_text = (tmp_path / "gt" / "SEQ-01.txt").read_text()
        assert gt_text.splitlines()[0].count(",") == 9  # ten columns
        loaded = load_sequence_set(tmp_path, Benchmark.MOT15)
        unit = loaded.units[0]
        assert len(unit.data.gt) == len(data.gt)
        assert all(e.object_class is ObjectClass.PEDESTRIAN for e in entries(unit.data.gt))
        assert len(unit.data.results) == len(data.results)
