"""Parser, writer, submission validation, and sequence-set loading tests."""

import random
import zipfile
from pathlib import Path

import pytest

from motbench.ingest import (
    Benchmark,
    FileKind,
    FormatSchema,
    FormatVariant,
    IngestError,
    ParseError,
    load_sequence_set,
    parse_file,
    read_seqmap,
    validate_submission,
    write_result_file,
)
from motbench.model import ObjectClass
from conftest import gt, hyp, seq, write_benchmark_tree

DET_16 = FormatSchema(FormatVariant.MOT16_17, FileKind.DETECTION)
GT_16 = FormatSchema(FormatVariant.MOT16_17, FileKind.GROUND_TRUTH)
RES_16 = FormatSchema(FormatVariant.MOT16_17, FileKind.RESULT)
GT_15 = FormatSchema(FormatVariant.MOT15, FileKind.GROUND_TRUTH)


class TestParse:
    def test_detection_line(self):
        entries = parse_file("1, -1, 794.2, 47.5, 71.2, 174.8, 67.5, -1, -1", DET_16)
        assert len(entries) == 1
        e = entries[0]
        assert e.frame == 1
        assert e.track_id == -1
        assert (e.box.left, e.box.top, e.box.width, e.box.height) == (794.2, 47.5, 71.2, 174.8)
        assert e.confidence == 67.5
        assert e.object_class is ObjectClass.PEDESTRIAN
        assert e.visibility == 1.0

    def test_ground_truth_line_with_flag_class_visibility(self):
        entries = parse_file("2, 4, 781.7, 25.1, 69.2, 170.2, 0, 12, 1.", GT_16)
        e = entries[0]
        assert not e.is_active
        assert e.object_class is ObjectClass.REFLECTION
        assert e.visibility == 1.0

    def test_ten_column_ground_truth(self):
        entries = parse_file("1, 3, 875.4, 39.9, 25.3, 35.0, 0, -1, -1, -1", GT_15)
        e = entries[0]
        assert e.track_id == 3
        assert not e.is_active
        # world coordinates are discarded; everything defaults to pedestrian
        assert e.object_class is ObjectClass.PEDESTRIAN

    def test_empty_file(self):
        assert parse_file("", DET_16) == []
        assert parse_file("\n\n", DET_16) == []

    def test_accepts_bytes(self):
        entries = parse_file(b"1, -1, 1, 1, 5, 5, 0.9, -1, -1", DET_16)
        assert entries[0].confidence == 0.9

    def test_accepts_stream_and_path(self, tmp_path):
        import io

        line = "1, -1, 1, 1, 5, 5, 0.9, -1, -1\n"
        assert parse_file(io.StringIO(line), DET_16)[0].confidence == 0.9
        path = tmp_path / "det.txt"
        path.write_text(line)
        assert parse_file(path, DET_16)[0].confidence == 0.9

    def test_wrong_column_count_strict(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_file("1, -1, 1, 1, 5, 5, 0.9", DET_16)

    def test_lenient_accepts_seven_to_ten_columns(self):
        entries = parse_file("1, -1, 1, 1, 5, 5, 0.9", DET_16, strict=False)
        assert entries[0].confidence == 0.9
        entries = parse_file("1, 2, 1, 1, 5, 5, 1, -1, -1, -1", RES_16, strict=False)
        assert entries[0].track_id == 2

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_file("1, -1, 1, 1, 5, 5, 1, -1, -1\n1, -1, x, 1, 5, 5, 1, -1, -1", DET_16)

    def test_non_finite_numbers_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 1.*non-finite"):
            parse_file("1, -1, 1, 1, nan, 5, 1, -1, -1", DET_16)
        with pytest.raises(ParseError, match="line 1.*non-finite"):
            parse_file("1, -1, inf, 1, 5, 5, 1, -1, -1", DET_16)

    def test_non_positive_extent(self):
        with pytest.raises(ParseError, match="non-positive"):
            parse_file("1, 1, 10, 10, 0, 5, 1, 1, 1", GT_16)

    def test_fractional_frame_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_file("1.5, 1, 10, 10, 5, 5, 1, 1, 1", GT_16)

    def test_duplicate_frame_id_pair(self):
        text = "1, 7, 0, 0, 5, 5, 1, 1, 1\n1, 7, 10, 10, 5, 5, 1, 1, 1"
        with pytest.raises(ParseError, match=r"line 2.*duplicate"):
            parse_file(text, GT_16)

    def test_duplicate_detection_ids_allowed(self):
        text = "1, -1, 0, 0, 5, 5, 1, -1, -1\n1, -1, 10, 10, 5, 5, 1, -1, -1"
        assert len(parse_file(text, DET_16)) == 2

    def test_unknown_class_strict_vs_lenient(self):
        line = "1, 1, 0, 0, 5, 5, 1, 77, 1"
        with pytest.raises(ParseError, match="unknown class"):
            parse_file(line, GT_16)
        entries = parse_file(line, GT_16, strict=False)
        assert entries[0].object_class is ObjectClass.OTHER

    def test_visibility_out_of_range(self):
        line = "1, 1, 0, 0, 5, 5, 1, 1, 1.5"
        with pytest.raises(ParseError, match="visibility"):
            parse_file(line, GT_16)
        assert parse_file(line, GT_16, strict=False)[0].visibility == 1.0

    def test_shuffling_lines_preserves_entry_multiset(self):
        rng = random.Random(5)
        lines = [
            f"{f}, {i}, {rng.uniform(0, 50):.3f}, {rng.uniform(0, 50):.3f}, 8, 12, 1, 1, 0.5"
            for f in range(1, 6) for i in range(1, 5)
        ]
        reference = sorted(
            parse_file("\n".join(lines), GT_16),
            key=lambda e: (e.frame, e.track_id),
        )
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert sorted(
            parse_file("\n".join(shuffled), GT_16),
            key=lambda e: (e.frame, e.track_id),
        ) == reference


class TestWrite:
    def test_empty(self):
        assert write_result_file([]) == ""

    def test_single_entry_nine_columns(self):
        text = write_result_file([hyp(1, 5, 10.5, 20.0, 30.0, 40.0, conf=1.0)])
        assert text == "1,5,10.5,20,30,40,1,-1,-1\n"

    def test_mot15_variant_has_ten_columns(self):
        text = write_result_file([hyp(1, 5, 10, 20, 30, 40)], FormatVariant.MOT15)
        assert text.strip().count(",") == 9

    def test_rejects_unassigned_ids(self):
        with pytest.raises(ValueError, match="unassigned"):
            write_result_file([hyp(1, -1, 0, 0)])

    def test_rows_sorted_by_frame_then_id(self):
        text = write_result_file([hyp(2, 1, 0, 0), hyp(1, 9, 0, 0), hyp(1, 2, 0, 0)])
        firsts = [line.split(",")[:2] for line in text.splitlines()]
        assert firsts == [["1", "2"], ["1", "9"], ["2", "1"]]

    def test_round_trip_on_random_fixture(self):
        rng = random.Random(11)
        entries = [
            hyp(
                rng.randint(1, 50), tid,
                rng.uniform(-20, 900), rng.uniform(-20, 500),
                rng.uniform(0.5, 120), rng.uniform(0.5, 300),
                conf=rng.uniform(0, 100),
            )
            for tid in range(1, 101)
        ]
        parsed = parse_file(write_result_file(entries), RES_16)
        assert sorted(parsed, key=lambda e: (e.frame, e.track_id)) == sorted(
            entries, key=lambda e: (e.frame, e.track_id)
        )


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
        expected = [f"SEQ-{i:02d}" for i in range(1, 8)]
        path = self.make_submission(tmp_path, expected)
        report = validate_submission(path, expected)
        assert report.passed
        assert "PASS" in report.summary()

    def test_conforming_zip_passes(self, tmp_path):
        expected = ["SEQ-01", "SEQ-02"]
        path = self.make_submission(tmp_path, expected, as_zip=True)
        assert validate_submission(path, expected).passed

    def test_missing_sequence(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01"])
        report = validate_submission(path, ["SEQ-01", "SEQ-07"])
        assert not report.passed
        assert report.missing == ["SEQ-07"]
        assert "missing sequence: SEQ-07" in report.summary()

    def test_extra_file_flagged(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01", "SEQ-99"])
        report = validate_submission(path, ["SEQ-01"])
        assert not report.passed
        assert report.extra == ["SEQ-99.txt"]

    def test_duplicate_row_diagnosed_with_line_number(self, tmp_path):
        rows = "1,1,10,10,5,5,1,-1,-1\n1,1,12,12,5,5,1,-1,-1\n"
        path = self.make_submission(tmp_path, ["SEQ-01"], rows=rows)
        report = validate_submission(path, ["SEQ-01"])
        assert not report.passed
        (message,) = report.file_errors["SEQ-01.txt"]
        assert "line 2" in message and "duplicate" in message

    def test_duplicate_basename_in_zip_recorded_not_raised(self, tmp_path):
        archive = tmp_path / "sub.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("a/SEQ-01.txt", "1,1,0,0,5,5,1,-1,-1\n")
            zf.writestr("b/SEQ-01.txt", "1,1,0,0,5,5,1,-1,-1\n")
        report = validate_submission(archive, ["SEQ-01"])
        assert not report.passed
        assert any("more than once" in e for e in report.file_errors["SEQ-01.txt"])

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(IngestError):
            validate_submission(tmp_path / "nope", ["SEQ-01"])

    def test_non_utf8_byte_recorded_not_raised(self, tmp_path):
        path = self.make_submission(tmp_path, ["SEQ-01", "SEQ-02"])
        (path / "SEQ-02.txt").write_bytes(b"1,1,10,10,5,5,1,-1,-1\n2,1,1\xff,10,5,5,1,-1,-1\n")
        report = validate_submission(path, ["SEQ-01", "SEQ-02"])
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
        assert loaded.sequence_names == [f"SEQ-{i:02d}" for i in range(1, 8)]

    def test_missing_partition_file_is_an_error(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")], Benchmark.MOT17)
        (tmp_path / "res" / "SEQ-01-SDP.txt").unlink()
        with pytest.raises(IngestError, match="SEQ-01-SDP"):
            load_sequence_set(tmp_path, Benchmark.MOT17)

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

    def test_missing_results_tolerated_when_not_required(self, tmp_path):
        write_benchmark_tree(tmp_path, [small_sequence("SEQ-01")])
        (tmp_path / "res" / "SEQ-01.txt").unlink()
        loaded = load_sequence_set(
            tmp_path, Benchmark.MOT16, require_results=False
        )
        assert loaded.units[0].data.results == ()

    def test_seqmap_with_fps_and_comments(self, tmp_path):
        path = tmp_path / "seqmap.txt"
        path.write_text("# comment\nSEQ-01 600 30\n\nSEQ-02 450\n")
        assert read_seqmap(path) == [("SEQ-01", 600, 30.0), ("SEQ-02", 450, None)]

    def test_ten_column_benchmark_round_trip(self, tmp_path):
        data = small_sequence("SEQ-01")
        write_benchmark_tree(tmp_path, [data], Benchmark.MOT15)
        gt_text = (tmp_path / "gt" / "SEQ-01.txt").read_text()
        assert gt_text.splitlines()[0].count(",") == 9  # ten columns
        loaded = load_sequence_set(tmp_path, Benchmark.MOT15)
        unit = loaded.units[0]
        assert len(unit.data.gt) == len(data.gt)
        assert all(e.object_class is ObjectClass.PEDESTRIAN for e in unit.data.gt)
        assert len(unit.data.results) == len(data.results)
