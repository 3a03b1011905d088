"""End-to-end command-line tests on synthetic benchmarks."""

import csv
import dataclasses
import inspect
import io
import json
import logging
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import pytest

import motbench
import motbench.assignment as assignment
import motbench.cli as cli
import motbench.clearmot as clearmot
import motbench.identity as identity
from motbench.clearmot import Counts
from motbench.cli import main
from motbench.deteval import pr_curve
from motbench.ingest import Benchmark
from motbench.model import Rows
from conftest import det, entries, gt, hyp, random_instance, seq, write_benchmark_tree


def perfect_sequence(name, frames=6, tracks=3, offset=0.0):
    gt_entries = [
        gt(t, i, 40.0 * i + offset, 3.0 * t)
        for t in range(1, frames + 1)
        for i in range(1, tracks + 1)
    ]
    results = [
        hyp(e.frame, e.track_id + 100, e.left, e.top) for e in gt_entries
    ]
    detections = [
        det(e.frame, e.left, e.top, conf=0.9) for e in gt_entries
    ]
    return seq(name, frames, gt_entries, results, detections)


def synthetic_benchmark(rng, n=7):
    sequences = []
    for k in range(n):
        instance = random_instance(rng, max_tracks=4, max_frames=8)
        detections = [
            det(e.frame, e.left + rng.uniform(-2, 2),
                e.top + rng.uniform(-2, 2), e.width, e.height,
                conf=rng.random())
            for e in entries(instance.gt) if rng.random() < 0.9
        ]
        sequences.append(seq(f"SYN-{k:02d}", instance.num_frames,
                             entries(instance.gt), entries(instance.results), detections))
    return sequences


class TestEvaluate:
    def test_perfect_results_score_100(self, tmp_path, capsys):
        root = write_benchmark_tree(
            tmp_path, [perfect_sequence("SEQ-01"), perfect_sequence("SEQ-02")]
        )
        out = tmp_path / "report.json"
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        overall = rows[-1]
        assert overall["name"] == "OVERALL"
        assert overall["mota"] == pytest.approx(100.0)
        assert overall["idf1"] == pytest.approx(100.0)
        assert overall["motp"] == pytest.approx(100.0)
        assert overall["mt"] == overall["gt_tracks"]
        assert overall["fm"] == 0 and overall["idsw"] == 0

    def test_text_output_columns_and_sorting(self, tmp_path, capsys):
        bad = perfect_sequence("SEQ-BAD")
        bad = seq(bad.name, bad.num_frames, entries(bad.gt),
                  entries(bad.results)[: len(bad.results) // 2], entries(bad.detections))
        root = write_benchmark_tree(tmp_path, [bad, perfect_sequence("SEQ-GOOD")])
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:3] == ["Sequence", "MOTA", "IDF1"]
        assert lines[1].startswith("SEQ-GOOD")  # best row first
        assert lines[2].startswith("SEQ-BAD")
        assert lines[3].startswith("OVERALL")

    def test_outputs_encode_identical_numbers(self, tmp_path, rng):
        # the last two names hold what a CSV cell must quote: a comma, a quote
        sequences = synthetic_benchmark(rng, n=5)
        sequences[3:] = [dataclasses.replace(data, name=name)
                         for data, name in zip(sequences[3:], ("a,b", '"q'))]
        root = write_benchmark_tree(tmp_path, sequences)
        outputs = {}
        for fmt in ("text", "csv", "json"):
            out = tmp_path / f"report.{fmt}"
            assert main([
                "evaluate", "--benchmark", "MOT16",
                "--gt", str(root), "--res", str(root / "res"),
                "--out", str(out), "--format", fmt,
            ]) == 0
            outputs[fmt] = out.read_text()
        json_rows = {row["name"]: row for row in json.loads(outputs["json"])}
        assert {len(cells) for cells in csv.reader(io.StringIO(outputs["csv"]))} == {13}
        csv_rows = list(csv.DictReader(io.StringIO(outputs["csv"])))
        assert {r["Sequence"] for r in csv_rows} == set(json_rows)
        for row in csv_rows:
            ref = json_rows[row["Sequence"]]
            for csv_key, json_key in (("MOTA", "mota"), ("IDF1", "idf1"),
                                      ("FP", "fp"), ("FN", "fn"), ("IDSW", "idsw")):
                if row[csv_key] == "N/A":
                    assert ref[json_key] is None
                else:
                    assert float(row[csv_key]) == pytest.approx(
                        ref[json_key], abs=0.005
                    )
        # text row order matches csv row order
        text_names = [line.split()[0] for line in outputs["text"].splitlines()[1:]]
        assert text_names == [r["Sequence"] for r in csv_rows]

    def test_deterministic_across_parallelism(self, tmp_path, rng):
        root = write_benchmark_tree(tmp_path, synthetic_benchmark(rng, n=7))
        out_serial = tmp_path / "serial.txt"
        out_parallel = tmp_path / "parallel.txt"
        for out, jobs in ((out_serial, "1"), (out_parallel, "8")):
            assert main([
                "evaluate", "--benchmark", "MOT16",
                "--gt", str(root), "--res", str(root / "res"),
                "--out", str(out), "--jobs", jobs,
            ]) == 0
        assert out_serial.read_bytes() == out_parallel.read_bytes()

    def test_missing_results_is_an_input_error(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        (root / "res" / "SEQ-01.txt").unlink()
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 1
        assert "SEQ-01" in capsys.readouterr().err

    def test_zero_frame_count_names_the_file_and_line(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        (root / "seqmap.txt").write_text("# name frames\nSEQ-01 0\n")
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{root / 'seqmap.txt'}: line 2: sequence 'SEQ-01': num_frames must be > 0" in err

    def test_duplicate_seqmap_row_names_the_file_and_line(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        (root / "seqmap.txt").write_text("SEQ-01 6\nSEQ-01 6\n")
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {root / 'seqmap.txt'}: line 2: duplicate sequence 'SEQ-01'\n"

    def test_seqmap_listing_no_sequence_is_an_input_error(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        (root / "seqmap.txt").write_text("# name frames\n")
        code = main([
            "evaluate", "--benchmark", "MOT16", "--format", "json",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {root / 'seqmap.txt'}: lists no sequence\n"

    def test_detection_files_are_not_read(self, tmp_path, capsys):
        # evaluate never reads detections, so a malformed det file does not
        # stop it; error-analysis reads them and names the file and the line
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        det_path = root / "det" / "SEQ-01.txt"
        det_path.write_text(det_path.read_text() + "1,-1,x,0,5,5,0.9,-1,-1\n")
        args = ["--benchmark", "MOT16", "--gt", str(root), "--res", str(root / "res")]
        assert main(["evaluate", *args]) == 0
        assert "OVERALL" in capsys.readouterr().out
        assert main(["error-analysis", *args]) == 1
        line_no = len(det_path.read_text().splitlines())
        assert capsys.readouterr().err == (
            f"error: {det_path}: line {line_no}: malformed number 'x' in left field\n"
        )

    def test_non_finite_geometry_names_the_file_and_line(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        res_path = root / "res" / "SEQ-01.txt"
        res_path.write_text(res_path.read_text() + "1,5,1e308,10,1e308,40,1,-1,-1\n")
        line_no = len(res_path.read_text().splitlines())
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {res_path}: line {line_no}: "
            "box right edge, bottom edge or area is not finite\n"
        )

    def test_three_partitions_pool_into_one_report(self, tmp_path):
        sequences = [perfect_sequence("SEQ-01"), perfect_sequence("SEQ-02")]
        root = write_benchmark_tree(tmp_path, sequences, Benchmark.MOT17)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--benchmark", "MOT17",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(out), "--format", "json",
        ]) == 0
        rows = json.loads(out.read_text())
        names = [row["name"] for row in rows]
        assert len(names) == 7  # 2 sequences x 3 detectors + OVERALL
        assert "SEQ-01-DPM" in names and "SEQ-02-SDP" in names
        overall = rows[-1]
        assert overall["gt_total"] == sum(r["gt_total"] for r in rows[:-1])

    def test_identity_scores_pool_the_summed_counts(self, tmp_path):
        # HALF: 10 frames, the tracker covers the first 5 (IDTP 5, IDFN 5).
        # FULL: 4 frames, covered whole, plus a stray 2-box track (IDTP 4, IDFP 2).
        half = seq("HALF", 10, [gt(t, 1, 0, 0) for t in range(1, 11)],
                   [hyp(t, 8, 0, 0) for t in range(1, 6)])
        full = seq("FULL", 4, [gt(t, 1, 0, 0) for t in range(1, 5)],
                   [hyp(t, 8, 0, 0) for t in range(1, 5)]
                   + [hyp(t, 9, 500, 500) for t in (1, 2)])
        root = write_benchmark_tree(tmp_path, [half, full])
        out = tmp_path / "report.json"
        assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--out", str(out), "--format", "json"]) == 0
        rows = {row["name"]: row for row in json.loads(out.read_text())}
        idtp, idfp, idfn = 5 + 4, 0 + 2, 5 + 0
        expected = {"idf1": 100.0 * 2 * idtp / (2 * idtp + idfp + idfn),
                    "idp": 100.0 * idtp / (idtp + idfp), "idr": 100.0 * idtp / (idtp + idfn)}
        for key, value in expected.items():
            assert rows["OVERALL"][key] == pytest.approx(value)
            assert value != pytest.approx((rows["HALF"][key] + rows["FULL"][key]) / 2)


class TestValidate:
    def write_seqmap(self, tmp_path, names):
        path = tmp_path / "seqmap.txt"
        path.write_text("".join(f"{n} 10\n" for n in names))
        return path

    def test_passing_submission(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01", "SEQ-02"])
        sub = tmp_path / "sub"
        sub.mkdir()
        for name in ("SEQ-01", "SEQ-02"):
            (sub / f"{name}.txt").write_text("1,1,0,0,5,5,1,-1,-1\n")
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_submission_zip(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01", "SEQ-02"])
        archive = tmp_path / "sub.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("SEQ-01.txt", "1,1,0,0,5,5,1,-1,-1\n")
        code = main([
            "validate", str(archive), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        assert "missing sequence: SEQ-02" in capsys.readouterr().out

    def test_damaged_zip_is_an_input_error(self, tmp_path, capsys):
        # every single-byte mutation of a small deflated archive: the zip
        # reader's errors (bad headers, CRC, deflate stream, compression
        # method, encryption flag, truncation) end in one error line that
        # names the archive
        seqmap = self.write_seqmap(tmp_path, ["S"])
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("S.txt", "1,1,10,10,20,20,1,-1,-1\n2,1,11,10,20,20,1,-1,-1\n")
        raw = buffer.getvalue()
        archive = tmp_path / "sub.zip"
        unreadable = 0
        for at in range(len(raw)):
            for mutated in (0, raw[at] ^ 0xFF, raw[at] ^ 1):
                archive.write_bytes(raw[:at] + bytes([mutated]) + raw[at + 1:])
                code = main([
                    "validate", str(archive), "--benchmark", "MOT16", "--seqmap", str(seqmap)
                ])
                err = capsys.readouterr().err
                assert code in (0, 1), err
                if err.startswith(f"error: {archive}: unreadable zip archive: "):
                    unreadable += 1
                else:
                    assert err in ("", f"error: {archive} is neither a zip archive nor a directory\n")
                assert err.count("\n") <= 1
        assert unreadable > len(raw)

    def test_seqmap_listing_no_sequence_is_an_input_error(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, [])
        sub = tmp_path / "sub"
        sub.mkdir()
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {seqmap}: lists no sequence\n"

    def test_partitioned_benchmark_expects_suffixed_files(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01"])
        sub = tmp_path / "sub"
        sub.mkdir()
        for detector in ("DPM", "FRCNN", "SDP"):
            (sub / f"SEQ-01-{detector}.txt").write_text("1,1,0,0,5,5,1,-1,-1\n")
        assert main([
            "validate", str(sub), "--benchmark", "MOT17", "--seqmap", str(seqmap)
        ]) == 0

    def test_malformed_seqmap_names_the_file_and_line(self, tmp_path, capsys):
        seqmap = tmp_path / "seqmap.txt"
        seqmap.write_text("SEQ-01 abc\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        assert f"{seqmap}: line 1: malformed number" in capsys.readouterr().err

    def test_zero_frame_count_names_the_file_and_line(self, tmp_path, capsys):
        seqmap = tmp_path / "seqmap.txt"
        seqmap.write_text("SEQ-01 10\nSEQ-02 0\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{seqmap}: line 2: sequence 'SEQ-02': num_frames must be > 0" in err


    def test_duplicate_seqmap_row_names_the_file_and_line(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01", "SEQ-01"])
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "SEQ-01.txt").write_text("1,1,0,0,5,5,1,-1,-1\n")
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err == f"error: {seqmap}: line 2: duplicate sequence 'SEQ-01'\n"

    def test_id_beyond_int64_names_the_line(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01"])
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "SEQ-01.txt").write_text("1,1,0,0,5,5,1,-1,-1\n1,1e19,1,1,5,5,1,-1,-1\n")
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        assert capsys.readouterr().out == (
            "SEQ-01.txt: line 2: id out of range, got '1e19'\nFAIL\n"
        )

    def test_frame_beyond_the_map_fails_as_evaluate_reports_it(self, tmp_path, capsys):
        # validate reads each file with its sequence's frame count, as evaluate does
        (tmp_path / "seqmap.txt").write_text("S1 3 30\n")
        (tmp_path / "gt").mkdir()
        (tmp_path / "gt" / "S1.txt").write_text("1,1,0,0,5,5,1,1,1\n")
        (tmp_path / "res").mkdir()
        res = tmp_path / "res" / "S1.txt"
        res.write_text("1,1,0,0,5,5,1,-1,-1\n9,1,0,0,5,5,1,-1,-1\n")
        code = main(["validate", str(tmp_path / "res"), "--benchmark", "MOT16",
                     "--seqmap", str(tmp_path / "seqmap.txt")])
        assert (code, capsys.readouterr().out) == (
            1, "S1.txt: line 2: frame 9 outside [1, 3]\nFAIL\n")
        code = main(["evaluate", "--benchmark", "MOT16", "--gt", str(tmp_path),
                     "--res", str(tmp_path / "res")])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {res}: line 2: frame 9 outside [1, 3]\n")

    def test_seqmap_may_have_any_file_name(self, tmp_path, capsys):
        seqmap = tmp_path / "sequences.map"
        seqmap.write_text("SEQ-01 10\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "SEQ-01.txt").write_text("10,1,0,0,5,5,1,-1,-1\n")
        assert main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ]) == 0
        assert capsys.readouterr().out == "PASS\n"

    @pytest.mark.parametrize("command", ["validate", "evaluate", "error-analysis"])
    def test_a_directory_for_the_map_is_one_error_for_every_command(
            self, tmp_path, capsys, command):
        root = write_benchmark_tree(tmp_path / "tree", [perfect_sequence("SEQ-01")])
        seqmap = root / "seqmap.txt"
        seqmap.unlink()
        seqmap.mkdir()
        if command == "validate":
            argv = [command, str(root / "res"), "--benchmark", "MOT16", "--seqmap", str(seqmap)]
        else:
            argv = [command, "--benchmark", "MOT16", "--gt", str(root),
                    "--res", str(root / "res")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: missing sequence map {seqmap}\n")

    def test_dot_files_are_skipped_in_a_directory_as_in_a_zip(self, tmp_path, capsys):
        # an archiver's '._S1.txt' metadata file is no result file, in
        # either container; the result file of a sequence named '.S2' is
        seqmap = self.write_seqmap(tmp_path, ["S1", ".S2"])
        row = "1,1,0,0,5,5,1,-1,-1\n"
        files = {"S1.txt": row, ".S2.txt": row, "._S1.txt": "\x00\x05\x16\x07"}
        sub = tmp_path / "sub"
        sub.mkdir()
        archive = tmp_path / "sub.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for name, text in files.items():
                (sub / name).write_text(text)
                zf.writestr(name, text)
        for submission in (sub, archive):
            code = main(["validate", str(submission), "--benchmark", "MOT16",
                         "--seqmap", str(seqmap)])
            assert (code, capsys.readouterr().out) == (0, "PASS\n"), submission

    def test_repeated_unassigned_id_fails(self, tmp_path, capsys):
        seqmap = self.write_seqmap(tmp_path, ["SEQ-01"])
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "SEQ-01.txt").write_text("1,-1,0,0,10,10,1,-1,-1\n1,-1,1,0,10,10,1,-1,-1\n")
        code = main([
            "validate", str(sub), "--benchmark", "MOT16", "--seqmap", str(seqmap)
        ])
        assert code == 1
        assert capsys.readouterr().out == (
            "SEQ-01.txt: line 2: duplicate (frame, id) pair (1, -1)\nFAIL\n"
        )


def two_frame_tree(tmp_path):
    # frame 1: gt at 0 and 40; detections hit only the first, plus one
    # garbage box; frame 2: gt at 0, detection misses it entirely.
    gt_entries = [gt(1, 1, 0, 0), gt(1, 2, 40, 0), gt(2, 1, 0, 0)]
    detections = [det(1, 0, 0, conf=0.9), det(1, 200, 200, conf=0.8),
                  det(2, 300, 300, conf=0.7)]
    # tracker: follows gt 1 in both frames and invents one box in frame 2
    results = [hyp(1, 5, 0, 0), hyp(2, 5, 0, 0), hyp(2, 6, 250, 250)]
    return write_benchmark_tree(tmp_path, [seq("SEQ-01", 2, gt_entries, results, detections)])


def test_both_reports_print_pinned_bytes(tmp_path):
    # the leaderboard and the error analysis of the two-frame fixture, in
    # every format: text and CSV byte for byte, JSON key by key in order
    root = two_frame_tree(tmp_path)

    def report(command, fmt):
        out = tmp_path / f"{command}.{fmt}"
        assert main([command, "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--format", fmt, "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")

    assert report("evaluate", "text") == (
        "Sequence   MOTA   IDF1    MOTP   FAR  MT  ML  FP  FN  IDSW  FM  IDSWR   FMR\n"
        "SEQ-01    33.33  66.67  100.00  0.50   1   1   1   1     0   0   0.00  0.00\n"
        "OVERALL   33.33  66.67  100.00  0.50   1   1   1   1     0   0   0.00  0.00\n")
    assert report("evaluate", "csv") == (
        "Sequence,MOTA,IDF1,MOTP,FAR,MT,ML,FP,FN,IDSW,FM,IDSWR,FMR\n"
        "SEQ-01,33.33,66.67,100.00,0.50,1,1,1,1,0,0,0.00,0.00\n"
        "OVERALL,33.33,66.67,100.00,0.50,1,1,1,1,0,0,0.00,0.00\n")
    third, two_thirds = 100 / 3, 200 / 3
    leaderboard = [
        ("mota", third), ("motp", 100.0), ("far", 0.5), ("recall", two_thirds),
        ("precision", two_thirds), ("mt", 1), ("pt", 0), ("ml", 1), ("gt_tracks", 2),
        ("fp", 1), ("fn", 1), ("idsw", 0), ("fm", 0), ("idswr", 0.0), ("fmr", 0.0),
        ("frames", 2), ("gt_total", 3), ("idf1", two_thirds), ("idp", two_thirds),
        ("idr", two_thirds), ("mt_ratio", 0.5), ("ml_ratio", 0.5)]
    assert [list(row.items()) for row in json.loads(report("evaluate", "json"))] == [
        [("name", name), *leaderboard] for name in ("SEQ-01", "OVERALL")]
    assert report("error-analysis", "text") == (
        "Sequence  FP_trk  FP_det  FP_ratio  FN_trk  FN_det  FN_ratio\n"
        "SEQ-01         1       2      0.50       1       2      0.50\n"
        "TOTAL          1       2      0.50       1       2      0.50\n")
    assert report("error-analysis", "csv") == (
        "Sequence,FP_trk,FP_det,FP_ratio,FN_trk,FN_det,FN_ratio\n"
        "SEQ-01,1,2,0.50,1,2,0.50\n"
        "TOTAL,1,2,0.50,1,2,0.50\n")
    errors = [("fp_tracker", 1), ("fp_detector", 2), ("fn_tracker", 1), ("fn_detector", 2),
              ("fp_ratio", 0.5), ("fn_ratio", 0.5)]
    assert [list(row.items()) for row in json.loads(report("error-analysis", "json"))] == [
        [("sequence", name), *errors] for name in ("SEQ-01", "TOTAL")]


class TestErrorAnalysis:
    def test_detections_as_tracker_give_unit_ratios(self, tmp_path, capsys):
        base = perfect_sequence("SEQ-01")
        # tracker output: exactly the detections, each box its own id; also
        # degrade the detections so FP and FN are both nonzero
        detections = [d for k, d in enumerate(entries(base.detections)) if k % 3 != 0]
        detections += [det(1, 500, 500, conf=0.4), det(2, 500, 500, conf=0.4)]
        results = [
            hyp(d.frame, 1000 + k, d.left, d.top, d.width, d.height)
            for k, d in enumerate(detections)
        ]
        data = seq("SEQ-01", base.num_frames, entries(base.gt), results, detections)
        root = write_benchmark_tree(tmp_path, [data])
        out = tmp_path / "err.json"
        assert main([
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(out), "--format", "json",
        ]) == 0
        rows = json.loads(out.read_text())
        total = rows[-1]
        assert total["sequence"] == "TOTAL"
        assert total["fp_detector"] > 0 and total["fn_detector"] > 0
        assert total["fp_ratio"] == pytest.approx(1.0)
        assert total["fn_ratio"] == pytest.approx(1.0)

    def test_empty_tracker_has_zero_fp_ratio(self, tmp_path):
        base = perfect_sequence("SEQ-01")
        detections = entries(base.detections) + [det(1, 500, 500, conf=0.4)]
        data = seq("SEQ-01", base.num_frames, entries(base.gt), [], detections)
        root = write_benchmark_tree(tmp_path, [data])
        out = tmp_path / "err.json"
        assert main([
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(out), "--format", "json",
        ]) == 0
        rows = json.loads(out.read_text())
        total = rows[-1]
        assert total["fp_ratio"] == pytest.approx(0.0)
        assert total["fn_tracker"] == len(base.gt)

    def test_hand_counted_two_frame_fixture(self, tmp_path):
        root = two_frame_tree(tmp_path)
        out = tmp_path / "err.json"
        assert main([
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(out), "--format", "json",
        ]) == 0
        row = json.loads(out.read_text())[0]
        # detector: frame 1 one hit one miss one FP; frame 2 one miss one FP
        assert (row["fp_detector"], row["fn_detector"]) == (2, 2)
        # tracker: one invented box, one missed target
        assert (row["fp_tracker"], row["fn_tracker"]) == (1, 1)
        assert row["fp_ratio"] == pytest.approx(0.5)
        assert row["fn_ratio"] == pytest.approx(0.5)

    def test_missing_detections_is_an_input_error(self, tmp_path, capsys):
        base = perfect_sequence("SEQ-01")
        data = seq("SEQ-01", base.num_frames, entries(base.gt), entries(base.results))
        root = write_benchmark_tree(tmp_path, [data])
        code = main([
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        assert code == 1
        assert "no detections" in capsys.readouterr().err

    def test_seqmap_listing_no_sequence_is_an_input_error(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        (root / "seqmap.txt").write_text("\n")
        code = main([
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {root / 'seqmap.txt'}: lists no sequence\n"


class TestArgumentChecks:
    def test_bad_threshold_rejected(self, tmp_path, capsys):
        # the threshold is checked before any file is read
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(tmp_path / "missing"), "--res", str(tmp_path / "res"),
            "--iou", "1.5",
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: iou_threshold must be in (0, 1], got 1.5\n"

    def test_output_under_a_regular_file_is_an_input_error(self, tmp_path, capsys):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for command in ("evaluate", "error-analysis"):
            code = main([
                command, "--benchmark", "MOT16",
                "--gt", str(root), "--res", str(root / "res"),
                "--out", str(blocker / "report.txt"),
            ])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        # checked before any file is read, as the threshold is
        code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(tmp_path / "missing"), "--res", str(tmp_path / "res"),
            "--jobs", jobs,
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"

    def test_lenient_mode_accepts_ten_column_results(self, tmp_path):
        root = write_benchmark_tree(tmp_path, [perfect_sequence("SEQ-01")])
        res = root / "res" / "SEQ-01.txt"
        rows = [line + ",-1" for line in res.read_text().strip().splitlines()]
        res.write_text("\n".join(rows) + "\n")
        strict_code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(tmp_path / "r.txt"),
        ])
        assert strict_code == 1
        lenient_code = main([
            "evaluate", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res"),
            "--out", str(tmp_path / "r.txt"), "--lenient",
        ])
        assert lenient_code == 0


def test_one_pooled_record_and_a_flat_front_end():
    # identity counts pool with the frame-level ones in Counts, and main
    # reads the arguments itself
    source = inspect.getsource(cli)
    for name in ("RunConfig", "_run_config", "_load", "_emit", "cmd_evaluate",
                 "cmd_validate", "cmd_error_analysis", "_with_identity",
                 "render_text", "render_csv", "render_json", "_report_row"):
        assert f"def {name}(" not in source and f"class {name}" not in source
        assert not hasattr(cli, name), name
    for module in (motbench, identity):
        assert not hasattr(module, "pool_identity"), module.__name__
    assert "pool_identity" not in motbench.__all__
    # one convention for an undefined ratio: None, with no error type or
    # rate record of its own
    for name in ("Rates", "derived_rates", "UndefinedMetricError"):
        for module in (motbench, clearmot):
            assert not hasattr(module, name), (module.__name__, name)
        assert name not in motbench.__all__
    assert {"idtp", "idfp", "idfn"} <= {f.name for f in dataclasses.fields(Counts)}


def test_one_threshold_and_one_table_through_the_chain():
    # the threshold is one float wherever it is given, and run_sequence
    # scores the table that preprocess_sequence returns, nothing else
    for module in (motbench, assignment):
        assert not hasattr(module, "MatchingConfig"), module.__name__
    assert "MatchingConfig" not in motbench.__all__
    assert list(inspect.signature(assignment.run_sequence).parameters) == ["table"]
    for fn in (assignment.preprocess_sequence, pr_curve):
        threshold = inspect.signature(fn).parameters["iou_threshold"]
        assert (threshold.annotation, threshold.default) == ("float", 0.5), fn.__name__


def test_one_sequence_map_path():
    # ingest reads the map and names the units; main only calls it, and one
    # function runs the sequences for every --jobs value
    assert not hasattr(cli, "read_seqmap") and not hasattr(cli, "_forked_map")
    package = Path(motbench.__file__).parent
    source = "".join(path.read_text() for path in sorted(package.glob("*.py")))
    assert len(re.findall(r'f"\{\w+\}-\{\w+\}"', source)) == 1


def _write_tree(root: Path, seqmap: str, gt_rows: str, res_rows: str) -> list[str]:
    """A one-sequence MOT16 tree (sequence ``S-01``); the evaluate arguments for it."""
    (root / "gt").mkdir(parents=True)
    (root / "res").mkdir()
    (root / "seqmap.txt").write_text(seqmap)
    (root / "gt" / "S-01.txt").write_text(gt_rows)
    (root / "res" / "S-01.txt").write_text(res_rows)
    return ["evaluate", "--benchmark", "MOT16", "--gt", str(root),
            "--res", str(root / "res"), "--format", "json"]


@pytest.mark.parametrize("frames, gt_rows, res_rows, expected", [
    # a track seen in the first and the last frame, matched in the last
    (10**6, "1,1,10,20,30,60,1,1,1\n1000000,1,10,20,30,60,1,1,1\n",
     "1000000,7,10,20,30,60,1,-1,-1\n",
     {"gt_total": 2, "fp": 0, "fn": 1, "idsw": 0, "fm": 0, "mt": 0, "ml": 1,
      "mota": 50.0, "motp": 100.0, "far": 0.0, "idf1": 200.0 / 3}),
    # two targets crossing two hypotheses in frame 1, every pair overlapping:
    # a frame with conflicting edges, which step 3 solves
    (10**12, "1,1,10,20,30,60,1,1,1\n1,2,12,20,30,60,1,1,1\n",
     "1,7,10,20,30,60,1,-1,-1\n1,8,12,20,30,60,1,-1,-1\n",
     {"gt_total": 2, "fp": 0, "fn": 0, "idsw": 0, "fm": 0, "mt": 2, "ml": 0,
      "mota": 100.0, "motp": 100.0, "far": 0.0, "idf1": 100.0}),
], ids=["track_across_the_gap", "crossing_frame"])
def test_work_scales_with_rows_not_declared_frames(tmp_path, capsys, frames, gt_rows,
                                                   res_rows, expected):
    # a few rows in a sequence that declares a million frames or more
    args = _write_tree(tmp_path, f"S-01 {frames} 30\n", gt_rows, res_rows)
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tuple, an index entry or a flag per declared frame would take over 100 MB
    assert peak < 5_000_000
    row = json.loads(capsys.readouterr().out)[0]
    assert {k: row[k] for k in ("frames", *expected)} == {"frames": frames, **expected}


def test_repeated_unassigned_result_id_is_an_input_error(tmp_path, capsys):
    # two boxes of hypothesis -1 in one frame would count as two co-detected
    # frames of one pair: IDF1 133.33 and IDR 200 for one GT box
    args = _write_tree(tmp_path, "S-01 1\n", "1,1,0,0,10,10,1,1,1\n",
                       "1,-1,0,0,10,10,1,-1,-1\n1,-1,1,0,10,10,1,-1,-1\n")
    assert main(args) == 1
    res_path = tmp_path / "res" / "S-01.txt"
    assert capsys.readouterr().err == (
        f"error: {res_path}: line 2: duplicate (frame, id) pair (1, -1)\n"
    )


def test_extents_below_one_ulp_score_at_most_100(tmp_path, capsys):
    # left + width rounds up to the next float: an identical pair measured
    # between its rounded edges has IoU exactly 1
    tiny = "1.6653345369377348e-16"
    args = _write_tree(tmp_path, "S-01 1 30\n", f"1,1,1,1,{tiny},{tiny},1,1,1\n",
                       f"1,1,1,1,{tiny},{tiny},1,-1,-1\n")
    assert main(args) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert (row["motp"], row["fn"], row["fp"]) == (100.0, 0, 0)


# Blocks every scipy import, then runs evaluate and a PR sweep on the tree
# given as the first argument.
_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from motbench.cli import main
from motbench.deteval import pr_curve
from motbench.ingest import Benchmark, load_sequence_set

root = sys.argv[1]
assert main(["evaluate", "--benchmark", "MOT16", "--gt", root,
             "--res", root + "/res", "--out", root + "/report.txt"]) == 0
unit = load_sequence_set(root, Benchmark.MOT16).units[0]
assert pr_curve(unit.data.detections, unit.data.gt).ap > 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
assert "numpy.ma" not in sys.modules
"""


def test_runtime_needs_no_scipy(tmp_path, rng):
    root = write_benchmark_tree(tmp_path, synthetic_benchmark(rng, n=3))
    env = {**os.environ, "PYTHONPATH": str(Path(motbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(root)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (root / "report.txt").read_text().startswith("Sequence")


class TestWorkers:
    """``--jobs N`` runs one task per sequence in forked workers."""

    def run(self, capfd, argv):
        # pytest's handlers on the root logger stand in for Python's
        # last-resort handler; this one writes warnings to stderr as it does
        handler = logging.StreamHandler(sys.stderr)
        logger = logging.getLogger("motbench")
        logger.addHandler(handler)
        try:
            code = main(argv)
        finally:
            logger.removeHandler(handler)
        out, err = capfd.readouterr()
        return code, out, err

    def tree(self, tmp_path, with_detections=(True, True, True)):
        sequences = [perfect_sequence(f"SEQ-{k}", offset=k) for k in (1, 2, 3)]
        sequences = [s if keep else dataclasses.replace(s, detections=Rows())
                     for s, keep in zip(sequences, with_detections)]
        return write_benchmark_tree(tmp_path / "tree", sequences)

    def same_for_any_jobs(self, capfd, argv):
        outputs = [self.run(capfd, [*argv, "--jobs", jobs]) for jobs in ("1", "3")]
        assert outputs[0] == outputs[1]
        return outputs[0]

    def test_lenient_repairs_in_every_sequence(self, tmp_path, capfd):
        root = self.tree(tmp_path)
        for k in (1, 2, 3):
            with (root / "gt" / f"SEQ-{k}.txt").open("a") as f:
                f.write("1,99,500,500,10,10,1,77,1.5\n")
        code, out, err = self.same_for_any_jobs(capfd, [
            "evaluate", "--benchmark", "MOT16", "--lenient",
            "--gt", str(root), "--res", str(root / "res")])
        assert code == 0 and "OVERALL" in out
        assert err == "".join(
            f"{root / 'gt' / f'SEQ-{k}.txt'}: line 19: {message}\n"
            for k in (1, 2, 3)
            for message in ("unknown class code 77, using OTHER", "clamping visibility 1.5"))

    def test_first_error_in_seqmap_order(self, tmp_path, capfd):
        # sequences 2 and 3 fail; the warnings of sequences 1 and 2 come
        # before sequence 2's error, and sequence 3 shows nothing
        root = self.tree(tmp_path)
        for k in (1, 2, 3):
            with (root / "gt" / f"SEQ-{k}.txt").open("a") as f:
                f.write("1,99,500,500,10,10,1,77,1\n")
        for k in (2, 3):
            with (root / "res" / f"SEQ-{k}.txt").open("a") as f:
                f.write("1,5,x,10,10,40,1,-1,-1\n")
        code, out, err = self.same_for_any_jobs(capfd, [
            "evaluate", "--benchmark", "MOT16", "--lenient",
            "--gt", str(root), "--res", str(root / "res")])
        assert (code, out) == (1, "")
        assert err == "".join(
            f"{root / 'gt' / f'SEQ-{k}.txt'}: line 19: unknown class code 77, using OTHER\n"
            for k in (1, 2)) + (
            f"error: {root / 'res' / 'SEQ-2.txt'}: line 19: malformed number 'x' in left field\n")

    def test_every_unit_without_detections_is_named(self, tmp_path, capfd):
        root = self.tree(tmp_path, with_detections=(False, True, False))
        code, out, err = self.same_for_any_jobs(capfd, [
            "error-analysis", "--benchmark", "MOT16",
            "--gt", str(root), "--res", str(root / "res")])
        assert (code, out) == (1, "")
        assert err == "error: no detections available for: SEQ-1, SEQ-3\n"

    @pytest.fixture
    def forks(self):
        """The pid of each child forked since the list was last cleared.

        A fork past the second is refused.
        """
        real, pids = os.fork, []

        def spy():
            assert len(pids) < 2, "more than two children"
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        with mock.patch.object(os, "fork", spy):
            yield pids

    def two_rows(self, tmp_path):
        root = write_benchmark_tree(
            tmp_path / "tree", [perfect_sequence("SEQ-1"), perfect_sequence("SEQ-2", offset=3)])
        return root, ["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                      "--res", str(root / "res")]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_worker_outlives_main(self, tmp_path, capfd, forks):
        # after a success and after an input error raised in a worker
        root, argv = self.two_rows(tmp_path)
        assert self.run(capfd, [*argv, "--jobs", "2"])[0] == 0
        assert len(forks) == 2
        self.assert_no_child()
        forks.clear()
        (root / "res" / "SEQ-2.txt").unlink()
        assert self.run(capfd, [*argv, "--jobs", "2"])[0] == 1
        assert len(forks) == 2
        self.assert_no_child()

    def test_at_most_one_worker_per_sequence(self, tmp_path, capfd, forks):
        # two sequences: a larger --jobs value forks two children
        _, argv = self.two_rows(tmp_path)
        parallel = self.run(capfd, [*argv, "--jobs", "16"])
        assert len(forks) == 2
        self.assert_no_child()
        assert parallel == self.run(capfd, [*argv, "--jobs", "1"])

    def test_an_error_in_main_reaps_the_workers(self, tmp_path, capfd):
        # the second fork fails while the first child runs: main kills it
        real, pids = os.fork, []

        def fork_once():
            if pids:
                raise RuntimeError("no second fork")
            pids.append(real())
            return pids[-1]

        _, argv = self.two_rows(tmp_path)
        with mock.patch.object(os, "fork", fork_once):
            code, out, err = self.run(capfd, [*argv, "--jobs", "2"])
        assert (code, out, err) == (2, "", "internal error: no second fork\n")
        self.assert_no_child()


# Evaluates the tree given as the first argument with --jobs 2 while every
# worker process ends at its first unit, as one the kernel killed would: by
# the exit code or the signal the second argument names.  Exits with main's
# code, or with 9 if a child outlived main.
_DYING_WORKERS = """
import os
import signal
import sys

import motbench.cli as cli

parent, evaluate = os.getpid(), cli._evaluate_unit
how, value = sys.argv[2].split(":")

def dying(unit, iou_threshold):
    if os.getpid() != parent:
        if how == "exit":
            os._exit(int(value))
        os.kill(os.getpid(), getattr(signal, value))
    return evaluate(unit, iou_threshold)

cli._evaluate_unit = dying
root = sys.argv[1]
code = cli.main(["evaluate", "--benchmark", "MOT16", "--gt", root,
                 "--res", root + "/res", "--jobs", "2"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(9)
"""


@pytest.mark.parametrize("death", ["exit:3", "signal:SIGKILL"])
def test_a_dead_worker_ends_the_run(tmp_path, death):
    # an internal error, not a wait for results that never come
    root = write_benchmark_tree(
        tmp_path, [perfect_sequence("SEQ-1"), perfect_sequence("SEQ-2", offset=3)])
    env = {**os.environ, "PYTHONPATH": str(Path(motbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKERS, str(root), death],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("internal error: ") and proc.stderr.count("\n") == 1


# Runs evaluate --jobs 2 on the tree given as the first argument, then prints
# the executor modules that are loaded.
_NO_EXECUTOR = """
import sys

from motbench.cli import main

root = sys.argv[1]
assert main(["evaluate", "--benchmark", "MOT16", "--gt", root, "--res", root + "/res",
             "--out", root + "/report.txt", "--jobs", "2"]) == 0
print(sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_workers_need_no_executor(tmp_path, rng):
    # the executor's imports cost CLI users 20-33 ms; bare forks need neither
    root = write_benchmark_tree(tmp_path, synthetic_benchmark(rng, n=3))
    env = {**os.environ, "PYTHONPATH": str(Path(motbench.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _NO_EXECUTOR, str(root)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    assert (root / "report.txt").read_text().startswith("Sequence")
