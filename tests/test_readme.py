"""The README's library examples run as written, and its worked example of a tie holds."""

import dataclasses
import re
from pathlib import Path

import pytest

from motbench.assignment import preprocess_sequence, run_sequence
from motbench.clearmot import accumulate, mota
from conftest import (
    det, gt, hyp, rows, scenario_crossing_locked_by_carryover, scenario_switch_mid_track, seq,
    write_benchmark_tree,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    crossing = scenario_crossing_locked_by_carryover()
    detections = rows(det(t, 0, 0, conf=0.5 + t / 20) for t in range(1, crossing.num_frames + 1))
    sequences = [scenario_switch_mid_track(), dataclasses.replace(crossing, detections=detections)]
    # the first block reads the tree and the results, the third the last unit it read
    write_benchmark_tree(tmp_path / "data" / "MOT16", sequences)
    (tmp_path / "data" / "MOT16" / "res").rename(tmp_path / "results")
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out.splitlines()
    assert "[1 2] [0.875 0.875]" in out
    assert [line.split()[0] for line in out[:3]] == [
        "switch-mid-track", "crossing-locked", "OVERALL"]
    assert Path("curve.csv").read_text().startswith("threshold,recall,precision\n")


@pytest.mark.parametrize("frame_2, idsw, expected_mota", [
    ((100, 102, 101), 3, 50.0),
    ((101, 100, 102), 0, 100.0),
])
def test_three_way_cycle_of_the_evaluation_conventions(frame_2, idsw, expected_mota):
    # The README's example of a tie that no tie level separates: 10 x 10
    # targets 1, 2 and 3 at (0, 0), (4, 0) and (2, 4), hypotheses 100, 102
    # and 101 at (2, 0), (3, 2) and (1, 2) in frame 1, and in frame 2 the
    # hypotheses ``frame_2`` exactly on targets 1, 2 and 3.
    targets = [(0, 0), (4, 0), (2, 4)]
    gt_entries = [gt(t, k, x, y) for t in (1, 2) for k, (x, y) in enumerate(targets, start=1)]
    results = [hyp(1, 100, 2, 0), hyp(1, 102, 3, 2), hyp(1, 101, 1, 2)]
    results += [hyp(2, h, x, y) for h, (x, y) in zip(frame_2, targets)]
    counts = accumulate(run_sequence(preprocess_sequence(seq("cycle", 2, gt_entries, results))))
    assert (counts.idsw, mota(counts)) == (idsw, expected_mota)
    assert (counts.tp, counts.fp, counts.fn) == (6, 0, 0)
