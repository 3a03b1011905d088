"""The README's library examples run as written, in order, on a small benchmark tree."""

import dataclasses
import re
from pathlib import Path

from conftest import (
    det, rows, scenario_crossing_locked_by_carryover, scenario_switch_mid_track,
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
