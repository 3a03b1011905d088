"""``tools/compare_reports.py``: report bytes of two source trees on a bench tree."""

import shutil
import subprocess
import sys
from pathlib import Path

import motbench

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
SRC = Path(motbench.__file__).resolve().parents[1]


def compare(left, right):
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(left), str(right), "--seeds", "1",
         "--workloads", "detector_sweep"],
        capture_output=True, text=True, timeout=300)
    assert proc.stderr == ""
    return proc.returncode, proc.stdout.splitlines()


def test_same_sources_read_no_difference_and_an_edited_heading_reads_some(tmp_path):
    code, lines = compare(SRC, SRC)
    assert (code, lines) == (0, ["0 of 14 runs differ"])

    edited = tmp_path / "src"
    shutil.copytree(SRC / "motbench", edited / "motbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = edited / "motbench" / "cli.py"
    source = cli.read_text()
    assert source.count('("MOTA", "mota")') == 1
    cli.write_text(source.replace('("MOTA", "mota")', '("MOTA%", "mota")'))
    code, lines = compare(SRC, edited)
    # the heading prints in text and csv evaluate reports, at --iou 0.3 too, not in json
    # or error-analysis
    assert code == 1 and lines[-1] == "6 of 14 runs differ"
    assert len(lines) == 7
    assert all(line.startswith("differs (stdout): seed 1, detector_sweep: motbench evaluate ")
               and "--format json" not in line for line in lines[:6])
    assert sum("evaluate --iou 0.3 " in line for line in lines[:6]) == 2
