"""``tools/solver_time.py``: solver calls, edges and seconds per caller on a bench tree."""

import subprocess
import sys
from pathlib import Path

import motbench

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solver_time.py"
SRC = Path(motbench.__file__).resolve().parents[1]


def test_prints_one_row_per_caller_on_the_detector_sweep_tree():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(SRC), "--seeds", "1", "--workloads", "detector_sweep"],
        capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["seed", "workload", "caller", "calls", "edges", "solve_s",
                              "search_s"]
    cells = [row.rsplit(None, 4) for row in rows]
    assert [lead.split(None, 2) for lead, *_ in cells] == [
        ["1", "detector_sweep", caller] for caller in ("neutral filter", "_match", "identity")]
    for _, calls, edges, solve_s, search_s in cells:
        assert int(calls) > 0 and int(edges) >= 0
        assert 0.0 <= float(search_s) <= float(solve_s)
    # every unit of the tree has co-detecting tracks, so identity solves edges
    assert int(cells[-1][2]) > 0
