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
        assert int(edges) >= int(calls) >= 0  # no solve over zero edges
        assert 0.0 <= float(search_s) <= float(solve_s)
    # every neutral pair of this tree above the threshold is free, so the
    # neutral filter solves nothing; the tree has conflict frames, and every
    # unit has co-detecting tracks, so the other two callers solve edges
    neutral, match, identity = (int(calls) for _, calls, *_ in cells)
    assert neutral == 0 and match > 0 and identity > 0
