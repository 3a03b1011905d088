"""Metamorphic relations of whole reports: input edits that change no report byte.

Each relation rewrites every ground-truth and result file of a benchmark tree
and runs ``evaluate --format json`` on the tree before and after; the two
reports must be the same bytes.  The trees hold integer-grid sequences
(``snap_to_grid``), where exact IoU ties are common and every edit below is
exact in floats, so a convention that depended on row order, position, scale,
axis or the id values themselves would show as a changed count or digit.
"""

import dataclasses
import json
import random
import shutil
from pathlib import Path

import pytest

from motbench.cli import main
from conftest import random_instance, snap_to_grid, write_benchmark_tree


def _boxes(change):
    """A line edit that maps each row's (left, top, width, height) through ``change``."""
    def edit(fields: list[str]) -> list[str]:
        box = change(*map(float, fields[2:6]))
        return fields[:2] + [repr(float(value)) for value in box] + fields[6:]
    return edit


#: Per relation, the edit of one line's comma-separated fields; None shuffles
#: the lines of each file instead.
RELATIONS = {
    "shuffled rows": None,
    "mirrored x": _boxes(lambda x, y, w, h: (1920 - x - w, y, w, h)),
    "shifted": _boxes(lambda x, y, w, h: (x + 1000, y - 77, w, h)),
    "scaled by 2": _boxes(lambda x, y, w, h: (2 * x, 2 * y, 2 * w, 2 * h)),
    "x and y swapped": _boxes(lambda x, y, w, h: (y, x, h, w)),
    "ids relabelled": lambda fields: [fields[0], str(3 * int(fields[1]) + 5), *fields[2:]],
}


def _report(root: Path) -> bytes:
    out = root / "report.json"
    assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                 "--res", str(root / "res"), "--format", "json", "--out", str(out)]) == 0
    return out.read_bytes()


def _rewrite(source: Path, target: Path, edit, rng: random.Random) -> bool:
    """``source`` copied to ``target`` with every GT and result file edited; whether any changed."""
    shutil.copytree(source, target)
    changed = False
    for path in sorted([*(target / "gt").glob("*.txt"), *(target / "res").glob("*.txt")]):
        text = path.read_text()
        lines = text.splitlines()
        if edit is None:
            rng.shuffle(lines)
        else:
            lines = [",".join(edit(line.split(","))) for line in lines]
        path.write_text("".join(line + "\n" for line in lines))
        changed |= path.read_text() != text
    return changed


@pytest.mark.parametrize("relation", RELATIONS)
def test_evaluate_report_bytes_keep_the_relation(relation, tmp_path):
    edit, changed, matched, switches = RELATIONS[relation], False, 0, 0
    for seed in range(10):
        rng = random.Random(seed)
        sequences = [dataclasses.replace(snap_to_grid(random_instance(rng)), name=f"S-{k}")
                     for k in range(5)]
        before = write_benchmark_tree(tmp_path / f"{seed}-before", sequences)
        expected = _report(before)
        after = tmp_path / f"{seed}-after"
        changed |= _rewrite(before, after, edit, rng)
        assert _report(after) == expected, (relation, seed)
        overall = json.loads(expected)[-1]
        matched += overall["gt_total"] - overall["fn"]
        switches += overall["idsw"]
    # the edits moved rows, and the reports count matches and identity switches
    assert changed and matched > 0 and switches > 0, (matched, switches)
