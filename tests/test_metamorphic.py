"""Metamorphic relations of whole reports: input edits that change no report byte.

Each relation rewrites every ground-truth and result file of a benchmark tree
and runs ``evaluate --format json`` on the tree before and after; the two
reports must be the same bytes.  The trees hold integer-grid sequences
(``snap_to_grid``), where exact IoU ties are common and every edit below is
exact in floats, so a convention that depended on row order, position, scale,
axis or the id values themselves would show as a changed count or digit.  The
same relations hold on a tree of the benchmark's generator (``bench/gen.py``),
with neutral classes, consider flags and visibility in its ground truth.

Scaling every coordinate by a power of two is exact for any float input, so
it keeps the report of continuous-geometry sequences too; and the worker
count of ``--jobs`` changes no byte.  Nor does the order of the sequence
map's rows: reversing it on generated trees of four sequences keeps the
pooled row's every digit, MOTP's correctly rounded overlap sum included.

Reversing the id order may change a report, but only through a tie: where
the matched (target, hypothesis) pairs of a sequence stay the same, so does
its MOTP overlap sum, bit for bit.
"""

import dataclasses
import importlib.util
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from motbench.assignment import preprocess_sequence, run_sequence
from motbench.clearmot import accumulate
from motbench.cli import main
from conftest import entries, random_instance, rows, snap_to_grid, write_benchmark_tree

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


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


def _report(root: Path, jobs: int = 1) -> bytes:
    out = root / "report.json"
    assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root), "--res",
                 str(root / "res"), "--format", "json", "--out", str(out),
                 "--jobs", str(jobs)]) == 0
    return out.read_bytes()


def _sequences(rng: random.Random, snap: bool = True) -> list:
    """Five random sequences, on the integer grid unless ``snap`` is off."""
    return [dataclasses.replace(snap_to_grid(instance) if snap else instance, name=f"S-{k}")
            for k, instance in enumerate(random_instance(rng) for _ in range(5))]


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
        before = write_benchmark_tree(tmp_path / f"{seed}-before", _sequences(rng))
        expected = _report(before)
        after = tmp_path / f"{seed}-after"
        changed |= _rewrite(before, after, edit, rng)
        assert _report(after) == expected, (relation, seed)
        overall = json.loads(expected)[-1]
        matched += overall["gt_total"] - overall["fn"]
        switches += overall["idsw"]
    # the edits moved rows, and the reports count matches and identity switches
    assert changed and matched > 0 and switches > 0, (matched, switches)


@pytest.mark.parametrize("scale", [2.0, 0.5, 2.0**-20, 2.0**30])
def test_evaluate_report_bytes_keep_power_of_two_scaling_of_any_geometry(scale, tmp_path):
    edit = _boxes(lambda x, y, w, h: (scale * x, scale * y, scale * w, scale * h))
    matched = switches = 0
    for seed in range(10):
        rng = random.Random(seed)
        before = write_benchmark_tree(tmp_path / f"{seed}-before", _sequences(rng, snap=False))
        expected = _report(before)
        after = tmp_path / f"{seed}-after"
        assert _rewrite(before, after, edit, rng)
        assert _report(after) == expected, (scale, seed)
        overall = json.loads(expected)[-1]
        matched += overall["gt_total"] - overall["fn"]
        switches += overall["idsw"]
    assert matched > 0 and switches > 0, (matched, switches)


def test_evaluate_report_bytes_do_not_depend_on_the_worker_count(tmp_path):
    for seed in range(10):
        for snap in (True, False):
            root = write_benchmark_tree(tmp_path / f"{seed}-{snap}",
                                        _sequences(random.Random(seed), snap))
            assert _report(root, jobs=2) == _report(root, jobs=1), (seed, snap)


def _generate(root: Path, seed: int, names: list[str]) -> Path:
    """A tree of the benchmark's generator at ``root``: one small crowded sequence per name."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses resolve annotations there
    try:
        spec.loader.exec_module(gen)
        gen.write_tree(root, seed, [gen.SeqSpec(name, 40, 30, (10, 40), (2, 4), miss_p=0.05,
                                                fp_tracks=40, twin_p=0.05) for name in names])
    finally:
        del sys.modules[spec.name]
    return root


@pytest.fixture(scope="module")
def generated_tree(tmp_path_factory) -> Path:
    """A small tree of the benchmark's generator, seed 1."""
    return _generate(tmp_path_factory.mktemp("generated"), 1, ["MOT16-03"])


@pytest.mark.parametrize("relation", RELATIONS)
def test_generated_tree_keeps_the_relation(relation, generated_tree, tmp_path):
    expected = _report(generated_tree)
    after = tmp_path / "after"
    assert _rewrite(generated_tree, after, RELATIONS[relation], random.Random(0))
    assert _report(after) == expected, relation
    overall = json.loads(expected)[-1]
    assert overall["gt_total"] > overall["fn"] and overall["idsw"] > 0, overall


def test_generated_trees_keep_a_reversed_seqmap(tmp_path):
    for seed in range(10):
        root = _generate(tmp_path / str(seed), seed,
                         ["MOT16-02", "MOT16-04", "MOT16-05", "MOT16-09"])
        expected = _report(root)
        seqmap = root / "seqmap.txt"
        seqmap.write_text("".join(reversed(seqmap.read_text().splitlines(keepends=True))))
        assert _report(root) == expected, seed
        overall = json.loads(expected)[-1]
        assert overall["gt_total"] > overall["fn"] and overall["idsw"] > 0, overall


def _matched_pairs(instance, gt_id=lambda i: i, res_id=lambda i: i):
    """``instance``'s matched ``(frame, gt id, result id)``, ids mapped, and overlap sum."""
    log = run_sequence(preprocess_sequence(instance))
    table, e = log.table, log.matched.nonzero()[0]
    pairs = {(f, gt_id(g), res_id(r)) for f, g, r in zip(
        table.frame[e].tolist(), table.gt_id[table.gt_row[e]].tolist(),
        table.res_id[table.res_row[e]].tolist())}
    return pairs, accumulate(log).overlap_sum


def test_reversed_ids_keep_motp_wherever_the_matched_pairs_stay():
    # Ids k become 1000 - k on both sides, which reverses every rank; on the
    # integer grid some ties then go the other way and change the pairs.
    rng, same, moved = random.Random(11), 0, 0
    for k in range(600):
        instance = random_instance(rng, 6, 8)
        if k % 3:
            instance = snap_to_grid(instance)
        reversed_ids = dataclasses.replace(instance, **{
            side: rows(e._replace(track_id=1000 - e.track_id)
                       for e in entries(getattr(instance, side)))
            for side in ("gt", "results")})
        pairs, overlap_sum = _matched_pairs(instance)
        back = (lambda i: 1000 - i)
        reversed_pairs, reversed_sum = _matched_pairs(reversed_ids, back, back)
        if pairs == reversed_pairs:
            same += 1
            assert reversed_sum.hex() == overlap_sum.hex(), k
        else:
            moved += 1
    assert same > 450 and moved > 30, (same, moved)
