"""Whole-CLI fuzz: a mutated input file never ends in an internal error.

Two sequences; in each example one of three files is mutated, the first
sequence's result file, its ground-truth file or ``seqmap.txt``, while the
second sequence's files stay as written.  Mutations: truncation, byte flips,
extra columns, huge, denormal, ``nan`` and ``inf`` numbers, CRLF line
endings, a byte-order mark, an empty file, and a directory in place of the
file.  ``evaluate`` runs in-process with every warning raised as an error.
It must exit 1 with one ``error:`` line, or 0 with a report whose pooled
row adds up its units and whose scores lie in their ranges; never 2.
"""

import codecs
import io
import json
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motbench.cli import main
from motbench.ingest import write_result_file
from motbench.model import ObjectClass
from conftest import gt, hyp, seq, write_benchmark_tree

NUMBERS = ("1e308", "-1.7e308", "1e154", "4.5e307", "9.3e18", "5e-324", "1e-310",
           "1e-200", "1.6653345369377348e-16", "nan", "inf", "-inf", "-0", "0", "1000000")
MUTATIONS = ("truncate", "flip", "column", "number", "crlf", "bom", "empty", "directory")
TARGETS = ("res/FUZZ-01.txt", "gt/FUZZ-01.txt", "seqmap.txt")


def _sequence(name: str, shift: float = 0.0):
    gts = [gt(t, k, 30.0 * k + shift, 2.0 * t) for t in range(1, 6) for k in (1, 2, 3)]
    gts += [gt(t, 4, 130, 0, object_class=ObjectClass.DISTRACTOR) for t in (1, 2, 3)]
    gts += [gt(2, 5, 200, 0, conf=0.0), gt(3, 6, 240, 0, object_class=ObjectClass.CAR)]
    res = [hyp(e.frame, e.track_id + 100, e.box.left + 1, e.box.top) for e in gts]
    res += [hyp(4, 120, 31 + shift, 8), hyp(5, 121, 500, 500)]
    return seq(name, 5, gts, res)


#: Active pedestrian boxes of one :func:`_sequence`: the boxes every report scores.
SCOREABLE = 15


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = write_benchmark_tree(tmp_path_factory.mktemp("fuzz"),
                                [_sequence("FUZZ-01"), _sequence("FUZZ-02", 0.5)])
    return root, {target: (root / target).read_bytes() for target in TARGETS}


def _mutate(raw: bytes, data, sep: bytes) -> bytes | None:
    """``raw`` mutated; None for a directory in place of the file."""
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        if mutation == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        elif mutation == "flip" and raw:
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        elif mutation in ("column", "number"):
            lines = raw.split(b"\n")
            at = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[at].split(sep)
            if mutation == "column":
                fields += [b"-1"] * data.draw(st.integers(1, 3))
            else:
                fields[data.draw(st.integers(0, len(fields) - 1))] = (
                    data.draw(st.sampled_from(NUMBERS)).encode())
            lines[at] = sep.join(fields)
            raw = b"\n".join(lines)
        elif mutation == "crlf":
            raw = raw.replace(b"\n", b"\r\n")
        elif mutation == "bom":
            raw = codecs.BOM_UTF8 + raw
        elif mutation == "empty":
            raw = b""
        elif mutation == "directory":
            return None
    return raw


def _check_report(rows: list[dict]) -> None:
    *units, overall = rows
    assert overall["name"] == "OVERALL"
    for key in ("fp", "fn", "idsw", "gt_total"):
        assert overall[key] == sum(unit[key] for unit in units)
    for row in rows:
        assert row["mt"] + row["pt"] + row["ml"] == row["gt_tracks"]
        assert 0 <= row["fn"] <= row["gt_total"]
        for key in ("motp", "idp", "idr", "idf1"):
            assert row[key] is None or 0.0 <= row[key] <= 100.0, (key, row[key])


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_file_exits_0_or_1(tree, data):
    root, originals = tree
    for target, original in originals.items():
        if (root / target).is_dir():
            shutil.rmtree(root / target)
        (root / target).write_bytes(original)
    target = data.draw(st.sampled_from(TARGETS))
    mutated = _mutate(originals[target], data, b" " if target == "seqmap.txt" else b",")
    if mutated is None:
        (root / target).unlink()
        (root / target).mkdir()
    else:
        (root / target).write_bytes(mutated)
    lenient = ["--lenient"] if data.draw(st.booleans()) else []
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--format", "json", *lenient])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        rows = json.loads(out.getvalue())
        if not rows:  # a sequence map that lists no sequence
            assert target == "seqmap.txt"
            return
        _check_report(rows)
        if target.startswith("res/"):
            assert rows[-1]["gt_total"] == 2 * SCOREABLE


def test_the_unmutated_tree_scores_every_box(tree):
    root, originals = tree
    for target, original in originals.items():
        if (root / target).is_dir():
            shutil.rmtree(root / target)
        (root / target).write_bytes(original)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--format", "json"]) == 0
    rows = json.loads(out.getvalue())
    _check_report(rows)
    assert (rows[-1]["gt_total"], rows[-1]["fn"], rows[-1]["idsw"]) == (2 * SCOREABLE, 0, 0)
    assert write_result_file(_sequence("FUZZ-01").results).encode() == originals[TARGETS[0]]
