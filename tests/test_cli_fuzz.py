"""Whole-CLI fuzz: a mutated result file never ends in an internal error.

One sequence, one result file whose bytes are mutated: truncation, byte
flips, extra columns, huge, denormal, ``nan`` and ``inf`` numbers, CRLF line
endings, a byte-order mark, an empty file.  ``evaluate`` runs in-process
with every warning raised as an error.  It must exit 0 with a report that
scores every scoreable ground-truth box, or 1 with one ``error:`` line;
never 2.
"""

import codecs
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motbench.cli import main
from motbench.ingest import write_result_file
from motbench.model import ObjectClass
from conftest import gt, hyp, seq, write_benchmark_tree

NUMBERS = ("1e308", "-1.7e308", "1e154", "4.5e307", "9.3e18", "5e-324", "1e-310",
           "1e-200", "nan", "inf", "-inf", "-0", "0")
MUTATIONS = ("truncate", "flip", "column", "number", "crlf", "bom", "empty")


def _sequence():
    gts = [gt(t, k, 30.0 * k, 2.0 * t) for t in range(1, 6) for k in (1, 2, 3)]
    gts += [gt(t, 4, 130, 0, object_class=ObjectClass.DISTRACTOR) for t in (1, 2, 3)]
    gts += [gt(2, 5, 200, 0, conf=0.0), gt(3, 6, 240, 0, object_class=ObjectClass.CAR)]
    res = [hyp(e.frame, e.track_id + 100, e.box.left + 1, e.box.top) for e in gts]
    res += [hyp(4, 120, 31, 8), hyp(5, 121, 500, 500)]
    return seq("FUZZ-01", 5, gts, res)


#: Active pedestrian boxes of :func:`_sequence`: the boxes every report scores.
SCOREABLE = 15


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = write_benchmark_tree(tmp_path_factory.mktemp("fuzz"), [_sequence()])
    return root, (root / "res" / "FUZZ-01.txt").read_bytes()


def _mutate(raw: bytes, data) -> bytes:
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        if mutation == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        elif mutation == "flip" and raw:
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        elif mutation in ("column", "number"):
            lines = raw.split(b"\n")
            at = data.draw(st.integers(0, len(lines) - 1))
            fields = lines[at].split(b",")
            if mutation == "column":
                fields += [b"-1"] * data.draw(st.integers(1, 3))
            else:
                fields[data.draw(st.integers(0, len(fields) - 1))] = (
                    data.draw(st.sampled_from(NUMBERS)).encode())
            lines[at] = b",".join(fields)
            raw = b"\n".join(lines)
        elif mutation == "crlf":
            raw = raw.replace(b"\n", b"\r\n")
        elif mutation == "bom":
            raw = codecs.BOM_UTF8 + raw
        elif mutation == "empty":
            raw = b""
    return raw


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_result_file_exits_0_or_1(tree, data):
    root, original = tree
    (root / "res" / "FUZZ-01.txt").write_bytes(_mutate(original, data))
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
        overall = json.loads(out.getvalue())[-1]
        assert overall["gt_total"] == SCOREABLE
        assert 0 <= overall["fn"] <= SCOREABLE


def test_the_unmutated_tree_scores_every_box(tree):
    root, original = tree
    (root / "res" / "FUZZ-01.txt").write_bytes(original)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--format", "json"]) == 0
    overall = json.loads(out.getvalue())[-1]
    assert (overall["gt_total"], overall["fn"], overall["idsw"]) == (SCOREABLE, 0, 0)
    assert write_result_file(_sequence().results).encode() == original
