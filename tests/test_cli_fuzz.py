"""Whole-CLI fuzz: a mutated input file never ends in an internal error.

Two sequences; in each example one of three files is mutated, the first
sequence's result file, its ground-truth file or ``seqmap.txt``, while the
second sequence's files stay as written.  Mutations: truncation, byte flips,
extra columns, huge, denormal, ``nan`` and ``inf`` numbers, two copies of a
line with the id -1 appended, CRLF line endings, a byte-order mark, an empty
file, and a directory in place of the file.  ``evaluate`` runs in-process
with every warning raised as an error.  It must exit 1 with one ``error:``
line, or 0 with a report whose pooled row adds up its units and whose scores
and ratios lie in their ranges; never 2.

``validate`` gets the same mutations on a zip of both result files, applied
to the archive bytes or to one entry's content.  It must exit 0 with a
``PASS`` summary, or 1 with a ``FAIL`` summary or one ``error:`` line.  On
the result directory, with number edits in the first result file, it passes
exactly when ``evaluate`` exits 0.
"""

import codecs
import io
import json
import shutil
import warnings
import zipfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motbench.cli import main
from motbench.ingest import write_result_file
from motbench.model import ObjectClass
from conftest import gt, hyp, seq, write_benchmark_tree

NUMBERS = ("1e308", "-1.7e308", "1e154", "4.5e307", "9.3e18", "5e-324", "1e-310",
           "1e-200", "1.6653345369377348e-16", "nan", "inf", "-inf", "-0", "0", "1000000")
MUTATIONS = ("truncate", "flip", "column", "number", "repeat", "crlf", "bom", "empty",
             "directory")
TARGETS = ("res/FUZZ-01.txt", "gt/FUZZ-01.txt", "seqmap.txt")


def _sequence(name: str, shift: float = 0.0):
    gts = [gt(t, k, 30.0 * k + shift, 2.0 * t) for t in range(1, 6) for k in (1, 2, 3)]
    gts += [gt(t, 4, 130, 0, object_class=ObjectClass.DISTRACTOR) for t in (1, 2, 3)]
    gts += [gt(2, 5, 200, 0, conf=0.0), gt(3, 6, 240, 0, object_class=ObjectClass.CAR)]
    res = [hyp(e.frame, e.track_id + 100, e.left + 1, e.top) for e in gts]
    res += [hyp(4, 120, 31 + shift, 8), hyp(5, 121, 500, 500)]
    return seq(name, 5, gts, res)


#: Active pedestrian boxes of one :func:`_sequence`: the boxes every report scores.
SCOREABLE = 15


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = write_benchmark_tree(tmp_path_factory.mktemp("fuzz"),
                                [_sequence("FUZZ-01"), _sequence("FUZZ-02", 0.5)])
    return root, {target: (root / target).read_bytes() for target in TARGETS}


def _restore(root, originals) -> None:
    for target, original in originals.items():
        if (root / target).is_dir():
            shutil.rmtree(root / target)
        (root / target).write_bytes(original)


def _mutate(raw: bytes, data, sep: bytes, mutations=MUTATIONS) -> bytes | None:
    """``raw`` mutated by up to four of ``mutations``; None for a directory in place of the file."""
    for mutation in data.draw(st.lists(st.sampled_from(mutations), max_size=4)):
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
        elif mutation == "repeat":  # two copies of a line, their id set to -1
            lines = raw.split(b"\n")
            fields = lines[data.draw(st.integers(0, len(lines) - 1))].split(sep)
            line = sep.join([*fields[:1], b"-1", *fields[2:]])
            raw = b"\n".join([*lines, line, line])
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
        for key in ("motp", "recall", "precision", "idp", "idr", "idf1"):
            assert row[key] is None or 0.0 <= row[key] <= 100.0, (key, row[key])
        for key in ("mt_ratio", "ml_ratio"):
            assert row[key] is None or 0.0 <= row[key] <= 1.0, (key, row[key])


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_file_exits_0_or_1(tree, data):
    root, originals = tree
    _restore(root, originals)
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
        _check_report(rows)
        if target.startswith("res/"):
            assert rows[-1]["gt_total"] == 2 * SCOREABLE


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_zip_submission_exits_0_or_1(tree, data):
    root, originals = tree
    _restore(root, originals)
    entries = {name: (root / "res" / name).read_bytes()
               for name in ("FUZZ-01.txt", "FUZZ-02.txt")}
    name = data.draw(st.sampled_from([None, *entries]))  # None: the archive itself
    if name is not None:
        entries[name] = _mutate(entries[name], data, b",")
    archive = root / "sub.zip"
    if archive.is_dir():
        archive.rmdir()
    compression = data.draw(st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]))
    with zipfile.ZipFile(archive, "w") as zf:
        for entry, content in entries.items():
            if content is None:  # a directory in place of the file
                entry, content = entry + "/", b""
            # a fixed date: the archive bytes, and so the draws of a
            # mutation that splits them, must not depend on the clock
            zf.writestr(zipfile.ZipInfo(entry, date_time=(1980, 1, 1, 0, 0, 0)), content,
                        compression)
    if name is None:
        mutated = _mutate(archive.read_bytes(), data, b",")
        archive.unlink()
        if mutated is None:
            archive.mkdir()
        else:
            archive.write_bytes(mutated)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["validate", str(archive), "--benchmark", "MOT16",
                     "--seqmap", str(root / "seqmap.txt")])
    assert code in (0, 1), err.getvalue()
    if err.getvalue():
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert out.getvalue().endswith("PASS\n" if code == 0 else "FAIL\n")


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_passes_exactly_the_results_evaluate_reads(tree, data):
    root, originals = tree
    _restore(root, originals)
    # number edits, in either line ending, with or without a byte-order
    # mark: the mutations that often leave a file well formed, so that the
    # frame range decides; the others break the format, which both commands
    # reject alike
    (root / TARGETS[0]).write_bytes(_mutate(originals[TARGETS[0]], data, b",",
                                            ("number", "crlf", "bom")))
    runs = []
    for argv in (["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                  "--res", str(root / "res"), "--format", "json"],
                 ["validate", str(root / "res"), "--benchmark", "MOT16",
                  "--seqmap", str(root / "seqmap.txt")]):
        out = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            runs.append((main(argv), out.getvalue()))
    (evaluated, _), (validated, summary) = runs
    assert (validated == 0) == summary.endswith("PASS\n")
    assert (evaluated == 0) == (validated == 0), summary


def test_the_unmutated_tree_scores_every_box(tree):
    root, originals = tree
    _restore(root, originals)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["evaluate", "--benchmark", "MOT16", "--gt", str(root),
                     "--res", str(root / "res"), "--format", "json"]) == 0
    rows = json.loads(out.getvalue())
    _check_report(rows)
    assert (rows[-1]["gt_total"], rows[-1]["fn"], rows[-1]["idsw"]) == (2 * SCOREABLE, 0, 0)
    assert write_result_file(_sequence("FUZZ-01").results).encode() == originals[TARGETS[0]]
