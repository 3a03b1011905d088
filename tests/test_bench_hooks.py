"""The names the benchmark's traced runs hook into must keep existing.

Its counters must also keep reading the engine's real return values: a
traced run takes every count from the arguments and results of the wrapped
functions, so a changed field or type would break it only at run time.
"""

import dataclasses
import importlib.util
import random
from pathlib import Path

from motbench.assignment import preprocess_sequence
from motbench.identity import TrackMatchTable, build_table
from conftest import det, entries, random_instance, rows, seq, write_benchmark_tree

COMMANDS = Path(__file__).resolve().parents[1] / "bench" / "commands.py"


def load_commands():
    spec = importlib.util.spec_from_file_location("bench_commands", COMMANDS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    # A traced run patches each (module, attribute) pair; a renamed one
    # fails every traced benchmark run.
    for module, attr, _, _ in load_commands()._TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_track_table_has_the_columns_the_lsa_counter_reads():
    fields = {f.name for f in dataclasses.fields(TrackMatchTable)}
    assert {"gt_lengths", "pred_lengths", "co_detections"} <= fields


def test_counters_read_engine_objects():
    commands = load_commands()
    tr = commands.Tracer()
    instance = random_instance(random.Random(3), max_tracks=4, max_frames=6)
    table = preprocess_sequence(instance)
    commands._count_frames(tr, (instance,), table)
    assert tr.counts["assignment.frames"] == instance.num_frames
    tracks = build_table(table)
    commands._count_lsa(tr, (table,), tracks)
    n, m = len(tracks.gt_ids), len(tracks.pred_ids)
    assert n and m and len(tracks.co_detections)
    assert tr.counts == {"assignment.frames": instance.num_frames, "identity.lsa_dim": n + m,
                         "identity.lsa_cells": n * m,
                         "identity.co_pairs": len(tracks.co_detections)}
    # thresholds 0.5 < 0.7 < 0.9: frame 1 is re-scored at all three and
    # changes at two, frame 2 at one, frame 3 at two and changes at one
    dets = rows([det(1, 0, 0, conf=0.9), det(1, 5, 5, conf=0.5),
                 det(2, 0, 0, conf=0.5), det(3, 9, 9, conf=0.7)])
    assert commands.rescore_counts(dets) == (6, 4)


def test_traced_commands_record_every_stage(tmp_path):
    rng = random.Random(11)
    sequences = []
    for k in range(2):
        instance = random_instance(rng, max_tracks=4, max_frames=6)
        detections = [det(e.frame, e.left + 1, e.top, conf=rng.random())
                      for e in entries(instance.gt)]
        sequences.append(seq(f"SYN-{k:02d}", instance.num_frames, entries(instance.gt),
                             entries(instance.results), detections))
    root = write_benchmark_tree(tmp_path / "tree", sequences)
    commands = load_commands()
    spans, counts = set(), set()
    for kind in ("evaluate", "sweep"):
        tr = commands.Tracer()
        commands.run({"kind": kind, "benchmark": "MOT16", "gt": str(root),
                      "res": str(root / "res"), "jobs": 1, "format": "json",
                      "out": str(tmp_path / kind)}, tr)
        spans |= {span["name"] for span in tr.spans}
        counts |= set(tr.counts)
    assert spans == {name for _, _, name, _ in commands._TRACED} | {"command"}
    assert counts == {
        "ingest.rows", "ingest.rows_used", "assignment.frames", "identity.lsa_dim",
        "identity.lsa_cells", "identity.co_pairs", "deteval.thresholds",
        "deteval.frame_rescores", "deteval.frame_changes"}
