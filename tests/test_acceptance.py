"""Acceptance suite: the release gate for the whole package.

Each test covers one numbered criterion and prints a PASS/FAIL line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they happen.
All tolerances are pinned here, not configurable.
"""

import dataclasses
import random
import time
from contextlib import contextmanager

import pytest

from motbench.assignment import preprocess_sequence, run_sequence
from motbench.cli import main
from motbench.clearmot import Counts, accumulate, mota, motp, pool, summarize
from motbench.identity import evaluate_identity
from motbench.model import ObjectClass
from conftest import (
    ALL_SCENARIOS,
    SCENARIO_EXPECTATIONS,
    det,
    entries,
    gt,
    hyp,
    random_instance,
    seq,
    snap_to_grid,
    write_benchmark_tree,
)
from oracles import oracle_clear_counts, oracle_identity_counts

IOU = 0.5


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: {description}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num}: {description}: PASS", flush=True)


def evaluate(instance, threshold=0.5):
    frames = preprocess_sequence(instance, threshold)
    counts = accumulate(run_sequence(frames))
    ident = evaluate_identity(frames)
    return counts, ident


def test_criterion_1_formula_fidelity_single_benchmark_row():
    with criterion(1, "published-row formula fidelity (single benchmark)"):
        gt_total, frames = 61440, 5783
        c = Counts(
            tp=gt_total - 21780, fp=7620, fn=21780, idsw=375, fm=872,
            gt_total=gt_total, frames=frames,
        )
        assert mota(c) == pytest.approx(51.54, abs=0.02)
        rates = summarize("row", c)
        assert rates.far == pytest.approx(1.32, abs=0.01)
        assert rates.idswr == pytest.approx(5.81, abs=0.02)
        assert rates.fmr == pytest.approx(13.51, abs=0.02)


def test_criterion_2_three_partition_pooling_fidelity():
    with criterion(2, "published-row pooling fidelity (three partitions)"):
        per_seq_gt, per_seq_frames = 188076, 5919

        def pooled_mota(fp, fn, idsw):
            remaining = fn
            pieces = []
            for _ in range(3):
                part_fn = min(remaining, per_seq_gt)
                remaining -= part_fn
                pieces.append(Counts(
                    tp=per_seq_gt - part_fn, fn=part_fn,
                    gt_total=per_seq_gt, frames=per_seq_frames,
                ))
            assert remaining == 0
            pieces[0] = dataclasses.replace(pieces[0], fp=fp, idsw=idsw)
            pooled = pool(pieces)
            assert pooled.gt_total == 3 * per_seq_gt
            return mota(pooled)

        assert pooled_mota(17413, 213594, 1185) == pytest.approx(58.85, abs=0.05)
        assert pooled_mota(8866, 235449, 1987) == pytest.approx(56.35, abs=0.05)
        assert pooled_mota(23723, 330767, 4607) == pytest.approx(36.36, abs=0.05)


def test_criterion_3_canonical_assignment_scenarios():
    with criterion(3, "six-frame assignment scenario suite"):
        start = time.perf_counter()
        for build in ALL_SCENARIOS:
            instance = build()
            counts = accumulate(run_sequence(preprocess_sequence(instance, IOU)))
            tp, fp, fn, idsw, fm = SCENARIO_EXPECTATIONS[instance.name]
            assert counts.tp == tp, instance.name
            assert counts.fp == fp, instance.name
            assert counts.fn == fn, instance.name
            assert counts.idsw == idsw, instance.name
            assert counts.fm == fm, instance.name
        assert time.perf_counter() - start < 1.0


def test_criterion_4_oracle_equivalence_500_instances():
    with criterion(4, "brute-force oracle equivalence on 500 random instances"):
        rng = random.Random(500500)
        start = time.perf_counter()
        for _ in range(500):
            instance = random_instance(rng, max_tracks=4, max_frames=5)
            counts, ident = evaluate(instance)
            assert (counts.fp, counts.fn, counts.idsw) == oracle_clear_counts(instance)
            assert (ident.idtp, ident.idfp, ident.idfn) == oracle_identity_counts(
                instance
            )
        assert time.perf_counter() - start < 30.0


def _relabel(instance, rng):
    pred_ids = sorted({e.track_id for e in entries(instance.results)})
    shuffled = pred_ids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(pred_ids, shuffled))
    return seq(
        instance.name, instance.num_frames, entries(instance.gt),
        [
            hyp(e.frame, mapping[e.track_id], e.left, e.top,
                e.width, e.height)
            for e in entries(instance.results)
        ],
    )


def test_criterion_5_property_suite():
    with criterion(5, "property suite (invariances and edge suites)"):
        start = time.perf_counter()
        rng = random.Random(5555)

        # permutation invariance of every reported metric
        for _ in range(60):
            instance = random_instance(rng)
            counts_a, ident_a = evaluate(instance)
            counts_b, ident_b = evaluate(_relabel(instance, rng))
            report_a = summarize(instance.name, counts_a)
            report_b = summarize(instance.name, counts_b)
            assert report_a == report_b
            assert (ident_a.idtp, ident_a.idfp, ident_a.idfn) == (
                ident_b.idtp, ident_b.idfp, ident_b.idfn
            )

        # pooling additivity on counts
        for _ in range(30):
            counts_a, _ = evaluate(random_instance(rng))
            counts_b, _ = evaluate(random_instance(rng))
            pooled = pool([counts_a, counts_b])
            for field in ("tp", "fp", "fn", "idsw", "fm", "gt_total", "frames",
                          "mt", "pt", "ml", "gt_tracks"):
                assert getattr(pooled, field) == (
                    getattr(counts_a, field) + getattr(counts_b, field)
                )
            assert pooled.overlap_sum == pytest.approx(
                counts_a.overlap_sum + counts_b.overlap_sum, abs=1e-9
            )

        # localization precision bounded by the matching threshold
        for _ in range(60):
            counts, _ = evaluate(random_instance(rng))
            if counts.tp > 0:
                assert 50.0 - 1e-9 <= motp(counts) <= 100.0 + 1e-9

        # perfect-input suite
        gt_entries = [gt(t, i, 50 * i, 2 * t) for t in range(1, 8) for i in (1, 2, 3)]
        results = [hyp(e.frame, e.track_id + 10, e.left, e.top)
                   for e in gt_entries]
        counts, ident = evaluate(seq("perfect", 7, gt_entries, results))
        assert mota(counts) == pytest.approx(100.0)
        assert motp(counts) == pytest.approx(100.0)
        identity = Counts(idtp=ident.idtp, idfp=ident.idfp, idfn=ident.idfn)
        assert summarize("perfect", identity).idf1 == pytest.approx(100.0)
        assert counts.mt == counts.gt_tracks == 3
        assert counts.fm == 0 and counts.idsw == 0

        # empty-result suite
        counts, ident = evaluate(seq("empty", 7, gt_entries, []))
        assert mota(counts) == pytest.approx(0.0)
        assert summarize("empty", counts).recall == pytest.approx(0.0)
        identity = Counts(idtp=ident.idtp, idfp=ident.idfp, idfn=ident.idfn)
        assert summarize("empty", identity).idf1 == pytest.approx(0.0)

        assert time.perf_counter() - start < 30.0


def test_criterion_6_neutral_class_semantics():
    with criterion(6, "neutral-class result tracks are free of penalty"):
        frames = 6
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, frames + 1)]
        gt_entries += [gt(t, 2, 60, 0) for t in range(1, frames + 1)]
        neutral_specs = [
            (3, 200.0, ObjectClass.PERSON_ON_VEHICLE),
            (4, 260.0, ObjectClass.STATIC_PERSON),
            (5, 320.0, ObjectClass.DISTRACTOR),
            (6, 380.0, ObjectClass.REFLECTION),
        ]
        for track_id, x, object_class in neutral_specs:
            gt_entries += [
                gt(t, track_id, x, 0, object_class=object_class)
                for t in range(1, frames + 1)
            ]
        base_results = [hyp(t, 11, 0, 0) for t in range(1, frames + 1)]
        base_results += [hyp(t, 12, 60, 0) for t in range(1, frames + 1)]
        followers = [
            hyp(t, 90 + track_id, x, 1)  # IoU 0.818 with its neutral target
            for track_id, x, _ in neutral_specs
            for t in range(1, frames + 1)
        ]

        with_followers = seq("with", frames, gt_entries, base_results + followers)
        without = seq("without", frames, gt_entries, base_results)
        counts_with, ident_with = evaluate(with_followers)
        counts_without, ident_without = evaluate(without)

        assert counts_with.fp == 0
        assert counts_with.fn == counts_without.fn == 0
        assert counts_with == counts_without
        assert summarize("x", counts_with) == summarize("x", counts_without)
        assert (ident_with.idtp, ident_with.idfp, ident_with.idfn) == (
            ident_without.idtp, ident_without.idfp, ident_without.idfn
        )


def test_criterion_7_determinism_across_parallelism(tmp_path):
    with criterion(7, "byte-identical reports across parallelism degrees"):
        start = time.perf_counter()
        rng = random.Random(777)
        sequences = []
        for k in range(7):
            instance = random_instance(rng, max_tracks=4, max_frames=10)
            sequences.append(seq(
                f"SYN-{k:02d}", instance.num_frames, entries(instance.gt),
                entries(instance.results),
                [det(e.frame, e.left, e.top, conf=rng.random())
                 for e in entries(instance.gt)],
            ))
        root = write_benchmark_tree(tmp_path, sequences)
        outputs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"report-{jobs}.json"
            code = main([
                "evaluate", "--benchmark", "MOT16",
                "--gt", str(root), "--res", str(root / "res"),
                "--out", str(out), "--format", "json", "--jobs", jobs,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert time.perf_counter() - start < 60.0


def test_criterion_8_oracle_equivalence_on_integer_grid():
    with criterion(8, "brute-force oracle equivalence on 4-px grid instances"):
        rng = random.Random(880088)
        start = time.perf_counter()
        instances = [random_instance(random.Random(seed), 4, 5) for seed in (1913, 2377, 2568)]
        instances += [random_instance(rng, max_tracks=4, max_frames=5) for _ in range(500)]
        for instance in map(snap_to_grid, instances):
            counts, ident = evaluate(instance)
            assert (counts.fp, counts.fn, counts.idsw) == oracle_clear_counts(instance)
            assert (ident.idtp, ident.idfp, ident.idfn) == oracle_identity_counts(
                instance
            )
        assert time.perf_counter() - start < 30.0
