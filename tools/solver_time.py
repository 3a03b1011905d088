"""Time the assignment solver per caller on the benchmark's trees.

For each seed and each workload of ``bench/run.py`` the script writes the
workload's tree with ``bench/gen.write_tree`` and loads it with the
``motbench`` package in ``SRC``.  In this process it then runs the
evaluation chain on every unit: ``preprocess_sequence``, ``run_sequence``
and ``evaluate_identity``.  Timers wrap ``solve_assignment`` and the search
it calls, ``_shortest_augmenting_paths``.  A call counts for its caller: the
neutral-class filter inside ``preprocess_sequence``, the frame matching
(``_match``) inside ``run_sequence``, or the identity solve inside
``evaluate_identity``.  The chain runs ``REPEAT`` (15) times.  Per seed,
workload and caller the script prints the number of calls, the number of
edges they took, and the least total seconds of one repetition spent in
``solve_assignment`` and in the search.  The difference of the two is the
solver's set-up.

Usage (from any directory)::

    python3 tools/solver_time.py SRC --seeds 1 2 3 [--workloads detector_sweep ...]

``SRC`` is a directory that holds a ``motbench`` package, such as the
``src`` of a checkout; ``--workloads`` defaults to every workload.  The
trees are written to a temporary directory, removed at the end.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from gen import write_tree  # noqa: E402
from run import WORKLOADS  # noqa: E402

CALLERS = ("neutral filter", "_match", "identity")
REPEAT = 15


def _timed(units) -> dict[str, tuple[int, int, float, float]]:
    """Per caller: calls, edges and the best solve and search seconds of ``REPEAT`` runs."""
    import motbench.assignment as assignment
    import motbench.identity as identity

    solve, search = assignment.solve_assignment, assignment._shortest_augmenting_paths
    caller, clock = CALLERS[0], time.perf_counter
    run: dict[str, list] = {}

    def timed_solve(rows, *args, **kwargs):
        start = clock()
        picked = solve(rows, *args, **kwargs)
        entry = run[caller]
        entry[0] += 1
        entry[1] += len(rows)
        entry[2] += clock() - start
        return picked

    def timed_search(*args):
        start = clock()
        picked = search(*args)
        run[caller][3] += clock() - start
        return picked

    runs = []
    assignment.solve_assignment = identity.solve_assignment = timed_solve
    assignment._shortest_augmenting_paths = timed_search
    try:
        for _ in range(REPEAT):
            run = {name: [0, 0, 0.0, 0.0] for name in CALLERS}
            for unit in units:
                caller = CALLERS[0]
                table = assignment.preprocess_sequence(unit.data, 0.5)
                caller = CALLERS[1]
                assignment.run_sequence(table)
                caller = CALLERS[2]
                identity.evaluate_identity(table)
            runs.append(run)
    finally:
        assignment.solve_assignment = identity.solve_assignment = solve
        assignment._shortest_augmenting_paths = search
    return {name: (*run[name][:2], min(r[name][2] for r in runs), min(r[name][3] for r in runs))
            for name in CALLERS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory holding a motbench package")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if not (args.src / "motbench" / "assignment.py").is_file():
        parser.error(f"no motbench package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    from motbench.ingest import Benchmark, load_sequence_set

    print(f"{'seed':>4}  {'workload':<16}  {'caller':<14}  {'calls':>6}  {'edges':>7}"
          f"  {'solve_s':>8}  {'search_s':>8}")
    with tempfile.TemporaryDirectory(prefix="solver-time-") as work:
        for seed in args.seeds:
            for name in args.workloads:
                workload = WORKLOADS[name]
                root = Path(work) / f"{name}-{seed}"
                write_tree(root, seed, list(workload.specs), workload.detectors,
                           workload.with_detections)
                units = load_sequence_set(root, Benchmark(workload.benchmark),
                                          results_root=root / "res",
                                          read_detections=False).units
                for caller, (calls, edges, solve_s, search_s) in _timed(units).items():
                    print(f"{seed:>4}  {name:<16}  {caller:<14}  {calls:>6}  {edges:>7}"
                          f"  {solve_s:>8.6f}  {search_s:>8.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
