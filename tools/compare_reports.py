"""Compare the reports of two motbench source trees on the benchmark's trees.

For each seed and each workload of ``bench/run.py`` the script writes the
workload's tree with ``bench/gen.write_tree``.  On it, it runs ``evaluate``,
and ``error-analysis`` where the tree holds detections, in text, csv and
json, with ``--jobs 1`` and ``--jobs 2``.  Each run starts a fresh
interpreter, once against each source tree.  It prints every run whose
stdout, stderr or exit code differs between the two sides, then the count
of such runs, and exits 1 when any differs.

Usage (from any directory)::

    python3 tools/compare_reports.py LEFT_SRC RIGHT_SRC --seeds 1 2 3 \\
        [--workloads mot17_evaluate ...]

``LEFT_SRC`` and ``RIGHT_SRC`` are directories that hold a ``motbench``
package, such as the ``src`` of two checkouts; ``--workloads`` defaults to
every workload.  The trees are written to a temporary directory, removed at
the end.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from gen import write_tree  # noqa: E402
from run import WORKLOADS  # noqa: E402

_MAIN = "import sys; from motbench.cli import main; sys.exit(main(sys.argv[1:]))"


def _run(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``motbench argv`` on the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], capture_output=True,
                          env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def _commands(root: Path, workload) -> list[list[str]]:
    """Every command line the comparison runs on ``workload``'s tree at ``root``."""
    commands = ["evaluate", "error-analysis"] if workload.with_detections else ["evaluate"]
    return [[command, "--benchmark", workload.benchmark, "--gt", str(root),
             "--res", str(root / "res"), "--format", out_format, "--jobs", jobs]
            for command in commands for out_format in ("text", "csv", "json")
            for jobs in ("1", "2")]


def compare(left: Path, right: Path, seeds: list[int], workloads: list[str]) -> int:
    """Print each run that differs between ``left`` and ``right``; their count."""
    differing = total = 0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        for seed in seeds:
            for name in workloads:
                workload = WORKLOADS[name]
                root = Path(work) / f"{name}-{seed}"
                write_tree(root, seed, list(workload.specs), workload.detectors,
                           workload.with_detections)
                for argv in _commands(root, workload):
                    total += 1
                    a, b = _run(left, argv, root), _run(right, argv, root)
                    parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                             if x != y]
                    if parts:
                        differing += 1
                        print(f"differs ({', '.join(parts)}): seed {seed}, {name}: "
                              f"motbench {' '.join(argv)}")
    print(f"{differing} of {total} runs differ")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path, help="directory holding one motbench package")
    parser.add_argument("right", type=Path, help="directory holding the other")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for src in (args.left, args.right):
        if not (src / "motbench" / "cli.py").is_file():
            parser.error(f"no motbench package under {src}")
    differing = compare(args.left.resolve(), args.right.resolve(), args.seeds, args.workloads)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
