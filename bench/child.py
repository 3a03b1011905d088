"""One repetition of a benchmark command, run in a fresh interpreter.

Usage: ``python child.py <spec.json>``.  The spec names the motbench source
directory, the mode and the command.  The child imports motbench from that
directory only, notes when ``motbench.cli`` is imported (ready to parse
arguments; the parent turns this clock reading into the set-up time), then
runs the command:

- ``run``: untraced, recording its wall time, which excludes interpreter
  start-up and imports;
- ``trace``: with the public functions it calls wrapped in span recorders
  (see ``commands.py``), one span per call.

Everything measured goes to the spec's ``result`` file as JSON, written once
at exit.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import motbench.cli as cli

    result: dict = {"ready": time.monotonic()}
    here = Path(cli.__file__).resolve()
    if src not in here.parents:
        print(f"motbench imported from {here}, not from {src}", file=sys.stderr)
        return 3
    import resource

    import commands

    tracer = commands.Tracer() if spec["mode"] == "trace" else None
    start = time.perf_counter()
    commands.run(spec["command"], tracer)
    result.update(
        wall=time.perf_counter() - start,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        spans=tracer.spans if tracer else [],
        counts=tracer.counts if tracer else {},
    )
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
