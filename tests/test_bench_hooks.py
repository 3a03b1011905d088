"""The names the benchmark's traced runs hook into must keep existing."""

import dataclasses
import importlib.util
from pathlib import Path

from motbench.identity import TrackMatchTable

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
