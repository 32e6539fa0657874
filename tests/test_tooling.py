"""The traced benchmark wraps package functions by name; every name it lists
must still resolve, or `bench/run.py --trace 1` fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parent.parent / "bench" / "recorder.py"


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_recorder", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder.LAYER_FUNCTIONS


@pytest.mark.parametrize("metric, module, path", layer_functions())
def test_wrapped_name_resolves(metric, module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), f"{metric}: {module}.{path}"
