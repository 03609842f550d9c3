"""The benchmark harness traces library functions by name; each must exist.

perfbench/tracer.py rebinds every layer in its LAYERS table, such as
search.find_complement or IntegerSet.mask_polynomial, to a timing wrapper.
A library change that deletes or renames one of those names would break
only a traced benchmark run, so this test resolves each name directly.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # read-only: no bytecode cache is written next to the harness
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    for module in tracer.MODULES:
        importlib.import_module(f"inttiles.{module}")
    assert tracer.LAYERS
    missing = []
    for layer, (module, path, _) in tracer.LAYERS.items():
        owner = importlib.import_module(f"inttiles.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(layer)
    assert missing == []
