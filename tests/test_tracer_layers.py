"""The benchmark tracer wraps memchan functions by name; keep those names alive.

perfbench/tracer.py records a renamed or deleted function as absent instead
of failing, and only the benchmark's own tests notice that.  Loading its
LAYERS table here makes such a rename fail the main suite as well.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_exists_in_memchan():
    missing = [
        f"{module_name}.{name}"
        for module_name, names in _tracer_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"memchan.{module_name}"), name, None))
    ]
    assert missing == []
