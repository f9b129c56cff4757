"""The benchmark's tracer finds every function it is told to wrap.

``bench/tracer.py`` wraps tsvar functions by module and attribute name.  A
target that no longer exists is skipped and only listed as absent in a traced
run, so a rename would drop its span without failing anything; this test
fails instead.  It reads ``bench/tracer.py`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves_on_its_module():
    targets = _tracer_targets()
    assert targets
    absent = [f"{module}.{attr}" for module, attrs in targets.items() for attr in attrs
              if not callable(getattr(importlib.import_module(module), attr, None))]
    assert absent == []
