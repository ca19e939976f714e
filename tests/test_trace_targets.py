"""The benchmark's tracer wraps fusionkit functions by module and qualified
name (``TARGETS`` in ``perfbench/tracing.py``).  A target that no longer
resolves is reported as unmeasured and fails the benchmark's own tests,
which this suite does not collect, so a rename or a move is caught here.
"""

import importlib
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` run from its source text under a private
    module name, so nothing under ``perfbench/`` is written, bytecode
    included."""
    module = types.ModuleType("_perfbench_tracing")
    module.__file__ = str(TRACING)
    sys.modules[module.__name__] = module  # dataclasses resolves annotations through it
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_wrap_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
    assert targets
    for target in targets:
        obj = importlib.import_module(target.module)
        for part in target.qualname.split("."):
            obj = getattr(obj, part, None)
        assert target.module.startswith("fusionkit.") and callable(obj), target.metric
