"""The benchmark tracer's targets and the package's exports against the
library they name."""

import importlib.util
from pathlib import Path

import cf2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    # a traced name deleted from cf2 fails here, not only in a traced
    # benchmark run; a class must define the method itself, not inherit it
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in _tracing().TARGETS
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []


def test_every_export_resolves():
    # a name left in __all__ after its object is gone fails here
    assert cf2.__all__ and all(hasattr(cf2, name) for name in cf2.__all__)
