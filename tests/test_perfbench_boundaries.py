"""Every layer boundary the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps a method only where the class's own
``__dict__`` defines it and skips a missing one without an error, so a
renamed or moved boundary (``VqmTool._calibrate``, say) would make its
span read zero in the traced pass. The tracer module is read from the
benchmark's files and executed here; nothing under ``perfbench/`` is
written.
"""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def boundaries():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.boundaries()


def test_every_boundary_exists_where_the_tracer_looks(boundaries):
    assert boundaries
    for span, owner, attr, _observe, _pre in boundaries:
        if isinstance(owner, type):
            found = owner.__dict__.get(attr)
        else:
            found = getattr(owner, attr, None)
        assert callable(found), f"{span}: {owner.__name__}.{attr} is gone"
