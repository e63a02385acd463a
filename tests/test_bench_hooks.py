"""The benchmark's trace hooks still resolve against the package.

``perfbench/tracing.py`` wraps library entry points by (holder, attribute)
for ``run.py --trace 1``.  Deleting or renaming one of those names breaks
traced runs while every other test still passes, so this test loads the
tracing module as it is and installs and uninstalls its hooks.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_resolve_and_uninstall():
    tracing = _load_tracing()
    hooks = [(holder, attr) for holder, attr, *_ in tracing.SPANS + tracing.COUNTS]
    for holder, attr in hooks:
        assert callable(getattr(holder, attr, None)), f"{holder.__name__}.{attr} is gone"
    originals = [getattr(holder, attr) for holder, attr in hooks]
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (holder, attr), original in zip(hooks, originals):
            assert getattr(holder, attr) is not original
    finally:
        uninstall()
    assert [getattr(holder, attr) for holder, attr in hooks] == originals
