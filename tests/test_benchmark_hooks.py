"""The benchmark's span recorder wraps draftwire functions by attribute name.

``perfbench/tracing.py`` is loaded by path and every ``(owner, attribute)``
its ``targets()`` lists must resolve, so a refactor that renames or drops a
wrapped function fails here rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    sites = load_tracing().targets()
    assert sites
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in sites
               if not callable(getattr(owner, attr, None))]
    assert missing == []
