"""The benchmark's per-layer hooks still find every function they wrap.

``perfbench/tracing.py`` wraps package functions by name from outside the
package, and a name it cannot resolve makes that layer's metric read
``null`` instead of failing. This test fails instead, so a rename in the
package is noticed together with the hook that must follow it.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.LAYERS)
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
