"""The names the benchmark's span tracer wraps exist where it looks them up."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    missing = []
    for span, owner, attr, _ in tracing.targets():
        # the tracer reads a class attribute from the class's own namespace
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{span} ({owner.__name__}.{attr})")
    assert not missing
