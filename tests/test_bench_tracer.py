"""The benchmark's span tracer wraps package functions under the names that
calling modules look up; every one of those names must still resolve."""
import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _lookup(wrapped):
    return [getattr(importlib.import_module(module), attr) for module, attr, *_ in wrapped]


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    originals = _lookup(spans.WRAPPED)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in _lookup(spans.WRAPPED))
    finally:
        tracer.uninstall()
    assert _lookup(spans.WRAPPED) == originals
