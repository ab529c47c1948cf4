"""The traced benchmark wraps bcsys functions by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import bcsys  # noqa: F401  (imports every module the targets name)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


_T = _tracing_module()
TARGETS = _T.SPANS + _T.LEAVES + _T.COUNTED


def _resolve(target: str):
    module_name, *path = target.split(".")
    module = importlib.import_module(f"bcsys.{module_name}")
    if len(path) == 2:  # a class attribute, patched on the class
        return getattr(module, path[0]).__dict__[path[1]]
    return getattr(module, path[0])


@pytest.mark.parametrize("target", TARGETS)
def test_trace_target_resolves(target):
    assert callable(_resolve(target))


def test_tracer_wraps_every_target_and_restores_it():
    before = {t: _resolve(t) for t in TARGETS}
    tracer = _T.Tracer()
    tracer.install()
    try:
        assert [t for t in TARGETS if _resolve(t) is before[t]] == []
    finally:
        tracer.remove()
    assert [t for t in TARGETS if _resolve(t) is not before[t]] == []
