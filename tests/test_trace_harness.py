"""The benchmark's trace harness (``perfbench/tracing.py``) still fits the package.

``Tracer.install`` wraps cabbench functions by name where their callers look
them up.  A rename in ``src/`` would break ``perfbench/run.py --trace 1``
without any package test failing, so this runs install and uninstall.  The
harness module is read and executed from its source: nothing is written
under ``perfbench/``.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def home(fn) -> str:
    """``<module>.<qualname>`` of a function, without the package prefix."""
    fn = fn.__func__ if isinstance(fn, staticmethod) else fn
    return f"{fn.__module__.removeprefix('cabbench.')}.{fn.__qualname__}"


def test_trace_harness_wraps_every_span_and_restores_the_originals():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a missing name raises KeyError here
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    # every wrapped function is the one its span names, and every span is wrapped
    assert {home(original) for _, _, original in patches} == set(tracing.SPANS)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    assert tracer._patches == []
