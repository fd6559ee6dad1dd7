"""The benchmark's trace harness (``perfbench/tracing.py``) still fits the package.

``Tracer.install`` wraps cabbench functions by name where their callers look
them up.  A rename in ``src/`` would break ``perfbench/run.py --trace 1``
without any package test failing, so this runs install and uninstall.  The
harness's selftest fixes which spans each workload calls (``EXPECTED_SPANS``),
and a refactor that drops or adds a call breaks that contract, so each
workload's smoke config runs here under the tracer too.  The harness modules
are read and executed from their source, and ``EXPECTED_SPANS`` is read from
the selftest's source: nothing is imported from or written under
``perfbench/``.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_source(path: Path) -> types.ModuleType:
    name = f"perfbench_{path.stem}"
    module = types.ModuleType(name)
    sys.modules[name] = module  # dataclasses look the module up while a class is made
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def expected_spans() -> dict[str, set[str]]:
    """``EXPECTED_SPANS`` of ``perfbench/selftest.py``, read from its source."""
    for node in ast.parse((PERFBENCH / "selftest.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "EXPECTED_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py defines no EXPECTED_SPANS")


def home(fn) -> str:
    """``<module>.<qualname>`` of a function, without the package prefix."""
    fn = fn.__func__ if isinstance(fn, staticmethod) else fn
    return f"{fn.__module__.removeprefix('cabbench.')}.{fn.__qualname__}"


def test_trace_harness_wraps_every_span_and_restores_the_originals():
    tracing = load_source(TRACING)
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


@pytest.mark.parametrize("name", sorted(expected_spans()))
def test_each_workload_calls_the_spans_the_harness_expects(name, tmp_path):
    from cabbench import cli

    workloads = load_source(PERFBENCH / "workloads.py").WORKLOADS
    assert set(workloads) == set(expected_spans())
    cfg = cli.ExperimentConfig.from_dict(workloads[name].config_doc(1, tmp_path / "out", smoke=True))
    tracer = load_source(TRACING).Tracer()
    tracer.install()
    try:
        cli.run(cfg)
    finally:
        tracer.uninstall()
    called = {span for span, entry in tracer.summary().items() if entry["calls"]}
    assert called == expected_spans()[name]
