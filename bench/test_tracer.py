"""The tracer on a synthetic package: exact calls, self time = span - children, rebinding."""

import sys
import types

import pytest

import tracer as tracing


class StepClock:
    """A clock that advances only when told, so spans are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


INNER = """
def leaf():
    clock.advance(2.0)
    return 1

def dot():  # excluded by name, like exactlin.dot
    clock.advance(0.5)
"""

OUTER = """
from synthpkg.inner import dot, leaf

def middle():
    clock.advance(1.0)
    leaf()
    dot()
    leaf()
    return 2
"""


@pytest.fixture
def package():
    """synthpkg.inner and synthpkg.outer, whose functions call through module globals."""
    clock = StepClock()
    modules = {}
    for name, source in (("synthpkg", ""), ("synthpkg.inner", INNER), ("synthpkg.outer", OUTER)):
        module = types.ModuleType(name)
        module.clock = clock
        modules[name] = sys.modules[name] = module
        exec(compile(source, name, "exec"), vars(module))
    yield clock, modules["synthpkg.inner"], modules["synthpkg.outer"]
    for name in modules:
        del sys.modules[name]


def test_self_time_is_span_minus_children_and_calls_are_exact(package):
    clock, inner, outer = package
    tracer = tracing.Tracer(clock=clock)
    uninstall = tracing.install(tracer, "synthpkg", ("inner", "outer"))
    try:
        assert outer.middle() == 2
        assert outer.middle() == 2
        assert outer.leaf() == 1  # the by-name binding is wrapped too
    finally:
        uninstall()

    assert tracer.calls == {"outer.middle": 2, "inner.leaf": 5}
    # middle spans 1 + 2 + 0.5 + 2 = 5.5 per call; its wrapped children cover 4.
    assert tracer.self_s["outer.middle"] == pytest.approx(2 * 1.5)
    assert tracer.self_s["inner.leaf"] == pytest.approx(5 * 2.0)
    assert tracer.max_s["outer.middle"] == pytest.approx(5.5)
    assert "inner.dot" not in tracer.calls


def test_uninstall_restores_every_binding(package):
    _, inner, outer = package
    originals = (inner.leaf, outer.leaf, outer.middle)
    uninstall = tracing.install(tracing.Tracer(), "synthpkg", ("inner", "outer"))
    assert outer.leaf is not originals[1]
    uninstall()
    assert (inner.leaf, outer.leaf, outer.middle) == originals


def test_interrupted_op_leaves_no_open_span(package):
    clock, inner, outer = package
    tracer = tracing.Tracer(clock=clock)

    exec("def failing():\n    clock.advance(3.0)\n    raise KeyboardInterrupt\n", vars(inner))
    uninstall = tracing.install(tracer, "synthpkg", ("inner",))
    try:
        with pytest.raises(KeyboardInterrupt):
            inner.failing()
        tracer.end_op()
        inner.leaf()
    finally:
        uninstall()
    assert tracer.self_s["inner.failing"] == pytest.approx(3.0)
    assert tracer.self_s["inner.leaf"] == pytest.approx(2.0)
