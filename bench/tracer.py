"""Per-layer calls, self time and shape counters, recorded from outside.

``install`` replaces every public function and public method of the named
modules with a timing wrapper, and rebinds every other reference to the
original function in the package, including names imported by name into
other modules (``cone.matrix_rank``).  The library itself is not modified.

Self time is a call's span minus the spans of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from math import comb

# Called tens of thousands of times per fan; wrapping them would mostly
# measure the wrapper.
UNWRAPPED = frozenset({"dot", "primitive"})


# Shape counters read off a call's arguments and result, for the positional
# calls the library makes: name -> [(suffix, combine, value(args, kwargs, result))].
SHAPES = {
    "exactlin.solve_linear": [("max_cols", max, lambda a, k, r: len(a[0][0]) if a[0] else 0)],
    "exactlin.strict_feasible": [
        ("max_width", max, lambda a, k, r: a[0].dim),
        ("max_rows", max, lambda a, k, r: len(a[0].equalities) + len(a[0].strict_inequalities)),
    ],
    "exactlin.feasible_point": [("max_rows", max, lambda a, k, r: len(a[1]) + len(a[3]))],
    # Classmethods are wrapped unbound, so args[0] is the class.
    "fan.Fan.from_cones": [("pairs", sum, lambda a, k, r: comb(len(a[3]), 2))],
    "cone.Cone.intersect": [("max_out_rays", max, lambda a, k, r: len(r.rays))],
    "cone.Cone.is_face_of": [("true", sum, lambda a, k, r: int(bool(r)))],
}


class Tracer:
    """Calls, self time and longest span per wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = {}
        self._children: list[float] = []  # one accumulator per open span

    def end_op(self) -> None:
        """Drop open spans left by an op that was interrupted mid-call."""
        self._children.clear()

    def wrap(self, name: str, fn):
        shapes = SHAPES.get(name, ())
        clock = self.clock
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop() if children else 0.0
                if children:
                    children[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - inner
                if span > self.max_s[name]:
                    self.max_s[name] = span
            for suffix, combine, value in shapes:
                key = f"{name}.{suffix}"
                v = value(args, kwargs, result)
                self.counters[key] = combine((self.counters[key], v)) if key in self.counters else v
            return result

        return traced


def _public_callables(module):
    """(qualified name, owner, attribute, original) for the module's own public code."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or attr in UNWRAPPED:
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield f"{prefix}.{attr}", module, attr, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for meth, raw in vars(obj).items():
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield f"{prefix}.{attr}.{meth}", obj, meth, raw


def install(tracer: Tracer, package: str, modules) -> callable:
    """Wrap the public code of ``package.<m>`` for each m; returns an undo function."""
    replaced = {}  # id(original function) -> wrapper
    undo = []
    for short in modules:
        module = sys.modules[f"{package}.{short}"]
        for name, owner, attr, raw in list(_public_callables(module)):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__))
            else:
                wrapped = tracer.wrap(name, raw)
                replaced[id(raw)] = wrapped
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
    # Rebind names imported by name elsewhere in the package.
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and obj is not wrapper:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
