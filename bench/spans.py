"""Outside-in tracing of su3kit's public functions.

Each public function of the eight layer modules is wrapped in every su3kit
module namespace that binds it, because modules import one another's
functions by name (``cartan`` calls its own binding of ``exp_generator``).
A stack of open spans turns inclusive durations into self time: a span's
self time is its duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("algebra", "group", "cartan", "measure", "phase", "states", "cli", "verify")

# work units for the per-element rates: function -> units of one call
WORK_UNITS = {
    "group.compose_batch": lambda points: len(points),
    "measure.sample_haar": lambda seed, n: n,
    "measure.dump_csv": lambda samples, path_or_file: len(samples),
    "phase.phase_connection": lambda loop, include_dphi=False:
        loop.samples_per_segment * (len(loop.waypoints) - 1),
    "phase.phase_curvature": lambda base, axes, bounds, samples=(1024, 1024):
        samples[0] * samples[1],
}


class FunctionStats:
    __slots__ = ("calls", "self_s", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.units = 0


class Tracer:
    """Span stack with per-name call counts, self time and work units."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._child_s: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Forget what was recorded (call with no span open)."""
        self.stats: dict[str, FunctionStats] = {}
        self.covered_s = 0.0          # time inside outermost spans

    def enter(self) -> float:
        self._child_s.append(0.0)
        return self.clock()

    def exit(self, name: str, start: float, units: int = 0) -> None:
        elapsed = self.clock() - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = FunctionStats()
        stat.calls += 1
        stat.self_s += elapsed - self._child_s.pop()
        stat.units += units
        if self._child_s:
            self._child_s[-1] += elapsed
        else:
            self.covered_s += elapsed

    def wrap(self, name: str, fn):
        units_of = WORK_UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name, start, units_of(*args, **kwargs) if units_of else 0)
        return traced


def public_functions(package: str = "su3kit") -> dict:
    """{function object: "<layer>.<name>"} for the layers' own public functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{attr}"
    return found


def install(tracer: Tracer, package: str = "su3kit") -> list:
    """Wrap every binding of every layer function in every loaded module of
    ``package``; returns the (module, attribute, original) list to undo it."""
    targets = public_functions(package)
    wrapped = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                undo.append((module, attr, obj))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in undo:
        setattr(module, attr, original)
