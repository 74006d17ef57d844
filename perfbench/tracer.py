"""Outside-in tracer for the meqlab layers.

The tracer wraps library functions from outside: for each target it
replaces every binding of the function object in every loaded
``meqlab`` module (the defining module, the package namespace and each
module that imported it by name), so calls are seen whichever name they
go through. The library itself is not modified; ``uninstall`` puts the
original objects back.

Each wrapped call is a span. Spans nest per thread; a span's self time
is its duration minus the time of the spans it directly contains on the
same thread. Counters and times are accumulated under a lock, so calls
from ``scan``'s worker threads are summed safely.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module.attr``, plus an optional hook that
    derives extra counters from the call's result."""

    module: str
    attr: str
    on_result: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('meqlab.')}.{self.attr}"


def _scan_points(result) -> dict[str, int]:
    points = sum(int(k.size) for k in result.kappas.values())
    nans = sum(int((k != k).sum()) for k in result.kappas.values())
    return {"epscan.scan.points": points, "epscan.scan.nan_points": nans}


def _propagate_steps(result) -> dict[str, int]:
    return {"dynamics.propagate.steps": len(result)}


def _samples_verified(result) -> dict[str, int]:
    return {"thermo.samples_verified": len(result)}


#: every traced entry point. Functions that only matter for the cli's
#: self time (exceptional_line, slowest_timescale, thermal_product_state)
#: are traced so that their time is not charged to the cli.
TARGETS = (
    Target("meqlab.cli", "main"),
    Target("meqlab.generators", "build"),
    Target("meqlab.generators", "closed_form_blocks"),
    Target("meqlab.algebra", "dissipator_pair_action"),
    Target("meqlab.fixtures", "instantiate"),
    Target("meqlab.epscan", "scan", _scan_points),
    Target("meqlab.epscan", "grid_block_matrices"),
    Target("meqlab.epscan", "refine_ep"),
    Target("meqlab.epscan", "_kappa_at"),
    Target("meqlab.epscan", "exceptional_line"),
    Target("meqlab.eigen", "eig"),
    Target("meqlab.eigen", "phase_rigidity_profile"),
    Target("meqlab.dynamics", "propagate", _propagate_steps),
    Target("meqlab.dynamics", "expm"),
    Target("meqlab.dynamics", "steady_state"),
    Target("meqlab.dynamics", "slowest_timescale"),
    Target("meqlab.dynamics", "thermal_product_state"),
    Target("meqlab.thermo", "heat_current"),
    Target("meqlab.thermo", "transient_currents", _samples_verified),
)


class Tracer:
    """Counts calls and sums inclusive and self times per target.

    Recording is off until ``recording`` is set, so the same installed
    wrappers serve traced and untraced iterations; an untraced call costs
    one attribute test.
    """

    def __init__(self):
        self.recording = False
        self.bindings: dict[str, list[str]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.seconds: dict[str, float] = defaultdict(float)
            self.self_seconds: dict[str, float] = defaultdict(float)
            self.counts: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, original):
        name = target.name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.seconds[name] += elapsed
                    self.self_seconds[name] += elapsed - children
            if target.on_result is not None:
                extra = target.on_result(result)
                with self._lock:
                    for key, value in extra.items():
                        self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target inside the meqlab modules.

        A target missing from its module is recorded with no bindings and
        reads zero, so the benchmark keeps running when a later version
        of the library drops a private helper.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "meqlab" or n.startswith("meqlab."))]
        for target in TARGETS:
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None) if home else None
            self.bindings[target.name] = []
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        self.bindings[target.name].append(f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.recording = False
        self.uninstall()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        with self._lock:
            calls, secs = dict(self.calls), dict(self.seconds)
            self_secs, counts = dict(self.self_seconds), dict(self.counts)

        def n(key):
            return calls.get(key, 0)

        def s(key):
            return secs.get(key, 0.0)

        return {
            "cli.self_s": self_secs.get("cli.main", 0.0),
            "generators.build.calls": n("generators.build"),
            "generators.build.s": s("generators.build"),
            "generators.closed_form_blocks.s": s("generators.closed_form_blocks"),
            "algebra.dissipator_pair_action.calls": n("algebra.dissipator_pair_action"),
            "fixtures.instantiate.calls": n("fixtures.instantiate"),
            "fixtures.instantiate.s": s("fixtures.instantiate"),
            "epscan.scan.calls": n("epscan.scan"),
            "epscan.scan.s": s("epscan.scan"),
            "epscan.scan.points": counts.get("epscan.scan.points", 0),
            "epscan.scan.nan_points": counts.get("epscan.scan.nan_points", 0),
            "epscan.grid_block_matrices.s": s("epscan.grid_block_matrices"),
            "epscan.refine_ep.calls": n("epscan.refine_ep"),
            "epscan.refine_ep.s": s("epscan.refine_ep"),
            "epscan.refine_ep.kappa_evals": n("epscan._kappa_at"),
            "eigen.phase_rigidity_profile.calls": n("eigen.phase_rigidity_profile"),
            "eigen.phase_rigidity_profile.s": s("eigen.phase_rigidity_profile"),
            "eigen.eig.calls": n("eigen.eig"),
            "dynamics.propagate.s": s("dynamics.propagate"),
            "dynamics.propagate.steps": counts.get("dynamics.propagate.steps", 0),
            "dynamics.expm.calls": n("dynamics.expm"),
            "dynamics.steady_state.calls": n("dynamics.steady_state"),
            "dynamics.steady_state.s": s("dynamics.steady_state"),
            "thermo.heat_current.calls": n("thermo.heat_current"),
            "thermo.heat_current.s": s("thermo.heat_current"),
            "thermo.transient_currents.s": s("thermo.transient_currents"),
            "thermo.samples_verified": counts.get("thermo.samples_verified", 0),
        }
