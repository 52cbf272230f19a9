"""Span tracing of proxopt's layers from outside the package.

Each layer entry point is wrapped by swapping the module attribute through
which the pipeline calls it (for example `proxopt.trajopt.link_frames`), so
the package itself is not edited. A span records its parent, its layer and its
start and end times in flat arrays; self time is the span's duration minus the
durations of its direct children. Calls are single-threaded and strictly
nested, so the children of a span never overlap and their sum is the time
they cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). The span name is `<module>.<entry>`; several
# attributes may share one span name when a layer is reached through more than
# one module (solve_inner is called by trajopt and directly by the pair
# queries).
ENTRY_POINTS = (
    ("proxopt.scene_io", "load_scene", "scene_io.load_scene"),
    ("proxopt.trajopt", "solve", "trajopt.solve"),
    ("proxopt.trajopt", "_evaluate", "trajopt.evaluate"),
    ("proxopt.trajopt", "broad_phase_rows", "trajopt.broad_phase"),
    ("proxopt.trajopt", "link_frames", "kinematics.link_frames"),
    ("proxopt.trajopt", "place_on_robot", "kinematics.place_on_robot"),
    ("proxopt.trajopt", "robot_placement_jacobian", "kinematics.placement_jacobian"),
    ("proxopt.trajopt", "_to_banded", "trajopt.to_banded"),
    ("proxopt.trajopt", "solveh_banded", "trajopt.banded_solve"),
    ("proxopt.trajopt", "validate", "trajopt.validate"),
    ("proxopt.trajopt", "brute_force_distance", "distance.grid_oracle"),
    ("proxopt.trajopt", "solve_inner", "distance.solve_inner"),
    ("proxopt.distance", "solve_inner", "distance.solve_inner"),
    ("proxopt.trajopt", "pair_derivatives", "sensitivity.pair_derivatives"),
    ("proxopt.sensitivity", "pair_derivatives", "sensitivity.pair_derivatives"),
)


class Tracer:
    """Wraps entry points, records spans and turns them into per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.parent = array("q")
        self.layer = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _code_of(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, name: str) -> int:
        span = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.layer.append(self._code_of(name))
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int):
        self.end[span] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block; yields its id."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ----------------------------------------------------------

    def install(self, modules: dict, only: tuple[str, ...] | None = None):
        """Swap every entry point (or those whose span is in `only`) for a traced wrapper.

        An entry point that no longer exists is recorded in `missing` and its
        layer is reported as not measured.
        """
        for mod_name, attr, name in ENTRY_POINTS:
            if only is not None and name not in only:
                continue
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in range(n):
            name = self.names[self.layer[s]]
            calls[name] += 1
            self_s[name] += (self.end[s] - self.start[s]) - child[s]
        return {name: (calls[name], self_s[name]) for name in calls}


def _observe_solve_inner(counters, args, kwargs, result):
    pair = args[0]
    warm = args[2] if len(args) > 2 else kwargs.get("warm_start")
    counters["solve_inner.steps"] += result.newton_steps
    counters["solve_inner.steps_max"] = max(counters["solve_inner.steps_max"], result.newton_steps)
    counters["solve_inner.warm"] += warm is not None
    counters["solve_inner.failed"] += not result.converged
    margin = pair[0].margin + pair[1].margin
    counters["solve_inner.active"] += result.d_sq < margin * margin


def _observe_evaluate(counters, args, kwargs, result):
    states = args[1]
    need_derivs = args[3] if len(args) > 3 else kwargs["need_derivs"]
    if need_derivs:
        counters["hessian.bytes"] += float(states.size) ** 2 * 8.0
    else:
        counters["linesearch.trials"] += 1


def _observe_broad_phase(counters, args, kwargs, result):
    counters["broad_phase.kept"] += len(result)


_OBSERVERS = {
    "distance.solve_inner": _observe_solve_inner,
    "trajopt.evaluate": _observe_evaluate,
    "trajopt.broad_phase": _observe_broad_phase,
}

# Which span names each reported layer needs; a layer whose spans could not
# be installed is reported as not measured.
_LAYER_SPANS = {
    "kinematics.link_frames": ("kinematics.link_frames",),
    "kinematics.place_on_robot": ("kinematics.place_on_robot",),
    "kinematics.placement_jacobian": ("kinematics.placement_jacobian",),
    "trajopt.broad_phase": ("trajopt.broad_phase",),
    "trajopt.evaluate": ("trajopt.evaluate",),
    "trajopt.linesearch": ("trajopt.evaluate",),
    "trajopt.banded_solve": ("trajopt.banded_solve", "trajopt.to_banded"),
    "trajopt.hessian": ("trajopt.evaluate",),
    "trajopt.validate": ("trajopt.validate",),
    "distance.solve_inner": ("distance.solve_inner",),
    "distance.grid_oracle": ("distance.grid_oracle",),
    "sensitivity.pair_derivatives": ("sensitivity.pair_derivatives",),
    "scene_io.load_scene": ("scene_io.load_scene",),
}


def layer_metrics(tracer: Tracer, units: int, candidates: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per unit of work, plus the layers that were not measured.

    `units` is how many units of work the traced pass ran; counts and times
    are divided by it so that they do not depend on the run length.
    `candidates` is the number of candidate pairs the broad phase tests per
    call.
    """
    totals = tracer.layer_totals()
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / units

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names) / units

    def ratio(num, den):
        return num / den if den else 0.0

    inner_calls = totals.get("distance.solve_inner", (0, 0.0))[0]
    bp_calls = totals.get("trajopt.broad_phase", (0, 0.0))[0]
    values = {
        "kinematics.link_frames.calls": calls("kinematics.link_frames"),
        "kinematics.link_frames.self_s": self_s("kinematics.link_frames"),
        "kinematics.place_on_robot.calls": calls("kinematics.place_on_robot"),
        "kinematics.place_on_robot.self_s": self_s("kinematics.place_on_robot"),
        "kinematics.placement_jacobian.calls": calls("kinematics.placement_jacobian"),
        "kinematics.placement_jacobian.self_s": self_s("kinematics.placement_jacobian"),
        "trajopt.broad_phase.calls": calls("trajopt.broad_phase"),
        "trajopt.broad_phase.self_s": self_s("trajopt.broad_phase"),
        "trajopt.broad_phase.kept_ratio": ratio(c["broad_phase.kept"], bp_calls * candidates),
        "trajopt.evaluate.calls": calls("trajopt.evaluate"),
        "trajopt.evaluate.self_s": self_s("trajopt.evaluate"),
        "trajopt.linesearch.trials": c["linesearch.trials"] / units,
        "trajopt.banded_solve.calls": calls("trajopt.banded_solve"),
        "trajopt.banded_solve.self_s": self_s("trajopt.banded_solve", "trajopt.to_banded"),
        "trajopt.hessian.bytes_computed": c["hessian.bytes"] / units,
        "trajopt.validate.self_s": self_s("trajopt.validate"),
        "distance.solve_inner.calls": calls("distance.solve_inner"),
        "distance.solve_inner.self_s": self_s("distance.solve_inner"),
        "distance.solve_inner.newton_steps_mean": ratio(c["solve_inner.steps"], inner_calls),
        "distance.solve_inner.newton_steps_max": c["solve_inner.steps_max"],
        "distance.solve_inner.warm_ratio": ratio(c["solve_inner.warm"], inner_calls),
        "distance.solve_inner.failed": c["solve_inner.failed"] / units,
        "distance.solve_inner.active_ratio": ratio(c["solve_inner.active"], inner_calls),
        "distance.grid_oracle.calls": calls("distance.grid_oracle"),
        "distance.grid_oracle.self_s": self_s("distance.grid_oracle"),
        "sensitivity.pair_derivatives.calls": calls("sensitivity.pair_derivatives"),
        "sensitivity.pair_derivatives.self_s": self_s("sensitivity.pair_derivatives"),
        # Set-up runs once per process, so its time is not divided by units.
        "scene_io.load_scene.self_s": totals.get("scene_io.load_scene", (0, 0.0))[1],
    }
    not_measured = sorted(
        layer
        for layer, spans in _LAYER_SPANS.items()
        if any(span in tracer.missing for span in spans)
    )
    for layer in not_measured:
        for name in [n for n in values if n.startswith(layer + ".")]:
            del values[name]
    return values, not_measured
