"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each henonlab module at every
name a caller looks them up by: ``cli`` holds its own binding of
``periodic_points_2d`` while ``reality_conditions_report`` looks it up in
``periodic2d``, so each binding of the original function object in every
loaded henonlab module is replaced, and restored by ``uninstall``.

A span records name, layer, start, end and the span open when it began
(its parent); the run is single-threaded, so spans nest.  Self time is a
span's duration minus its direct children's.  Counts taken from the
arguments and results are stored on the span, after its end time is read.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

from henonlab.errors import ConvergenceError

LAYERS = {
    "potential": ("green_plus_field", "green_minus_field", "green_poly_field"),
    "raster": ("grayscale_log", "write_pgm", "density_counts"),
    "poly1d": ("julia_render_points", "simultaneous_roots"),
    "periodic2d": ("periodic_points_2d", "reality_conditions_report",
                   "symbolic_orbit_seed", "mu_n_measure", "saddle_table"),
    "measures": ("compare",),
    "symbolic": ("necklaces",),
}


def _field_counts(args, kwargs, out) -> dict:
    return {"pixels": int(out.n_used.size),
            "iters": int(out.n_used.sum()),
            "presumed": int(out.presumed_bounded.sum()),
            "unconverged": int(out.n_used.size - out.converged.sum())}


def _level_counts(args, kwargs, out) -> dict:
    n = args[1] if len(args) > 1 else kwargs["n"]
    # fixed points come in closed form; every longer orbit came from a seed
    seeded = sum(1 for o in out.orbits if o.period > 1)
    return {"n": int(n), "attempts": out.attempts, "orbits": seeded}


def _compare_counts(args, kwargs, out) -> dict:
    return {"atoms": len(args[0]) + len(args[1])}


COUNTERS = {
    "green_plus_field": _field_counts,
    "green_minus_field": _field_counts,
    "green_poly_field": _field_counts,
    "periodic_points_2d": _level_counts,
    "compare": _compare_counts,
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s",
                 "failed", "counts")

    def __init__(self, name: str, layer: str, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.failed = False
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list = []

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = Span(name, layer, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except ConvergenceError:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "henonlab"
                                         or key.startswith("henonlab."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"henonlab.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call; the tracer starts afresh."""
        spans, self.spans = self.spans, []
        return spans


def nesting_problems(spans) -> list:
    """Spans that do not lie inside their parent's interval."""
    return [f"{s.name} outside {s.parent.name}" for s in spans
            if s.parent is not None
            and not (s.parent.start <= s.start and s.end <= s.parent.end)]


def has_chain(spans, chain) -> bool:
    """Whether some span sits under ancestors named as in `chain`,
    outermost first, each the direct parent of the next."""
    if not chain:
        return True
    for s in spans:
        node, ok = s, True
        for name in reversed(chain):
            if node is None or node.name != name:
                ok = False
                break
            node = node.parent
        if ok:
            return True
    return False


def pass_metrics(spans, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (see spec.json)."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(key, names):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    def self_of(layer):
        return sum(s.self_s for s in spans if s.layer == layer)

    fields = LAYERS["potential"]
    field_spans = [s for s in spans if s.name in fields]
    pixels = count("pixels", fields)
    iters = count("iters", fields)
    levels = [s for s in spans if s.name == "periodic_points_2d"]
    top_n = max((s.counts.get("n", 0) for s in levels), default=0)
    attempts = count("attempts", ("periodic_points_2d",))
    orbits = count("orbits", ("periodic_points_2d",))
    roots = [s for s in spans if s.name == "simultaneous_roots"]
    potential_self = self_of("potential")
    return {
        "cli.self_s": pass_s - sum(s.duration for s in spans
                                   if s.parent is None),
        "potential.calls": len(field_spans),
        "potential.self_s": potential_self,
        "potential.iters": iters,
        "potential.iters_per_s": iters / potential_self if iters else 0.0,
        "potential.presumed_frac":
            count("presumed", fields) / pixels if pixels else 0.0,
        "potential.bounded_call_frac":
            sum(1 for s in field_spans if s.counts.get("presumed"))
            / len(field_spans) if field_spans else 0.0,
        "potential.unconverged_frac":
            count("unconverged", fields) / pixels if pixels else 0.0,
        "raster.self_s": self_of("raster"),
        "poly1d.self_s": self_of("poly1d"),
        "poly1d.roots_calls": len(roots),
        "poly1d.roots_s": sum(s.duration for s in roots),
        "poly1d.roots_failed": sum(1 for s in roots if s.failed),
        "periodic2d.level_calls": len(levels),
        "periodic2d.level_s": total("periodic_points_2d"),
        "periodic2d.self_s": self_of("periodic2d"),
        "periodic2d.top_level_s": sum(s.duration for s in levels
                                      if s.counts.get("n") == top_n),
        "periodic2d.reality_s": total("reality_conditions_report"),
        "periodic2d.seed_s": total("symbolic_orbit_seed"),
        "periodic2d.measure_s": total("mu_n_measure"),
        "periodic2d.attempts": attempts,
        "periodic2d.orbits": orbits,
        "periodic2d.accept_ratio": orbits / attempts if attempts else 0.0,
        "measures.compare_calls": sum(1 for s in spans if s.name == "compare"),
        "measures.compare_s": total("compare"),
        "measures.atoms": count("atoms", ("compare",)),
        "symbolic.necklace_calls": sum(1 for s in spans
                                       if s.name == "necklaces"),
        "symbolic.necklace_s": total("necklaces"),
    }


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
