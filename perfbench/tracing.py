"""Per-layer tracing of boundarykit from outside the package.

`Tracer` wraps the public functions and methods of each boundarykit module
with spans.  Each wrapper is bound under every name that a caller looks up
(for example `boundarykit.volume.lobachevsky` and the names imported into
`boundarykit.cli`), so nothing under `src/` changes.  Spans nest on one
stack (the program is single-threaded): a span's self time is its duration
minus the durations of the spans it encloses.  Spans are aggregated in
memory per layer name and read out by the caller when the run ends; no I/O
happens while an op runs.

Self times are not corrected for the tracer's own cost.  The part of each
wrapper that runs outside a child span's clock readings is charged to the
parent's self time; `span_cost_ns` measures that cost per span so readers
can correct a parent's figure by (child calls x cost).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import time

# Metrics the traced run reports, with their units, in output order.
PER_LAYER = [
    ("projective.ProjectivePoint.calls", "count"),
    ("projective.ProjectivePoint.self_s", "s"),
    ("projective.chordal_distance.calls", "count"),
    ("projective.chordal_distance.self_s", "s"),
    ("projective.cross_ratio.calls", "count"),
    ("projective.cross_ratio.self_s", "s"),
    ("projective.is_infinite.calls", "count"),
    ("hyperbolic.RealBoundaryPoint.calls", "count"),
    ("hyperbolic.RealBoundaryPoint.self_s", "s"),
    ("hyperbolic.chordal_distance.calls", "count"),
    ("hyperbolic.chordal_distance.self_s", "s"),
    ("hyperbolic.is_generic_tuple.calls", "count"),
    ("hyperbolic.is_generic_tuple.self_s", "s"),
    ("hyperbolic.boundary_to_chart.calls", "count"),
    ("hyperbolic.boundary_to_chart.self_s", "s"),
    ("hyperbolic.cartan_invariant_batch.self_s", "s"),
    ("hyperbolic.cartan_invariant_batch.ns_per_elem", "ns"),
    ("flags.Flag3.calls", "count"),
    ("flags.Flag3.self_s", "s"),
    ("flags.batch_random_flags.self_s", "s"),
    ("flags.batch_random_flags.ns_per_elem", "ns"),
    ("flags.batch_is_generic.self_s", "s"),
    ("flags.batch_is_generic.ns_per_elem", "ns"),
    ("flags.batch_triple_ratio.self_s", "s"),
    ("flags.batch_triple_ratio.ns_per_elem", "ns"),
    ("volume.lobachevsky.calls", "count"),
    ("volume.lobachevsky.self_s", "s"),
    ("volume.vol3_from_cross_ratio.calls", "count"),
    ("volume.vol3_from_cross_ratio.self_s", "s"),
    ("volume.vol3.calls", "count"),
    ("volume.vol3.self_s", "s"),
    ("volume.vol2.calls", "count"),
    ("volume.vol2.self_s", "s"),
    ("certifier.certify.calls", "count"),
    ("certifier.certify.self_s", "s"),
    ("certifier.doubling_defect.calls", "count"),
    ("certifier.doubling_defect.self_s", "s"),
    ("certifier.F.calls", "count"),
    ("certifier.F.self_s", "s"),
    ("certifier.refusals", "count"),
    ("cochains.empirical_sup_defect.self_s", "s"),
    ("cochains.coboundary_eval.calls", "count"),
    ("cochains.coboundary_eval.self_s", "s"),
    ("sampling.draws", "count"),
    ("sampling.accepted", "count"),
    ("sampling.acceptance_ratio", "ratio"),
    ("sampling.sampler.self_s", "s"),
    ("reports.sampler.draws", "count"),
    ("reports.sampler.accepted", "count"),
    ("reports.sampler.acceptance_ratio", "ratio"),
    ("reports.sample.self_s", "s"),
    ("reports.emit.calls", "count"),
    ("reports.emit.self_s", "s"),
    ("reports.emit.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.span_cost_ns", "ns"),
]


def _rows(args, kwargs):
    return len(args[0])


def _count_arg(args, kwargs):
    return int(args[1] if len(args) > 1 else kwargs["count"])


# (layer name, module, attribute, elements per call or None)
_FUNCTIONS = [
    ("projective.cross_ratio", "projective", "cross_ratio", None),
    ("projective.is_infinite", "projective", "is_infinite", None),
    ("hyperbolic.is_generic_tuple", "hyperbolic", "is_generic_tuple", None),
    ("hyperbolic.boundary_to_chart", "hyperbolic", "boundary_to_chart", None),
    ("hyperbolic.cartan_invariant_batch", "hyperbolic", "cartan_invariant_batch", _rows),
    ("flags.batch_random_flags", "flags", "batch_random_flags", _count_arg),
    ("flags.batch_is_generic", "flags", "batch_is_generic", _rows),
    ("flags.batch_triple_ratio", "flags", "batch_triple_ratio", _rows),
    ("volume.lobachevsky", "volume", "lobachevsky", None),
    ("volume.vol3_from_cross_ratio", "volume", "vol3_from_cross_ratio", None),
    ("volume.vol3", "volume", "vol3", None),
    ("volume.vol2", "volume", "vol2", None),
    ("certifier.doubling_defect", "certifier", "doubling_defect", None),
    ("cochains.empirical_sup_defect", "cochains", "empirical_sup_defect", None),
    ("reports.sample", "reports", "sample_tuples", None),
]

# (layer name, module, class, method)
_METHODS = [
    ("projective.ProjectivePoint", "projective", "ProjectivePoint", "__init__"),
    ("projective.chordal_distance", "projective", "ProjectivePoint", "chordal_distance"),
    ("hyperbolic.RealBoundaryPoint", "hyperbolic", "RealBoundaryPoint", "__init__"),
    ("hyperbolic.chordal_distance", "hyperbolic", "RealBoundaryPoint", "chordal_distance"),
    ("flags.Flag3", "flags", "Flag3", "__init__"),
    ("certifier.F", "certifier", "ScalarFunction", "__call__"),
]


class Tracer:
    """Span aggregates for boundarykit's layers, toggled per op."""

    def __init__(self):
        self.stats = {}      # layer name -> [calls, self seconds, elements]
        self.counts = {}     # counter name -> value
        self.top_s = 0.0     # summed duration of outermost spans
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self._plan_items = None
        self.missing = []    # targets this version of the package lacks

    def span(self, name, fn, elems=None):
        """Return `fn` wrapped in a span aggregated under `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    tracer.top_s += duration
                if elems is not None:
                    stat[2] += elems(args, kwargs)

        return wrapper

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- plan: which names get which wrapper --------------------------------

    def _plan(self):
        """List (class or None, attribute, original, wrapper).

        None means the wrapper replaces every module binding of the original.
        """
        wrap = {(mod, attr): functools.partial(self.span, name, elems=elems)
                for name, mod, attr, elems in _FUNCTIONS}
        # `except ()` catches nothing, so a package without the class still runs
        refused = getattr(sys.modules.get("boundarykit.errors"), "UnboundedDefect", ())
        for attr in ("certify_interval", "certify_complex_region"):
            wrap["certifier", attr] = (
                lambda fn: self._refusals(self.span("certifier.certify", fn), refused))
        wrap["cochains", "coboundary"] = self._traced_coboundary
        wrap["sampling", "circle_tuple_sampler"] = self._traced_sampler_factory
        wrap["sampling", "chart_tuple_sampler"] = self._traced_sampler_factory
        wrap["reports", "_accepted_batches"] = self._traced_batches
        wrap["reports", "emit_report"] = self._traced_emit

        plan = []
        for (mod, attr), make in wrap.items():
            fn = getattr(sys.modules.get(f"boundarykit.{mod}"), attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
            else:
                plan.append((None, attr, fn, make(fn)))
        for name, mod, cls_name, meth in _METHODS:
            cls = getattr(sys.modules.get(f"boundarykit.{mod}"), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
            else:
                plan.append((cls, meth, fn, self.span(name, fn)))
        self._plan_items = plan

    def _refusals(self, fn, refused):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except refused:
                self.count("certifier.refusals")
                raise
        return wrapper

    def _traced_coboundary(self, coboundary):
        @functools.wraps(coboundary)
        def wrapper(f):
            g = coboundary(f)
            return dataclasses.replace(
                g, evaluator=self.span("cochains.coboundary_eval", g.evaluator))
        return wrapper

    def _traced_sampler_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            inner = self.span("sampling.sampler", factory(*args, **kwargs))

            def sample(rng):
                candidate = inner(rng)
                self.count("sampling.draws")
                if candidate is not None:
                    self.count("sampling.accepted")
                return candidate
            return sample
        return make

    def _traced_batches(self, batches):
        inner = self.span("reports.sampler", batches)

        @functools.wraps(batches)
        def wrapper(*args, **kwargs):
            chunks, draws, accepted = inner(*args, **kwargs)
            self.count("reports.sampler.draws", int(draws))
            self.count("reports.sampler.accepted", int(accepted))
            return chunks, draws, accepted
        return wrapper

    def _traced_emit(self, emit):
        inner = self.span("reports.emit", emit)

        @functools.wraps(emit)
        def wrapper(*args, **kwargs):
            inner(*args, **kwargs)
            path = args[2] if len(args) > 2 else kwargs["path"]
            self.count("reports.emit.bytes", os.path.getsize(path))
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Bind every wrapper under each name that holds its original."""
        if self._plan_items is None:
            self._plan()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "boundarykit" or n.startswith("boundarykit.")]
        for owner, attr, original, wrapper in self._plan_items:
            if owner is not None:
                bindings = [(owner, attr)]
            else:
                bindings = [(m, name) for m in modules
                            for name, value in vars(m).items() if value is original]
            for target, name in bindings:
                setattr(target, name, wrapper)
                self._patches.append((target, name, original))

    def uninstall(self):
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    # -- read-out ------------------------------------------------------------

    def take(self):
        """Return and zero the aggregates gathered since the last call."""
        snapshot = {"stats": {k: list(v) for k, v in self.stats.items()},
                    "counts": dict(self.counts), "top_s": self.top_s}
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0]
        self.counts.clear()
        self.top_s = 0.0
        return snapshot


def span_cost_ns(samples: int = 200_000) -> float:
    """Cost of one span around a no-op call, wrapper minus bare call."""

    def noop():
        return None

    traced = Tracer().span("noop", noop)
    clock = time.perf_counter
    best_bare = best_traced = float("inf")
    for _ in range(3):
        start = clock()
        for _ in range(samples):
            noop()
        best_bare = min(best_bare, clock() - start)
        start = clock()
        for _ in range(samples):
            traced()
        best_traced = min(best_traced, clock() - start)
    return 1e9 * (best_traced - best_bare) / samples


def layer_metrics(cycles, cycle_walls, overhead, cost_ns):
    """Per-layer metrics from per-cycle snapshots of traced ops.

    Counts come from the first traced cycle, so they repeat exactly for a
    workload seed.  Times are means per cycle (one op of each type) over
    every traced cycle.
    """
    first = cycles[0]
    n = len(cycles)
    values = {}

    def total(name, field):
        return sum(c["stats"].get(name, [0, 0.0, 0])[field] for c in cycles)

    for name in first["stats"]:
        calls, _, elems = first["stats"][name]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = total(name, 1) / n
        all_elems = total(name, 2)
        if all_elems:
            values[f"{name}.ns_per_elem"] = 1e9 * total(name, 1) / all_elems
    values.update(first["counts"])
    for prefix in ("sampling", "reports.sampler"):
        draws = values.get(f"{prefix}.draws", 0)
        values[f"{prefix}.acceptance_ratio"] = (
            values.get(f"{prefix}.accepted", 0) / draws if draws else 0.0)
    values["cli.self_s"] = sum(w - c["top_s"] for w, c in zip(cycle_walls, cycles)) / n
    values["trace.overhead"] = overhead
    values["trace.span_cost_ns"] = cost_ns
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}
