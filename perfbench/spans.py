"""Spans around calls into lmgsim's layers, recorded from outside the package.

Each traced name is patched wherever lmgsim looks it up: a function is
replaced in every lmgsim module that holds it (so `lmgsim.satin.evolve_unitary`
and `lmgsim.dynamics.evolve_unitary` both record), and a class is traced
through its __init__. Spans stay in memory as (name, start, end, parent) and
are written out when the run ends. A target the package no longer has is
skipped and reads as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer, module, attribute); "Class.__init__" traces constructions.
TARGETS = (
    ("dicke.rotate", "dicke", "rotate"),
    ("dicke.DensityMatrix", "dicke", "DensityMatrix.__init__"),
    ("dynamics.build_hamiltonian", "dynamics", "build_hamiltonian"),
    ("dynamics.eigensolve", "dynamics", "UnitaryPropagator.__init__"),
    ("dynamics.propagator_for", "dynamics", "propagator_for"),
    ("dynamics.evolve_unitary", "dynamics", "evolve_unitary"),
    ("dynamics.evolve_lindblad", "dynamics", "evolve_lindblad"),
    ("observables.antisqueezing", "observables", "antisqueezing"),
    ("observables.binder_cumulant", "observables", "binder_cumulant"),
    ("observables.multipole_components", "observables", "multipole_components"),
    ("observables.wigner", "observables", "wigner"),
    ("scrambling.fotoc", "scrambling", "fotoc"),
    ("satin.run_satin", "satin", "run_satin"),
    ("satin.metrological_gain", "satin", "metrological_gain"),
    ("tomography.simulate_measurements", "tomography", "simulate_measurements"),
    ("tomography.born_probabilities", "tomography", "born_probabilities"),
    ("tomography.reconstruct", "tomography", "reconstruct"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "lmgsim" or name.startswith("lmgsim.")]


def patch(targets, make_wrapper):
    """Replace each (layer, module, attribute) by make_wrapper(layer, original)
    where lmgsim looks it up; return a function that undoes every replacement."""
    undo = []
    for layer, module, attr in targets:
        mod = sys.modules.get(f"lmgsim.{module}")
        owner_name, _, method = attr.partition(".")
        original = getattr(mod, owner_name, None)
        if original is None:
            continue
        if method:
            init = original.__dict__.get(method)
            if init is None:
                continue
            setattr(original, method, make_wrapper(layer, init))
            undo.append((original, method, init))
            continue
        wrapper = make_wrapper(layer, original)
        for m in _package_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


class Tracer:
    """Spans kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][1:3] = start, clock()
                stack.pop()

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{layer: {"calls", "self_s"}}; self time is the span minus its children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer, _, _ in TARGETS}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += end - start - child[index]
        return totals


def capture_results(sink: list):
    """make_wrapper for patch(): append every result to sink, record nothing else."""

    def make_wrapper(_layer, fn):
        @functools.wraps(fn)
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return capturing

    return make_wrapper
