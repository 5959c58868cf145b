"""Span tracing of mindiv from outside the package.

The tracer replaces module-level names through which the layers of
``mindiv`` call each other, plus the bound methods of the four family
singletons, with wrappers that record one span per call.  Nothing under
``src/`` changes: the wrappers are installed into the imported modules at
run time and removed again by :meth:`Tracer.uninstall`.

Spans are kept in memory as flat arrays (name id, parent index, operation
index, start, end) and written out when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

FAMILY_METHODS = (
    "log_density",
    "density",
    "score",
    "score_deriv",
    "integration_grid",
    "power_ratio_integral",
    "power_mass_integral",
    "renyi_normalizer",
    "weighted_score_mean",
    "mle_parameter",
    "default_bounds",
    "sample",
)
CLOSED_FORM_METHODS = (
    "power_ratio_integral",
    "power_mass_integral",
    "renyi_normalizer",
    "weighted_score_mean",
)


class Tracer:
    """Records spans at the layer boundaries of an imported ``mindiv``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        # Counters read where the work happens.
        self.log_density_elems = 0
        self.study_failures = 0
        self.iterations: dict[str, list[int]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, wrap_args=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``after(args, kwargs, result)`` runs on the result; ``wrap_args``
        rewrites the arguments before the call (used to trace callbacks).
        """
        nid = self._id(name)
        stack, name_id, parent, op_index = self._stack, self.name_id, self.parent, self.op_index
        start, end = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_index.append(tracer.op)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced._bench_span = name
        return traced

    def _callback(self, name: str, fn):
        if fn is None or getattr(fn, "_bench_span", None) is not None:
            return fn
        return self.wrap(name, fn)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, target, wrapper):
        """Point every ``mindiv`` module attribute bound to ``target`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mindiv" or mod_name.startswith("mindiv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._set(mod, attr, wrapper)

    def install(self, mindiv) -> None:
        est = mindiv.estimators
        opt = mindiv.optimize
        sim = mindiv.simulation
        inf = mindiv.influence
        meas = mindiv.measures

        def record_iterations(args, kwargs, result):
            spec = args[1] if len(args) > 1 else kwargs["spec"]
            self.iterations[spec.kind].append(int(result.iterations))

        def trace_objective_and_psi(args, kwargs):
            args = (self._callback("estimators.objective", args[0]),) + tuple(args[1:])
            if "psi" in kwargs:
                kwargs = dict(kwargs, psi=self._callback("estimators.psi", kwargs["psi"]))
            return args, kwargs

        def trace_polish_psi(args, kwargs):
            return (self._callback("estimators.psi", args[0]),) + tuple(args[1:]), kwargs

        def count_failures(args, kwargs, result):
            self.study_failures += sum(row.failure_count for row in result.rows)

        self._replace_everywhere(
            sim.run_study, self.wrap("simulation.run_study", sim.run_study, after=count_failures)
        )
        plain = {
            meas.empirical: "measures.empirical",
            meas.contaminate: "measures.contaminate",
            meas.quadrature_of: "measures.quadrature_of",
            sim.sample_contaminated: "simulation.sample_contaminated",
            inf.if_numeric: "influence.if_numeric",
            inf.influence_curve: "influence.influence_curve",
        }
        for target, name in plain.items():
            self._replace_everywhere(target, self.wrap(name, target))
        self._replace_everywhere(
            est.estimate, self.wrap("estimators.estimate", est.estimate, after=record_iterations)
        )
        for target, name in ((opt.solve_1d, "optimize.solve_1d"), (opt.solve_2d, "optimize.solve_2d")):
            self._replace_everywhere(target, self.wrap(name, target, wrap_args=trace_objective_and_psi))
        polish = opt._newton_polish
        self._replace_everywhere(
            polish, self.wrap("optimize.newton_polish", polish, wrap_args=trace_polish_psi)
        )
        sciopt = opt._sciopt
        proxy = types.SimpleNamespace(
            minimize=self.wrap("optimize.scipy_minimize", sciopt.minimize),
            minimize_scalar=self.wrap("optimize.scipy_minimize", sciopt.minimize_scalar),
            Bounds=sciopt.Bounds,
        )
        self._set(opt, "_sciopt", proxy)

        def count_elems(args, kwargs, result):
            self.log_density_elems += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))

        for family in mindiv.FAMILIES.values():
            for method in FAMILY_METHODS:
                bound = getattr(family, method)
                after = count_elems if method == "log_density" else None
                self._set(family, method, self.wrap(f"families.{method}", bound, after=after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_index": np.frombuffer(self.op_index, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self time in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def descendant_count(self, ancestor_name: str, name: str) -> int:
        """Spans named ``name`` that have a span named ``ancestor_name``
        somewhere above them."""
        if ancestor_name not in self._ids or name not in self._ids:
            return 0
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ancestor = self._ids[ancestor_name]
        count = 0
        for i in np.flatnonzero(name_id == self._ids[name]):
            p = parent[i]
            while p >= 0 and name_id[p] != ancestor:
                p = parent[p]
            count += p >= 0
        return int(count)


_MISSING = object()
