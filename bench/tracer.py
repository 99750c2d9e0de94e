"""Span tracing of toric_gec's public functions, for the per-layer metrics.

``Tracer.install`` replaces each traced function at every module binding
that refers to it (``lattice_coordinates`` is bound in ``lattice``,
``polytope`` and ``monge_ampere``, for example) and wraps the
``LaurentPolynomial`` methods on the class itself. Each wrapper records a
span (name, start, end, parent) in flat arrays; self time is a span's
duration minus the durations of its direct child spans. A few wrappers also
count sizes where the work happens: terms produced, subsets a ``mu`` call
may enumerate, faces handed to descent, dividend sizes. Nothing in ``src``
is modified on disk, and nothing is traced until ``install`` runs.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from math import comb

# (defining module, attribute, metric name)
FUNCTIONS = [
    ("lattice", "lattice_coordinates", "lattice.lattice_coordinates"),
    ("lattice", "integer_determinant", "lattice.integer_determinant"),
    ("lattice", "difference_lattice_basis", "lattice.difference_lattice_basis"),
    ("laurent", "divides", "laurent.divides"),
    ("monge_ampere", "mu", "monge_ampere.mu"),
    ("monge_ampere", "check_initial_factorization", "monge_ampere.check_initial_factorization"),
    ("polytope", "from_inequalities", "polytope.from_inequalities"),
    ("polytope", "faces", "polytope.faces"),
    ("polytope", "hull", "polytope.hull"),
    ("polytope", "adjacent_polytope", "polytope.adjacent_polytope"),
    ("polytope", "face_chart_polynomial", "polytope.face_chart_polynomial"),
    ("polytope", "unimodular_support", "polytope.unimodular_support"),
    ("gec", "face_descent", "gec.face_descent"),
    ("gec", "edge_ratio_test", "gec.edge_ratio_test"),
    ("gec", "standard_hexagon_map", "gec.standard_hexagon_map"),
    ("gec", "gec_check", "gec.gec_check"),
    ("gec", "einstein_check", "gec.einstein_check"),
    ("gec", "minimal_kappa", "gec.minimal_kappa"),
    ("gec", "classify_1d", "gec.classify_1d"),
    ("gec", "hexagon_obstruction", "gec.hexagon_obstruction"),
    ("families", "anticanonical_polytope", "families.anticanonical_polytope"),
    ("families", "obstructing_face", "families.obstructing_face"),
    ("expr", "parse_expression", "expr.parse_expression"),
    ("cli", "main", "cli.main"),
]
METHODS = [
    ("__init__", "laurent.init"),
    ("__mul__", "laurent.mul"),  # also bound as __rmul__
    ("__pow__", "laurent.pow"),
]
# inclusive time is reported where self time hides the layer's real cost
# (pow spends nearly all of its time in nested multiplications)
INCLUSIVE = ["laurent.pow", "monge_ampere.mu", "gec.gec_check", "gec.face_descent"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_pow_terms = 0
        self.polygons: set = set()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names, stack = tracer.span_name, tracer.stack
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result, parent)
            return result

        return wrapper

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.names[self.span_name[parent]] == name

    # size counters, evaluated after the span has closed

    def _on_mu(self, args, result, parent) -> None:
        n = len(args[0].terms)
        self.counts["monge_ampere.mu.terms_out"] += len(result.mu.terms)
        self.counts["monge_ampere.mu.subsets_bound"] += comb(n, result.rank_r + 1)

    def _on_mul(self, args, result, parent) -> None:
        self.counts["laurent.mul.terms_out"] += len(result.terms)

    def _on_pow(self, args, result, parent) -> None:
        self.max_pow_terms = max(self.max_pow_terms, len(result.terms))

    def _on_divides(self, args, result, parent) -> None:
        self.counts["laurent.divides.dividend_terms"] += len(args[1].terms)
        self.counts["laurent.divides.true"] += bool(result)

    def _on_faces(self, args, result, parent) -> None:
        self.counts["polytope.faces.out"] += len(result)
        if self._parent_is(parent, "gec.face_descent"):
            self.counts["gec.face_descent.faces_examined"] += len(result)

    def _on_edge_ratio(self, args, result, parent) -> None:
        if self._parent_is(parent, "gec.face_descent"):
            self.counts["gec.two_faces_tested"] += 1
            self.polygons.add(args[0].vertices)

    def install(self) -> None:
        """Wrap every traced function at every toric_gec module binding."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "toric_gec" or name.startswith("toric_gec.")
        }
        hooks = {
            "monge_ampere.mu": self._on_mu,
            "laurent.divides": self._on_divides,
            "polytope.faces": self._on_faces,
            "gec.edge_ratio_test": self._on_edge_ratio,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(modules["toric_gec." + module], attr)
            wrapper = self._wrap(original, name, hooks.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        cls = modules["toric_gec.laurent"].LaurentPolynomial
        method_hooks = {"laurent.mul": self._on_mul, "laurent.pow": self._on_pow}
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, name, method_hooks.get(name))
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset;
        wall is the traced time the spans fall in."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            duration = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += duration - child[i]
            if parents[i] < 0 or names[self.span_name[parents[i]]] != name:
                total_s[name] += duration  # skip nested calls of the same function
        out: dict[str, float] = {}
        for name in dict.fromkeys(names):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for name in INCLUSIVE:
            out[name + ".total_s"] = total_s[name]
        for key in (
            "laurent.mul.terms_out",
            "monge_ampere.mu.terms_out",
            "monge_ampere.mu.subsets_bound",
            "laurent.divides.dividend_terms",
            "polytope.faces.out",
            "gec.face_descent.faces_examined",
        ):
            out[key] = self.counts[key]
        out["laurent.pow.max_terms"] = self.max_pow_terms
        divides = calls["laurent.divides"]
        out["laurent.divides.true_ratio"] = self.counts["laurent.divides.true"] / divides if divides else 0.0
        tested = self.counts["gec.two_faces_tested"]
        out["gec.polygon_distinct_ratio"] = len(self.polygons) / tested if tested else 0.0
        out["trace.spans"] = n
        out["trace.self_coverage"] = sum(self_s.values()) / wall if wall else 0.0
        return out
