"""Spans around the public functions of each toralzeta layer, from outside.

The package imports names across modules (``from .linalg import det_exact``),
so a function is reached through every module that bound it.  Tracer.install
replaces the function in each of those namespaces with a wrapper that
records a span (name, start, end, parent span, request id) in memory, and
uninstall puts the originals back.  Nothing under src/ is changed.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# layer module -> public functions wrapped; RatFunc.init wraps the class
# constructor, mpmath.polyroots the root finder growth_rate and classify call
TRACED = {
    "cli": ["main", "parse_matrix"],
    "zeta": ["characteristic_polynomial", "char_factors", "lefschetz_zeta", "artin_mazur_zeta",
             "signed_count", "isolated_fixed_count", "signs", "euler_exponents",
             "generating_function", "growth_rate", "functional_equation_check", "classify",
             "build_report"],
    "linalg": ["det_exact", "exterior_power", "mat_pow", "smith_normal_form"],
    "polynomials": ["poly_gcd", "det_poly_linear", "squarefree_decomposition",
                    "real_root_count_region"],
    "oracle": ["snf_fixed_count", "enumerate_fixed_points", "exp_sum_zeta_series",
               "euler_product_series", "sturm_sign_oracle"],
}
LAYERS = ["cli", "zeta", "linalg", "polynomials", "oracle", "mpmath"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.points = 0  # fixed points returned by enumerate_fixed_points
        self.current_request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        counts_points = name == "oracle.enumerate_fixed_points"

        def traced(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if counts_points and result.finite:
                self.points += result.count
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, holder, attr, wrapper):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "toralzeta" or n.startswith("toralzeta.")]
        for layer, functions in TRACED.items():
            module = sys.modules[f"toralzeta.{layer}"]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in package:
                    if getattr(holder, fname, None) is original:
                        self._rebind(holder, fname, wrapper)
        ratfunc = sys.modules["toralzeta.polynomials"].RatFunc
        self._rebind(ratfunc, "__init__", self._wrap("polynomials.RatFunc.init", ratfunc.__init__))
        mpmath = sys.modules["mpmath"]
        self._rebind(mpmath, "polyroots", self._wrap("mpmath.polyroots", mpmath.polyroots))

    def uninstall(self):
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
        return dict(out)

    def spans(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "request"],
            "spans": [
                [self.span_name[i], self.start[i], self.end[i], self.parent[i], self.request[i]]
                for i in range(len(self.start))
            ],
        }
