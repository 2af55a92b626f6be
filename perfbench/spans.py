"""Span tracing of the layer modules, from outside the program.

``Tracer.install`` replaces every public function of the eight layer modules
with a wrapper that records a span (id, parent id, name, start, end) and, for
a few functions, work counters derived from the call's arguments and result.
Names that one module binds from another at import (``circle.arcs``,
``series.count_polygonal``, ...) are replaced as well, and so are the
working methods of ``QSeries``, the ``FareyArc.measure`` property, and the
evaluator closures that ``series_evaluator`` and ``transformed_evaluator``
return.  ``Tracer.uninstall`` puts every original back.

Spans stay in memory until ``write`` is called.  A layer's self time is the
sum over its spans of the duration minus the durations of the direct child
spans, minus the tracer's own bookkeeping done inside the span on behalf of
those children.  Everything the traced pass spends outside the layers' self
time is the benchmark's own time (``bench.self_s``).
"""
from __future__ import annotations

import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("arith", "counting", "qseries", "series", "modforms", "farey",
          "analytic", "circle")

# int64 tables are refused past 2**62 (counting._INT64_GUARD)
GUARD_BITS = 62

# Called once per lattice point from inside counting's own enumerators, so its
# time is its caller's, in the same layer; a span each would add 3e5 a pass.
NOT_WRAPPED = {"counting.polygonal_number"}

# layer -> (class, members that do work): the QSeries ring operations, and the
# exact arc measure, which sums two Fractions per arc
CLASS_MEMBERS = {
    "qseries": ("QSeries", ("__init__", "__add__", "__neg__", "__sub__",
                            "__mul__", "__rmul__", "scale", "shift",
                            "substitute", "truncate", "rescale", "normalize",
                            "agree", "coeff", "coeff_index", "items",
                            "to_json_obj")),
    "farey": ("FareyArc", ("measure",)),
}

DIRECT_EVALS = {"theta_eval_direct", "false_theta_eval_direct",
                "theta_eval_direct_arc", "false_theta_eval_direct_arc"}
TRANSFORMED_EVALS = {"theta_eval_transformed", "false_theta_eval_transformed"}


def _farey_count(N: int) -> int:
    """Number of order-N arcs: reduced h/k in [0, 1) with k <= N."""
    return 1 + sum(1 for k in range(2, N + 1) for h in range(1, k)
                   if math.gcd(h, k) == 1)


class Tracer:
    """Patches the layer modules and records spans and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent, name id, t0, t1, book)
        self.counters: Counter = Counter()
        self.headroom = GUARD_BITS
        self._stack: list[list] = []  # [span id, child bookkeeping seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Start a fresh record of spans and counters, and wrap the public
        functions of ``modules`` (layer name -> module)."""
        self.spans, self.counters = [], Counter()
        self.headroom = GUARD_BITS
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) or hasattr(fn, "cache_info")) and \
                        fn.__module__ == mod.__name__ and name not in NOT_WRAPPED:
                    wrapped[id(fn)] = self._wrap(name, fn)
        # rebind every module-level name that refers to a wrapped function,
        # including the ones other modules imported by name
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and value is not wrapped[id(value)]:
                    self._patch(mod, attr, wrapped[id(value)])
        for layer, (cls_name, members) in CLASS_MEMBERS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in members:
                member = vars(cls)[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(member, property):
                    self._patch(cls, attr, property(self._wrap(name, member.fget)))
                else:
                    self._patch(cls, attr, self._wrap(name, member))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        return self._spanned(fn, self._name_id(name), self._counter_for(name, fn))

    def _spanned(self, fn, name_id: int, count):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if count is not None:
                result = count(args, kwargs, result)
            spans.append((sid, parent, name_id, t0, t1, frame[1]))
            if stack:
                stack[-1][1] += perf_counter() - t1
            return result

        return wrapper

    def _counter_for(self, name: str, fn):
        """A hook (args, kwargs, result) -> result that updates the work
        counters of this function, or None."""
        c = self.counters
        layer, _, short = name.partition(".")
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            return sig.bind(*args, **kwargs).arguments[key]

        def bump(key, amount_of):
            def hook(args, kwargs, result):
                c[key] += amount_of(args, kwargs, result)
                return result
            return hook

        if name in ("arith.sigma_table", "arith.phi_table", "arith.twisted8_table"):
            return bump("arith.sieve_entries", lambda a, k, r: len(r))
        if name in ("counting.polygonal_count_table", "counting.squares_count_table"):
            def table(args, kwargs, result):
                c["counting.table_calls"] += 1
                c["counting.table_entries"] += len(result)
                top = int(result.max(initial=1))
                self.headroom = min(self.headroom, GUARD_BITS - top.bit_length())
                return result
            return table
        if name in ("counting.count_polygonal", "counting.count_squares"):
            return bump("counting.per_index_calls", lambda a, k, r: 1)
        if name == "qseries.QSeries.__mul__":
            def mul(args, kwargs, result):
                a, b = args
                if isinstance(b, type(a)):  # not a scalar multiple
                    c["qseries.mul_calls"] += 1
                    c["qseries.mul_term_pairs"] += len(a.coeffs) * len(b.coeffs)
                return result
            return mul
        if name in ("series.decomposition_check", "series.rplus_generating_check"):
            return bump("series.coeffs_checked",
                        lambda a, k, r: arg(a, k, "n_max") + 1)
        if name == "farey.arcs":
            return bump("farey.arcs_built", lambda a, k, r: len(r))
        if layer == "analytic" and short in DIRECT_EVALS:
            return bump("analytic.direct_evals", lambda a, k, r: 1)
        if layer == "analytic" and short in TRANSFORMED_EVALS:
            return bump("analytic.transformed_evals", lambda a, k, r: 1)
        if name == "analytic.complex_quad":
            return bump("analytic.quad_calls", lambda a, k, r: 1)
        if name == "analytic.pv_closed_form":
            return bump("analytic.pv_points", lambda a, k, r: 1)
        if name == "analytic.pv_closed_form_batch":
            return bump("analytic.pv_points", lambda a, k, r: r.size)
        if name == "circle.coefficient_by_contour":
            def contour(args, kwargs, result):
                c["circle.arcs"] += result.num_arcs
                c["circle.quad_error"] += result.quad_error
                return result
            return contour
        if name == "circle.i_nu_contributions":
            def nu(args, kwargs, result):
                c["circle.nu_vectors"] += len(arg(args, kwargs, "nus"))
                c["circle.arcs"] += _farey_count(max(1, math.isqrt(arg(args, kwargs, "n"))))
                return result
            return nu
        if name in ("circle.series_evaluator", "circle.transformed_evaluator"):
            closure_id = self._name_id("circle.evaluator")
            calls = bump("circle.evaluator_calls", lambda a, k, r: 1)
            return lambda a, k, r: self._spanned(r, closure_id, calls)
        return None

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Counter:
        """The work counters, the headroom and ``<layer>.calls`` (spans per
        layer) since ``install``."""
        out = Counter(self.counters)
        out.update(f"{self.names[s[2]].partition('.')[0]}.calls" for s in self.spans)
        out["counting.guard_headroom_bits"] = self.headroom
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer over the spans recorded since ``install``."""
        spans = self.spans
        children = defaultdict(float)
        for _, parent, _, t0, t1, _ in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _, name_id, t0, t1, book in spans:
            layer = self.names[name_id].partition(".")[0]
            out[layer] += (t1 - t0) - children[sid] - book
        return out

    def write(self, path, spans: list[tuple], origin: float) -> None:
        """Write spans as TSV: id, parent, name, start_s, end_s, book_s."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tbook_s\n")
            for sid, parent, name_id, t0, t1, book in spans:
                fh.write(f"{sid}\t{parent}\t{self.names[name_id]}\t"
                         f"{t0 - origin:.9f}\t{t1 - origin:.9f}\t{book:.9f}\n")
