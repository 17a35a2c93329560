"""Per-layer timing of faberpoly from outside the program.

``Tracer.install`` replaces each public function of a layer with a timing
wrapper wherever the function is bound: in its home module, in every
``faberpoly`` module that imported it by name, in the package namespace,
and on the class for methods.  ``uninstall`` puts the originals back.

A call opens a span unless the innermost open span has the same metric
(``__sub__`` calling ``__add__`` counts once); ``ComplexPolynomial``
construction is only counted.  Each metric accumulates
calls, seconds and self seconds (its span minus the part its child spans
cover).  Spans of the coarse layers are kept in memory with their parent
and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

SUITE_FUNCTIONS = {
    "suite_recurrence_vs_oracle": "recurrence-vs-oracle", "suite_eq13": "eq13",
    "suite_eq14": "eq14", "suite_eq16": "eq16", "suite_theorem1": "theorem1",
    "suite_theorem2": "theorem2", "suite_theorem3": "theorem3",
    "suite_chebyshev": "chebyshev", "suite_he_formula": "he-formula",
    "suite_lambert": "lambert", "suite_rays": "rays",
}

#: spans of these metrics are kept; the rest are only summed
KEPT_SPANS = ("cli.main", "suites.", "faber.", "poly.roots", "verify", "maps.closed_form")
#: metrics that only count calls: no span, so their time stays in the caller's
COUNTED_ONLY = ("poly.new",)

#: the per-layer metrics, in output order, with their units
METRICS = [
    ("faber.recurrence.calls", "count"), ("faber.recurrence.s", "s"),
    ("faber.recurrence.self_s", "s"),
    ("poly.new.calls", "count"), ("poly.arith.calls", "count"), ("poly.arith.s", "s"),
    ("poly.eval.calls", "count"), ("poly.eval.s", "s"),
    ("poly.roots.calls", "count"), ("poly.roots.s", "s"), ("poly.roots.failed", "count"),
    ("faber.oracle.calls", "count"), ("faber.oracle.s", "s"), ("faber.oracle.self_s", "s"),
    ("series.reciprocal.calls", "count"), ("series.reciprocal.s", "s"),
    ("series.mul.s", "s"), ("series.log1.s", "s"), ("series.order_sum", "count"),
    ("maps.closed_form.calls", "count"), ("maps.closed_form.s", "s"),
    ("maps.lambert.calls", "count"), ("maps.lambert.s", "s"),
    ("maps.lambert.iterations", "count"), ("maps.lambert.unconverged", "count"),
    ("verify.calls", "count"), ("verify.s", "s"),
    *((f"suites.{suite}.s", "s") for suite in SUITE_FUNCTIONS.values()),
    ("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.out_bytes", "bytes"),
]
#: totals a metric reads under another name
SOURCES = {"cli.self_s": "cli.main.self_s"}


def _targets():
    """(owner, attribute, metric) for every traced function of faberpoly."""
    from faberpoly import cli, faber, maps, poly, series, suites, verify
    cp, ps = poly.ComplexPolynomial, series.PowerSeries
    functions = {
        "faber.recurrence": [faber.faber_system_from_recurrence],
        "faber.oracle": [faber.faber_values_from_log_series, faber.faber_values_from_ratio_series,
                         faber.faber_derivative_values_from_series],
        "maps.closed_form": [maps.gap_faber_closed_form, maps.two_gap_faber_system,
                             maps.hypocycloid_faber_closed_form, maps.chebyshev_scaled,
                             maps.exp_map_faber_closed_form],
        "maps.lambert": [maps.lambert_w0],
        "verify": [verify.leading_common_root_order, verify.check_gap_coefficient_recovery,
                   verify.exponential_map_characterization],
        "cli.main": [cli.main],
    }
    for fn_name, suite in SUITE_FUNCTIONS.items():
        functions[f"suites.{suite}"] = [getattr(suites, fn_name)]
    by_identity = {id(fn): metric for metric, fns in functions.items() for fn in fns}
    targets = []
    modules = [m for name, m in sys.modules.items()
               if name == "faberpoly" or name.startswith("faberpoly.")]
    for module in modules:
        for attr, value in vars(module).items():
            metric = by_identity.get(id(value))
            if metric is not None:
                targets.append((module, attr, metric))
    methods = {
        "poly.new": (cp, ["__init__"]),
        "poly.arith": (cp, ["__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                            "compose_affine", "derivative"]),
        "poly.eval": (cp, ["evaluate", "__call__", "evaluation_magnitude"]),
        "poly.roots": (cp, ["roots"]),
        "series.reciprocal": (ps, ["reciprocal"]),
        "series.mul": (ps, ["__mul__", "__rmul__"]),
        "series.log1": (ps, ["log1"]),
    }
    for metric, (cls, attrs) in methods.items():
        targets += [(cls, attr, metric) for attr in attrs]
    return targets


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.pass_index = -1
        self._t0 = perf_counter()

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        from faberpoly.poly import RootFindingError
        wrappers = {}
        for owner, attr, metric in _targets():
            original = vars(owner)[attr]
            key = (id(original), metric)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, metric, RootFindingError)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, metric: str, root_error):
        stack, totals, spans = self._stack, self.totals, self.spans
        if metric in COUNTED_ONLY:
            calls = metric + ".calls"

            def counter(*args, **kwargs):
                totals[calls] += 1
                return fn(*args, **kwargs)

            counter.__wrapped__ = fn
            return counter

        keep = metric.startswith(KEPT_SPANS)
        failure = root_error if metric == "poly.roots" else ()
        t_zero = self._t0

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            # metric, time covered by child spans, span id, parent span id
            span = [metric, 0.0, None, None]
            if keep:
                span[2] = len(spans)
                span[3] = next((s[2] for s in reversed(stack) if s[2] is not None), None)
                spans.append(None)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except failure:
                totals["poly.roots.failed"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                totals[metric + ".calls"] += 1
                totals[metric + ".s"] += elapsed
                totals[metric + ".self_s"] += elapsed - span[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep:
                    spans[span[2]] = (self.pass_index, span[2], span[3], metric,
                                      start - t_zero, end - t_zero)
            self._observe(metric, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, metric: str, args, result) -> None:
        if metric == "series.reciprocal":
            self.totals["series.order_sum"] += args[0].order
        elif metric == "maps.lambert":
            self.totals["maps.lambert.iterations"] += result.iterations
            self.totals["maps.lambert.unconverged"] += not result.converged

    # -- per-pass figures ------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.totals.clear()

    def add(self, key: str, value: float) -> None:
        self.totals[key] += value

    def pass_metrics(self) -> dict[str, float]:
        """This pass's figure for every per-layer metric."""
        return {name: self.totals[SOURCES.get(name, name)] for name, _ in METRICS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is None:
                    continue
                fh.write(json.dumps({"pass": s[0], "id": s[1], "parent": s[2], "name": s[3],
                                     "start_s": s[4], "end_s": s[5]}) + "\n")
