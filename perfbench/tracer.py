"""Spans and counters around the calls into each korbits layer.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function (the names in a module's ``__all__``, plus ``cli.main``)
and every public method of a public class by a wrapper that opens a span
when the call crosses into the layer from another one; a call inside the
same layer runs straight through, since it cannot move time between
layers.  Functions bound elsewhere by ``from .weyl import ...`` are
replaced in every module that holds them, or calls would bypass the
tracer.  Value types (``SignedPerm``, ``Dyadic``, ``DyadicGauss``) get
counters, not spans: their operations run millions of times and their time
stays in the caller's self time.

A layer's self time is its span time minus the time its child spans
cover.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

LAYERS = ("weyl", "twisted", "tori", "catalog", "descent", "dyadic", "cli")

#: Every per-layer metric a traced run reports, in output order.
PER_LAYER_METRICS = (
    ("weyl.self_s", "s"),
    ("weyl.calls", "count"),
    ("weyl.elements_enumerated", "count"),
    ("weyl.products", "count"),
    ("weyl.perm_validations", "count"),
    ("weyl.length_calls", "count"),
    ("weyl.closure_elements", "count"),
    ("twisted.self_s", "s"),
    ("twisted.calls", "count"),
    ("twisted.theta_evals", "count"),
    ("twisted.monoid_moves", "count"),
    ("twisted.involutions", "count"),
    ("twisted.image", "count"),
    ("twisted.elements_tested", "count"),
    ("twisted.useful_ratio", "ratio"),
    ("tori.self_s", "s"),
    ("tori.calls", "count"),
    ("tori.classes", "count"),
    ("tori.involutions_classified", "count"),
    ("catalog.self_s", "s"),
    ("catalog.calls", "count"),
    ("catalog.cosets", "count"),
    ("catalog.coset_members", "count"),
    ("catalog.springer_values", "count"),
    ("catalog.claims", "count"),
    ("descent.self_s", "s"),
    ("descent.calls", "count"),
    ("descent.params", "count"),
    ("descent.pairs", "count"),
    ("dyadic.self_s", "s"),
    ("dyadic.calls", "count"),
    ("dyadic.matrix_products", "count"),
    ("dyadic.matrix_inverses", "count"),
    ("dyadic.dets", "count"),
    ("dyadic.scalar_mults", "count"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.output_bytes", "bytes"),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Value types get counters on these methods and no spans.
_VALUE_TYPES = {
    "SignedPerm": (("__mul__", "weyl.products"), ("__post_init__", "weyl.perm_validations")),
    "Dyadic": (),
    "DyadicGauss": (("__mul__", "dyadic.scalar_mults"),),
}
#: Operators of the other classes that count as public methods.
_OPERATORS = ("__mul__", "__add__", "__sub__", "__neg__", "__getitem__")

#: Counters bumped once per call, by (layer, qualified name).
_CALL_COUNTERS = {
    ("weyl", "WeylGroup.length"): "weyl.length_calls",
    ("twisted", "TwistContext.theta_raw"): "twisted.theta_evals",
    ("twisted", "monoid_star"): "twisted.monoid_moves",
    ("catalog", "springer"): "catalog.springer_values",
    ("dyadic", "ExactMatrix.__mul__"): "dyadic.matrix_products",
    ("dyadic", "ExactMatrix.inverse"): "dyadic.matrix_inverses",
    ("dyadic", "ExactMatrix.det"): "dyadic.dets",
}

#: Counters that add up measures of each call's result.
_RESULT_COUNTERS = {
    ("weyl", "enumerate_subgroup"): (("weyl.closure_elements", len),),
    ("weyl", "coset_space"): (
        ("catalog.cosets", len),
        ("catalog.coset_members", lambda table: sum(len(coset) for _, coset in table)),
    ),
    ("twisted", "image_set"): (("twisted.image", len),),
    ("tori", "torus_classification"): (
        ("tori.classes", len),
        ("tori.involutions_classified", lambda classes: sum(c.orbit_size for c in classes)),
    ),
    ("catalog", "verify_matrix_claims"): (("catalog.claims", len),),
    ("descent", "descent_report"): (
        ("descent.params", lambda report: len(report.rows)),
        ("descent.pairs", lambda report: report.pair_count),
    ),
}


class Tracer:
    """Installs wrappers into the korbits modules and records one round."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.root_time = 0.0
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def reset(self) -> None:
        self.counts.clear()
        self.calls.clear()
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.root_time = 0.0
        self.spans = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            spans = tracer.spans
            parent = stack[-1][3] if stack else -1
            frame = [layer, 0.0, 0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_time[layer] += duration - frame[2]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.root_time += duration
                spans[frame[3]] = (layer, name, frame[1], end, parent)

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_yields(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _twisted_involutions(self, fn):
        """|I| and the elements tested, on the calls that compute the set
        (each tested element costs one twist evaluation; cached calls make
        none)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["twisted.theta_evals"]
            result = fn(*args, **kwargs)
            tested = counts["twisted.theta_evals"] - before
            if tested:
                counts["twisted.involutions"] += len(result)
                counts["twisted.elements_tested"] += tested
            return result

        return wrapper

    def _sum_results(self, measures, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for key, measure in measures:
                counts[key] += measure(result)
            return result

        return wrapper

    def _counters(self, layer: str, name: str, fn):
        """Counter wrappers, applied inside the span wrapper."""
        key = (layer, name)
        if key in _CALL_COUNTERS:
            return self._count(_CALL_COUNTERS[key], fn)
        if key in _RESULT_COUNTERS:
            return self._sum_results(_RESULT_COUNTERS[key], fn)
        if key == ("weyl", "WeylGroup.elements"):
            return self._count_yields("weyl.elements_enumerated", fn)
        if key == ("twisted", "twisted_involutions"):
            return self._twisted_involutions(fn)
        return fn

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        """Set an attribute of a module or class, remembering the original
        (a class's own ``__dict__`` entry, so static methods come back)."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        inner = self._counters(layer, name, fn)
        if inspect.isgeneratorfunction(fn):
            return inner  # a span would close before the generator runs
        return self._span(layer, name, inner)

    def install(self) -> None:
        functions = []  # (original, wrapper) for module-level names
        for layer, module in self.modules.items():
            names = getattr(module, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    functions.append((obj, self._wrap(layer, name, obj)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                for original, wrapper in functions:
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _install_class(self, layer: str, cls) -> None:
        name = cls.__name__
        if name in _VALUE_TYPES:
            for attr, key in _VALUE_TYPES[name]:
                self._patch(cls, attr, self._count(key, cls.__dict__[attr]))
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            qualname = f"{name}.{attr}"
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(layer, qualname, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(layer, qualname, value))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time, span count and counters of the round just traced."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for key, unit in PER_LAYER_METRICS:
            if unit != "s" and key not in out:
                out[key] = self.counts[key]
        tested = self.counts["twisted.elements_tested"]
        out["twisted.useful_ratio"] = self.counts["twisted.involutions"] / tested if tested else 0.0
        return out
