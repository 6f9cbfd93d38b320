"""Outside-in layer trace of the ``pseudoreal`` package.

While installed, the trace replaces the public functions listed in
``SPANS`` by timing wrappers, in every namespace of the package that binds
them (``poly_gcd``, for instance, is bound separately in ``polyring``,
``ratmap``, ``classify``, ``moduli`` and the package itself), and wraps
the arithmetic operators of ``CycloNum``.  Each wrapped call is a span; a
span's self time is its duration minus the time of the spans it caused.
``CycloNum`` operations are too many to keep as spans: they are counted,
and only the outermost operation of a nested chain is timed, as one
``cyclotomic`` layer.

Two checks keep the trace honest:

* ``install`` scans every module and class of the package, and fails if
  any name still binds an unwrapped original, so a missed binding cannot
  silently shift its time into the caller's self time;
* ``check_map`` verifies after each traced call that the self times of all
  spans add up to the ``cli.main`` span within ``SUM_TOLERANCE_S``, so a
  span that did not close, or ran outside the root, fails loudly.

``families`` only builds inputs and ``moduli`` is never on the ``analyze``
path, so neither has a span.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "pseudoreal"

# (layer, module, attribute); an attribute "Class.method" is a method.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.parse_map_expr", "cli", "parse_map_expr"),
    ("classify.classify_map", "classify", "classify_map"),
    ("classify.antipodal_witness", "classify", "antipodal_witness"),
    ("classify.rotation_form_check", "classify", "rotation_form_check"),
    ("autgrp.aut_group_report", "autgrp", "aut_group_report"),
    ("autgrp.search", "autgrp", "holomorphic_automorphisms"),
    ("autgrp.search", "autgrp", "antiholomorphic_automorphisms"),
    ("autgrp.closure_defect", "autgrp", "closure_defect"),
    ("autgrp.classify_group_type", "autgrp", "classify_group_type"),
    ("autgrp.certify_element", "autgrp", "certify_element"),
    ("autgrp.verify_automorphism_exact", "autgrp", "verify_automorphism_exact"),
    ("autgrp.canonicalize_cyclic", "autgrp", "canonicalize_cyclic"),
    ("ratmap.reduce", "ratmap", "RationalMap.reduce"),
    ("ratmap.conjugate_by", "ratmap", "RationalMap.conjugate_by"),
    ("ratmap.distinguished_points", "ratmap", "RationalMap.distinguished_points"),
    ("ratmap.is_polynomial_like", "ratmap", "RationalMap.is_polynomial_like"),
    ("polyring.roots_numeric", "polyring", "roots_numeric"),
    ("polyring.squarefree_decomposition", "polyring", "squarefree_decomposition"),
    ("polyring.poly_gcd", "polyring", "poly_gcd"),
    ("moebius.order", "moebius", "ExtendedMoebius.order"),
)

# CycloNum operators and the counter each one feeds
CYCLO_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "inv": "inv", "conj": "conj", "rebase": "rebase",
}

# per-layer extra counts taken from a call's arguments or result
EXTRAS = {
    "polyring.roots_numeric": lambda args, result: args[0].degree,
    "ratmap.distinguished_points": lambda args, result: len(result),
    "autgrp.search": lambda args, result: len(result),
    "autgrp.verify_automorphism_exact": lambda args, result: int(result is True),
}

SUM_TOLERANCE_S = 1e-6


class TraceError(RuntimeError):
    """The trace missed a binding or lost a span."""


class LayerStats:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class LayerTrace:
    """Timing wrappers around the package's layers, installed on demand."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer, _, _ in SPANS}
        self.cyclo_calls = {op: 0 for op in CYCLO_OPS.values()}
        self.cyclo_self_s = 0.0
        # span stack of [start, time of child spans]; the bottom frame
        # collects the durations of root spans
        self._stack = [[0.0, 0.0]]
        self._in_cyclo = False
        self._codes = set()
        self._patches = []  # (holder, name, original value)
        self._originals = {}  # id(original function) -> layer
        self._wrappers = self._build_wrappers()

    # -- wrappers ---------------------------------------------------------

    def _original(self, module: str, attr: str):
        holder = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            return getattr(holder, cls_name).__dict__[attr]
        return getattr(holder, attr)

    def _span_wrapper(self, layer: str, fn):
        stack = self._stack
        stats = self.stats[layer]
        extra = EXTRAS.get(layer)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
            if extra is not None:
                stats.extra += extra(args, result)
            return result

        self._codes.add(span.__code__)
        return span

    def _cyclo_wrapper(self, op: str, fn):
        stack = self._stack
        counts = self.cyclo_calls
        clock = time.perf_counter
        trace = self

        def cyclo(*args):
            counts[op] += 1
            if trace._in_cyclo:
                return fn(*args)
            trace._in_cyclo = True
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                trace._in_cyclo = False
                trace.cyclo_self_s += duration
                stack[-1][1] += duration

        self._codes.add(cyclo.__code__)
        return cyclo

    def _build_wrappers(self):
        """(layer, original value, wrapped value) for every traced callable."""
        out = []
        for layer, module, attr in SPANS:
            value = self._original(module, attr)
            if isinstance(value, classmethod):
                wrapped = classmethod(self._span_wrapper(layer, value.__func__))
                self._originals[id(value.__func__)] = layer
            else:
                wrapped = self._span_wrapper(layer, value)
                self._originals[id(value)] = layer
            out.append((layer, value, wrapped))
        cyclo_cls = sys.modules[f"{PACKAGE}.cyclotomic"].CycloNum
        by_function = {}
        for name, op in CYCLO_OPS.items():
            fn = cyclo_cls.__dict__[name]
            if id(fn) not in by_function:  # __rmul__ = __mul__ shares one wrapper
                by_function[id(fn)] = (f"cyclotomic.{op}", fn, self._cyclo_wrapper(op, fn))
                self._originals[id(fn)] = f"cyclotomic.{op}"
        return out + list(by_function.values())

    # -- install / uninstall -----------------------------------------------

    def _holders(self):
        """Every namespace of the package, once: module globals and the
        dicts of the classes defined in it."""
        seen = set()
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            classes = [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
            for holder in [mod] + classes:
                if id(holder) not in seen:
                    seen.add(id(holder))
                    yield holder, vars(holder)

    def install(self) -> None:
        replacement = {id(original): wrapped for _, original, wrapped in self._wrappers}
        for holder, namespace in self._holders():
            for name, value in list(namespace.items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._patches.append((holder, name, value))
                    setattr(holder, name, wrapped)
        self._check_bindings()

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    def _check_bindings(self) -> None:
        """Fail if any namespace of the package still reaches an original,
        directly, through a class- or staticmethod, or inside a container."""
        for holder, namespace in self._holders():
            for name, value in namespace.items():
                items = [value]
                if isinstance(value, (classmethod, staticmethod)):
                    items.append(value.__func__)
                elif isinstance(value, dict):
                    items += value.values()
                elif isinstance(value, (list, tuple)):
                    items += value
                for item in items:
                    layer = self._originals.get(id(item))
                    if layer is not None:
                        raise TraceError(
                            f"{getattr(holder, '__name__', holder)}.{name} still binds "
                            f"the unwrapped {layer}"
                        )

    # -- per-map bookkeeping ------------------------------------------------

    def in_bookkeeping(self, frame) -> bool:
        """True while ``frame`` is a wrapper's own code, where an interrupt
        would leave the span stack half updated."""
        return frame is not None and frame.f_code in self._codes

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values()) + self.cyclo_self_s

    def root_s(self) -> float:
        return self._stack[0][1]

    def check_map(self, self_before: float, root_before: float, label: str) -> None:
        """Self times of the map's spans must add up to its cli.main span."""
        if len(self._stack) != 1:
            raise TraceError(f"{label}: {len(self._stack) - 1} span(s) left open")
        self_sum = self.total_self_s() - self_before
        root = self.root_s() - root_before
        if abs(self_sum - root) > SUM_TOLERANCE_S * (1.0 + root):
            raise TraceError(
                f"{label}: span self times add up to {self_sum:.9f} s, "
                f"the cli.main span took {root:.9f} s"
            )
