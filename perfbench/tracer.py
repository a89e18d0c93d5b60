"""Per-layer attribution for the charpforms benchmark, from outside the package.

`Tracer.install()` wraps the public entry points of each charpforms module
(module-level functions and the public methods of classes the module
defines) and rebinds every name that refers to a wrapped function in every
charpforms namespace, so `from .gfp import rref` bindings are traced too.
Nothing inside the package is edited.

A span opens whenever a call crosses from one layer into another (or from
the benchmark into a layer); calls that stay inside one layer only count.
A layer's self time is the duration of its spans minus the part covered by
nested spans of other layers.  Recording happens only while `active` is
true, so set-up, warm-up and answer checks are never attributed.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("gfp", "algebra", "forms", "groups", "flagbilinear", "grind",
          "classify", "jsonio", "cli")

# Scalar and array-constructor helpers: called millions of times per run and
# not layer boundaries, so wrapping them would only measure the wrapper.
NOT_WRAPPED = {
    "gfp": {"inv_scalar", "check_prime", "modp", "zeros", "eye",
            "empty_space", "full_space"},
    "algebra": {"binom_lucas", "mono_dp_coeff", "in_C_k_mono",
                "constant_term", "is_unit"},
}

# Dunder methods that are real work (products and sums of algebra elements
# and forms); every other dunder is bookkeeping and stays unwrapped.
WRAPPED_DUNDERS = {"__mul__", "__add__", "__sub__"}

SMALL_RREF = 256          # gfp.rref takes its pure-Python path at m*n <= 256
GRIND_STAGES = {"grind_A_to_B": "a_to_b", "grind_B_to_A": "b_to_a",
                "extract_quiver_rep": "extract", "decompose_rep": "decompose"}
ALGEBRA_MULS = {"AlgebraElement.__mul__", "AlgebraElement.mul_free"}
ALGEBRA_DPS = {"AlgebraElement.dp_free", "AlgebraElement.divided_power",
               "AlgebraElement.exp_interior", "AlgebraElement.invert_unit"}
FORMS_COUNTED = {"DiffForm.d", "DiffForm.wedge", "DiffForm.contract",
                 "DiffForm.mul_function", "h_class"}


def _matrix_shape(A):
    shape = getattr(A, "shape", None)
    if shape is None:
        rows = list(A)
        return len(rows), (len(rows[0]) if rows else 0)
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


def _form_terms(omega) -> int:
    return sum(len(f.terms) for f in omega.terms.values())


class Tracer:
    """Span stack, per-layer self time and the layer counters."""

    def __init__(self):
        self.active = False
        self.stack: list = []            # frames [layer, start, child_time]
        self.self_s = defaultdict(float)
        self.stage_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0                 # duration of outermost spans
        self.n_wrapped = 0

    # -- recording -----------------------------------------------------------

    def span(self, layer: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, layer)

    def _enter(self, layer):
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_s += dur

    def _make_wrapper(self, layer: str, qualname: str, fn):
        hook = _COUNTER_HOOKS.get((layer, qualname))
        call_counter = _CALL_COUNTERS.get((layer, qualname))
        stage = GRIND_STAGES.get(qualname) if layer == "grind" else None
        counts = self.counts
        stack = self.stack
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock() if stage else 0.0
            if stack and stack[-1][0] == layer:
                out = fn(*args, **kwargs)
            else:
                counts[layer + ".entries"] += 1
                frame = tracer._enter(layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            if stage:
                tracer.stage_s[stage] += clock() - t0
            if call_counter is not None:
                counts[call_counter] += 1
            if hook is not None:
                hook(counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> int:
        """Wrap every entry point; returns the number of functions wrapped."""
        if self.n_wrapped:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"charpforms.{name}"] for name in LAYERS}
        replaced: dict = {}
        for layer, mod in modules.items():
            skip = NOT_WRAPPED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._make_wrapper(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj, skip)
        namespaces = list(modules.values()) + [sys.modules["charpforms"]]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                new = replaced.get(id(obj))
                if new is not None and new.__wrapped__ is obj:
                    setattr(ns, name, new)
        self.n_wrapped += len(replaced)
        return self.n_wrapped

    def _wrap_methods(self, layer: str, cls, skip) -> None:
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or name in skip:
                continue
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            setattr(cls, name, self._make_wrapper(layer, qualname, obj))
            self.n_wrapped += 1

    # -- results -------------------------------------------------------------

    def check_accounting(self) -> tuple[float, float]:
        """(sum of layer self times, total of outermost spans)."""
        if self.stack:
            raise RuntimeError(f"unclosed spans: {self.stack}")
        return sum(self.self_s.values()), self.top_s


class _Span:
    __slots__ = ("tracer", "layer", "frame")

    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        if self.tracer.active:
            self.tracer.counts[self.layer + ".entries"] += 1
            self.frame = self.tracer._enter(self.layer)
        else:
            self.frame = None
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer._exit(self.frame)
        return False


# -- counters computed from arguments and results ----------------------------

def _count_rref(counts, args, out):
    m, n = _matrix_shape(args[0])
    size = "small" if m * n <= SMALL_RREF else "large"
    counts["gfp." + size + "_calls"] += 1
    counts["gfp.elim_ops"] += m * n * len(out[1])


def _count_det(counts, args, out):
    m, n = _matrix_shape(args[0])
    size = "small" if m * n <= SMALL_RREF else "large"
    counts["gfp." + size + "_calls"] += 1


def _count_mul(counts, args, out):
    a, b = args[0], args[1]
    counts["algebra.mul_calls"] += 1
    counts["algebra.mul_pairs"] += len(a.terms) * len(b.terms)
    counts["algebra.mul_out_terms"] += len(out.terms)


def _count_apply_form(counts, args, out):
    counts["groups.apply_calls"] += 1
    counts["groups.form_terms_in"] += _form_terms(args[1])


# (layer, qualname) -> counter that needs the call's arguments or result
_COUNTER_HOOKS = {
    ("gfp", "rref"): _count_rref,
    ("gfp", "det"): _count_det,
    ("groups", "Automorphism.apply_to_form"): _count_apply_form,
}
_COUNTER_HOOKS.update({("algebra", q): _count_mul for q in ALGEBRA_MULS})

# (layer, qualname) -> counter that only counts calls
_CALL_COUNTERS = {
    ("classify", "invariants"): "classify.invariants_calls",
    ("grind", "grind_round"): "grind.rounds",
}
_CALL_COUNTERS.update({("algebra", q): "algebra.dp_calls" for q in ALGEBRA_DPS})
_CALL_COUNTERS.update({("forms", q): "forms.calls" for q in FORMS_COUNTED})
