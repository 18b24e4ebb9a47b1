"""Per-layer tracing from outside the library.

The tracer replaces the public entry points of each ``grassmann`` module with
wrappers while it is installed, and restores them when it is removed, so the
untraced runs execute the library untouched.  A function is replaced in every
``grassmann`` module that imported it by name, and a method on its class.

Each wrapped call is timed.  Its self time is its duration minus the time
spent in wrapped calls below it; its inclusive time is counted only for the
outermost call of a layer, so recursion is not counted twice.  Layers called
up to thousands of times per operation (``COUNTER_ONLY``) fold into
counters; every other call also keeps a span ``(id, name, start, end,
parent id)`` in memory, written out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer name -> (module, qualified attribute names)
LAYERS = {
    "rings.mat": ("grassmann.rings", ("mat_det", "mat_inv")),
    "algebra.mul": ("grassmann.algebra", ("GrassmannElement.__mul__",)),
    "algebra.add": ("grassmann.algebra", ("GrassmannElement.__add__",)),
    "algebra.invert_unit": ("grassmann.algebra", ("invert_unit",)),
    "algebra.parse": ("grassmann.algebra", ("parse_element",)),
    "algebra.format": ("grassmann.algebra", ("format_element",)),
    "skewcalc.partial": ("grassmann.skewcalc", ("skew_partial",)),
    "endo.parse": ("grassmann.endo", ("parse_endomorphism",)),
    "endo.apply": ("grassmann.endo", ("Endomorphism.apply",)),
    "endo.compose": ("grassmann.endo", ("Endomorphism.compose",)),
    "endo.jacobian": ("grassmann.endo", ("Endomorphism.jacobian",)),
    "endo.dual": ("grassmann.endo", ("Endomorphism.dual_skew_partial",)),
    "endo.inverse_formula": ("grassmann.endo", ("Endomorphism._inverse_formula",)),
    "endo.inverse_iteration": ("grassmann.endo", ("Endomorphism._inverse_iteration",)),
    "linsolve.solve": ("grassmann.linsolve", ("solve_xi_system", "solve_partial_system")),
    "linsolve.split": ("grassmann.linsolve", ("coordinate_split", "layer_split",
                                              "kernel_split")),
    "groups.member": ("grassmann.groups", ("member",)),
    "groups.decompose": ("grassmann.groups", (
        "decompose_omega_gamma_linear", "decompose_unipotent", "decompose_gamma",
        "decompose_sigma_prime", "decompose_layers")),
    "groups.preimage": ("grassmann.groups", ("jacobian_preimage",)),
    "verify.suite": ("grassmann.verify", ("run_suite",)),
    "cli.main": ("grassmann.cli", ("main",)),
}

COUNTER_ONLY = {"algebra.mul", "algebra.add", "skewcalc.partial",
                "algebra.invert_unit", "endo.apply", "endo.dual"}

# exceptions counted as refusals when they leave a layer of this module
REFUSALS = {
    "linsolve": ("grassmann.linsolve", ("SolvabilityError",)),
    "groups": ("grassmann.groups", ("DecompositionError", "NoPreimageError",
                                    "MembershipError")),
}


class LayerStats:
    __slots__ = ("calls", "incl", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Install with ``install()``, remove with ``remove()``; statistics and
    spans accumulate over every installed period."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.counters = {"algebra.mul.pairs": 0, "algebra.mul.terms_out": 0,
                         "algebra.parse.bytes": 0, "linsolve.refused": 0,
                         "groups.refused": 0}
        self.spans: list[tuple] = []
        # frames of the open wrapped calls: [child seconds, span id]
        self._stack = [[0.0, 0]]
        self._next_id = 1
        self._patches = None

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = LayerStats()
        return self.stats[name]

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self):
        for owner, key, original, _ in self._patches or ():
            setattr(owner, key, original)

    def _find_patches(self):
        """(owner, attribute, original, wrapper) for every place an entry
        point is reachable: each module that imported it by name, or its
        class, including aliases in the class body (``__call__ = apply``)."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "grassmann"
                                         or name.startswith("grassmann."))]
        refusals = {
            group: tuple(getattr(sys.modules[mod], cls) for cls in classes)
            for group, (mod, classes) in REFUSALS.items()}
        patches = []
        for layer, (mod_name, attrs) in LAYERS.items():
            mod = sys.modules[mod_name]
            refused = refusals.get(layer.split(".")[0], ())
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owners = [getattr(mod, cls_name)]
                    original = owners[0].__dict__[meth]
                else:
                    owners = modules
                    original = getattr(mod, attr)
                wrapper = self._wrap(layer, original, refused)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            patches.append((owner, key, original, wrapper))
        return patches

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, layer, fn, refused):
        if layer == "algebra.mul":
            return self._wrap_mul(fn)
        tracer = self
        stack = self._stack
        spans = self.spans
        counters = self.counters
        keep_span = layer not in COUNTER_ONLY
        refusal_key = layer.split(".")[0] + ".refused"
        fixed = None if layer == "verify.suite" else self.stat(layer)
        is_parse = layer == "algebra.parse"

        def wrapper(*args, **kwargs):
            st, name = fixed, layer
            if st is None:  # one layer per verification suite
                name = f"verify.suite.{args[0] if args else kwargs['suite']}"
                st = tracer.stat(name)
            if is_parse:
                text = args[2] if len(args) > 2 else kwargs["text"]
                counters["algebra.parse.bytes"] += len(text)
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except refused as err:
                if not getattr(err, "_perfbench_counted", False):
                    err._perfbench_counted = True
                    counters[refusal_key] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                st.calls += 1
                st.self_time += dur - frame[0]
                st.depth -= 1
                if st.depth == 0:
                    st.incl += dur
                if keep_span:
                    spans.append((sid, name, t0, t1, parent[1]))

        return wrapper

    def _wrap_mul(self, fn):
        # the product calls no wrapped layer, so it needs no frame of its own
        stack = self._stack
        st = self.stat("algebra.mul")
        counters = self.counters

        def wrapper(a, b):
            t0 = perf_counter()
            try:
                out = fn(a, b)
            finally:
                dur = perf_counter() - t0
                stack[-1][0] += dur
                st.calls += 1
                st.self_time += dur
                st.incl += dur
            terms = getattr(b, "terms", None)
            if terms is not None:
                counters["algebra.mul.pairs"] += len(a.terms) * len(terms)
                counters["algebra.mul.terms_out"] += len(out.terms)
            return out

        return wrapper
