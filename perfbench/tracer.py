"""Per-layer tracing of p3lenard from outside the package.

A :class:`Tracer` replaces the public functions of each module (and a few
``Poly``/``RatExpr`` methods) by wrappers that record one span per call:
layer name, an optional split tag, start, end and the index of the
enclosing span.  The spans stay in memory while the command runs and are
written out once it has returned; :func:`aggregate` turns the files of a
pass into per-layer call counts, self times and work counts.

Three things about the package decide how the wrapping is done:

* many callees are imported by name (``hierarchy`` and ``lenard`` both bind
  ``omega``, ``cli`` binds the residuals, ``odesolve`` binds
  ``build_p3_system``), so every module-level binding of a wrapped function
  is replaced, not only the one in its defining module;
* ``Poly`` and ``RatExpr`` methods are wrapped on the class, so operators
  dispatch to the wrappers too;
* ``CompiledSystem.rhs`` and the ``monitors`` entries are closures built by
  ``compile_k1``/``compile_k2``; they are wrapped on the returned object.
"""

from __future__ import annotations

import marshal
import os
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics as (name, unit).  ``trace_overhead_s`` is added by
# run.py: traced minus untraced wall time of one pass.
_CALLS_SELF = [
    "jetring.mul", "jetring.add", "jetring.total_derivative",
    "jetring.subs_param", "jetring.ratexpr", "jetring.subs_var",
    "lenard.omega", "lenard.master_residual", "lenard.shift_residual",
    "lenard.transport_residual", "lenard.symbolic", "lenard.generate",
    "diffpoly.formal_integral", "hierarchy.build_p3_system",
    "hierarchy.conservation_residual", "laxpair.build_b",
    "laxpair.derive_a_c", "laxpair.compatibility_residual",
    "laxpair.c_relation_residual", "odesolve.rhs", "odesolve.monitor",
    "render.poly_to_obj", "render.poly_latex", "render.ratexpr_to_obj",
    "render.ratexpr_latex", "cli.run",
]
_SELF_ONLY = [
    "lenard.closed_form_standard", "odesolve.integrate", "odesolve.write_csv",
    "odesolve.compile.k1", "odesolve.compile.k2",
] + [f"hierarchy.build_p3_system.k{k}" for k in (1, 2, 16, 24, 32)] \
  + [f"lenard.master_residual.idx{i}" for i in range(1, 6)] \
  + [f"lenard.shift_residual.idx{i}" for i in range(1, 6)] \
  + [f"lenard.transport_residual.idx{i}" for i in range(0, 7)]
_COUNTS = [
    "jetring.mul.term_pairs", "jetring.mul.terms_out", "jetring.add.terms_in",
    "jetring.total_derivative.terms_in", "jetring.total_derivative.terms_out",
    "lenard.omega.distinct", "odesolve.write_csv.bytes", "cli.stdout_bytes",
]

PER_LAYER = ([(f"{n}.calls", "count") for n in _CALLS_SELF]
             + [(f"{n}.self_s", "s") for n in _CALLS_SELF + _SELF_ONLY]
             + [(n, "B" if n.endswith("bytes") else "count") for n in _COUNTS]
             + [("jetring.mul.merge_ratio", "1"), ("trace_overhead_s", "s")])


class Tracer:
    """Span and counter store for one CLI command in this process."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self._omega_keys: set = set()
        self._omega_seqs: list = []   # keeps ids in _omega_keys from being reused

    def wrap(self, layer: str, fn, tag=None, count=None):
        """Wrapper of ``fn`` recording a span named ``layer``.

        ``tag(args, kwargs)`` gives an optional split suffix; ``count(args,
        result)`` adds work counts after the call returns."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, tag(args, kwargs) if tag else None,
                              t0, t1, parent)
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced function of the already imported package."""
        from p3lenard import (cli, diffpoly, hierarchy, jetring, laxpair,
                              lenard, odesolve, render)
        Poly, RatExpr = jetring.Poly, jetring.RatExpr
        counts = self.counts

        def mul_count(args, result):
            a, b = args
            counts["jetring.mul.term_pairs"] += len(a.terms) * (
                len(b.terms) if isinstance(b, Poly) else 1)
            counts["jetring.mul.terms_out"] += len(result.terms)

        def add_count(args, result):
            a, b = args
            counts["jetring.add.terms_in"] += len(a.terms) + (
                len(b.terms) if isinstance(b, Poly) else 1)

        def deriv_count(args, result):
            counts["jetring.total_derivative.terms_in"] += len(args[0].terms)
            counts["jetring.total_derivative.terms_out"] += len(result.terms)

        mul = self.wrap("jetring.mul", Poly.__mul__, count=mul_count)
        Poly.__mul__ = Poly.__rmul__ = mul
        add = self.wrap("jetring.add", Poly.__add__, count=add_count)
        Poly.__add__ = Poly.__radd__ = add
        Poly.total_derivative = self.wrap(
            "jetring.total_derivative", Poly.total_derivative, count=deriv_count)
        Poly.subs_param = self.wrap("jetring.subs_param", Poly.subs_param)
        RatExpr.__init__ = self.wrap("jetring.ratexpr", RatExpr.__init__)
        RatExpr.subs_var = self.wrap("jetring.subs_var", RatExpr.subs_var)

        def omega_count(args, result):
            seq, n, m = args
            key = (id(seq), n, m)
            if key not in self._omega_keys:
                self._omega_keys.add(key)
                self._omega_seqs.append(seq)
                counts["lenard.omega.distinct"] += 1

        def top_master(args, kwargs):
            _, n, m = args
            return f"idx{max(n, m) + 1}"

        def top_shift(args, kwargs):
            _, n, m = args
            return f"idx{max(n, m + 1)}"

        def top_transport(args, kwargs):
            _, m, n, r = args
            return f"idx{max(n, m + r)}"

        def system_k(args, kwargs):
            return f"k{args[0]}"

        def csv_bytes(args, result):
            counts["odesolve.write_csv.bytes"] += os.path.getsize(args[2])

        def traced_system(system):
            system.rhs = self.wrap("odesolve.rhs", system.rhs)
            system.monitors = {name: self.wrap("odesolve.monitor", fn)
                               for name, fn in system.monitors.items()}
            return system

        def compiled(tag_value, fn):
            wrapped = self.wrap("odesolve.compile", fn,
                                tag=lambda args, kwargs: tag_value)

            def compile_traced(*args, **kwargs):
                return traced_system(wrapped(*args, **kwargs))
            return compile_traced

        functions = [
            (lenard, "omega", "lenard.omega", None, omega_count),
            (lenard, "master_identity_residual", "lenard.master_residual",
             top_master, None),
            (lenard, "shift_identity_residual", "lenard.shift_residual",
             top_shift, None),
            (lenard, "transport_residual", "lenard.transport_residual",
             top_transport, None),
            (lenard, "symbolic", "lenard.symbolic", None, None),
            (lenard, "generate", "lenard.generate", None, None),
            (lenard, "closed_form_standard", "lenard.closed_form_standard",
             None, None),
            (diffpoly, "formal_integral", "diffpoly.formal_integral", None, None),
            (hierarchy, "build_p3_system", "hierarchy.build_p3_system",
             system_k, None),
            (hierarchy, "conservation_residual",
             "hierarchy.conservation_residual", None, None),
            (laxpair, "build_b", "laxpair.build_b", None, None),
            (laxpair, "derive_a_c", "laxpair.derive_a_c", None, None),
            (laxpair, "compatibility_residual", "laxpair.compatibility_residual",
             None, None),
            (laxpair, "c_relation_residual", "laxpair.c_relation_residual",
             None, None),
            (odesolve, "integrate", "odesolve.integrate", None, None),
            (odesolve, "write_csv", "odesolve.write_csv", None, csv_bytes),
            (render, "poly_to_obj", "render.poly_to_obj", None, None),
            (render, "poly_latex", "render.poly_latex", None, None),
            (render, "ratexpr_to_obj", "render.ratexpr_to_obj", None, None),
            (render, "ratexpr_latex", "render.ratexpr_latex", None, None),
        ]
        for module, attr, layer, tag, count in functions:
            original = getattr(module, attr)
            _rebind(original, self.wrap(layer, original, tag=tag, count=count))
        _rebind(odesolve.compile_k1, compiled("k1", odesolve.compile_k1))
        _rebind(odesolve.compile_k2, compiled("k2", odesolve.compile_k2))
        return self.wrap("cli.run", cli.run)

    def dump(self, path: str):
        """Write this command's spans and counts to ``path``."""
        with open(path, "wb") as fh:
            marshal.dump({"command": self.command_id, "spans": self.spans,
                          "counts": dict(self.counts)}, fh)


def _rebind(original, replacement):
    """Point every p3lenard module-level name bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "p3lenard" or name.startswith("p3lenard.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def aggregate(paths) -> dict:
    """Per-layer metrics of one pass from the span files of its commands.

    A span's self time is its duration minus the durations of its direct
    children; a tagged span also adds its self time to ``layer.tag``."""
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    counts: Counter = Counter()
    for path in paths:
        with open(path, "rb") as fh:
            data = marshal.load(fh)
        spans = data["spans"]
        child = [0.0] * len(spans)
        for layer, tag, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (layer, tag, t0, t1, parent) in enumerate(spans):
            own = t1 - t0 - child[i]
            calls[layer] += 1
            self_s[layer] += own
            if tag is not None:
                self_s[f"{layer}.{tag}"] += own
        counts.update(data["counts"])
    metrics = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s[name[:-len(".self_s")]]
        elif name in _COUNTS:
            metrics[name] = counts[name]
    pairs = counts["jetring.mul.term_pairs"]
    metrics["jetring.mul.merge_ratio"] = (
        counts["jetring.mul.terms_out"] / pairs if pairs else 0.0)
    return metrics
