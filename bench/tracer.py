"""Per-layer tracing for the benchmark, loaded only by a traced run.

The tracer replaces module attributes of tsvar with wrappers that record a
span per call.  It patches the binding each consumer module looks up, not
only the defining one: ``from .dsl import eval_grad`` in fracvar made a
separate name, so wrapping ``tsvar.dsl.eval_grad`` alone would count nothing.
Spans nest on a stack; a span's self time is its duration minus the time of
the spans it caused.  Spans are aggregated by name in memory (calls,
inclusive seconds, self seconds).  A target that no longer exists is listed
as absent and skipped.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

from tsvar import errors

# module -> attributes to wrap.  The span is named after the module that
# defines the function, so every binding of one function shares one span.
TARGETS = {
    "tsvar.dsl": ("parse", "eval_grad", "eval_jet2", "eval_value"),
    "tsvar.timescale": ("uniform", "explicit"),
    "tsvar.fracvar": ("eval_grad", "eval_jet2", "h_factorial", "gamma_fn", "multi_start",
                      "natural_bc_residuals", "legendre_frac_check", "functional_value"),
    "tsvar.varcalc": ("eval_jet2", "multi_start", "jacobi_eigh", "adaptive_simpson",
                      "el_residual", "legendre_check", "functional_value",
                      "sturm_liouville_first"),
    "tsvar.inequalities": ("adaptive_simpson", "gronwall_bound", "comparison_bound",
                           "nonlinear_gronwall_bound", "gronwall_2d_bound",
                           "jensen_certify", "holder_certify", "cauchy_schwarz_certify",
                           "minkowski_certify"),
    "tsvar.cli": ("main",),
    # multi_start looks newton_solve up as a module global
    "tsvar.solvers": ("newton_solve",),
}

NEWTON = "solvers.newton_solve"
RESIDUAL = "solvers.newton.residual"
MULTI_START = "solvers.multi_start"

# Newton failures by cause, in the order multi_start tells them apart.
FAILURES = (
    (errors.SingularJacobian, "singular"),
    (errors.NoConvergence, "noconv"),
    (errors.NonFinite, "nonfinite"),
)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.absent = []
        self._patched = []
        self._child_s = [0.0]  # child time of each open span; [0] is the root

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = self._child_s.pop()
            self._child_s[-1] += duration
            span = self.spans[name]
            span[0] += 1
            span[1] += duration
            span[2] += duration - child

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('tsvar.')}.{fn.__name__}"
        if name == NEWTON:
            return self._wrap_newton(fn)
        if name == MULTI_START:
            return self._wrap_multi_start(fn)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_newton(self, newton_solve):
        def traced(fn, *args, **kwargs):
            def residual(x):
                return self.call(RESIDUAL, fn, (x,), {})

            try:
                x = self.call(NEWTON, newton_solve, (residual,) + args, kwargs)
            except Exception as exc:
                cause = next((c for t, c in FAILURES if isinstance(exc, t)), "other")
                self.counts[f"solvers.newton.fail.{cause}"] += 1
                raise
            self.counts["solvers.newton.ok"] += 1
            return x

        return traced

    def _wrap_multi_start(self, multi_start):
        def traced(*args, **kwargs):
            converged_before = self.counts["solvers.newton.ok"]
            try:
                solutions = self.call(MULTI_START, multi_start, args, kwargs)
            finally:
                self.counts["solvers.multi_start.converged"] += (
                    self.counts["solvers.newton.ok"] - converged_before)
            self.counts["solvers.multi_start.distinct"] += len(solutions)
            return solutions

        return traced

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, as (value, unit) pairs."""
        spans, counts = self.spans, self.counts

        def calls(*names):
            return (sum(spans[n][0] for n in names if n in spans), "count")

        def seconds(*names):
            return (sum(spans[n][1] for n in names if n in spans), "s")

        def self_s(*names):
            return (sum(spans[n][2] for n in names if n in spans), "s")

        def count(name):
            return (counts.get(name, 0), "count")

        evals = ("dsl.eval_grad", "dsl.eval_jet2", "dsl.eval_value")
        certify = tuple(f"inequalities.{k}_certify"
                        for k in ("jensen", "holder", "cauchy_schwarz", "minkowski"))
        converged = counts.get("solvers.multi_start.converged", 0)
        distinct = counts.get("solvers.multi_start.distinct", 0)
        return {
            "dsl.eval.calls": calls(*evals),
            "dsl.eval.s": seconds(*evals),
            "dsl.parse.s": seconds("dsl.parse"),
            "solvers.newton.calls": calls(NEWTON),
            "solvers.newton.ok": count("solvers.newton.ok"),
            "solvers.newton.fail.singular": count("solvers.newton.fail.singular"),
            "solvers.newton.fail.noconv": count("solvers.newton.fail.noconv"),
            "solvers.newton.fail.nonfinite": count("solvers.newton.fail.nonfinite"),
            "solvers.newton.fail.other": count("solvers.newton.fail.other"),
            "solvers.newton.residual_calls": calls(RESIDUAL),
            "solvers.newton.residual_s": seconds(RESIDUAL),
            "solvers.newton.self_s": self_s(NEWTON),
            "solvers.multi_start.self_s": self_s(MULTI_START),
            "solvers.dedup_yield": (distinct / converged if converged else 0.0, "1"),
            "solvers.jacobi_eigh.s": seconds("solvers.jacobi_eigh"),
            "solvers.adaptive_simpson.calls": calls("solvers.adaptive_simpson"),
            "solvers.adaptive_simpson.s": seconds("solvers.adaptive_simpson"),
            "fracvar.natural_bc_residuals.calls": calls("fracvar.natural_bc_residuals"),
            "fracvar.natural_bc_residuals.s": seconds("fracvar.natural_bc_residuals"),
            "fracvar.legendre_frac_check.s": seconds("fracvar.legendre_frac_check"),
            "fracvar.functional_value.s": seconds("fracvar.functional_value"),
            "special.h_factorial.calls": calls("special.h_factorial"),
            "special.h_factorial.s": seconds("special.h_factorial"),
            "special.gamma_fn.calls": calls("special.gamma_fn"),
            "varcalc.el_residual.calls": calls("varcalc.el_residual"),
            "varcalc.el_residual.s": seconds("varcalc.el_residual"),
            "varcalc.legendre_check.s": seconds("varcalc.legendre_check"),
            "varcalc.functional_value.calls": calls("varcalc.functional_value"),
            "varcalc.sturm_liouville_first.self_s": self_s("varcalc.sturm_liouville_first"),
            "inequalities.gronwall_bound.s": seconds("inequalities.gronwall_bound"),
            "inequalities.comparison_bound.s": seconds("inequalities.comparison_bound"),
            "inequalities.nonlinear_gronwall_bound.self_s":
                self_s("inequalities.nonlinear_gronwall_bound"),
            "inequalities.certify.calls": calls(*certify),
            # cauchy_schwarz_certify calls holder_certify: add self times, not totals
            "inequalities.certify.s": self_s(*certify),
            "timescale.build.s": seconds("timescale.uniform", "timescale.explicit"),
            "cli.main.self_s": self_s("cli.main"),
        }
