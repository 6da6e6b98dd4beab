"""Spans and counts around zetatrap's public functions, taken from outside.

A function is replaced in every zetatrap module that binds it: names
imported with ``from .specfun import hankel1_array`` are patched in the
importing module as well as in ``specfun`` itself, so each call is seen
once whichever way it is reached. Spans nest on a stack, which gives
each span its self time (its duration minus that of its child spans).
Times are process CPU seconds, like the benchmark's ``cpu_s``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np


def _zetatrap_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "zetatrap" or name.startswith("zetatrap.")
    ]


class Patches:
    """Replacements of module attributes that can be undone."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr: str, make_wrapper):
        """Replace ``module.attr`` wherever a zetatrap module binds it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _zetatrap_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def restore(self):
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()


class SolveLog:
    """Keeps every report returned by ``nystrom.solve_gmres``.

    This is one Python call per solve, so the untraced runs use it too:
    it is how a sweep's GMRES convergence is checked.
    """

    def __init__(self, nystrom):
        self.reports = []
        Patches().wrap(nystrom, "solve_gmres", self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def solve_gmres(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.reports.append(report)
            return report

        return solve_gmres


def _eval_pairs(args, result) -> int:
    bie, _, targets = args[:3]
    return len(np.atleast_2d(targets)) * bie.grid.N


# (module, function, span name, counter). A counter turns the call's
# arguments and result into the units of work the span counts.
TRACED = (
    ("specfun", "hankel1_array", "specfun.hankel1", lambda a, r: int(np.size(a[1]))),
    ("specfun", "bessel_j_array", "specfun.bessel_j", None),
    ("geometry", "sample", "geometry.sample", None),
    ("zetaweights", "build_log_stencil", "zetaweights.build", None),
    ("hiprec", "solve_dual_vandermonde", "hiprec.solve", None),
    ("quadrature", "helmholtz_matrix", "quadrature.helmholtz_matrix", None),
    ("quadrature", "kress_helmholtz_operator", "quadrature.kress_operator", None),
    ("quadrature", "stokes_matrices", "quadrature.stokes_matrices", None),
    ("nystrom", "assemble_helmholtz", "nystrom.assemble", None),
    ("nystrom", "assemble_stokes", "nystrom.assemble", None),
    ("nystrom", "solve_gmres", "nystrom.gmres", lambda a, r: r.iterations),
    ("nystrom", "eval_helmholtz_potential", "nystrom.eval", _eval_pairs),
    ("nystrom", "eval_stokes_velocity", "nystrom.eval", _eval_pairs),
    ("harness", "run_convergence", "harness.driver", None),
    ("harness", "run_field", "harness.driver", None),
)

QUADRATURE_SPANS = (
    "quadrature.helmholtz_matrix",
    "quadrature.kress_operator",
    "quadrature.stokes_matrices",
)


@dataclass
class SpanStats:
    """Totals over the spans of one name within one phase."""

    calls: int = 0
    calls_with_children: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


class Tracer:
    """Spans of the functions in ``TRACED``, kept in memory per phase."""

    def __init__(self):
        self.phases: dict[str, dict[str, SpanStats]] = {}
        self._phase = None
        self._stack = []
        self._patches = Patches()

    def begin(self, phase: str):
        self._phase = self.phases.setdefault(phase, {})

    def install(self):
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _zetatrap_modules()}
        for module, attr, span, counter in TRACED:
            self._patches.wrap(
                modules[module],
                attr,
                lambda fn, span=span, counter=counter: self._wrap(fn, span, counter),
            )

    def restore(self):
        self._patches.restore()

    def _wrap(self, fn, span: str, counter):
        clock = time.process_time
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]  # child seconds, child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                stats = self._phase.get(span)
                if stats is None:
                    stats = self._phase[span] = SpanStats()
                stats.calls += 1
                stats.calls_with_children += frame[1] > 0
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
            if counter is not None:
                stats.count += counter(args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            phase: {name: vars(stats) for name, stats in spans.items()}
            for phase, spans in self.phases.items()
        }


def _cold_figures(spans: dict) -> dict:
    """Stencil figures of the phase before timing: set-up and warm-up.

    A build that solved nothing was a cache hit; more solves than builds
    means a build retried at higher precision.
    """
    build = spans.get("zetaweights.build", SpanStats())
    return {
        "zetaweights.stencils_built": build.calls_with_children,
        "zetaweights.build_s": build.total_s,
        "hiprec.solves": spans.get("hiprec.solve", SpanStats()).calls,
    }


def _round_figures(spans: dict) -> dict:
    def get(name):
        return spans.get(name, SpanStats())

    return {
        "specfun.hankel1_evals": get("specfun.hankel1").count,
        "specfun.hankel1_s": get("specfun.hankel1").total_s,
        "specfun.bessel_j_calls": get("specfun.bessel_j").calls,
        "specfun.bessel_j_s": get("specfun.bessel_j").total_s,
        "geometry.sample_calls": get("geometry.sample").calls,
        "quadrature.helmholtz_matrix_s": get("quadrature.helmholtz_matrix").total_s,
        "quadrature.kress_operator_s": get("quadrature.kress_operator").total_s,
        "quadrature.stokes_matrices_s": get("quadrature.stokes_matrices").total_s,
        "quadrature.self_s": sum(get(n).self_s for n in QUADRATURE_SPANS),
        "nystrom.assemble_self_s": get("nystrom.assemble").self_s,
        "nystrom.gmres_s": get("nystrom.gmres").total_s,
        "nystrom.gmres_iterations": get("nystrom.gmres").count,
        "nystrom.eval_s": get("nystrom.eval").total_s,
        "nystrom.eval_pairs": get("nystrom.eval").count,
        "harness.self_s": get("harness.driver").self_s,
    }


class CountMismatchError(RuntimeError):
    """A count differed between two traced rounds of the same inputs."""


def layer_metrics(tracer: Tracer, cold: str, rounds: list[str], overhead_s: float):
    """Per-layer metrics: the stencil figures of the cold phase, then per
    round a count, which must repeat exactly, or the median CPU seconds
    over the traced rounds. Names of times end in ``_s``."""
    values = dict(_cold_figures(tracer.phases[cold]))
    figures = [_round_figures(tracer.phases[r]) for r in rounds]
    for name in figures[0]:
        per_round = [f[name] for f in figures]
        if name.endswith("_s"):
            values[name] = statistics.median(per_round)
        elif len(set(per_round)) == 1:
            values[name] = per_round[0]
        else:
            raise CountMismatchError(f"{name} differs between rounds: {per_round}")
    values["trace.overhead_s"] = overhead_s
    return {
        name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        for name, value in values.items()
    }
