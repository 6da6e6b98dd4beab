"""The benchmark's workloads: inputs made from a seed, one round of work
through zetatrap's public drivers, and the checks of its outputs.

A round is one batch job, run in one process, one call after another.
Every round of a run repeats the same inputs, so its outputs and counts
repeat too. Checks compare outputs with :mod:`reference`, which does not
use zetatrap, and require the sweeps to converge.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import reference
from zetatrap import harness, nystrom

# Below this relative error an error counts as on the double-precision
# floor, where it no longer has to fall as N grows.
ERROR_FLOOR = 1e-13
# known_solution against the scipy point-source sum.
KNOWN_SOLUTION_TOL = 1e-13
# Relative change of one correction weight in the self-test.
WEIGHT_PERTURBATION = 1e-6


@dataclasses.dataclass
class CheckResult:
    errors: dict  # output set -> largest relative error, for accuracy_digits
    failures: list  # what did not hold, in words

    @property
    def accuracy_digits(self) -> float:
        """-log10 of the largest error; 0 when an output was not finite."""
        worst = max(self.errors.values())
        if not worst < math.inf:
            return 0.0
        return -math.log10(max(worst, 1e-17))


def _interior_points(rng, count: int) -> np.ndarray:
    """Points well inside the star (its inscribed radius is 0.7)."""
    radius = rng.uniform(0.1, 0.4, count)
    angle = rng.uniform(0.0, 2 * math.pi, count)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def _far_points(rng, count: int) -> np.ndarray:
    """Check points well outside the star: at least 0.45 from it (its outer
    radius is 1.3), beyond the 5 node spacings within which the drivers
    refuse a target at N = 128 (up to 0.45 where the curve is fastest)."""
    radius = rng.uniform(1.75, 2.45, count)
    angle = rng.uniform(0.0, 2 * math.pi, count)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def _strengths(rng, count: int) -> np.ndarray:
    return rng.uniform(0.5, 1.5, count) * np.exp(2j * math.pi * rng.uniform(size=count))


def _perturb_first_weight(cfg: harness.ProblemConfig) -> harness.ProblemConfig:
    """Config whose highest-order stencil has w_0 changed by 1e-6 relative."""
    zeta = [m for m in cfg.methods if m.stencil is not None]
    target = max(zeta, key=lambda m: m.stencil.K)
    weights = list(target.stencil.weights)
    weights[0] *= 1 + WEIGHT_PERTURBATION
    stencil = dataclasses.replace(target.stencil, weights=tuple(weights))
    methods = tuple(
        dataclasses.replace(m, stencil=stencil) if m is target else m
        for m in cfg.methods
    )
    return dataclasses.replace(cfg, methods=methods)


class Workload:
    """One workload at one seed; ``small`` selects the self-test size."""

    name = ""
    faults = ("weight",)

    def __init__(self, seed: int, small: bool = False, fault: str | None = None):
        if fault is not None and fault not in self.faults:
            raise ValueError(f"{self.name} has no fault {fault!r}")
        self.seed = seed
        self.small = small
        self.fault = fault
        self.rng = np.random.default_rng(seed)
        self.cfg = None

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """What a user does before the work: read the config, which builds
        the correction stencils."""
        self.cfg = harness.load_config(self.config())
        if self.fault == "weight":
            self.cfg = _perturb_first_weight(self.cfg)

    def run_round(self):
        raise NotImplementedError

    def check(self, result) -> CheckResult:
        raise NotImplementedError


class _Sweep(Workload):
    """A ``run_convergence`` sweep over N for several methods."""

    # method label -> largest relative error allowed at the finest N, about
    # 10 times the largest error over seeds 1-10 (perfbench/README.md), so
    # that a method losing one digit fails
    finest_tol: dict = {}
    small_finest_tol: dict = {}

    def run_round(self):
        rows, _ = harness.run_convergence(self.cfg)
        return rows

    def _check_rows(self, rows, failures: list) -> dict:
        tols = self.small_finest_tol if self.small else self.finest_tol
        errors = {}
        for method in self.cfg.methods:
            errs = [r[3] for r in rows if r[1] == method.label]
            if len(errs) != len(self.cfg.n_list) or not np.all(np.isfinite(errs)):
                failures.append(f"{method.label}: missing or non-finite errors {errs}")
                errors[method.label] = math.inf
                continue
            for n, prev, cur in zip(self.cfg.n_list[1:], errs, errs[1:]):
                if not (cur < prev or cur <= ERROR_FLOOR):
                    failures.append(
                        f"{method.label}: error rose to {cur:.3g} at N={n} "
                        f"above the floor {ERROR_FLOOR:g}"
                    )
            errors[f"{method.label} at N={self.cfg.n_list[-1]}"] = errs[-1]
            if errs[-1] > tols[method.label]:
                failures.append(
                    f"{method.label}: error {errs[-1]:.3g} at N={self.cfg.n_list[-1]} "
                    f"above {tols[method.label]:g}"
                )
        return errors


class HelmRealSweep(_Sweep):
    """Exterior Helmholtz at real kappa = 12.5: zeta6, zeta16 and Kress."""

    name = "helm_real_sweep"
    kappa = 12.5
    finest_tol = {"zeta6": 2e-9, "zeta16": 1e-13, "kress": 1e-13}
    small_finest_tol = {"zeta6": 3e-7, "zeta16": 1e-12, "kress": 1e-12}

    def config(self):
        self.sources = _interior_points(self.rng, 3)
        self.strengths = _strengths(self.rng, 3)
        self.targets = _far_points(self.rng, 8)
        return {
            "problem": "helmholtz",
            "curve": reference.STAR_DESCRIPTOR,
            "kappa": [self.kappa, 0.0],
            "methods": [{"name": "zeta", "K": 2}, {"name": "zeta", "K": 7}, {"name": "kress"}],
            "N": [128, 256, 512] if self.small else [128, 256, 512, 1024],
            "sources": self.sources.tolist(),
            "strengths": self.strengths.tolist(),
            "targets": self.targets.tolist(),
        }

    def check(self, rows):
        failures = []
        # The sweep's errors are taken against known_solution; check that
        # against scipy at the check points and at every grid's nodes.
        for points in [self.targets] + [reference.star_nodes(n) for n in self.cfg.n_list]:
            err = reference.relative_error(
                harness.known_solution(self.cfg.kappa, self.sources, self.strengths, points),
                reference.point_source_field(
                    self.cfg.kappa, self.sources, self.strengths, points
                ),
            )
            if err > KNOWN_SOLUTION_TOL:
                failures.append(f"known_solution off the scipy sum by {err:.3g}")
        errors = self._check_rows(rows, failures)
        return CheckResult(errors, failures)


class StokesSweep(_Sweep):
    """Stokes shear flow past the star: zeta6, zeta10 and zeta16 against
    the harness's N=2000 reference, plus an exterior Stokeslet."""

    name = "stokes_sweep"
    faults = ("weight", "force")
    finest_tol = {"zeta6": 3e-14, "zeta10": 3e-14, "zeta16": 3e-14}
    small_finest_tol = {"zeta6": 1e-12, "zeta10": 1e-12, "zeta16": 1e-12}
    stokeslet_n = 256
    stokeslet_tol = 5e-14

    def config(self):
        self.targets = _far_points(self.rng, 8)
        shear = float(self.rng.uniform(2.0, 8.0))
        self.stokeslet_source = _interior_points(self.rng, 1)[0]
        angle = self.rng.uniform(0.0, 2 * math.pi)
        self.stokeslet_force = np.array([math.cos(angle), math.sin(angle)])
        return {
            "problem": "stokes",
            "curve": reference.STAR_DESCRIPTOR,
            "methods": [{"name": "zeta", "K": 2}, {"name": "zeta", "K": 4}, {"name": "zeta", "K": 7}],
            "N": [128, 256, 512] if self.small else [128, 256, 512, 1024],
            "targets": self.targets.tolist(),
            "shear_rate": shear,
        }

    def _stokeslet_error(self, failures: list) -> float:
        """Exterior Dirichlet problem whose solution is a Stokeslet from an
        interior point, solved with the sweep's highest-order stencil."""
        stencil = max((m.stencil for m in self.cfg.methods), key=lambda s: s.K)
        bie = nystrom.assemble_stokes(self.cfg.curve, self.stokeslet_n, stencil)
        force = self.stokeslet_force
        rhs = reference.stokeslet_velocity(
            self.stokeslet_source, force, reference.star_nodes(self.stokeslet_n)
        ).ravel()
        rep = nystrom.solve_gmres(bie.matrix, rhs)
        if not rep.converged:
            failures.append("Stokeslet: GMRES did not converge")
        vals = nystrom.eval_stokes_velocity(bie, rep.solution, self.targets)
        if self.fault == "force":
            force = -force
        err = reference.relative_error(
            vals, reference.stokeslet_velocity(self.stokeslet_source, force, self.targets)
        )
        if not err <= self.stokeslet_tol:
            failures.append(f"Stokeslet: error {err:.3g} above {self.stokeslet_tol:g}")
        return err

    def check(self, rows):
        failures = []
        errors = self._check_rows(rows, failures)
        errors[f"Stokeslet at N={self.stokeslet_n}"] = self._stokeslet_error(failures)
        return CheckResult(errors, failures)


class HelmDecayField(Workload):
    """Decaying wave kappa = 12.5+10i, order-42 rule, field on a grid."""

    name = "helm_decay_field"
    kappa = complex(12.5, 10.0)
    extent = 1.6
    tol = 3e-14
    small_tol = 1e-9

    def config(self):
        self.sources = _interior_points(self.rng, 3)
        self.strengths = _strengths(self.rng, 3)
        self.n_nodes = 256 if self.small else 1024
        size = 24 if self.small else 80
        self.grid = {
            "xmin": -self.extent, "xmax": self.extent, "nx": size,
            "ymin": -self.extent, "ymax": self.extent, "ny": size,
        }
        return {
            "problem": "helmholtz",
            "curve": reference.STAR_DESCRIPTOR,
            "kappa": [self.kappa.real, self.kappa.imag],
            "methods": [{"name": "zeta", "K": 20}],
            "N": [self.n_nodes],
            "sources": self.sources.tolist(),
            "strengths": self.strengths.tolist(),
        }

    def run_round(self):
        return harness.run_field(self.cfg, self.grid, N=self.n_nodes)

    def check(self, rows):
        failures = []
        table = np.array(rows)
        points, mask = table[:, :2], table[:, 4]
        values = table[:, 2] + 1j * table[:, 3]
        # Only points outside the curve carry the exterior solution.
        checked = reference.outside_star(points) & (mask == 0)
        if checked.sum() < 0.5 * len(points):
            failures.append(f"only {checked.sum()} of {len(points)} grid points checked")
        if not np.all(np.isfinite(values[checked])):
            failures.append("non-finite field values outside the mask")
            return CheckResult({"field": math.inf}, failures)
        err = reference.relative_error(
            values[checked],
            reference.point_source_field(
                self.kappa, self.sources, self.strengths, points[checked]
            ),
        )
        tol = self.small_tol if self.small else self.tol
        if not err <= tol:
            failures.append(f"field error {err:.3g} above {tol:g}")
        return CheckResult({"field": err}, failures)


WORKLOADS = {w.name: w for w in (HelmRealSweep, HelmDecayField, StokesSweep)}
