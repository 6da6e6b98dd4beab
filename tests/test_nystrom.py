"""Assembly, linear-solve, and off-curve evaluation contracts."""

import math

import numpy as np
import pytest
import scipy.special

from zetatrap import harness
from zetatrap import nystrom as ny
from zetatrap import quadrature as quad
from zetatrap.geometry import circle_curve, star_curve
from zetatrap.kernels import helmholtz_constants
from zetatrap.zetaweights import build_log_stencil

STAR = star_curve(1.0, 0.3, 5)


def test_combined_field_coupling():
    assert ny.combined_field_coupling(12.5) == 12.5
    assert ny.combined_field_coupling(12.5 + 10j) == 12.5
    assert ny.combined_field_coupling(4j) == 4.0


def test_assembly_validation():
    consts = helmholtz_constants(5.0)
    with pytest.raises(ny.AssemblyError):
        ny.assemble_helmholtz(STAR, 64, consts, method="zeta", stencil=None)
    with pytest.raises(ny.AssemblyError):
        ny.assemble_helmholtz(STAR, 64, consts, method="galerkin")
    with pytest.raises(ny.AssemblyError):
        ny.assemble_stokes(STAR, 64, build_log_stencil(2), method="kress")


def test_solve_direct():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    rhs = np.array([3.0, 4.0])
    rep = ny.solve_direct(A, rhs)
    assert rep.method == "lu"
    assert rep.converged
    assert np.allclose(A @ rep.solution, rhs, atol=1e-14)
    assert rep.residual_norm <= 1e-14


def test_gmres_identity_one_iteration():
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(20)
    rep = ny.solve_gmres(np.eye(20), rhs)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, rhs, atol=1e-13)


def test_gmres_zero_rhs():
    rep = ny.solve_gmres(np.eye(5), np.zeros(5))
    assert rep.converged
    assert rep.iterations == 0
    assert np.all(rep.solution == 0.0)


def test_gmres_matches_direct_complex():
    rng = np.random.default_rng(11)
    n = 40
    A = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direct = ny.solve_direct(A, rhs)
    it = ny.solve_gmres(A, rhs)
    assert it.converged
    assert np.max(np.abs(it.solution - direct.solution)) <= 1e-10


def test_gmres_nonconvergence_report():
    rng = np.random.default_rng(3)
    n = 60
    A = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    rep = ny.solve_gmres(A, rhs, max_iter=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.residual_norm > 0.0


def test_cond_2norm():
    assert abs(ny.cond_2norm(np.eye(6)) - 1.0) <= 1e-12
    assert abs(ny.cond_2norm(np.diag([1.0, 10.0])) - 10.0) <= 1e-12
    with pytest.raises(ny.ConditioningBudgetError):
        ny.cond_2norm(np.zeros((5000, 5000)))


def test_helmholtz_condition_number_stable_in_n():
    consts = helmholtz_constants(12.5)
    st = build_log_stencil(7)
    conds = [
        ny.cond_2norm(ny.assemble_helmholtz(STAR, N, consts, stencil=st).matrix)
        for N in (256, 512)
    ]
    assert abs(conds[0] - conds[1]) <= 0.02 * conds[1]


def test_helmholtz_solve_and_evaluate():
    # manufactured exterior solution: point sources inside the curve
    kappa = 12.5
    consts = helmholtz_constants(kappa)
    st = build_log_stencil(7)
    bie = ny.assemble_helmholtz(STAR, 512, consts, stencil=st)
    src = np.array([[0.2, 0.1], [-0.3, 0.25]])

    def field(points):
        from zetatrap.specfun import hankel1_array

        r = np.hypot(
            points[:, None, 0] - src[None, :, 0],
            points[:, None, 1] - src[None, :, 1],
        )
        return (0.25j * hankel1_array(0, kappa * r)).sum(axis=1)

    rhs = field(bie.data.pos)
    rep = ny.solve_gmres(bie.matrix, rhs)
    assert rep.converged
    targets = 2.0 * np.array(
        [[math.cos(a), math.sin(a)] for a in np.linspace(0, 2 * math.pi, 7)[:-1]]
    )
    vals = ny.eval_helmholtz_potential(bie, rep.solution, targets)
    ref = field(targets)
    assert np.max(np.abs(vals - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_near_field_guard():
    consts = helmholtz_constants(5.0)
    bie = ny.assemble_helmholtz(STAR, 64, consts, stencil=build_log_stencil(2))
    with pytest.raises(ny.NearFieldError):
        ny.eval_helmholtz_potential(
            bie, np.zeros(64, dtype=complex), np.array([[1.31, 0.0]])
        )
    with pytest.raises(ny.AssemblyError):
        ny.eval_stokes_velocity(bie, np.zeros(128), np.array([[3.0, 0.0]]))


def test_stokes_flow_far_field_decay():
    # shear flow past the star: the disturbance velocity decays with distance
    st = build_log_stencil(7)
    bie = ny.assemble_stokes(STAR, 256, st)
    uinf = np.stack([5.0 * bie.data.pos[:, 1], np.zeros(256)], axis=-1)
    rep = ny.solve_gmres(bie.matrix, -uinf.ravel())
    assert rep.converged
    near = ny.eval_stokes_velocity(bie, rep.solution, np.array([[10.0, 3.0]]))
    far = ny.eval_stokes_velocity(bie, rep.solution, np.array([[100.0, 30.0]]))
    assert np.linalg.norm(far) < np.linalg.norm(near)
    # no-slip residual on a finer check grid stays small
    assert np.linalg.norm(bie.matrix @ rep.solution + uinf.ravel()) <= 1e-10


def _complex_bessel_calls(monkeypatch, allowed: bool) -> list:
    """Record each call of scipy's hankel1 and jv; fail on any unless allowed."""
    calls = []
    for name in ("hankel1", "jv"):
        original = getattr(scipy.special, name)

        def wrapper(*args, _name=name, _original=original):
            if not allowed:
                raise AssertionError(f"complex scipy.special.{_name} called")
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(scipy.special, name, wrapper)
    return calls


@pytest.mark.parametrize("kappa", [12.5, 12.5 + 0j, 12.5 + 10j])
def test_real_wavenumber_skips_complex_bessel(kappa, monkeypatch):
    # 12.5 + 0j is the form load_config gives a real kappa.
    real = complex(kappa).imag == 0
    N = 64
    consts = helmholtz_constants(kappa)
    stencil = build_log_stencil(2)
    grid = quad.make_grid(STAR.period, N)
    bie = ny.assemble_helmholtz(STAR, N, consts, "zeta", stencil)
    tau = np.ones(N, dtype=complex)
    targets = np.array([[2.0, 0.5], [-1.5, 2.0]])
    sources, strengths = np.array([[0.1, 0.2]]), np.array([1.0])
    routes = {
        "known_solution": lambda: harness.known_solution(
            kappa, sources, strengths, targets
        ),
        "eval_helmholtz_potential": lambda: ny.eval_helmholtz_potential(
            bie, tau, targets
        ),
    }
    for which in ("S", "D", "Dstar"):
        routes[f"helmholtz_matrix {which}"] = lambda w=which: quad.helmholtz_matrix(
            STAR, grid, consts, stencil, w
        )
    for which in ("S", "D"):
        routes[f"kress {which}"] = lambda w=which: quad.kress_helmholtz_operator(
            STAR, grid, consts, w
        )
    calls = _complex_bessel_calls(monkeypatch, allowed=not real)
    for name, route in routes.items():
        before = len(calls)
        assert np.all(np.isfinite(route())), name
        if not real:
            assert len(calls) > before, name
