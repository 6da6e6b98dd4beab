"""Assembly, linear-solve, and off-curve evaluation contracts."""

import dataclasses
import math
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import oracle
from zetatrap import harness, kernels, specfun
from zetatrap import nystrom as ny
from zetatrap import quadrature as quad
from zetatrap.geometry import circle_curve, sample, star_curve
from zetatrap.kernels import helmholtz_constants
from zetatrap.zetaweights import CorrectionStencil, build_log_stencil, build_pow_stencil

STAR = star_curve(1.0, 0.3, 5)


def test_combined_field_coupling():
    assert kernels.combined_field_coupling(12.5) == 12.5
    assert kernels.combined_field_coupling(12.5 + 10j) == 12.5
    assert kernels.combined_field_coupling(4j) == 4.0


def test_assembly_validation():
    # no stencil is the Kress rule, which Stokes does not have; a stencil
    # must be a log stencil
    consts = helmholtz_constants(5.0)
    with pytest.raises(quad.GridError, match="Helmholtz"):
        ny.assemble_stokes(STAR, 64, None)
    with pytest.raises(quad.GridError):
        ny.assemble_helmholtz(STAR, 64, consts, build_pow_stencil(2, 0.5))


def test_solve_direct():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    rhs = np.array([3.0, 4.0])
    rep = ny.solve_direct(A, rhs)
    assert rep.method == "lu"
    assert rep.converged
    assert rep.history == ()
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


def _random_system(seed, n=40):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = np.eye(n) + 0.3 * noise / math.sqrt(n)
    return A, rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_zero_start_is_the_cold_solve(dtype):
    A, rhs = _random_system(5)
    if dtype is float:
        A, rhs = A.real, rhs.real
    cold = ny.solve_gmres(A, rhs)
    warm = ny.solve_gmres(A, rhs, x0=np.zeros(len(rhs)))
    assert warm.iterations == cold.iterations > 0
    assert np.array_equal(warm.solution, cold.solution)
    assert warm.residual_norm == cold.residual_norm
    assert warm.converged and cold.converged


def test_gmres_counts_iterations_from_its_start():
    A, rhs = _random_system(6)
    exact = ny.solve_direct(A, rhs).solution
    rep = ny.solve_gmres(A, rhs, x0=exact)
    assert rep.iterations == 0 and rep.converged
    assert np.array_equal(rep.solution, exact)
    # a start near the solution needs fewer steps to the same stop, which
    # stays relative to ||rhs||, not to the start's residual
    near = exact + 1e-8 * np.random.default_rng(1).standard_normal(len(rhs))
    warm = ny.solve_gmres(A, rhs, x0=near)
    cold = ny.solve_gmres(A, rhs)
    assert 0 < warm.iterations < cold.iterations
    assert warm.converged
    assert np.max(np.abs(warm.solution - exact)) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_gmres_on_data_whose_squares_overflow(dtype):
    # ||rhs 2^600||^2 overflows; the solve runs on the data times a power
    # of 2, so it takes the unscaled solve's iterations and history, and
    # gives its solution and residual times 2^600, bit for bit, cold and
    # warm (RuntimeWarnings are errors in this suite)
    A, rhs = _random_system(9)
    if dtype is float:
        A, rhs = A.real, rhs.real
    big = 2.0**600
    for x0 in (None, 0.5 * rhs):
        want = ny.solve_gmres(A, rhs, x0=x0)
        rep = ny.solve_gmres(A, rhs * big, x0=None if x0 is None else x0 * big)
        assert rep.iterations == want.iterations > 0
        assert rep.history == want.history
        assert np.array_equal(rep.solution, want.solution * big)
        assert rep.residual_norm == want.residual_norm * big
        assert rep.converged and want.converged


def test_gmres_zero_rhs_with_a_start():
    # the solution of A x = 0 is zero, whatever the start; no division by
    # the zero norm (RuntimeWarnings are errors in this suite)
    A, _ = _random_system(8, n=6)
    rep = ny.solve_gmres(A, np.zeros(6, dtype=complex), x0=np.ones(6))
    assert rep.converged and rep.iterations == 0
    assert np.all(rep.solution == 0) and rep.residual_norm == 0.0


def _trig(N, seed, shape=()):
    # a random trigonometric polynomial with the modes |k| <= 6 at N nodes
    coef = np.random.default_rng(seed).standard_normal((13, *shape, 2))
    coef = coef[..., 0] + 1j * coef[..., 1]
    t = 2 * math.pi * np.arange(N) / N
    waves = np.exp(1j * np.outer(t, np.arange(-6, 7)))
    return np.tensordot(waves, coef, axes=1)


@pytest.mark.parametrize("M", [13, 14, 16, 33, 48])
@pytest.mark.parametrize("N", [13, 14, 15, 31, 64])
def test_resample_density_reproduces_trig_polynomials(M, N):
    # even and odd N, up and down: a polynomial that both grids resolve
    # (|k| < min(M, N)/2) is carried over to rounding, complex (N,) and
    # real node-major (N, 2) alike
    complex_ = ny.resample_density(_trig(M, 1), N)
    assert complex_.shape == (N,)
    assert np.max(np.abs(complex_ - _trig(N, 1))) <= 1e-14 * np.max(np.abs(_trig(N, 1)))
    real = ny.resample_density(_trig(M, 2, (2,)).real, N)
    assert real.shape == (N, 2) and real.dtype == float
    want = _trig(N, 2, (2,)).real
    assert np.max(np.abs(real - want)) <= 1e-14 * np.max(np.abs(want))


def test_resample_density_nyquist_mode():
    # going up from an even M, the Nyquist samples cos(M t/2) are split
    # between +M/2 and -M/2 and stay cos(M t/2); going down to an even N,
    # the modes +-N/2 are dropped
    def cos(k, N):
        return np.cos(k * 2 * math.pi * np.arange(N) / N)

    assert np.max(np.abs(ny.resample_density(cos(4, 8), 21) - cos(4, 21))) <= 1e-14
    assert np.max(np.abs(ny.resample_density(cos(4, 8), 12) - cos(4, 12))) <= 1e-14
    assert np.max(np.abs(ny.resample_density(cos(4, 20), 8))) <= 1e-14
    same = cos(3, 8)
    assert np.array_equal(ny.resample_density(same, 8), same)


def test_gmres_matches_direct_complex():
    rng = np.random.default_rng(11)
    n = 40
    A = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direct = ny.solve_direct(A, rhs)
    it = ny.solve_gmres(A, rhs)
    assert it.converged
    assert np.max(np.abs(it.solution - direct.solution)) <= 1e-10


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def test_gmres_workspace_grows_with_the_iterations_run():
    # the basis is allocated for max_iter + 1 rows, but memory holds only the
    # pages of the rows written, one 2 MiB huge page here: a warm solve that
    # stops within a few iterations keeps far less resident than the
    # (n + 1) x n of a basis sized for max_iter
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("reads the resident set size from /proc/self/statm")
    n = 2000
    rng = np.random.default_rng(3)
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    exact = rng.standard_normal(n)
    rhs = A @ exact
    x0 = exact + 1e-11 * rng.standard_normal(n)

    class Probe:
        """A, noting the resident bytes at each product with it."""

        dtype = A.dtype
        resident = []

        def __matmul__(self, x):
            self.resident.append(_resident_bytes())
            return A @ x

    probe = Probe()
    rep = ny.solve_gmres(probe, rhs, x0=x0)
    assert rep.converged and 0 < rep.iterations < 10
    # the first product, A x0, comes before the basis is allocated
    assert max(probe.resident) - probe.resident[0] < (n + 1) * n * 8 / 8


@pytest.mark.parametrize("coupling", [0.75, 0.75j])
def test_gmres_long_solve_agrees_with_lu(coupling):
    # I + c * (lower shift) is nonnormal: GMRES needs over a hundred
    # iterations and still agrees with LU
    n = 200
    A = np.eye(n) + coupling * np.eye(n, k=-1)
    rhs = np.random.default_rng(0).standard_normal(n)
    rep = ny.solve_gmres(A, rhs)
    lu = ny.solve_direct(A, rhs)
    assert rep.converged and 100 < rep.iterations < n
    bound = 10 * ny.cond_2norm(A) * ny.GMRES_TOL
    err = np.linalg.norm(rep.solution - lu.solution)
    assert err <= bound * np.linalg.norm(lu.solution)


def test_gmres_nonconvergence_report():
    rng = np.random.default_rng(3)
    n = 60
    A = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    rep = ny.solve_gmres(A, rhs, max_iter=5)
    assert not rep.converged
    assert rep.iterations == 5 == len(rep.history)
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


def _full_sum(bie, tau, targets):
    """The plain PTR over all N nodes at ``targets``, the sum that
    eval_field's strided sums are held to."""
    p = kernels.pairs(targets[:, None], bie.data.pos, bie.data.normal)
    weight = bie.data.speed * bie.grid.h
    if bie.kernel.components == 1:
        return bie.kernel.full(p) @ (weight * tau)
    density = tau.reshape(-1, 2) * weight[:, None]
    return np.einsum("ijmn,nj->mi", bie.kernel.full(p), density)


def _pairs_summed(bie):
    """``bie`` whose kernel counts the target-node pairs it is evaluated
    on, and the list of those counts."""
    counts = []
    radial = bie.kernel.radial

    def counted(p):
        counts.append(p.r.size)
        return radial(p)

    return dataclasses.replace(bie, kernel=bie.kernel._replace(radial=counted)), counts


def _wave_targets():
    """Field targets from 0.1 to 2.4 outside the star."""
    angle = np.linspace(0, 2 * math.pi, 37)[:-1]
    radius = 1.0 + 0.3 * np.cos(5 * angle)
    return np.concatenate(
        [np.stack([(radius + d) * np.cos(angle), (radius + d) * np.sin(angle)], axis=1)
         for d in (0.1, 0.2, 0.4, 0.8, 1.6, 2.4)]
    )


def _decaying_wave(N=512, kappa=12.5 + 10j):
    """A solved combined-field system on the star: the field of a point
    source inside it, and :func:`_wave_targets`."""
    bie = ny.assemble_helmholtz(STAR, N, helmholtz_constants(kappa), build_log_stencil(7))
    source = np.array([[0.2, -0.1]])
    rhs = harness.known_solution(kappa, source, np.array([1.0]), bie.data.pos)
    tau = ny.solve_gmres(bie.matrix, rhs).solution
    return bie, tau, _wave_targets()


@pytest.mark.parametrize("kappa", [12.5 + 10j, 12.5])
def test_far_targets_on_every_sth_node_match_the_full_sum(kappa):
    # eval_field sums a far target over every s-th node: within 1e-15 of
    # the largest |u| of the full N-node sum; where the kernel decays
    # (Im kappa > 0) it strides, at real kappa the density's tail keeps s = 1
    bie, tau, targets = _decaying_wave(kappa=kappa)
    counted, counts = _pairs_summed(bie)
    values, accepted = ny.eval_field(counted, tau, targets)
    full = _full_sum(bie, tau, targets[accepted])
    assert accepted.sum() > 150
    assert np.abs(values[accepted] - full).max() <= 1e-15 * np.abs(full).max()
    # the pairs of the field sums, past the acceptance pass's one per target
    summed = sum(counts) - accepted.sum()
    if kappa.imag:
        assert summed < accepted.sum() * 512
    else:
        assert summed == accepted.sum() * 512


@pytest.mark.parametrize("k", [128, 256])
def test_stride_reads_the_density_tail(k):
    # a density mode at |k| = N/4 or N/2, as large as the density: a sum
    # over every s-th node aliases N/s onto the mean, so the rule must not
    # take s = 4, or s = 2 for k = N/2, however far the target
    bie, tau, targets = _decaying_wave()
    planted = tau + np.abs(tau).max() * np.exp(2j * math.pi * k * np.arange(512) / 512)
    counted, counts = _pairs_summed(bie)
    values, accepted = ny.eval_field(counted, planted, targets)
    full = _full_sum(bie, planted, targets[accepted])
    assert np.abs(values[accepted] - full).max() <= 1e-15 * np.abs(full).max()
    if k == 256:
        assert sum(counts) - accepted.sum() == accepted.sum() * 512


@pytest.mark.parametrize("kappa", [12.5 + 10j, 12.5])
def test_stride_reads_the_kernel_decay(kappa):
    # a density whose weight tau*speed*h is one low mode has no tail: the
    # kernel's own decay at the target, from its distance, decides alone
    bie, _, targets = _decaying_wave(kappa=kappa)
    tau = np.exp(3j * bie.data.t) / bie.data.speed
    values, accepted = ny.eval_field(bie, tau, targets)
    full = _full_sum(bie, tau, targets[accepted])
    assert np.abs(values[accepted] - full).max() <= 1e-15 * np.abs(full).max()


def _stride_one(bie, tol, alias, closest, nearest, bound):
    return np.ones(len(nearest), dtype=int)


@settings(max_examples=12, deadline=None)
@given(
    amp_frac=hst.floats(0.3, 0.5),
    lobes=hst.integers(3, 7),
    N=hst.sampled_from([256, 512, 1024]),
    re=hst.floats(2.0, 15.0),
    im=hst.floats(2.0, 20.0),
)
def test_strides_hold_on_sharper_stars(amp_frac, lobes, N, re, im):
    # the stride rule bounds the kernel's strip by the osculating circle
    # at the nearest node, which is wider than the true strip facing a
    # valley; on stars with deeper valleys than the default, targets off
    # every valley and crest at distances 0.05 to 3.2 still come within
    # 1e-15 max|tau| of the sum over all N nodes, with the same mask
    curve = star_curve(1.0, amp_frac, lobes)
    kappa = complex(re, im)
    bie = ny.assemble_helmholtz(curve, N, helmholtz_constants(kappa), build_log_stencil(3))
    rhs = harness.known_solution(kappa, np.array([[0.1, -0.05]]), np.array([1.0]), bie.data.pos)
    tau = ny.solve_gmres(bie.matrix, rhs).solution
    foot = sample(curve, np.arange(6 * lobes) * (math.pi / (3 * lobes)) + math.pi / lobes)
    d = 0.05 * 2.0 ** np.arange(7)
    targets = (foot.pos[:, None] + d[:, None] * foot.normal[:, None]).reshape(-1, 2)
    values, accepted = ny.eval_field(bie, tau, targets)
    with mock.patch.object(ny, "_strides", _stride_one):
        full, every = ny.eval_field(bie, tau, targets)
    assert np.array_equal(accepted, every) and accepted.any()
    assert np.abs(values[accepted] - full[accepted]).max() <= 1e-15 * np.abs(tau).max()


def _stokes_flow(N):
    """A solved Stokes system on the star: shear flow past it."""
    bie = ny.assemble_stokes(STAR, N, build_log_stencil(7))
    uinf = np.stack([5.0 * bie.data.pos[:, 1], np.zeros(N)], axis=-1)
    return bie, ny.solve_gmres(bie.matrix, -uinf.ravel()).solution


def _pass_targets():
    """:func:`_wave_targets` and a 24 x 24 grid through the star."""
    axis = np.linspace(-1.6, 1.6, 24)
    return np.concatenate([_wave_targets(), np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)])


@pytest.mark.parametrize("N", [48, 256, 300, 512, 1024])
@pytest.mark.parametrize("kappa", [12.5 + 10j, 12.5, 3j, "stokes"])
def test_two_level_pass_is_the_full_pass(kappa, N):
    # the coarse level only decides where the answer is certain: mask and
    # nearest node of every target are the brute-force full pass's, bit
    # for bit, with the tolerance and spectrum eval_field uses. A stride
    # is read from an upper bound on the decay sum, so it is at most the
    # full pass's, and equal where the level at s0 = 1 decided the target
    # (its bound is the sum within 1e-10). The targets are the decaying
    # wave's and a grid through the curve. At N = 48, s0 = 1 and the level
    # on all N nodes is the whole pass
    if kappa == "stokes":
        bie, tau = _stokes_flow(N)
    else:
        bie, tau, _ = _decaying_wave(N=N, kappa=kappa)
    targets = _pass_targets()
    seen = {}
    fine = []
    target_strides = ny._target_strides
    level = ny._level

    def spy(bie, tol, alias, targets):
        seen.update(tol=tol, alias=alias)
        seen["stride"], seen["nearest"] = target_strides(bie, tol, alias, targets)
        return seen["stride"], seen["nearest"]

    def counted(data, h, targets, growth, s0):
        if s0 == 1:
            fine.append(targets)
        return level(data, h, targets, growth, s0)

    with mock.patch.object(ny, "_target_strides", spy), mock.patch.object(ny, "_level", counted):
        _, accepted = ny.eval_field(bie, tau, targets)
    outside, stride, nearest = oracle.full_pass(bie, seen["tol"], seen["alias"], targets)
    fine = np.concatenate(fine)
    at_fine = np.array([(fine == point).all(axis=1).any() for point in targets])
    assert at_fine.any() and np.array_equal(accepted, stride > 0)
    assert np.all(seen["stride"] <= stride)
    assert np.array_equal(seen["stride"][at_fine], stride[at_fine])
    assert np.array_equal(seen["nearest"], nearest)
    assert ny._coarse_step(N) == {48: 1, 256: 4, 300: 4, 512: 4, 1024: 8}[N]
    located = ny.locate(STAR, N, targets)
    assert np.array_equal(located[0], outside) and np.array_equal(located[1], stride > 0)
    assert 0 < accepted.sum() < len(targets)


@pytest.mark.parametrize("growth", [0.0, 0.5, 10.0, 1.62e4, 3e4])
@pytest.mark.parametrize("N", [256, 1024])
def test_decay_bound_is_a_bound(N, growth):
    # the pass's bound on each usable target's decay sum
    # sum_n exp(-growth (r_n - d)) over all N nodes is at least the sum and
    # at most exp(2 growth slack) times it, slack the coarse half arc delta
    # plus 16 ulps of the largest distance, and 1e-10 for rounding. It is
    # finite and warns nowhere, also where growth delta is past 709 and
    # exp(growth delta) overflows: at N = 1024 and growth 1.62e4 a coarse
    # term times that factor is inf where the term itself is not 0
    grid, data = ny._nodes(STAR, N)
    targets = _pass_targets()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chunks = [chunk for chunk in ny._decide(data, grid.h, targets, growth) if chunk[2].any()]
    step = data.pos - np.roll(data.pos, 1, axis=0)
    delta = ny._coarse_step(N) // 2 * np.hypot(step[:, 0], step[:, 1]).max()
    assert growth < 1e4 or growth * delta > 709
    for idx, _, usable, nearest, bound in chunks:
        at = idx[usable]
        r = kernels.pairs(targets[at, None], data.pos).r
        d = r[np.arange(len(at)), nearest]
        exact = np.exp(-growth * (r - d[:, None])).sum(axis=1)
        slack = delta * (1 + 1e-12) + 16 * np.finfo(float).eps * r.max(axis=1)
        assert np.all(np.isfinite(bound)) and np.all(exact <= bound)
        assert np.all(np.log(bound / exact) <= 2 * growth * slack + 1e-10)


def _coarse_alone(data, h, s0, points):
    """(outside, usable) by the full pass's rule on every s0-th node alone."""
    p = kernels.pairs(points[:, None], data.pos[::s0], data.normal[::s0])
    winding = kernels.laplace_d().full(p) @ (data.speed[::s0] * h * s0) / (-2 * math.pi)
    nearest = s0 * p.r.argmin(axis=1)
    outside = np.abs(winding) < 0.5
    return outside, outside & (p.r.min(axis=1) >= ny.NEAR_FIELD_FACTOR * h * data.speed[nearest])


def test_planted_points_take_the_full_pass():
    # on a star with deep valleys, points that the coarse nodes alone
    # decide wrongly must be decided on all N nodes, by the level at s0 = 1:
    # across the gap between two lobes, just outside 5 spacings off a
    # valley's bottom, where the flanks come nearer, and within the half
    # arc delta of the near field off a fast flank, midway between two
    # coarse nodes
    curve, N = star_curve(1.0, 0.5, 7), 1024
    grid, data = ny._nodes(curve, N)
    h, s0 = grid.h, ny._coarse_step(N)

    def off(node, factors):
        step = ny.NEAR_FIELD_FACTOR * h * data.speed[node]
        return data.pos[node] + np.multiply.outer(factors, step * data.normal[node])

    angle = np.linspace(0.15, 0.75, 41)
    flank = s0 * (data.speed.argmax() // s0) + s0 // 2
    planted = {
        "between lobes": 1.1 * np.stack([np.cos(angle), np.sin(angle)], axis=1),
        "off a valley": off(round(N / 14), np.array([1.01, 1.05, 1.1, 1.2, 1.4])),
        "in the delta band": off(flank, np.array([0.9, 0.97, 1.03, 1.1, 1.2])),
    }
    points = np.concatenate(list(planted.values()))
    truth = oracle.locate(data, h, points)
    wrong = np.zeros(len(points), dtype=bool)
    start = 0
    for name, group in planted.items():
        rows = slice(start, start + len(group))
        alone = _coarse_alone(data, h, s0, group)
        wrong[rows] = (alone[0] != truth[0][rows]) | (alone[1] != truth[1][rows])
        assert wrong[rows].any(), name
        start += len(group)
    exact = []
    level = ny._level

    def counted(data, h, targets, growth, s0):
        if s0 == 1:
            exact.append(targets)
        return level(data, h, targets, growth, s0)

    with mock.patch.object(ny, "_level", counted):
        outside, usable = ny.locate(curve, N, points)
    exact = np.concatenate(exact)
    assert len(exact) < len(points)
    assert all((exact == point).all(axis=1).any() for point in points[wrong])
    assert np.array_equal(outside, truth[0]) and np.array_equal(usable, truth[1])


def test_non_finite_targets_are_refused_quietly():
    # +-inf, like NaN, is neither outside nor usable: mask 0 and NaN values,
    # with no warning from the pairs or the stride rule
    bie, tau, _ = _decaying_wave(N=128)
    targets = np.array(
        [[np.inf, 0.0], [0.0, -np.inf], [np.inf, np.inf], [np.nan, 1.0], [2.5, 0.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outside, usable = ny.locate(STAR, 128, targets)
        values, accepted = ny.eval_field(bie, tau, targets)
    assert outside.tolist() == usable.tolist() == accepted.tolist() == [False] * 4 + [True]
    assert np.isnan(values[:4].real).all() and np.isnan(values[:4].imag).all()
    assert np.isfinite(values[4])


def test_points_are_pairs_and_empty_is_none():
    # an empty input is zero points, with empty results of each shape; a
    # last axis other than 2 is refused with its shape, where np.atleast_2d
    # read [] as shape (1, 0) and [[2, 0, 7]] as the point (2, 0)
    bie, tau, _ = _decaying_wave(N=128)
    stokes = ny.assemble_stokes(STAR, 64, build_log_stencil(2))
    u = np.ones(128)
    for empty in ([], np.zeros((0, 2)), [[]]):
        outside, usable = ny.locate(STAR, 128, empty)
        assert outside.shape == usable.shape == (0,)
        values, accepted = ny.eval_field(bie, tau, empty)
        assert values.shape == accepted.shape == (0,) and values.dtype == complex
        assert ny.eval_helmholtz_potential(bie, tau, empty).shape == (0,)
        assert ny.eval_stokes_velocity(stokes, u, empty).shape == (0, 2)
    for bad in ([[2.0, 0.0, 7.0]], [2.0, 0.0, 7.0], np.zeros((2, 2, 2)), 2.0):
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=shape):
            ny.locate(STAR, 128, bad)
        with pytest.raises(ValueError, match=shape):
            ny.eval_field(bie, tau, bad)
        with pytest.raises(ValueError, match=shape):
            ny.eval_helmholtz_potential(bie, tau, bad)
    # one [x, y] is one point
    one = ny.eval_helmholtz_potential(bie, tau, [2.5, 0.0])
    assert one.shape == (1,) and one == ny.eval_helmholtz_potential(bie, tau, [[2.5, 0.0]])


def test_far_targets_come_back_finite():
    # targets far past the curve, where dx*dx + dy*dy overflows: accepted,
    # with no warning. Past Im(kappa) r = 700 the Hankel functions are
    # below e^{-700} and the decaying wave is 0; at real kappa the field
    # is finite; the Stokes field is the sum over hypot's distances, bit
    # for bit
    targets = np.array([[1e100, 0.0], [1e160, 1e160], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (12.5 + 10j, 12.5):
            bie, tau, _ = _decaying_wave(N=128, kappa=kappa)
            values, accepted = ny.eval_field(bie, tau, targets)
            assert accepted.all()
            if kappa.imag:
                assert np.all(values == 0)
            else:
                assert np.all(np.isfinite(values))
        stokes = ny.assemble_stokes(STAR, 128, build_log_stencil(7))
        velocity, accepted = ny.eval_field(stokes, np.ones(256), targets)
    assert accepted.all()
    d = targets[:, None] - stokes.data.pos
    r = np.hypot(d[..., 0], d[..., 1])
    p = kernels.Pairs(d[..., 0], d[..., 1], r, r, stokes.data.normal)
    density = np.repeat((stokes.data.speed * stokes.grid.h)[:, None], 2, axis=1)
    assert np.array_equal(velocity, np.einsum("ijmn,nj->mi", stokes.kernel.full(p), density))
    assert velocity[2, 0] == pytest.approx(-329.7339061384, abs=1e-9)


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
    bie = ny.assemble_helmholtz(STAR, N, consts, stencil)
    tau = np.ones(N, dtype=complex)
    targets = np.array([[2.0, 0.5], [-1.5, 2.0]])
    sources, strengths = np.array([[0.1, 0.2]]), np.array([1.0])
    routes = {
        "known_solution": lambda: harness.known_solution(
            kappa, sources, strengths, targets
        ),
        "assemble_helmholtz": lambda: ny.assemble_helmholtz(
            STAR, N, consts, stencil
        ).matrix,
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
            # the evaluator sums the kernel of the assembled system, whose
            # Hankel table was built with it
            assert (len(calls) > before) == (name != "eval_helmholtz_potential"), name


@pytest.mark.parametrize("kappa", [12.5, 12.5 + 10j])
def test_combined_system_matches_separate_operators(kappa):
    # one combined-field pass gives I/2 + D - i eta S of the separate S and D
    N = 64
    consts = helmholtz_constants(kappa)
    grid = quad.make_grid(STAR.period, N)
    eta = kernels.combined_field_coupling(kappa)
    for K in (2, 7, None):
        if K is None:
            stencil = None
            S, D = (quad.kress_helmholtz_operator(STAR, grid, consts, w) for w in "SD")
        else:
            stencil = build_log_stencil(K)
            S, D = (quad.helmholtz_matrix(STAR, grid, consts, stencil, w) for w in "SD")
        ref = 0.5 * np.eye(N) + D - 1j * eta * S
        bie = ny.assemble_helmholtz(STAR, N, consts, stencil)
        scale = np.abs(ref).max()
        if K is None and complex(kappa).imag > 0:
            # Kress entries sum terms of size |J0(kappa r)| ~ exp(Im kappa r)
            # that cancel: rounding shows at the size of the largest term
            p = kernels.pairs(bie.data.pos[:, None], bie.data.pos, bie.data.normal)
            phi = kernels.helmholtz_combined(kappa).phi(p) * bie.data.speed
            scale = np.abs(quad.kress_log_matrix(N) * phi / 2).max()
        assert np.abs(bie.matrix - ref).max() <= 1e-14 * scale, K
    # the evaluator against the sum of the separate layer potentials
    rng = np.random.default_rng(5)
    tau = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    angle = np.linspace(0, 2 * math.pi, 12, endpoint=False)
    targets = 2.4 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    bie = ny.assemble_helmholtz(STAR, N, consts, None)
    p = kernels.pairs(targets[:, None], bie.data.pos, bie.data.normal)
    slp, dlp = kernels.helmholtz_s(kappa), kernels.helmholtz_d(kappa)
    weights = bie.data.speed * bie.grid.h
    old = (dlp.full(p) - 1j * eta * slp.full(p)) @ (weights * tau)
    new = ny.eval_helmholtz_potential(bie, tau, targets)
    assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


@pytest.mark.parametrize("slab", [quad.SLAB_ROWS, 7])
def test_combined_stokes_system_matches_separate_operators(slab):
    # one combined pass gives I/2 + S + D of the separate S and D
    N = 64
    grid = quad.make_grid(STAR.period, N)
    for K in (2, 7):
        stencil = build_log_stencil(K)
        with mock.patch.object(quad, "SLAB_ROWS", slab):
            S, D = quad.stokes_matrices(STAR, grid, stencil)
            A = ny.assemble_stokes(STAR, N, stencil).matrix
        ref = 0.5 * np.eye(2 * N) + S + D
        assert np.abs(A - ref).max() <= 1e-15 * np.abs(ref).max(), K


def test_assemble_stokes_allocates_one_matrix():
    # the system is written into one 2N x 2N matrix: the peak is that
    # matrix plus the pair arrays of one slab, not a second matrix
    N = 1024
    stencil = build_log_stencil(7)
    tracemalloc.start()
    try:
        bie = ny.assemble_stokes(STAR, N, stencil)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * bie.matrix.nbytes


# --- one PTR fill per N --------------------------------------------------------


# a Helmholtz system at kappa, a Stokes system at None
_SYSTEMS = pytest.mark.parametrize(
    "kappa",
    [12.5, 12.5 + 10j, None],
    ids=["helmholtz-12.5", "helmholtz-(12.5+10j)", "stokes-None"],
)


def _kernel(kappa):
    # the combined kernel of the system
    if kappa is None:
        return kernels.stokes_combined()
    return kernels.helmholtz_combined(kappa)


def _assembled(kappa, N, stencil):
    if kappa is None:
        return ny.assemble_stokes(STAR, N, stencil)
    return ny.assemble_helmholtz(STAR, N, helmholtz_constants(kappa), stencil)


def _recorded_fills():
    # quad._ptr_fill patched to keep every (A, phi_sp) it returns
    fills = []
    ptr_fill = quad._ptr_fill

    def recorded(*args):
        fills.append(ptr_fill(*args))
        return fills[-1]

    return fills, mock.patch.object(quad, "_ptr_fill", side_effect=recorded)


@_SYSTEMS
def test_ptr_fill_systems_equal_assembled_ones(kappa):
    # each rule's system on the shared fill is the assembled system bit for
    # bit, and the fill is written back after each stencil rule; a stencil
    # read from a table is one more rule, on either system. The Kress rule
    # runs last, in the fill's own buffer, whatever its place in the list,
    # from the factor that fill kept; a Stokes system refuses it before
    # anything is filled, and its fill keeps no factor
    N = 96
    kernel = _kernel(kappa)
    fresh = ny._fill(kernel, STAR, N)[0].matrix
    table = CorrectionStencil("log", 4, None, build_log_stencil(4).weights, 10.0)
    stencils = [build_log_stencil(K) for K in (2, 7, 20, 0)]
    stencils.insert(2, table)
    stencils.insert(1, None)
    if kappa is None:
        with mock.patch.object(quad, "_ptr_fill", side_effect=AssertionError("filled")):
            with pytest.raises(quad.GridError, match="Helmholtz"):
                ny.on_each_system(kernel, STAR, [N], stencils, None)
        del stencils[1]
    buffers, order = [], []

    def measure(i, bie):
        assembled = _assembled(kappa, N, stencils[i])
        assert bie.kernel is kernel
        assert np.array_equal(bie.matrix, assembled.matrix), stencils[i]
        assert np.array_equal(bie.data.pos, assembled.data.pos)
        buffers.append(bie.matrix)
        order.append(i)
        return -i

    fills, recording = _recorded_fills()
    with recording:
        [out] = ny.on_each_system(kernel, STAR, [N], stencils, measure)
    A, phi_sp = fills[0]  # the shared fill; measure fills after it
    assert A is buffers[0] and A.dtype == kernel.dtype
    assert (phi_sp is not None) == (kappa is not None)
    if phi_sp is not None:
        assert phi_sp.shape == (N, N) and phi_sp.dtype == complex
    assert [result for _, result in out] == [-i for i in range(len(stencils))]
    assert all(seconds > 0 for seconds, _ in out)
    runs_last = [i for i, s in enumerate(stencils) if s is not None]
    runs_last += [i for i, s in enumerate(stencils) if s is None]
    assert order == runs_last
    assert all(b is buffers[0] for b in buffers)
    if kappa is None:
        assert np.array_equal(buffers[0], fresh)


@_SYSTEMS
def test_nested_systems_equal_assembled_ones(kappa):
    # N = 48 and 96 take their fills as slices of the N = 192 fill, and
    # their Kress factor as views of the one its tile loop kept at N = 192;
    # N = 32 and 64 (192/N = 6 and 3) and N = 80 fill afresh, each keeping
    # its own factor when a rule is Kress. Every system
    # measured is the one assembled on a fill of its own, bit for bit, on
    # the samples of a fresh grid, in ascending N
    n_list = [32, 48, 64, 80, 96, 192]
    kernel = _kernel(kappa)
    table = CorrectionStencil("log", 2, None, build_log_stencil(2).weights, 6.0)
    stencils = [build_log_stencil(7), table]
    kress = kappa is not None
    if kress:
        stencils.append(None)
    seen = []

    def measure(i, bie):
        seen.append((bie.grid.N, i, bie.matrix.copy(), bie.data))
        return bie.grid.N

    with mock.patch.object(quad, "_ptr_fill", wraps=quad._ptr_fill) as fill:
        out = ny.on_each_system(kernel, STAR, n_list, stencils, measure)
    filled = [(len(c.args[1].speed), c.args[3]) for c in fill.mock_calls]
    assert filled == [(N, kress) for N in (192, 32, 64, 80)]
    assert [[r for _, r in rows] for rows in out] == [
        [N] * len(stencils) for N in n_list
    ]
    assert [(N, i) for N, i, *_ in seen] == [
        (N, i) for N in n_list for i in range(len(stencils))
    ]
    for N, i, matrix, data in seen:
        assembled = ny._assemble(kernel, STAR, N, stencils[i])
        assert np.array_equal(matrix, assembled.matrix), (N, stencils[i])
        fresh = sample(STAR, quad.make_grid(STAR.period, N).nodes)
        for field in dataclasses.fields(fresh):
            name = field.name
            assert np.array_equal(getattr(data, name), getattr(fresh, name)), name


def test_a_nested_sweep_samples_the_curve_once():
    # N = 128, 256 and 512 take their curve samples as every s-th of the
    # N = 1024 fill's, so the sweep samples the curve once, where it
    # sampled it again for each coarse N (4 times)
    kernel = kernels.helmholtz_combined(12.5)
    stencils = [build_log_stencil(2), None]
    seen = []

    def measure(i, bie):
        seen.append(bie.grid.N)

    with mock.patch.object(ny, "sample", wraps=sample) as sampled:
        ny.on_each_system(kernel, STAR, [128, 256, 512, 1024], stencils, measure)
    assert sampled.call_count == 1
    assert seen == [N for N in (128, 256, 512, 1024) for _ in stencils]


def test_a_kernel_nystrom_never_names_runs_on_each_system():
    # the Laplace single layer, -log r: its systems are float, and each is
    # the matrix quadrature builds for it plus I/2, bit for bit, the zeta
    # rule's and the Kress rule's on one shared fill
    N = 64
    kernel = kernels.laplace_s()
    grid = quad.make_grid(STAR.period, N)
    stencil = build_log_stencil(2)
    half = 0.5 * np.eye(N)
    want = [
        quad.laplace_slp_matrix(STAR, grid, stencil) + half,
        quad.kress_laplace_slp_matrix(STAR, grid) + half,
    ]

    def measure(i, bie):
        assert bie.matrix.dtype == float
        assert np.array_equal(bie.matrix, want[i])
        return i

    [out] = ny.on_each_system(kernel, STAR, [N], [stencil, None], measure)
    assert [i for _, i in out] == [0, 1]


@_SYSTEMS
def test_builder_plus_half_is_the_pipeline_system(kappa):
    # the combined builder of each rule plus I/2 is the system of
    # assemble_helmholtz / assemble_stokes and of on_each_system, N = 48 a
    # slice of the N = 96 fill, bit for bit: the scipy reference check of
    # the builders covers the systems the sweeps solve
    kernel = _kernel(kappa)
    stencils = [build_log_stencil(2), build_log_stencil(7)]
    if kappa is not None:
        stencils.append(None)
    systems = {}

    def measure(i, bie):
        systems[bie.grid.N, i] = bie.matrix.copy()

    ny.on_each_system(kernel, STAR, [48, 96], stencils, measure)
    for (N, i), system in systems.items():
        stencil = stencils[i]
        grid = quad.make_grid(STAR.period, N)
        consts = None if kappa is None else helmholtz_constants(kappa)
        if kappa is None:
            A = quad.stokes_matrix(STAR, grid, stencil, "combined")
        elif stencil is None:
            A = quad.kress_helmholtz_operator(STAR, grid, consts, "combined")
        else:
            A = quad.helmholtz_matrix(STAR, grid, consts, stencil, "combined")
        A[np.diag_indices_from(A)] += 0.5
        assert np.array_equal(A, system), (N, stencil)
        assert np.array_equal(A, _assembled(kappa, N, stencil).matrix), (N, stencil)
    assert len(systems) == 2 * len(stencils)


def test_ptr_fill_is_restored_when_the_block_raises():
    # a NearFieldError inside a measurement, as a sweep target too close to
    # the curve raises it, still writes the saved entries back
    N = 64
    consts = helmholtz_constants(5.0)
    kernel = kernels.helmholtz_combined(consts.kappa)
    fresh = ny._fill(kernel, STAR, N)[0].matrix
    buffers = []

    def measure(i, bie):
        buffers.append(bie.matrix)
        assert not np.array_equal(bie.matrix, fresh)
        ny.eval_helmholtz_potential(
            bie, np.zeros(N, dtype=complex), np.array([[1.31, 0.0]])
        )

    with pytest.raises(ny.NearFieldError):
        ny.on_each_system(kernel, STAR, [N], [build_log_stencil(2)], measure)
    assert np.array_equal(buffers[0], fresh)
    # every rule is checked at every N before anything is filled, and a
    # measurement that raises ends the run
    with mock.patch.object(quad, "_ptr_fill", side_effect=AssertionError("filled")):
        for stencils in (
            [build_log_stencil(2), build_pow_stencil(2, 0.5)],
            [build_log_stencil(2), build_log_stencil(20)],
        ):
            with pytest.raises(quad.GridError):
                ny.on_each_system(kernel, STAR, [40, 80], stencils, None)
        with pytest.raises(quad.GridError):  # Kress needs an even N
            ny.on_each_system(kernel, STAR, [64, 65, 128], [None], None)
        for n_list in ([64, 64], [128, 64]):  # one grid is one point of a sweep
            with pytest.raises(ny.AssemblyError, match="ascend"):
                ny.on_each_system(kernel, STAR, n_list, [None], None)
    # the assemblers refuse a stencil that does not fit before any fill
    with mock.patch.object(quad, "_ptr_fill", side_effect=AssertionError("filled")):
        for stencil in (build_pow_stencil(2, 0.5), build_log_stencil(20)):
            with pytest.raises(quad.GridError):
                ny.assemble_helmholtz(STAR, 40, consts, stencil)
            with pytest.raises(quad.GridError):
                ny.assemble_stokes(STAR, 40, stencil)
        with pytest.raises(quad.GridError):
            ny.assemble_stokes(STAR, 40, None)
        with pytest.raises(quad.GridError):
            ny.assemble_helmholtz(STAR, 41, consts, None)


def _builder_calls(N, stencil, which):
    # every builder and system at kappa 12.5 under the rule of ``stencil``
    # on N nodes; a builder's grid is made directly, as make_grid refuses
    # N < MIN_NODES itself
    h = STAR.period / N
    grid = quad.TrapezoidGrid(N, STAR.period, h, h * np.arange(N))
    consts = helmholtz_constants(12.5)
    return {
        "laplace_slp_matrix": lambda: quad.laplace_slp_matrix(STAR, grid, stencil),
        "kress_laplace_slp_matrix": lambda: quad.kress_laplace_slp_matrix(STAR, grid),
        "helmholtz_matrix": lambda: quad.helmholtz_matrix(
            STAR, grid, consts, stencil, which
        ),
        "kress_helmholtz_operator": lambda: quad.kress_helmholtz_operator(
            STAR, grid, consts, which
        ),
        "stokes_matrix": lambda: quad.stokes_matrix(STAR, grid, stencil, which),
        "stokes_matrices": lambda: quad.stokes_matrices(STAR, grid, stencil),
        "assemble_helmholtz": lambda: ny.assemble_helmholtz(STAR, N, consts, stencil),
        "assemble_stokes": lambda: ny.assemble_stokes(STAR, N, stencil),
        "on_each_system": lambda: ny.on_each_system(
            kernels.helmholtz_combined(12.5), STAR, [N], [stencil], None
        ),
        "on_each_stokes_system": lambda: ny.on_each_system(
            kernels.stokes_combined(), STAR, [N], [stencil], None
        ),
    }


_KRESS_CALLS = {"kress_laplace_slp_matrix", "kress_helmholtz_operator"}
_NAMED_CALLS = {"helmholtz_matrix", "kress_helmholtz_operator", "stokes_matrix"}
_STOKES_CALLS = {
    "stokes_matrix", "stokes_matrices", "assemble_stokes", "on_each_stokes_system"
}
_HELMHOLTZ_KRESS = _KRESS_CALLS | {"assemble_helmholtz", "on_each_system"}
_HELM = {"problem": "helmholtz", "kappa": 5.0}

# case: (N; the stencil's K, "pow" for a pow stencil, None for Kress; the
# operator; the calls given it, None for those that take a stencil, "all"
# for every one; the refusal's message; a config that names the case, None
# where no config can)
_REFUSALS = {
    "odd-N Kress": (
        65, None, "combined", _HELMHOLTZ_KRESS, "requires even N",
        {**_HELM, "methods": ["kress"], "N": [64, 65]},
    ),
    "2K+1 >= N": (
        40, 20, "combined", None, "needs N > 41",
        {**_HELM, "methods": [{"name": "zeta", "K": 20}], "N": [40]},
    ),
    "N < 16": (12, 2, "combined", "all", "below the minimum 16", {**_HELM, "N": [12]}),
    "non-log stencil": (64, "pow", "combined", None, "expected 'log'", None),
    "unknown operator": (
        64, 2, "T", _NAMED_CALLS, "unknown operator 'T'", {**_HELM, "methods": ["T"]},
    ),
    "Kress on Stokes": (
        64, None, "combined", _STOKES_CALLS, "one component",
        {"problem": "stokes", "methods": ["kress"]},
    ),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_every_builder_refuses_before_it_fills(case):
    # the six quadrature builders, both assemblers, on_each_system and
    # load_config check the rule before the PTR fill: with the fill patched
    # to raise, each refuses every input that it can be given with
    # GridError (ConfigError at load)
    N, K, which, names, message, config = _REFUSALS[case]
    if K is None:
        stencil = None
    elif K == "pow":
        stencil = build_pow_stencil(2, 0.5)
    else:
        stencil = build_log_stencil(K)
    calls = _builder_calls(N, stencil, which)
    if names is None:
        names = set(calls) - _KRESS_CALLS
    elif names == "all":
        names = set(calls)
    with mock.patch.object(quad, "_ptr_fill", side_effect=AssertionError("filled")):
        for name in sorted(names):
            with pytest.raises(quad.GridError, match=re.escape(message)):
                calls[name]()
        if config is not None:
            if case == "unknown operator":
                message = "unknown quadrature method 'T'"
            with pytest.raises(harness.ConfigError, match=re.escape(message)):
                harness.load_config(config)


def test_correction_touches_only_its_band_and_diagonal():
    # apply changes the 2K + 1 entries of each row of every component plane
    # and returns its undo, which writes exactly those entries back, bit
    # for bit, and no other
    N, K = 48, 3
    for kernel in (kernels.helmholtz_combined(5.0), kernels.stokes_combined()):
        fill, _ = ny._fill(kernel, STAR, N)
        correction = quad._correction(
            fill.kernel, fill.data, fill.grid.h, build_log_stencil(K)
        )
        A = fill.matrix.copy()
        undo = correction.apply(A)
        lag = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
        near = np.minimum(lag, N - lag) <= K
        if kernel.components == 2:
            near = np.kron(near, np.ones((2, 2), dtype=bool))
        assert np.array_equal(A[~near], fill.matrix[~near])
        assert not np.array_equal(A[near], fill.matrix[near])
        A[~near] = 7.0
        undo()
        assert np.array_equal(A[near], fill.matrix[near])
        assert np.all(A[~near] == 7.0)


@settings(max_examples=30, deadline=None)
@given(
    amplitude=hst.floats(0.0, 0.35),
    lobes=hst.integers(2, 7),
    K=hst.integers(0, 7),
    modulus=hst.floats(3.5, 14.0),
    arg=hst.one_of(hst.just(0.0), hst.floats(1e-3, math.pi / 2 - 1e-3)),
    seed=hst.integers(0, 2**32 - 1),
)
@example(amplitude=0.3, lobes=5, K=7, modulus=16.0, arg=0.675, seed=0)  # 12.5 + 10i
def test_gmres_agrees_with_lu_on_random_stars(amplitude, lobes, K, modulus, arg, seed):
    # random star shapes, rules and wavenumbers, real (arg 0) and complex in
    # the first quadrant; |kappa| diameter > 4, so at complex kappa the
    # Hankel table of the combined kernel takes part. GMRES from zero and
    # from a random start both agree with LU
    curve = star_curve(1.0, amplitude, lobes)
    kappa = modulus if arg == 0 else modulus * complex(math.cos(arg), math.sin(arg))
    table_points = []
    table = specfun.Hankel01._table

    def spy(self, r):
        table_points.append(r.size)
        return table(self, r)

    with mock.patch.object(specfun.Hankel01, "_table", spy):
        bie = ny.assemble_helmholtz(
            curve, 128, helmholtz_constants(kappa), stencil=build_log_stencil(K)
        )
    assert bool(table_points) == isinstance(kappa, complex)
    rhs = harness.known_solution(
        kappa, np.array([[0.1, -0.2]]), np.array([1.0 + 0.5j]), bie.data.pos
    )
    lu = ny.solve_direct(bie.matrix, rhs)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    x0 *= np.linalg.norm(lu.solution) / np.linalg.norm(x0)
    # both solve to a relative residual near GMRES_TOL; the condition
    # number bounds how far apart that leaves the solutions. The history
    # is the estimate the stop reads: one entry an iteration, falling to
    # below the stop
    bound = 10 * ny.cond_2norm(bie.matrix) * ny.GMRES_TOL
    for start in (None, x0):
        gmres = ny.solve_gmres(bie.matrix, rhs, x0=start)
        assert gmres.converged
        history = np.array(gmres.history)
        assert len(history) == gmres.iterations > 0
        assert np.all(np.diff(history) <= 0) and history[-1] < ny.GMRES_TOL
        err = np.linalg.norm(gmres.solution - lu.solution)
        assert err <= bound * np.linalg.norm(lu.solution)
