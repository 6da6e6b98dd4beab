"""Array kernel contracts: values, splits, reciprocity, diagonal limits."""

import cmath
import math
import warnings

import numpy as np

from zetatrap import kernels as kn
from zetatrap.geometry import circle_curve, sample, star_curve
from zetatrap.specfun import EULER_GAMMA


def _node_pairs(data, tgt, src):
    return kn.pairs(data.pos[tgt], data.pos[src], data.normal[src], data.normal[tgt])


def test_pairs_and_coincident_values():
    data = sample(circle_curve(1.0), np.array([0.0, math.pi, 1.0]))
    p = _node_pairs(data, 0, 1)
    assert abs(p.r - 2.0) <= 1e-14
    assert abs(p.dx - 2.0) <= 1e-14 and abs(p.dy) <= 1e-14
    # coincident pairs: r = 0, finite kernels, phi(0) as documented
    same = _node_pairs(data, 2, 2)
    assert same.r == 0.0
    # r_safe, the r every kernel divides by or takes the log of, is r
    # except at coincident pairs, where it is 1
    assert p.r_safe == p.r and same.r_safe == 1.0
    assert kn.laplace_s().full(same) == 0.0
    assert kn.laplace_s().phi(same) == 1.0
    helm = kn.helmholtz_s(2.0)
    assert np.isfinite(helm.full(same))
    assert abs(helm.phi(same) - 1 / (2 * math.pi)) <= 1e-16
    assert np.allclose(kn.stokes_s().phi(same), np.eye(2) / (4 * math.pi), atol=1e-16)


def test_pairs_distance_is_within_eps_of_hypot():
    # r = sqrt(dx*dx + dy*dy) is within eps of the exact length at every
    # scale a curve meets, for arrays and for 0-d inputs alike
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.uniform(-3, 3, (100_000, 1))
    targets = rng.standard_normal((100_000, 2)) * scale
    sources = rng.standard_normal((100_000, 2)) * scale
    p = kn.pairs(targets, sources)
    exact = np.array([math.hypot(x, y) for x, y in zip(p.dx.tolist(), p.dy.tolist())])
    assert np.all(np.abs(p.r - exact) <= np.finfo(float).eps * exact)
    assert np.array_equal(p.r_safe, p.r)
    point = kn.pairs(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
    assert np.ndim(point.r) == np.ndim(point.r_safe) == 0
    assert point.r == point.r_safe == 5.0
    same = kn.pairs(np.array([0.5, -2.0]), np.array([0.5, -2.0]))
    assert same.r == 0.0 and same.r_safe == 1.0


def test_pairs_keep_hypots_range():
    # where dx*dx + dy*dy overflows, underflows or is not a normal float,
    # r is np.hypot's value bit for bit, with no warning; the other
    # entries of the same call keep the square root
    tiny, huge = 1e-170, 1e200
    targets = np.array(
        [[huge, 0.0], [1e160, 1e160], [-huge, huge], [tiny, tiny], [3e-160, 0.0],
         [1e-200, -1e-200], [0.0, 0.0], [1.0, 1.0], [3.0, -4.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = kn.pairs(targets, np.zeros(2))
    ref = np.hypot(targets[:, 0], targets[:, 1])
    assert np.array_equal(p.r[:7], ref[:7])
    assert np.array_equal(p.r[7:], np.sqrt((targets[7:] ** 2).sum(axis=1)))
    assert np.all(np.isfinite(p.r)) and np.all(p.r[:6] > 0)
    assert np.array_equal(p.r_safe, np.where(ref > 0, ref, 1.0))
    odd = np.array([[np.nan, 1.0], [np.inf, np.nan], [np.inf, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = kn.pairs(odd, np.zeros(2))
    assert np.isnan(q.r[0]) and q.r[1] == q.r[2] == np.inf


def test_laplace_slp_value():
    data = sample(circle_curve(1.0), np.array([0.0, math.pi / 2]))
    p = _node_pairs(data, 1, 0)
    assert abs(kn.laplace_s().full(p) - (-math.log(math.sqrt(2.0)))) <= 1e-14


def test_helmholtz_constants():
    c = kn.helmholtz_constants(12.5)
    ref = 0.5j * math.pi - (cmath.log(12.5 / 2) + EULER_GAMMA)
    assert abs(c.c_gamma - ref) <= 1e-15
    c2 = kn.helmholtz_constants(12.5 + 10.0j)
    assert c2.kappa == 12.5 + 10.0j


def test_helmholtz_d_dstar_reciprocity():
    # d*(target m, source n) uses the target normal, which is the source
    # normal of the reversed pair, and r_vec flips sign: D* = D^T
    t = np.linspace(0, 2 * math.pi, 23, endpoint=False)
    data = sample(star_curve(1.0, 0.3, 5), t)
    p = _node_pairs(data, np.arange(23)[:, None], slice(None))
    for kappa in (7.3, 12.5 + 10j):
        d = kn.helmholtz_d(kappa).full(p)
        dstar = kn.helmholtz_dstar(kappa).full(p)
        off = ~np.eye(23, dtype=bool)
        scale = np.abs(d[off]).max()
        assert np.abs(dstar - d.T)[off].max() <= 1e-13 * scale
        phi_d = kn.helmholtz_d(kappa).phi(p)
        phi_dstar = kn.helmholtz_dstar(kappa).phi(p)
        assert np.abs(phi_dstar - phi_d.T).max() <= 1e-13 * np.abs(phi_d).max()


def test_helmholtz_s_log_split():
    # (i/4) H0(kappa r) + (log r) J0(kappa r)/(2 pi) -> c_gamma/(2 pi)
    kernel = kn.helmholtz_s(12.5)
    consts = kn.helmholtz_constants(12.5)
    data = sample(circle_curve(1.0), np.array([1.0, 1.0 + 1e-4, 1.0 + 1e-5]))
    p = _node_pairs(data, 0, np.array([1, 2]))
    smooth = kernel.full(p) + np.log(p.r) * kernel.phi(p)
    assert abs(smooth[-1] - consts.c_gamma / (2 * math.pi)) <= 1e-7
    assert np.all(kernel.limit(data) == consts.c_gamma / (2 * math.pi))


def test_smooth_factors_vanish_on_diagonal():
    data = sample(circle_curve(1.0), np.array([0.5]))
    same = _node_pairs(data, 0, 0)
    for kernel in (kn.helmholtz_d(5.0), kn.helmholtz_dstar(5.0), kn.laplace_d()):
        assert kernel.phi(same) == 0.0
    assert np.all(kn.stokes_d().phi(same) == 0.0)


def test_stokes_kernels_structure():
    data = sample(star_curve(1.0, 0.3, 5), np.array([2.0, 0.3]))
    p = _node_pairs(data, 0, 1)
    S = kn.stokes_s().full(p)
    D = kn.stokes_d().full(p)
    assert S.shape == D.shape == (2, 2)
    assert np.allclose(S, S.T, atol=1e-15)
    assert np.allclose(D, D.T, atol=1e-15)
    # S = (1/4pi)(-log r I + rhat rhat): eigen-decomposition along r_vec
    rhat = np.array([p.dx, p.dy]) / p.r
    along = rhat @ S @ rhat
    assert abs(along - (-math.log(p.r) + 1.0) / (4 * math.pi)) <= 1e-14
    perp = np.array([-rhat[1], rhat[0]])
    assert abs(perp @ S @ perp - (-math.log(p.r)) / (4 * math.pi)) <= 1e-14
    # D = (1/pi)((r.n)/r^2) rhat rhat: rank one along r_vec
    rn = (p.dx * data.normal[1, 0] + p.dy * data.normal[1, 1]) / p.r**2
    assert abs(rhat @ D @ rhat - rn / math.pi) <= 1e-14
    assert abs(perp @ D @ perp) <= 1e-15


def test_stokeslet_divergence_free():
    # the single-layer velocity of a point force is divergence free
    source = np.array([1.0, 0.0])
    f = np.array([0.7, -0.4])
    eps = 1e-6

    def vel(x):
        return kn.stokes_s().full(kn.pairs(np.asarray(x), source)) @ f

    x0 = np.array([2.1, 1.3])
    div = (vel(x0 + [eps, 0])[0] - vel(x0 - [eps, 0])[0]) / (2 * eps) + (
        vel(x0 + [0, eps])[1] - vel(x0 - [0, eps])[1]
    ) / (2 * eps)
    assert abs(div) <= 1e-8


def test_stokes_diagonals_on_circle():
    a = 2.0
    data = sample(circle_curve(a), np.array([0.7, 2.9]))
    for m in range(2):
        t = data.tangent[m]
        Sd = kn.stokes_s().limit(data)[..., m]
        assert np.allclose(Sd, np.outer(t, t) / (4 * math.pi), atol=1e-15)
        Dd = kn.stokes_d().limit(data)[..., m]
        assert np.allclose(Dd, (-1.0 / (2 * a)) * np.outer(t, t) / math.pi, atol=1e-15)
    assert np.allclose(kn.laplace_d().limit(data), -1.0 / (2 * a), atol=1e-15)


def test_laplace_d_winding():
    # the trapezoidal sum of (r.n_src)/r^2 is -2 pi inside the curve, 0 outside
    curve = star_curve(1.0, 0.3, 5)
    N = 256
    data = sample(curve, np.linspace(0, 2 * math.pi, N, endpoint=False))
    targets = np.array([[0.0, 0.0], [0.6, 0.0], [1.5, 0.0], [0.0, -2.0]])
    p = kn.pairs(targets[:, None], data.pos, data.normal)
    winding = kn.laplace_d().full(p) @ (data.speed * 2 * math.pi / N)
    assert np.allclose(winding, [-2 * math.pi, -2 * math.pi, 0.0, 0.0], atol=1e-10)


def test_stokes_combined_is_s_plus_d():
    # one pass of the combined kernel gives the sum of the Stokeslet and the
    # stresslet, with S's phi and the sum of the two limits
    N = 41
    data = sample(star_curve(1.0, 0.3, 5), np.linspace(0, 2 * math.pi, N, endpoint=False))
    p = _node_pairs(data, np.arange(N)[:, None], slice(None))
    s, d, c = kn.stokes_s(), kn.stokes_d(), kn.stokes_combined()
    ref = s.full(p) + d.full(p)
    assert np.abs(c.full(p) - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(c.phi(p), s.phi(p) + d.phi(p))
    assert np.array_equal(c.limit(data), s.limit(data) + d.limit(data))


def test_radial_factors_are_symmetric_and_give_full_and_phi():
    # radial(p) and phi_radial(p, f), f None or radial(p) as a Kress fill
    # passes it, of the pairs (m, n) are, bit for bit, the transposes of
    # those of (n, m), as the mirrored tiles of the PTR fill and of the
    # Kress correction rely on; full formed from radial(p) equals full(p)
    N = 23
    t = np.linspace(0, 2 * math.pi, N, endpoint=False)
    data = sample(star_curve(1.0, 0.3, 5), t)
    idx = np.arange(N)
    fwd = _node_pairs(data, idx[:8, None], idx[8:])
    rev = _node_pairs(data, idx[8:, None], idx[:8])
    kernels = [kn.laplace_s(), kn.laplace_d()]
    kernels += [kn.stokes_s(), kn.stokes_d(), kn.stokes_combined()]
    for kappa in (12.5, 12.5 + 10j, -4.0):
        kernels += [
            kn.helmholtz_s(kappa),
            kn.helmholtz_d(kappa),
            kn.helmholtz_dstar(kappa),
            kn.helmholtz_combined(kappa),
        ]
    for kernel in kernels:
        for factors in (
            kernel.radial,
            lambda p: kernel.phi_radial(p, None),
            lambda p: kernel.phi_radial(p, kernel.radial(p)),
        ):
            f, f_rev = factors(fwd), factors(rev)
            assert len(f) == len(f_rev)
            for a, b in zip(f, f_rev):
                assert np.array_equal(a, np.swapaxes(b, -1, -2))
        f = kernel.radial(fwd)
        assert np.array_equal(kernel.full_of(fwd, f), kernel.full(fwd))
