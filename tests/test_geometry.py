"""Curve sampling contracts: jets, normals, curvature, and descriptors."""

import math

import numpy as np
import pytest

from zetatrap import geometry as geom


def test_circle_jet_values():
    a = 2.0
    curve = geom.circle_curve(a)
    t = np.array([0.0, 0.7, math.pi, 5.1])
    s = geom.sample(curve, t)
    assert np.allclose(s.pos, a * np.stack([np.cos(t), np.sin(t)], axis=1), atol=1e-14)
    assert np.max(np.abs(s.speed - a)) <= 1e-14
    # outward normal is the radial direction
    assert np.allclose(s.normal, s.pos / a, atol=1e-14)
    assert np.max(np.abs(s.curvature - 1.0 / a)) <= 1e-14
    # d2 . n = -a on a circle
    assert np.max(np.abs(s.c0 - (-1.0 / (4 * math.pi * a)))) <= 1e-15


def test_star_derivatives_match_finite_differences():
    curve = geom.star_curve(1.0, 0.3, 5)
    eps = 1e-6
    for t in (0.0, 0.33, 1.9, 4.4):
        p0 = curve.position(t - eps)
        p1 = curve.position(t + eps)
        d1_fd = (p1 - p0) / (2 * eps)
        assert np.allclose(curve.d1(t), d1_fd, atol=1e-8)
        d2_fd = (p1 - 2 * curve.position(t) + p0) / eps**2
        assert np.allclose(curve.d2(t), d2_fd, atol=1e-3)


def test_star_enclosed_area():
    # area of r(t) = b + a cos(mt) is pi (b^2 + a^2/2); the trapezoidal
    # rule on the smooth periodic integrand is spectrally accurate
    b, a, m = 1.0, 0.3, 5
    curve = geom.star_curve(b, a, m)
    N = 256
    t = 2 * math.pi * np.arange(N) / N
    s = geom.sample(curve, t)
    cross = s.pos[:, 0] * s.d1[:, 1] - s.pos[:, 1] * s.d1[:, 0]
    area = 0.5 * cross.sum() * (2 * math.pi / N)
    assert abs(area - math.pi * (b * b + a * a / 2)) <= 1e-12


def test_sample_matches_jet():
    # rows of an array sample equal the sample at each scalar t, and the
    # polar closed forms of the star p(t) = 1 + 0.3 cos 5t
    curve = geom.star_curve(1.0, 0.3, 5)
    t = np.array([0.2, 1.4, 3.3])
    s = geom.sample(curve, t)
    for i, ti in enumerate(t):
        j = geom.sample(curve, float(ti))
        assert np.allclose(s.pos[i], j.pos, atol=1e-15)
        assert abs(s.speed[i] - j.speed) <= 1e-15
        assert np.allclose(s.normal[i], j.normal, atol=1e-15)
        assert abs(s.c0[i] - j.c0) <= 1e-16
        assert abs(s.curvature[i] - j.curvature) <= 1e-14
    p = 1.0 + 0.3 * np.cos(5 * t)
    dp = -1.5 * np.sin(5 * t)
    ddp = -7.5 * np.cos(5 * t)
    speed2 = p * p + dp * dp
    curvature = (p * p + 2 * dp * dp - p * ddp) / speed2**1.5
    assert np.max(np.abs(s.speed - np.sqrt(speed2))) <= 1e-15
    assert np.max(np.abs(s.curvature - curvature)) <= 1e-14
    # d2 . n = -curvature speed^2, so c0 = -curvature / (4 pi)
    assert np.max(np.abs(s.c0 + curvature / (4 * math.pi))) <= 1e-15
    assert np.allclose(
        np.einsum("ni,ni->n", s.normal, s.tangent), 0.0, atol=1e-15
    )


def test_invalid_geometry():
    with pytest.raises(geom.InvalidGeometryError):
        geom.star_curve(1.0, 1.2, 5)  # radius dips below zero
    with pytest.raises(geom.InvalidGeometryError):
        geom.circle_curve(0.0)
    with pytest.raises(geom.InvalidGeometryError):
        geom.curve_from_descriptor({"type": "lemniscate"})


def test_curve_from_descriptor():
    c = geom.curve_from_descriptor(
        {"type": "star", "base": 1.0, "amplitude": 0.3, "lobes": 5}
    )
    assert c.period == 2 * math.pi
    c2 = geom.curve_from_descriptor({"type": "circle", "radius": 2.0})
    assert abs(geom.sample(c2, 0.0).pos[0] - 2.0) <= 1e-15


def test_degenerate_parameterization():
    bad = geom.ParametricCurve(
        period=2 * math.pi,
        position=lambda t: np.stack(
            [np.cos(np.asarray(t)), np.sin(np.asarray(t))], axis=-1
        ),
        d1=lambda t: np.zeros(np.shape(t) + (2,)),
        d2=lambda t: np.zeros(np.shape(t) + (2,)),
    )
    with pytest.raises(geom.DegenerateParameterizationError):
        geom.sample(bad, 0.3)
    with pytest.raises(geom.DegenerateParameterizationError):
        geom.sample(bad, np.array([0.0, 1.0]))
