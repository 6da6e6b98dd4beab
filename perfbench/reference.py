"""References computed without the zetatrap package.

Everything here uses numpy and scipy directly, so a fault in zetatrap's
geometry, special-function wrappers or kernels cannot hide in both the
program's output and the value it is checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# The 5-lobe star r(theta) = 1 + 0.3 cos(5 theta) of every workload.
STAR_BASE = 1.0
STAR_AMPLITUDE = 0.3
STAR_LOBES = 5
STAR_DESCRIPTOR = {
    "type": "star",
    "base": STAR_BASE,
    "amplitude": STAR_AMPLITUDE,
    "lobes": STAR_LOBES,
}


def star_radius(theta: np.ndarray) -> np.ndarray:
    return STAR_BASE + STAR_AMPLITUDE * np.cos(STAR_LOBES * theta)


def star_nodes(n: int) -> np.ndarray:
    """Positions of the n equispaced trapezoidal nodes on the star."""
    theta = 2 * math.pi * np.arange(n) / n
    rho = star_radius(theta)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)


def outside_star(points: np.ndarray) -> np.ndarray:
    """True where a point lies strictly outside the star."""
    rho = np.hypot(points[:, 0], points[:, 1])
    return rho > star_radius(np.arctan2(points[:, 1], points[:, 0]))


def point_source_field(
    kappa: complex, sources: np.ndarray, strengths: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """sum_l c_l (i/4) H0^(1)(kappa |x - y_l|), straight from scipy."""
    r = np.hypot(
        points[:, None, 0] - sources[None, :, 0],
        points[:, None, 1] - sources[None, :, 1],
    )
    return (0.25j * special.hankel1(0, kappa * r)) @ strengths


def stokeslet_velocity(
    source: np.ndarray, force: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """2-D Stokeslet (1/4 pi)(-log r f + (r.f) r / r^2), unit viscosity."""
    rvec = points - source[None, :]
    r2 = np.einsum("ni,ni->n", rvec, rvec)
    rf = rvec @ force
    return (
        -0.5 * np.log(r2)[:, None] * force[None, :] + (rf / r2)[:, None] * rvec
    ) / (4 * math.pi)


def relative_error(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest error over the set, relative to the largest reference value.

    Rows of a 2-D array are vectors and are compared by their length.
    """
    err = np.abs(values - reference)
    size = np.abs(reference)
    if err.ndim == 2:
        err = np.linalg.norm(err, axis=1)
        size = np.linalg.norm(size, axis=1)
    return float(err.max() / size.max())
