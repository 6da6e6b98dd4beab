"""Smooth closed planar curves with analytic derivative data.

Curves are parameterized counterclockwise over one period (standardized
to 2*pi for the built-in shapes); the outward unit normal is the tangent
rotated by -90 degrees, n = (d1_y, -d1_x)/|d1|. All callables must accept
numpy arrays as well as scalars.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ParametricCurve",
    "CurveSamples",
    "InvalidGeometryError",
    "DegenerateParameterizationError",
    "star_curve",
    "circle_curve",
    "curve_from_descriptor",
    "sample",
]


class InvalidGeometryError(ValueError):
    """Curve parameters produce an invalid (e.g. self-crossing) shape."""


class DegenerateParameterizationError(ValueError):
    """|d1| vanishes somewhere; the parameterization is not regular."""


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve with position and its first two derivatives."""

    period: float
    position: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CurveSamples:
    """Position, derivatives and the derived geometry at each parameter value."""

    t: np.ndarray
    pos: np.ndarray  # (N, 2)
    d1: np.ndarray
    d2: np.ndarray
    speed: np.ndarray
    normal: np.ndarray  # (N, 2)
    tangent: np.ndarray  # (N, 2)
    c0: np.ndarray  # (d2 . n) / (4 pi speed^2), the corrected-rule diagonal factor
    curvature: np.ndarray  # signed curvature, positive for a ccw circle


def _parameter(value, name: str) -> float:
    """``value`` as a finite float, or InvalidGeometryError naming it. A
    bool or a numeric string is refused, as in every other config field."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise InvalidGeometryError(f"curve {name}: {value!r} is not a finite number")
    return x


def star_curve(base: float, amplitude: float, lobes: int) -> ParametricCurve:
    """Polar star p(t) = base + amplitude*cos(lobes*t), traversed ccw.

    The default geometry used across the experiments is
    star_curve(1.0, 0.3, 5).
    """
    base = _parameter(base, "base")
    amplitude = _parameter(amplitude, "amplitude")
    if not _parameter(lobes, "lobes").is_integer():
        raise InvalidGeometryError(f"curve lobes: {lobes!r} is not an integer")
    lobes = int(lobes)
    min_radius = base - abs(amplitude) if lobes != 0 else base + amplitude
    if min_radius <= 0:
        raise InvalidGeometryError(
            f"radius reaches {min_radius}; the curve must stay star-shaped"
        )

    def p(t):
        return base + amplitude * np.cos(lobes * t)

    def dp(t):
        return -amplitude * lobes * np.sin(lobes * t)

    def ddp(t):
        return -amplitude * lobes * lobes * np.cos(lobes * t)

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack([p(t) * np.cos(t), p(t) * np.sin(t)], axis=-1)

    def d1(t):
        t = np.asarray(t, dtype=float)
        c, s = np.cos(t), np.sin(t)
        return np.stack([dp(t) * c - p(t) * s, dp(t) * s + p(t) * c], axis=-1)

    def d2(t):
        t = np.asarray(t, dtype=float)
        c, s = np.cos(t), np.sin(t)
        a = ddp(t) - p(t)
        bb = 2.0 * dp(t)
        return np.stack([a * c - bb * s, a * s + bb * c], axis=-1)

    return ParametricCurve(period=2 * math.pi, position=position, d1=d1, d2=d2)


def circle_curve(radius: float) -> ParametricCurve:
    """Counterclockwise circle of the given radius centered at the origin."""
    if _parameter(radius, "radius") <= 0:
        raise InvalidGeometryError("radius must be positive")
    return star_curve(radius, 0.0, 0)


def curve_from_descriptor(desc: dict) -> ParametricCurve:
    """Build a curve from a JSON-style descriptor.

    Supported: {"type": "star", "base": b, "amplitude": a, "lobes": n}
    and {"type": "circle", "radius": r}; any other key is an error.
    """
    if not isinstance(desc, dict):
        raise InvalidGeometryError(f"curve must be an object, got {desc!r}")
    kind = desc.get("type")
    keys = {"star": ("type", "base", "amplitude", "lobes"), "circle": ("type", "radius")}
    if not isinstance(kind, str) or kind not in keys:
        raise InvalidGeometryError(f"unknown curve type {kind!r}")
    unknown = [key for key in desc if key not in keys[kind]]
    if unknown:
        raise InvalidGeometryError(f"curve {kind}: unknown key {unknown[0]!r}")
    if kind == "star":
        return star_curve(
            desc.get("base", 1.0), desc.get("amplitude", 0.3), desc.get("lobes", 5)
        )
    return circle_curve(desc.get("radius", 1.0))


def sample(curve: ParametricCurve, t: np.ndarray) -> CurveSamples:
    """Curve data at the parameter values ``t``, an array or a scalar.

    Raises DegenerateParameterizationError where |d1| vanishes.
    """
    t = np.asarray(t, dtype=float)
    pos = curve.position(t)
    d1 = curve.d1(t)
    d2 = curve.d2(t)
    speed = np.hypot(d1[..., 0], d1[..., 1])
    if np.any(speed < 1e-12):
        raise DegenerateParameterizationError("|d1| vanishes on the grid")
    tangent = d1 / speed[..., None]
    normal = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    c0 = np.einsum("...i,...i->...", d2, normal) / (4 * math.pi * speed**2)
    curvature = (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]) / speed**3
    return CurveSamples(
        t=t,
        pos=pos,
        d1=d1,
        d2=d2,
        speed=speed,
        normal=normal,
        tangent=tangent,
        c0=c0,
        curvature=curvature,
    )
