"""Experiment drivers: configs, convergence sweeps, conditioning tables,
field evaluation, and external stencil-table ingestion.

All drivers are pure functions from a :class:`ProblemConfig` to lists of
CSV-ready rows; the CLI module handles argument parsing and file output.
Method names live here only, to read a config and label rows: a method
is a label and a stencil, none for the Kress rule, and a zeta rule is
chosen by its K alone. A problem's boundary data is one object
(:class:`PointSources`, :class:`ShearFlow`) that names its problem and
the kernel its systems are assembled from, so no driver asks which
problem it runs. :func:`_check_grids` is the one check of a run's grids,
made by :func:`load_config` at each N and by each driver for its own.
Every driver builds its systems with
:func:`~zetatrap.nystrom.on_each_system`: a sweep passes its whole N
list, whose largest fill the coarser N slice, table1, field and the
Stokes reference one N. A sweep warm-starts GMRES from each method's
previous N; table1 and field solve cold, as their iteration counts are
the conditioning measurement. :func:`load_config` places a config's
targets and sources with :func:`~zetatrap.nystrom.locate`, the test the
evaluator applies, so a config that loads has no target a sweep refuses.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, nystrom, quadrature
from .geometry import ParametricCurve, curve_from_descriptor, sample
from .zetaweights import CorrectionStencil, build_log_stencil

__all__ = [
    "ProblemConfig",
    "PointSources",
    "ShearFlow",
    "QuadratureMethod",
    "ConfigError",
    "StencilTableError",
    "OffGridTableError",
    "load_config",
    "default_helmholtz_config",
    "default_stokes_config",
    "known_solution",
    "fit_eoc",
    "run_convergence",
    "run_table1",
    "run_field",
    "ingest_stencil_table",
]

SATURATION_FLOOR = 1e-11
MIN_FIT_POINTS = 3
DEFAULT_SOURCE_RADIUS = 0.4
DEFAULT_TARGET_RADIUS = 2.0
STOKES_REFERENCE_K = 7


class ConfigError(ValueError):
    """Invalid problem configuration."""


class StencilTableError(ValueError):
    """Malformed external stencil table file."""


class OffGridTableError(StencilTableError):
    """Table declares off-grid nodes, which assembly does not support."""


@dataclass(frozen=True)
class QuadratureMethod:
    """One quadrature selection for a sweep.

    The zeta and external rules carry a correction stencil; the Kress
    rule has none. ``order`` is the stencil's nominal label, 2K+2 for
    the zeta rules (as in ``label``); their leading error term is
    h^(2K+3), so sweeps measure that order (see
    :class:`~zetatrap.zetaweights.CorrectionStencil`).
    """

    label: str
    stencil: CorrectionStencil | None = None

    @property
    def order(self) -> float | None:
        return None if self.stencil is None else self.stencil.order


@dataclass(frozen=True)
class PointSources:
    """Helmholtz boundary data: the field of interior point sources, the
    exact exterior solution (:func:`known_solution`). A data object has
    its ``problem``, config ``keys``, ``read``, ``check``, the ``kernel``
    whose system it is solved on, Dirichlet data ``boundary``, ``exact``
    field or None, total ``field`` at accepted targets, and a field row's
    two ``columns`` and ``header``.
    """

    kappa: complex
    sources: np.ndarray  # (ns, 2)
    strengths: np.ndarray  # (ns,), complex

    problem = "helmholtz"
    keys = ("kappa", "sources", "strengths")
    header = ("re_u", "im_u")

    @classmethod
    def read(cls, raw: dict) -> PointSources:
        kappa = _kappa(raw)
        sources = _points(raw.get("sources", _default_sources()), "sources")
        strengths = _finite(
            raw.get("strengths", np.ones(len(sources))), "strengths", complex
        )
        if strengths.shape != (len(sources),):
            raise ConfigError("strengths must list one number per source")
        return cls(kappa, sources, strengths)

    def kernel(self) -> kernels.Kernel:
        """The combined-field kernel D - i eta S at the data's kappa."""
        return kernels.helmholtz_combined(self.kappa)

    def check(self, curve: ParametricCurve, N: int, targets: np.ndarray):
        """Raise ConfigError unless every source lies inside the N-node
        curve and the field is nonzero at some target."""
        outside, _ = nystrom.locate(curve, N, self.sources)
        if outside.any():
            raise ConfigError(f"source {self.sources[outside][0]} lies outside the curve")
        if not np.abs(self.exact(targets)).max() > 0:
            raise ConfigError(
                "the known solution vanishes at every target: no relative "
                "error can be measured"
            )

    def exact(self, points: np.ndarray) -> np.ndarray:
        return known_solution(self.kappa, self.sources, self.strengths, points)

    boundary = exact  # the exact field is its own Dirichlet data

    def field(self, bie, tau: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return nystrom.eval_helmholtz_potential(bie, tau, targets)

    def columns(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.stack([values.real, values.imag], axis=1)


@dataclass(frozen=True)
class ShearFlow:
    """Stokes boundary data: the background shear flow (rate * y, 0) past
    the body at rest, with no exact field (see :class:`PointSources`)."""

    rate: float

    problem = "stokes"
    keys = ("shear_rate",)
    header = ("u1", "u2")
    kappa = None
    exact = None

    @classmethod
    def read(cls, raw: dict) -> ShearFlow:
        rate = _scalar(raw.get("shear_rate", 5.0), "shear_rate")
        if rate == 0:
            raise ConfigError(
                "shear_rate must be nonzero: a zero flow has no relative error"
            )
        return cls(rate)

    def kernel(self) -> kernels.Kernel:
        """The combined Stokes kernel S + D."""
        return kernels.stokes_combined()

    def check(self, curve: ParametricCurve, N: int, targets: np.ndarray):
        """Nothing to place: the flow has no sources."""

    def _background(self, points: np.ndarray) -> np.ndarray:
        return np.stack([self.rate * points[:, 1], np.zeros(len(points))], axis=1)

    def boundary(self, points: np.ndarray) -> np.ndarray:
        return -self._background(points).ravel()

    def field(self, bie, tau: np.ndarray, targets: np.ndarray) -> np.ndarray:
        flow = nystrom.eval_stokes_velocity(bie, tau, targets)
        return flow + self._background(targets)

    def columns(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        return values + self._background(points)


@dataclass(frozen=True)
class ProblemConfig:
    """Full experiment description (JSON-loadable): the boundary ``data``
    a BIE is solved for, which names its ``problem`` and the kernel
    nystrom assembles."""

    curve: ParametricCurve
    data: PointSources | ShearFlow
    methods: tuple[QuadratureMethod, ...]
    n_list: tuple[int, ...]
    targets: np.ndarray  # (nt, 2) test locations

    @property
    def problem(self) -> str:
        """The problem the data names, "helmholtz" or "stokes"."""
        return self.data.problem

    @property
    def kappa(self) -> complex | None:
        """The wavenumber of the data, None for Stokes."""
        return self.data.kappa

    @functools.cached_property
    def length(self) -> float:
        """The curve's length, the trapezoidal sum of its speed at 512
        points, sampled once per config."""
        t = np.linspace(0, self.curve.period, 512, endpoint=False)
        return float(sample(self.curve, t).speed.sum()) * self.curve.period / len(t)


# The keys of a config besides those its data reads.
_CONFIG_KEYS = ("problem", "curve", "methods", "N", "targets")


def _default_sources() -> np.ndarray:
    ang = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
    return DEFAULT_SOURCE_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _default_targets() -> np.ndarray:
    ang = 2 * math.pi * np.arange(8) / 8
    return DEFAULT_TARGET_RADIUS * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _integer(value, what: str) -> int:
    """``value`` as an int: an integer, or a float without a fractional
    part. Anything else, a bool included, is a ConfigError: truncated,
    ``"K": 2.5`` would run zeta6 and ``"K": true`` zeta4."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _finite(value, what: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``, or ConfigError unless every
    entry is a number and finite. A bool or a numeric string is refused:
    numpy would read ``true`` as 1 and ``"12.5"`` as 12.5."""
    for leaf in np.asarray(value, dtype=object).flat:
        if isinstance(leaf, bool) or not isinstance(leaf, numbers.Number):
            raise ConfigError(f"{what}: {leaf!r} is not a number")
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if not np.isfinite(arr).all():
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return arr


def _scalar(value, what: str, dtype=float):
    """``value`` as one finite number of ``dtype``, or ConfigError. A list
    is refused, one of a single number too: numpy cannot read ``[5.0]``
    as a scalar."""
    arr = _finite(value, what, dtype)
    if arr.ndim != 0:
        raise ConfigError(f"{what} must be a single number, got {value!r}")
    return arr.item()


def _points(value, what: str) -> np.ndarray:
    """``value`` as a finite (n, 2) array with n >= 1."""
    arr = _finite(value, what)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ConfigError(f"{what} must be a non-empty list of [x, y] points")
    return arr


# The smallest |kappa| a config may name. The coupling's floor, eta >= 1
# (kernels.combined_field_coupling), keeps the combined-field equation
# well posed as kappa -> 0: on the default star a zeta16 sweep at
# N = 64...512 reads finest errors of 4.4e-16 to 1.2e-15 of max|u| from
# kappa = 1 down to 1e-300, real or imaginary, with no warning, and so do
# the differences u(x_i) - u(x_0), which the constant ~log(1/kappa) that
# u gains cannot hide. Below, at 3e-308, H1(kappa r) ~ 2/(pi kappa r)
# overflows and every value is NaN.
MIN_KAPPA = 1e-300


def _kappa(raw) -> complex:
    """The wavenumber of a Helmholtz config, finite and nonzero."""
    if "kappa" not in raw:
        raise ConfigError("helmholtz config requires 'kappa'")
    k = raw["kappa"]
    if isinstance(k, (list, tuple)):
        parts = _finite(k, "kappa")
        if parts.shape != (2,):
            raise ConfigError(f"kappa as a list is [re, im], got {k!r}")
        kappa = complex(parts[0], parts[1])
    else:
        kappa = complex(_scalar(k, "kappa", complex))
    if abs(kappa) < MIN_KAPPA:
        raise ConfigError(
            f"|kappa| must be at least {MIN_KAPPA:g}, got {kappa}: the low "
            "frequency range below it is not checked"
        )
    if kappa.imag < 0:
        raise ConfigError(
            f"kappa {kappa} has Im kappa < 0: the exterior problem needs a "
            "wave that decays or stays bounded away from the curve"
        )
    return kappa


def _zeta_method(K: int) -> QuadratureMethod:
    return QuadratureMethod(label=f"zeta{2 * K + 2}", stencil=build_log_stencil(K))


def _reference_n(n_max: int) -> int:
    """N_ref, the grid of the reference a sweep to ``n_max`` is measured
    against when its data has no exact field: the smallest even N >=
    5/4 n_max, where zeta16's error lies (4/5)^17, 44 times, below its
    error at n_max."""
    return 2 * -(-5 * n_max // 8)


def _check_keys(raw: dict, keys, what: str):
    """Raise ConfigError naming the first key of ``raw`` not in ``keys``:
    ignored, a misspelled key would run its field's default."""
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise ConfigError(f"{what}: unknown key {unknown[0]!r}")


_METHOD_KEYS = {
    "kress": ("name",),
    "zeta": ("name", "K"),
    "external": ("name", "table"),
}


def _method_from_spec(spec) -> QuadratureMethod:
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigError(
            f"a methods entry is a name or an object with 'name', got {spec!r}"
        )
    name = spec.get("name")
    if not isinstance(name, str) or name not in _METHOD_KEYS:
        raise ConfigError(f"unknown quadrature method {name!r}")
    _check_keys(spec, _METHOD_KEYS[name], f"{name} method")
    if name == "kress":
        return QuadratureMethod(label="kress")
    if name == "zeta":
        if "K" not in spec:
            raise ConfigError("zeta method requires 'K'")
        return _zeta_method(_integer(spec["K"], "K"))
    path = spec.get("table")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"external method requires a 'table' path, got {path!r}")
    return ingest_stencil_table(path)


# Below this many nodes per wavelength a grid cannot resolve the boundary
# data: at kappa = 500 and N = 64 (0.09 per wavelength) a sweep returned a
# relative error of 1.03 with exit 0.
MIN_POINTS_PER_WAVELENGTH = 2.0

# Bytes one dense system of N nodes may take: 16 N^2 for the complex
# N x N Helmholtz matrix, 32 N^2 for the real 2N x 2N Stokes matrix. At
# N = 20000 a Helmholtz system would take 6.4 GB. A run is held to it for
# what it holds at once (nystrom.held_bytes): a Kress fill's factor adds
# 16 N^2, and a sweep holds its largest fill beside the other systems.
# A field grid is held to it for its points' arrays and rows.
MAX_SYSTEM_BYTES = 2 * 2**30


def _check_grids(cfg: ProblemConfig, methods, n_list):
    """Raise ConfigError unless ``methods`` can run over ``n_list``: each
    rule fits every N and the data's kernel
    (:func:`~zetatrap.quadrature.check_rule`), the smallest N gives at
    least MIN_POINTS_PER_WAVELENGTH per wavelength 2 pi/|Re kappa| along
    the curve (Stokes and Re kappa = 0 pass), and the dense systems that
    a run over ``n_list`` holds at once (:func:`~zetatrap.nystrom.held_bytes`)
    fit in MAX_SYSTEM_BYTES."""
    kernel = cfg.data.kernel()
    for N in n_list:
        for method in methods:
            try:
                quadrature.check_rule(kernel, N, method.stencil)
            except quadrature.GridError as exc:
                raise ConfigError(f"{method.label}: {exc}") from None
    kappa = cfg.kappa
    if kappa is not None and kappa.real != 0:
        N = min(n_list)
        length = cfg.length
        ppw = N * (2 * math.pi / abs(kappa.real)) / length
        if ppw < MIN_POINTS_PER_WAVELENGTH:
            raise ConfigError(
                f"N={N} gives {ppw:.3g} points per wavelength at kappa {kappa} on "
                f"a curve of length {length:.4g}; at least "
                f"{MIN_POINTS_PER_WAVELENGTH:g} are needed"
            )
    held = nystrom.held_bytes(kernel, n_list, [m.stencil for m in methods])
    if held > MAX_SYSTEM_BYTES:
        raise ConfigError(
            f"N={list(n_list)} needs {held / 2**30:.3g} GiB of dense "
            f"{cfg.problem} systems at once, over the budget of "
            f"{MAX_SYSTEM_BYTES / 2**30:g} GiB"
        )


def load_config(source) -> ProblemConfig:
    """Build a config from a JSON file path, JSON string, or dict.

    The data class that ``problem`` names reads the boundary data, and
    the keys are _CONFIG_KEYS plus the data's. Anything a run cannot use
    is a ConfigError, raised here: a file that cannot be read or parsed,
    a key that the problem does not read (at the top level, in the curve
    or in a methods entry), a value of the wrong kind or range, a curve,
    stencil or table that cannot be built, an N that a method, the
    wavelength or the memory budget rules out, a target that
    :func:`~zetatrap.nystrom.locate` finds unusable at an N where a sweep
    evaluates it, and data whose ``check`` fails at the largest N; an
    error of another type is chained to it. For data without an exact
    field a sweep also evaluates the targets at the reference's N_ref
    (:func:`_reference_n`), whose system must fit the memory budget too:
    a shear-flow sweep reaches N_max = 6553, whose reference at N_ref =
    8192 takes the whole 2 GiB.
    """
    try:
        return _read_config(source)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(exc) from exc


def _read_config(source) -> ProblemConfig:
    """:func:`load_config`, before other errors become ConfigErrors."""
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"a config is a JSON object, got {raw!r}")
    problem = raw.get("problem")
    if problem not in (PointSources.problem, ShearFlow.problem):
        raise ConfigError(f"problem must be 'helmholtz' or 'stokes', got {problem!r}")
    data_type = PointSources if problem == PointSources.problem else ShearFlow
    _check_keys(raw, _CONFIG_KEYS + data_type.keys, f"{problem} config")
    curve = curve_from_descriptor(raw.get("curve", {"type": "star"}))
    data = data_type.read(raw)
    m_raw = raw.get("methods", [{"name": "zeta", "K": 7}])
    if not isinstance(m_raw, (list, tuple)) or not m_raw:
        raise ConfigError(f"methods must be a non-empty list, got {m_raw!r}")
    methods = tuple(_method_from_spec(m) for m in m_raw)
    n_raw = raw.get("N", [64, 128, 256, 512])
    if not isinstance(n_raw, (list, tuple)) or not n_raw:
        raise ConfigError(f"N must be a non-empty list of grid sizes, got {n_raw!r}")
    n_list = tuple(_integer(n, "N") for n in n_raw)
    targets = _points(raw.get("targets", _default_targets()), "targets")
    cfg = ProblemConfig(curve, data, methods, n_list, targets)
    for n in n_list:
        _check_grids(cfg, methods, [n])
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(
            f"N must ascend strictly, got {list(n_list)}: a repeated N is one "
            "grid fitted as two points"
        )
    _check_points(cfg)
    return cfg


def _check_points(cfg: ProblemConfig):
    """Raise ConfigError unless a sweep can use the config's targets and
    data, for data without an exact field at the reference's N_ref too,
    whose system must fit the budget (see :func:`load_config`)."""
    n_list = cfg.n_list
    if cfg.data.exact is None:
        n_max = max(n_list)
        n_list += (_reference_n(n_max),)
        try:
            _check_grids(cfg, [_zeta_method(STOKES_REFERENCE_K)], n_list[-1:])
        except ConfigError as exc:
            raise ConfigError(f"the reference of N_max={n_max}: {exc}") from None
    for N in n_list:
        _, usable = nystrom.locate(cfg.curve, N, cfg.targets)
        if not usable.all():
            raise ConfigError(
                f"N={N}: target {cfg.targets[~usable][0]} lies inside the curve "
                f"or within {nystrom.NEAR_FIELD_FACTOR:g} grid spacings of it"
            )
    cfg.data.check(cfg.curve, max(cfg.n_list), cfg.targets)


def default_helmholtz_config(kappa: complex, **overrides) -> ProblemConfig:
    raw = {
        "problem": "helmholtz",
        "curve": {"type": "star", "base": 1.0, "amplitude": 0.3, "lobes": 5},
        "kappa": [complex(kappa).real, complex(kappa).imag],
        "methods": [{"name": "zeta", "K": 7}, {"name": "kress"}],
        "N": [64, 128, 256, 512],
    }
    raw.update(overrides)
    return load_config(raw)


def default_stokes_config(**overrides) -> ProblemConfig:
    raw = {
        "problem": "stokes",
        "curve": {"type": "star", "base": 1.0, "amplitude": 0.3, "lobes": 5},
        "methods": [
            {"name": "zeta", "K": 2},
            {"name": "zeta", "K": 4},
            {"name": "zeta", "K": 7},
        ],
        "N": [64, 128, 256, 512],
    }
    raw.update(overrides)
    return load_config(raw)


def known_solution(
    kappa: complex,
    sources: np.ndarray,
    strengths: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Superposition of interior point sources: sum_l c_l (i/4) H0(kappa r_l)
    at ``points``, read as :func:`~zetatrap.kernels.as_points` reads them;
    NaN, in both parts, at a point on a source, where the field is
    singular."""
    points = kernels.as_points(points)
    p = kernels.pairs(points[:, None], np.asarray(sources, dtype=float))
    values = kernels.helmholtz_s(kappa).full(p) @ np.asarray(strengths, dtype=complex)
    values[(p.r == 0).any(axis=1)] = complex(math.nan, math.nan)
    return values


def fit_eoc(n_values, errors, floor: float = SATURATION_FLOOR):
    """Least-squares slope of log error vs log N over pre-saturation points.

    Returns (eoc, n_used) where ``n_used`` lists the window; the EOC is
    reported as a positive order (error ~ N^-eoc). A window of fewer than
    MIN_FIT_POINTS points measures no order: the EOC is then NaN, returned
    with the window it had.
    """
    pts = [
        (n, e)
        for n, e in zip(n_values, errors)
        if np.isfinite(e) and e > floor
    ]
    if len(pts) < MIN_FIT_POINTS:
        return float("nan"), [p[0] for p in pts]
    ns = np.log([p[0] for p in pts])
    es = np.log([p[1] for p in pts])
    slope = np.polyfit(ns, es, 1)[0]
    return float(-slope), [p[0] for p in pts]


def _systems(cfg: ProblemConfig, methods, n_list, measure) -> list:
    """:func:`~zetatrap.nystrom.on_each_system` for the data's kernel."""
    stencils = [m.stencil for m in methods]
    return nystrom.on_each_system(
        cfg.data.kernel(), cfg.curve, n_list, stencils, measure
    )


def _solve(cfg: ProblemConfig, bie, start=None, label=None) -> nystrom.SolveReport:
    """Solve the BIE for the configured boundary data: cold, or warm from
    ``start``, a density of the same problem on another grid, which
    :func:`~zetatrap.nystrom.resample_density` carries to this one as
    GMRES's x0 and which stops at GMRES_WARM_TOL. Given the method's
    ``label``, a solve that did not converge emits a RuntimeWarning that
    names the label, N and the true relative residual."""
    rhs = cfg.data.boundary(bie.data.pos)
    if start is None:
        rep = nystrom.solve_gmres(bie.matrix, rhs)
    else:
        # one row per node: (M, 2) for the node-major Stokes density
        per_node = start.reshape(-1, bie.kernel.components)
        x0 = nystrom.resample_density(per_node, bie.grid.N).ravel()
        rep = nystrom.solve_gmres(bie.matrix, rhs, tol=nystrom.GMRES_WARM_TOL, x0=x0)
    if label is not None and not rep.converged:
        peak = np.abs(rhs).max()  # the norm of rhs itself may overflow
        relative = rep.residual_norm / peak / float(np.linalg.norm(rhs / peak))
        warnings.warn(
            f"{label} at N={bie.grid.N}: GMRES did not converge, "
            f"relative residual {relative:.2e}",
            RuntimeWarning,
        )
    return rep


def _stokes_reference(cfg: ProblemConfig, finest, start) -> np.ndarray:
    """Reference field at the test targets for data without an exact
    field: zeta16 at N_ref = :func:`_reference_n` of the sweep's N_max,
    solved warm from ``start``, the density at N_max of the sweep's
    highest-K rule, whose field at the targets is ``finest``.

    The reference's error is estimated from that rule's own row: with d
    its relative distance from the reference at N_max, zeta16 at N lies
    about d (N_max/N)^17 from the field, as zeta16 converges at order 17
    and that rule at N_max is no closer than zeta16 there. Where the
    estimate at N_ref is above SATURATION_FLOOR, zeta16 is solved once
    more, warm from the N_ref density, at the smallest even N where it is
    at the floor, if that N's system fits MAX_SYSTEM_BYTES and the
    targets are usable there; otherwise a RuntimeWarning names N_ref and
    the estimate. The estimate is asymptotic: before N_max reaches the
    rule's asymptotic regime it can understate the reference's error
    several times over.
    """
    method = _zeta_method(STOKES_REFERENCE_K)
    label = f"{method.label} reference"

    def solve(N, x0):
        def measure(i, bie):
            rep = _solve(cfg, bie, x0, label)
            return cfg.data.field(bie, rep.solution, cfg.targets), rep.solution

        [[(_, result)]] = _systems(cfg, [method], [N], measure)
        return result

    n_max = max(cfg.n_list)
    n_ref = _reference_n(n_max)
    ref, density = solve(n_ref, start)
    d = float(np.abs(finest - ref).max()) / float(np.abs(ref).max())
    order = 2 * STOKES_REFERENCE_K + 3
    estimate = d * (n_max / n_ref) ** order
    if not estimate > SATURATION_FLOOR:  # NaN too: its rows show it
        return ref
    N = 2 * math.ceil(n_max * (d / SATURATION_FLOOR) ** (1 / order) / 2)
    # locate only an N that fits: it pairs every target with N nodes
    if nystrom.held_bytes(cfg.data.kernel(), [N], [method.stencil]) <= MAX_SYSTEM_BYTES:
        _, usable = nystrom.locate(cfg.curve, N, cfg.targets)
        if usable.all():
            return solve(N, density)[0]
    warnings.warn(
        f"{label} at N={n_ref}: estimated error {estimate:.2e}, above "
        f"{SATURATION_FLOOR:g}; N={N}, where it would be at that floor, is over "
        "the memory budget or too close to a target",
        RuntimeWarning,
    )
    return ref


def run_convergence(cfg: ProblemConfig):
    """Error sweep over N for every configured method.

    Returns (rows, eoc_rows). Row schema:
    (N, method, order, max_rel_error, assemble_s, solve_s), method by
    method, N ascending; EOC schema: (method, order, eoc, fit window as
    'n1;n2;...'). The sweep's systems come from
    :func:`~zetatrap.nystrom.on_each_system`: the stencil rules at one N
    share one PTR fill, and an N below the largest N_max by a power of
    two takes its fill as a slice of N_max's, filled first. A row's
    assemble_s is its fill's seconds, or its slice's, plus that rule's
    correction, so the N_max rows carry the whole N_max fill, which the
    coarser rows slice. A sweep whose fills, systems and Kress factors
    would take more than MAX_SYSTEM_BYTES at once is a ConfigError,
    raised before anything is filled.

    The sweep warm-starts: each method entry solves its first N cold and
    every later N from its own density at the previous N, carried over by
    trigonometric interpolation and solved to the tighter
    GMRES_WARM_TOL (see :func:`_solve`). A warm row's solve_s is
    therefore not that of a cold solve. The errors are taken last, from
    the data's exact field, or for data without one the reference at
    N_ref = 5/4 N_max rounded up to even, solved after the sweep, warm
    from the highest-K rule's density at the last N, and solved once more
    at a finer N where that rule's finest row shows N_ref to be short of
    the floor (see :func:`_stokes_reference`).

    A solve that does not converge, the reference's too, emits a
    RuntimeWarning naming its method, N and relative residual; its row is
    kept.
    """
    densities = {}  # method entry -> its density at the last N solved

    def measure(i, bie):
        t0 = time.perf_counter()
        rep = _solve(cfg, bie, densities.get(i), cfg.methods[i].label)
        vals = cfg.data.field(bie, rep.solution, cfg.targets)
        densities[i] = rep.solution
        return vals, time.perf_counter() - t0

    _check_grids(cfg, cfg.methods, cfg.n_list)
    per_n = _systems(cfg, cfg.methods, cfg.n_list, measure)
    if cfg.data.exact is not None:
        ref = cfg.data.exact(cfg.targets)
    else:
        top = max(range(len(cfg.methods)), key=lambda i: cfg.methods[i].stencil.K)
        _, (finest, _) = per_n[-1][top]
        ref = _stokes_reference(cfg, finest, densities[top])
    scale = float(np.abs(ref).max())
    rows = []
    eoc_rows = []
    for i, method in enumerate(cfg.methods):
        order = "" if method.order is None else method.order
        errs = []
        for N, results in zip(cfg.n_list, per_n):
            assemble_s, (vals, solve_s) = results[i]
            err = float(np.abs(vals - ref).max()) / scale
            errs.append(err)
            rows.append((N, method.label, order, err, assemble_s, solve_s))
        eoc, window = fit_eoc(cfg.n_list, errs)
        eoc_rows.append(
            (method.label, order, eoc, ";".join(str(n) for n in window))
        )
    return rows, eoc_rows


def run_table1(cfg: ProblemConfig, N: int = 512):
    """Conditioning and GMRES iteration table at fixed N.

    Row schema: (method, order, Re kappa, Im kappa, cond2, iterations,
    residual). Data without a wavenumber, and an N above the dense SVD
    budget :data:`~zetatrap.nystrom.COND_MAX_DIM`, are a ConfigError,
    raised before anything is assembled. The rules share one PTR fill.
    """
    if cfg.kappa is None:
        raise ConfigError("the conditioning table is a Helmholtz experiment")
    _check_grids(cfg, cfg.methods, [N])
    if N > nystrom.COND_MAX_DIM:
        raise ConfigError(
            f"N={N} exceeds the dense SVD budget of {nystrom.COND_MAX_DIM} unknowns"
        )

    def measure(i, bie):
        rep = _solve(cfg, bie)
        return nystrom.cond_2norm(bie.matrix), rep.iterations, rep.residual_norm

    return [
        (
            method.label,
            "" if method.order is None else method.order,
            cfg.kappa.real,
            cfg.kappa.imag,
            *result,
        )
        for method, (_, result) in zip(
            cfg.methods, _systems(cfg, cfg.methods, [N], measure)[0]
        )
    ]


def run_field(cfg: ProblemConfig, grid_spec: dict, N: int = 512):
    """Field values on a rectangular grid; near-curve and interior points
    are masked.

    Row schema: (x, y, the data's two ``columns``, mask), (x, y, Re u,
    Im u, mask) for Helmholtz and (x, y, u1, u2, mask) for Stokes, the
    velocity with the background flow added. mask=1 flags points inside the curve or within
    the near-field cutoff (see :func:`nystrom.eval_field`), whose values
    are emitted as NaN. Only the first configured method runs; a solve
    that does not converge emits a RuntimeWarning naming the method, N and
    the relative residual, and its values are kept. The grid
    needs nx, ny >= 1, finite bounds and at most MAX_SYSTEM_BYTES for its
    points; anything else is a ConfigError, raised before the grid is made.
    """
    methods = cfg.methods[:1]
    _check_grids(cfg, methods, [N])
    keys = ("nx", "ny", "xmin", "xmax", "ymin", "ymax")
    missing = [k for k in keys if k not in grid_spec]
    if missing:
        raise ConfigError(f"the field grid spec lacks {', '.join(missing)}")
    nx, ny_ = _integer(grid_spec["nx"], "nx"), _integer(grid_spec["ny"], "ny")
    if nx < 1 or ny_ < 1:
        raise ConfigError(f"the field grid needs nx, ny >= 1, got nx={nx}, ny={ny_}")
    # a point's arrays and row peak below 224 bytes (tracemalloc, to 1000 x 1000)
    if 224 * nx * ny_ > MAX_SYSTEM_BYTES:
        raise ConfigError(
            f"a field grid of {nx} x {ny_} points needs {224 * nx * ny_ / 2**30:.3g} "
            f"GiB, over the budget of {MAX_SYSTEM_BYTES / 2**30:g} GiB"
        )
    bounds = [grid_spec[k] for k in keys[2:]]
    xmin, xmax, ymin, ymax = _finite(bounds, "field grid bounds")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny_)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    [[(_, (vals, far))]] = _systems(
        cfg,
        methods,
        [N],
        lambda i, bie: nystrom.eval_field(
            bie, _solve(cfg, bie, label=methods[0].label).solution, pts
        ),
    )
    vals = cfg.data.columns(pts, vals)
    return [
        (p[0], p[1], v[0], v[1], 0 if ok else 1) for p, v, ok in zip(pts, vals, far)
    ]


def ingest_stencil_table(path: str) -> QuadratureMethod:
    """Read an external correction-weight table as a method labelled with
    the table's name.

    Format: UTF-8 text with header lines ``name:``, ``order:``,
    ``grid: on|off``, followed by whitespace-separated ``offset weight``
    pairs; ``#`` starts a comment. A malformed line anywhere in the file
    is a StencilTableError, and so is an offset above the widest K that an
    N within MAX_SYSTEM_BYTES fits; then a table declaring ``grid: off``
    (Alpert-style auxiliary nodes) is an OffGridTableError, as assembly
    only supports corrections on the trapezoidal grid itself; then so is
    a non-integer or negative offset. The weights of a repeated offset
    add up.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    # 2K + 1 < N, N the largest whose N^2 complex entries fit the budget
    k_max = (math.isqrt(MAX_SYSTEM_BYTES // np.dtype(complex).itemsize) - 2) // 2
    name = order = grid_flag = None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        low = body.lower()
        if low.startswith("name:"):
            name = body[5:].strip()
        elif low.startswith("order:"):
            try:
                order = int(body[6:].strip())
            except ValueError as exc:
                raise StencilTableError(f"line {lineno}: bad order value") from exc
        elif low.startswith("grid:"):
            val = body[5:].strip().lower()
            if val not in ("on", "off"):
                raise StencilTableError(f"line {lineno}: grid flag must be 'on' or 'off'")
            grid_flag = val
        else:
            parts = body.split()
            if len(parts) != 2:
                raise StencilTableError(f"line {lineno}: expected 'offset weight' pair")
            try:
                off, w = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise StencilTableError(f"line {lineno}: non-numeric entry") from exc
            if not (math.isfinite(off) and math.isfinite(w)):
                raise StencilTableError(f"line {lineno}: non-finite entry")
            if off > k_max:
                raise StencilTableError(
                    f"line {lineno}: offset {off:g} above K = {k_max}, the widest "
                    "stencil of any N within the memory budget"
                )
            rows.append((off, w))
    if not rows and (name, order, grid_flag) == (None, None, None):
        raise StencilTableError("empty stencil table file")
    if name is None or order is None or grid_flag is None:
        raise StencilTableError("missing required header line (name:, order:, grid:)")
    if order < 2:
        raise StencilTableError(f"order must be >= 2, got {order}")
    if not rows:
        raise StencilTableError("no weight rows in stencil table")
    if grid_flag == "off":
        raise OffGridTableError(
            f"table {name!r} declares 'grid: off'; off-grid correction "
            "nodes are not supported"
        )
    offsets = {}
    for off, w in rows:
        j = round(off)
        if abs(off - j) > 1e-12 or j < 0:
            raise StencilTableError(
                f"on-grid table has non-integer or negative offset {off}"
            )
        offsets[j] = offsets.get(j, 0.0) + w
    K = max(offsets)
    weights = tuple(offsets.get(j, 0.0) for j in range(K + 1))
    return QuadratureMethod(name, CorrectionStencil("log", K, None, weights, float(order)))
