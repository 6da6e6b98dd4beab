"""Config loading, experiment drivers, stencil-table ingestion, and CLI."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
import shlex
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zetatrap import cli, harness, kernels, nystrom, quadrature, specfun
from zetatrap.geometry import InvalidGeometryError, sample
from zetatrap.kernels import helmholtz_constants
from zetatrap.zetaweights import build_log_stencil

ON_GRID_TABLE = """\
# sixth-order log correction, grid-aligned
name: tabulated6
order: 6
grid: on
0 0.9096419217159841
1 0.0289516566730613
2 -0.0014457290795897
"""

OFF_GRID_TABLE = """\
name: auxiliary8
order: 8
grid: off
0.5 0.25
1.5 0.125
"""


def _table_of(tmp_path, name, K):
    # an on-grid table file holding the converged weights of zeta(2K+2)
    lines = [f"name: {name}", f"order: {2 * K + 2}", "grid: on"]
    lines += [f"{j} {w:.17e}" for j, w in enumerate(build_log_stencil(K).weights)]
    path = tmp_path / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- config -----------------------------------------------------------------


def test_load_config_from_dict_json_and_path(tmp_path):
    raw = {
        "problem": "helmholtz",
        "kappa": 5.0,
        "methods": [{"name": "zeta", "K": 2}],
        "N": [64, 128],
    }
    for source in (raw, json.dumps(raw)):
        cfg = harness.load_config(source)
        assert cfg.problem == "helmholtz"
        assert cfg.kappa == 5.0 + 0.0j
        assert cfg.methods[0].label == "zeta6"
        assert cfg.n_list == (64, 128)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert harness.load_config(str(p)).kappa == 5.0 + 0.0j


def test_complex_kappa_and_kress_method():
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": [12.5, 10.0],
            "methods": [{"name": "zeta", "K": 7}, "kress"],
        }
    )
    assert cfg.kappa == 12.5 + 10.0j
    assert cfg.methods[0].stencil.K == 7 and cfg.methods[0].label == "zeta16"
    assert cfg.methods[1].label == "kress" and cfg.methods[1].stencil is None


def test_config_validation_errors():
    with pytest.raises(harness.ConfigError):
        harness.load_config({"problem": "poisson"})
    with pytest.raises(harness.ConfigError, match="requires 'kappa'$"):
        harness.load_config({"problem": "helmholtz"})
    with pytest.raises(harness.ConfigError, match="requires 'K'$"):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "methods": [{"name": "zeta"}]}
        )
    with pytest.raises(harness.ConfigError, match="K must be an integer"):
        harness.load_config(
            {
                "problem": "helmholtz",
                "kappa": 5.0,
                "methods": [{"name": "zeta", "K": "7"}],
            }
        )
    with pytest.raises(harness.ConfigError):
        harness.load_config({"problem": "stokes", "N": [8]})
    with pytest.raises(harness.ConfigError, match="Im kappa < 0"):
        harness.load_config({"problem": "helmholtz", "kappa": [12.5, -1e-3]})
    with pytest.raises(harness.ConfigError, match=r"N=64: target \[0.5 0. *\] lies inside"):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "targets": [[0.5, 0.0]]}
        )
    with pytest.raises(harness.ConfigError, match=r"source \[2. 0.\] lies outside"):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "sources": [[2.0, 0.0]]}
        )


def test_stencil_and_grid_must_fit():
    # 2K+1 < N for every method and N, and an even N for Kress
    helm = {"problem": "helmholtz", "kappa": 5.0}
    cases = [
        ([{"name": "zeta", "K": 20}], [32]),
        ([{"name": "zeta", "K": 8}], [64, 17]),  # 2K+1 = N
        ([{"name": "kress"}], [64, 65]),
    ]
    for methods, ns in cases:
        with pytest.raises(harness.ConfigError):
            harness.load_config({**helm, "methods": methods, "N": ns})
    # targets beyond 5 node spacings of the N = 32 grid (up to 1.8 on the star)
    far = [[4.0, 0.0], [0.0, -4.0]]
    widest = {**helm, "methods": [{"name": "zeta", "K": 15}], "N": [32], "targets": far}
    assert harness.load_config(widest).n_list == (32,)
    # the N given to table1 and field is checked too
    cfg = harness.load_config({**helm, "methods": [{"name": "zeta", "K": 20}, "kress"]})
    grid = {"xmin": 3.0, "xmax": 3.5, "ymin": 0.0, "ymax": 0.5, "nx": 2, "ny": 2}
    with pytest.raises(harness.ConfigError):
        harness.run_table1(cfg, N=32)
    with pytest.raises(harness.ConfigError):
        harness.run_table1(cfg, N=65)
    with pytest.raises(harness.ConfigError):
        harness.run_field(cfg, grid, N=41)
    # field runs the first method only, so an odd N is fine for it
    assert len(harness.run_field(cfg, grid, N=43)) == 4


# --- fit_eoc ----------------------------------------------------------------


def test_fit_eoc_recovers_slope():
    ns = [64, 128, 256, 512]
    errs = [1e-2 * (64 / n) ** 6 for n in ns]
    eoc, window = harness.fit_eoc(ns, errs)
    assert abs(eoc - 6.0) <= 1e-12
    assert window == ns


def test_fit_eoc_ignores_saturated_points():
    ns = [64, 128, 256, 512]
    errs = [1e-4, 1e-7, 1e-10, 3e-12]  # the last one below the floor
    eoc, window = harness.fit_eoc(ns, errs)
    assert window == [64, 128, 256]
    assert abs(eoc - math.log(1e-4 / 1e-7) / math.log(2)) <= 1e-12
    # two points above the floor measure no order: NaN, with their window
    eoc, window = harness.fit_eoc(ns, [1e-4, 1e-7, 2e-12, 3e-12])
    assert math.isnan(eoc)
    assert window == [64, 128]


def test_fit_eoc_degenerate():
    eoc, window = harness.fit_eoc([64, 128], [1e-12, 1e-13])
    assert math.isnan(eoc)
    assert window == []


# --- drivers ----------------------------------------------------------------


def test_run_convergence_helmholtz():
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": 5.0,
            "methods": [{"name": "zeta", "K": 2}],
            "N": [64, 96, 128],
        }
    )
    rows, eoc_rows = harness.run_convergence(cfg)
    assert len(rows) == 3
    assert rows[0][0] == 64 and rows[0][1] == "zeta6"
    assert rows[2][3] < rows[1][3] < rows[0][3]  # error decreases
    assert len(eoc_rows) == 1
    assert eoc_rows[0][2] > 3.0
    assert eoc_rows[0][3] == "64;96;128"


def _assembled(cfg, method, N):
    # the system of one rule assembled on its own
    if cfg.problem == "stokes":
        return nystrom.assemble_stokes(cfg.curve, N, method.stencil)
    consts = helmholtz_constants(cfg.kappa)
    return nystrom.assemble_helmholtz(cfg.curve, N, consts, method.stencil)


def _warm_solve(cfg, bie, density):
    # GMRES on the configured data, from the trigonometric interpolant of
    # a coarser grid's density when one is given
    rhs = cfg.data.boundary(bie.data.pos)
    if density is None:
        return nystrom.solve_gmres(bie.matrix, rhs)
    per_node = density.reshape(-1, 1 if cfg.problem == "helmholtz" else 2)
    x0 = nystrom.resample_density(per_node, bie.grid.N).ravel()
    return nystrom.solve_gmres(bie.matrix, rhs, tol=nystrom.GMRES_WARM_TOL, x0=x0)


def _method_outer_sweep(cfg):
    # the sweep as it ran before the PTR fill was shared: method by
    # method, each system assembled on its own, each N after the first
    # warm from the method's density at the previous N; the Stokes
    # reference last, warm from the highest-K rule's finest density
    values, finest = [], []  # finest: each method's density at the last N
    for method in cfg.methods:
        density = None
        for N in cfg.n_list:
            bie = _assembled(cfg, method, N)
            rep = _warm_solve(cfg, bie, density)
            density = rep.solution
            values.append(cfg.data.field(bie, density, cfg.targets))
        finest.append(density)
    if cfg.data.exact is not None:
        ref = cfg.data.exact(cfg.targets)
    else:
        top = max(range(len(finest)), key=lambda i: cfg.methods[i].stencil.K)
        ref = harness._stokes_reference(cfg, finest[top])
    scale = float(np.abs(ref).max())
    errors = iter([float(np.abs(vals - ref).max()) / scale for vals in values])
    rows, eoc_rows = [], []
    for method in cfg.methods:
        order = "" if method.order is None else method.order
        errs = [next(errors) for _ in cfg.n_list]
        rows += [(N, method.label, order, e) for N, e in zip(cfg.n_list, errs)]
        eoc, window = harness.fit_eoc(cfg.n_list, errs)
        eoc_rows.append((method.label, order, eoc, ";".join(str(n) for n in window)))
    return rows, eoc_rows


def _method_outer_table1(cfg, N):
    rows = []
    for method in cfg.methods:
        bie = _assembled(cfg, method, N)
        rep = nystrom.solve_gmres(bie.matrix, cfg.data.boundary(bie.data.pos))
        rows.append(
            (
                method.label,
                "" if method.order is None else method.order,
                cfg.kappa.real,
                cfg.kappa.imag,
                nystrom.cond_2norm(bie.matrix),
                rep.iterations,
                rep.residual_norm,
            )
        )
    return rows


# the warning of a Kress solve of a sweep that did not converge
_KRESS_UNCONVERGED = r"^kress at N=\d+: GMRES did not converge, relative residual "

# "mirror10" stands for an external table of the zeta10 weights
_MIXED = [{"name": "zeta", "K": 2}, "kress", "mirror10", {"name": "zeta", "K": 7}]


@pytest.mark.parametrize(
    "kappa, methods",
    [
        pytest.param(12.5, _MIXED, id="12.5"),
        pytest.param(12.5 + 10j, _MIXED, id="(12.5+10j)"),
        pytest.param(
            12.5, ["kress", {"name": "zeta", "K": 2}, "kress"], id="kress-twice"
        ),
        pytest.param(12.5 + 10j, ["kress"], id="kress-only"),
        pytest.param(None, None, id="None"),
    ],
)
def test_shared_fill_sweep_and_table1_match_the_method_outer_loop(
    kappa, methods, tmp_path, monkeypatch
):
    # sharing the PTR fill across the rules at each N, Kress last, changes
    # no number: the sweep rows (but the two timing columns), the EOC rows
    # and the table1 rows equal those of the method-outer loop. At the
    # decaying wave Kress does not converge, and the sweep warns of it
    unconverged = contextlib.nullcontext()
    if kappa is not None and complex(kappa).imag:
        unconverged = pytest.warns(RuntimeWarning, match=_KRESS_UNCONVERGED)
    if kappa is None:
        monkeypatch.setattr(harness, "STOKES_REFERENCE_N", 384)
        cfg = harness.default_stokes_config(N=[64, 96, 128])
    else:
        methods = [
            {"name": "external", "table": _table_of(tmp_path, m, 4)}
            if m == "mirror10"
            else m
            for m in methods
        ]
        cfg = harness.default_helmholtz_config(kappa, methods=methods, N=[64, 96, 128])
    with unconverged:
        rows, eoc_rows = harness.run_convergence(cfg)
    old_rows, old_eoc = _method_outer_sweep(cfg)
    # assert_equal takes a NaN EOC (fewer than 3 points above the floor)
    # as equal to itself
    np.testing.assert_equal([r[:4] for r in rows], old_rows)
    np.testing.assert_equal(eoc_rows, old_eoc)
    assert all(r[4] > 0 and r[5] > 0 for r in rows)
    if kappa is not None:
        assert harness.run_table1(cfg, N=96) == _method_outer_table1(cfg, 96)


def test_sweep_runs_kress_last_on_the_shared_fill(monkeypatch):
    # the sweep fills N_max = 128 once, first, keeping its Kress factor in
    # the same tile loop: N = 64 takes its systems as slices of that fill
    # and its Kress factor as a view of that factor, with no fill of its
    # own; N = 96 does not divide 128 and fills afresh, keeping its own.
    # At each N the stencil rules correct the fill in turn, then one Kress
    # correction, whose system both Kress entries measure. Beside the N_max
    # fill at most one system is alive, the N_max fill and its factor are
    # spent by the last N, and a fill's factor is dropped with its fill.
    # Rows keep the config's order.
    fills, steps, alive, factors = [], [], [], []
    ptr_fill, kress, correction = (
        quadrature._ptr_fill,
        quadrature._kress,
        quadrature._correction,
    )
    matrices = []  # weak references to every fill and every measured system

    def kept():  # the fills whose factors are alive
        return [j for j, f in enumerate(factors) if f() is not None]

    def tracked_fill(kernel, data, h, kress=False):
        fills.append((len(data.speed), kept()))
        A, phi_sp = ptr_fill(kernel, data, h, kress)
        matrices.append(weakref.ref(A))
        factors.append(weakref.ref(phi_sp))
        return A, phi_sp

    def tracked_correction(kernel, data, h, stencil):
        steps.append((len(data.speed), stencil.K))
        return correction(kernel, data, h, stencil)

    def tracked_kress(phi_sp, kernel, data, h, A):
        # which fill's factor it reads, and whether as a view of it
        viewed = phi_sp.base is not None
        base = phi_sp.base if viewed else phi_sp
        [j] = [j for j, f in enumerate(factors) if f() is base]
        steps.append((len(data.speed), ("kress", j, viewed)))
        return kress(phi_sp, kernel, data, h, A)

    solve = harness._solve

    def tracked_solve(cfg, bie, *args):
        matrices.append(weakref.ref(bie.matrix))
        others = [m() for m in matrices if m() is not bie.matrix]
        alive.append(([m.shape[0] for m in others if m is not None], kept()))
        return solve(cfg, bie, *args)

    monkeypatch.setattr(quadrature, "_ptr_fill", tracked_fill)
    monkeypatch.setattr(quadrature, "_correction", tracked_correction)
    monkeypatch.setattr(quadrature, "_kress", tracked_kress)
    monkeypatch.setattr(harness, "_solve", tracked_solve)
    methods = ["kress", {"name": "zeta", "K": 2}, "kress", {"name": "zeta", "K": 7}]
    cfg = harness.default_helmholtz_config(12.5, methods=methods, N=[64, 96, 128])
    rows, _ = harness.run_convergence(cfg)
    assert fills == [(128, []), (96, [0])]
    per_n = {
        64: [2, 7, ("kress", 0, True)],
        96: [2, 7, ("kress", 1, False)],
        128: [2, 7, ("kress", 0, False)],
    }
    assert steps == [(N, step) for N in (64, 96, 128) for step in per_n[N]]
    # the N_max fill beside each coarse system, then nothing beside the
    # N = 128 systems, which are that fill itself
    assert [systems for systems, _ in alive] == [[128]] * 8 + [[]] * 4
    assert [held for _, held in alive] == [[0]] * 4 + [[0, 1]] * 4 + [[0]] * 4
    labels = ["kress", "zeta6", "kress", "zeta16"]
    assert [r[1] for r in rows] == [label for label in labels for _ in range(3)]


def _record_solves(monkeypatch):
    # every nystrom.solve_gmres call as (unknowns, x0, tol, report)
    calls = []
    solve = nystrom.solve_gmres

    def recorded(A, rhs, tol=nystrom.GMRES_TOL, x0=None):
        rep = solve(A, rhs, tol, x0=x0)
        calls.append((len(rhs), x0, tol, rep))
        return rep

    monkeypatch.setattr(nystrom, "solve_gmres", recorded)
    return calls


def test_sweep_warm_starts_each_method_entry_from_its_own_density(monkeypatch):
    # the first N of each entry is solved cold; every later N starts from
    # the interpolant of that entry's own density at the previous N, the
    # two Kress entries included, and stops at GMRES_WARM_TOL
    calls = _record_solves(monkeypatch)
    methods = ["kress", {"name": "zeta", "K": 2}, "kress", {"name": "zeta", "K": 7}]
    cfg = harness.default_helmholtz_config(12.5, methods=methods, N=[64, 96, 128])
    harness.run_convergence(cfg)
    order = [1, 3, 0, 2]  # the entries' solves at one N: stencil rules, then Kress
    assert [n for n, *_ in calls] == [N for N in cfg.n_list for _ in order]
    density = {}
    for (n, x0, tol, rep), i in zip(calls, order * len(cfg.n_list)):
        if i not in density:
            assert x0 is None and tol == nystrom.GMRES_TOL
        else:
            assert tol == nystrom.GMRES_WARM_TOL
            assert np.array_equal(x0, nystrom.resample_density(density[i], n))
        density[i] = rep.solution
        assert rep.converged


def test_stokes_reference_is_solved_after_the_sweep(monkeypatch):
    # the N = STOKES_REFERENCE_N fill is built after every fill of the
    # sweep, once the sweep's N_max fill is spent, and its solve starts
    # from the highest-K rule's density at the sweep's last N
    monkeypatch.setattr(harness, "STOKES_REFERENCE_N", 384)
    fills = []
    ptr_fill = quadrature._ptr_fill

    def tracked_fill(kernel, data, h, kress=False):
        fills.append(len(data.speed))
        return ptr_fill(kernel, data, h, kress)

    monkeypatch.setattr(quadrature, "_ptr_fill", tracked_fill)
    calls = _record_solves(monkeypatch)
    methods = [{"name": "zeta", "K": 7}, {"name": "zeta", "K": 2}]
    cfg = harness.default_stokes_config(methods=methods, N=[64, 96, 128])
    harness.run_convergence(cfg)
    # N = 64 is a slice of the N = 128 fill, taken first; N = 96 fills afresh
    assert fills == [128, 96, 384]
    assert [n // 2 for n, *_ in calls] == [64, 64, 96, 96, 128, 128, 384]
    assert [x0 is None for _, x0, *_ in calls] == [True, True] + [False] * 5
    finest_zeta16 = calls[4][3].solution.reshape(128, 2)
    want = nystrom.resample_density(finest_zeta16, 384).ravel()
    assert np.array_equal(calls[-1][1], want)


def test_table1_and_field_solve_cold(monkeypatch):
    # their GMRES iteration counts are the conditioning measurement
    calls = _record_solves(monkeypatch)
    methods = [{"name": "zeta", "K": 2}, "kress"]
    cfg = harness.default_helmholtz_config(12.5, methods=methods, N=[64, 96])
    harness.run_table1(cfg, N=64)
    harness.run_field(cfg, dict(_GRID), N=64)
    harness.run_field(harness.default_stokes_config(N=[64]), dict(_GRID), N=64)
    assert len(calls) == 4
    assert all(x0 is None and tol == nystrom.GMRES_TOL for _, x0, tol, _ in calls)


def test_warm_stop_changes_no_converged_flag(monkeypatch):
    # the warm solves stop at GMRES_WARM_TOL but are judged by the cold
    # contract, 10 GMRES_TOL: Kress at the decaying wave reports the same
    # flags warm as cold at every N (its warm true residual at N = 1024 is
    # ~4.6e-14, which a 10 GMRES_WARM_TOL verdict would call failed), and
    # says which solves did not converge: one RuntimeWarning each, naming
    # the method, N and the true relative residual
    calls = _record_solves(monkeypatch)
    N = [128, 256, 512, 1024]
    cfg = harness.default_helmholtz_config(12.5 + 10j, methods=["kress"], N=N)
    with pytest.warns(RuntimeWarning) as record:
        harness.run_convergence(cfg)
    warm = [rep.converged for *_, rep in calls]
    assert warm == [False, False, False, True]
    assert len(record) == 3
    for n, warning in zip(N, record):
        match = re.fullmatch(
            r"kress at N=(\d+): GMRES did not converge, relative residual (\S+)",
            str(warning.message),
        )
        assert match and int(match[1]) == n
        assert float(match[2]) > 10 * nystrom.GMRES_TOL
    cold = []
    consts = helmholtz_constants(cfg.kappa)
    for n in N:
        bie = nystrom.assemble_helmholtz(cfg.curve, n, consts)
        rhs = cfg.data.boundary(bie.data.pos)
        cold.append(nystrom.solve_gmres(bie.matrix, rhs).converged)
    assert warm == cold


def test_field_warns_when_gmres_does_not_converge(monkeypatch):
    # a field whose GMRES does not converge says so once, naming the
    # method, N and the residual, and still returns its values
    solve = nystrom.solve_gmres

    def unconverged(A, rhs, tol=nystrom.GMRES_TOL, x0=None):
        return dataclasses.replace(solve(A, rhs, tol, x0=x0), converged=False)

    monkeypatch.setattr(nystrom, "solve_gmres", unconverged)
    cfg = harness.default_helmholtz_config(
        12.5 + 10j, methods=[{"name": "zeta", "K": 2}], N=[64]
    )
    with pytest.warns(RuntimeWarning) as record:
        rows = harness.run_field(cfg, dict(_GRID), N=64)
    assert len(record) == 1
    assert re.fullmatch(
        r"zeta6 at N=64: GMRES did not converge, relative residual \S+",
        str(record[0].message),
    )
    assert len(rows) == _GRID["nx"] * _GRID["ny"]


def test_negative_real_kappa_takes_the_complex_route(monkeypatch):
    # H^(1) at a negative real argument needs the principal branch, which
    # the real Bessel routines (Y of a negative is NaN) do not give.
    raw = {
        "problem": "helmholtz",
        "kappa": -12.5,
        "methods": [{"name": "zeta", "K": 2}],
        "N": [128, 256],
    }
    errs = [row[3] for row in harness.run_convergence(harness.load_config(raw))[0]]
    for name in ("hankel1_array", "bessel_j_array"):
        original = getattr(specfun, name)
        monkeypatch.setattr(
            kernels,
            name,
            lambda order, z, f=original: f(order, np.asarray(z, dtype=complex)),
        )
    forced = [row[3] for row in harness.run_convergence(harness.load_config(raw))[0]]
    assert np.all(np.isfinite(errs))
    assert errs == pytest.approx(forced, rel=1e-9)
    assert errs == pytest.approx([2.6e-4, 2.5e-6], rel=0.02)


def test_run_table1_rejects_stokes():
    cfg = harness.default_stokes_config(N=[64])
    with pytest.raises(harness.ConfigError):
        harness.run_table1(cfg)


def test_run_field_masks_near_points():
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": 5.0,
            "methods": [{"name": "zeta", "K": 2}],
            "N": [64],
        }
    )
    rows = harness.run_field(
        cfg,
        {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0, "nx": 9, "ny": 9},
        N=64,
    )
    assert len(rows) == 81
    masked = [r for r in rows if r[4] == 1]
    clear = [r for r in rows if r[4] == 0]
    assert masked and clear
    assert all(math.isnan(r[2]) for r in masked)
    assert all(math.isfinite(r[2]) for r in clear)
    # (1, 0) sits in a lobe gap within five spacings of the boundary
    ring = [r for r in rows if (r[0], r[1]) == (1.0, 0.0)]
    assert ring and ring[0][4] == 1


def test_run_field_masks_interior_points():
    # the exterior representation is not the solution inside the curve:
    # those points are masked, and every unmasked value is the solution
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": 12.5,
            "methods": [{"name": "zeta", "K": 7}],
            "N": [512],
        }
    )
    rows = np.array(
        harness.run_field(
            cfg,
            {"xmin": -1.2, "xmax": 1.2, "ymin": -1.2, "ymax": 1.2, "nx": 41, "ny": 41},
            N=512,
        )
    )
    pts, mask = rows[:, :2], rows[:, 4]
    clear = mask == 0
    ref = cfg.data.exact(pts[clear])
    vals = rows[clear, 2] + 1j * rows[clear, 3]
    assert clear.sum() > 100
    assert np.abs(vals - ref).max() <= 1e-8 * np.abs(ref).max()
    assert np.all(np.isnan(rows[~clear, 2]))
    # the origin and (0.6, 0) lie inside the star, far from its boundary
    inside = np.hypot(pts[:, 0], pts[:, 1]) < 0.6
    assert inside.any() and np.all(mask[inside] == 1)
    bie = nystrom.assemble_helmholtz(
        cfg.curve, 512, helmholtz_constants(cfg.kappa), stencil=cfg.methods[0].stencil
    )
    with pytest.raises(nystrom.NearFieldError):
        nystrom.eval_helmholtz_potential(
            bie, np.zeros(512, dtype=complex), np.array([[0.6, 0.0]])
        )


def test_masked_helmholtz_rows_are_nan_in_both_columns(tmp_path, capsys):
    # a refused point has no value: Re u and Im u are both NaN, in the rows
    # of run_field and in the CSV of the field command
    raw = {"problem": "helmholtz", "kappa": 5.0, "methods": [{"name": "zeta", "K": 2}]}
    spec = {"xmin": -0.1, "xmax": 0.1, "ymin": -0.1, "ymax": 0.1, "nx": 2, "ny": 2}
    rows = np.array(harness.run_field(harness.load_config(raw), spec, N=128))
    assert np.all(rows[:, 4] == 1)
    assert np.all(np.isnan(rows[:, 2:4]))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    argv = ["field", "--config", str(path), "--N", "128", "--nx", "2", "--ny", "2"]
    argv += ["--xmin", "-0.1", "--xmax", "0.1", "--ymin", "-0.1", "--ymax", "0.1"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,re_u,im_u,mask" and len(lines) == 5
    assert all(line.split(",")[2:] == ["nan", "nan", "1"] for line in lines[1:])


@pytest.mark.parametrize("problem", ["helmholtz", "stokes"])
def test_run_field_walks_the_grid_once(problem, monkeypatch):
    # one pass over the targets gives both the mask and the values; a row is
    # masked where the public evaluator refuses its point, and otherwise holds
    # the evaluator's value
    if problem == "helmholtz":
        cfg = harness.load_config(
            {
                "problem": "helmholtz",
                "kappa": 5.0,
                "methods": [{"name": "zeta", "K": 2}],
                "N": [64],
            }
        )
    else:
        cfg = harness.default_stokes_config(N=[64])
    spec = {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0, "nx": 9, "ny": 9}
    walked = []
    target_slabs = nystrom._target_slabs

    def counted(data, h, targets):
        walked.append(len(targets))
        return target_slabs(data, h, targets)

    monkeypatch.setattr(nystrom, "_target_slabs", counted)
    rows = np.array(harness.run_field(cfg, spec, N=64))
    assert walked == [81]
    monkeypatch.undo()

    pts = rows[:, :2]
    bie = _assembled(cfg, cfg.methods[0], 64)
    rep = harness._solve(cfg, bie)
    if problem == "helmholtz":
        evaluate = nystrom.eval_helmholtz_potential
    else:
        evaluate = nystrom.eval_stokes_velocity

    def accepted(point):
        try:
            evaluate(bie, rep.solution, point)
        except nystrom.NearFieldError:
            return False
        return True

    far = np.array([accepted(p) for p in pts])
    assert far.any() and not far.all()
    np.testing.assert_array_equal(rows[:, 4], np.where(far, 0, 1))
    ref = evaluate(bie, rep.solution, pts[far])
    if problem == "helmholtz":
        ref = np.stack([ref.real, ref.imag], axis=1)
    else:
        ref = ref + np.stack([cfg.data.rate * pts[far, 1], np.zeros(far.sum())], axis=1)
    np.testing.assert_array_equal(rows[far, 2:4], ref)
    assert np.all(np.isnan(rows[~far, 2]))


# --- where a point lies ------------------------------------------------------

_HELM = {"problem": "helmholtz", "kappa": 12.5, "methods": [{"name": "zeta", "K": 7}]}


def test_target_between_lobes_loads_and_runs(tmp_path, capsys):
    # radius 1.1, between two lobes where the curve is at radius 0.7: the old
    # radial bound (radius above the curve's largest, 1.3) refused it, while
    # the evaluator accepts it at N = 256 and 512
    raw = {**_HELM, "targets": [[0.890, 0.647]], "N": [256, 512]}
    assert harness.load_config(raw).targets.tolist() == [[0.890, 0.647]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]  # N = 256, 512
    assert [row.split(",")[:2] for row in rows] == [["256", "zeta16"], ["512", "zeta16"]]
    assert float(rows[-1].split(",")[3]) < 1e-10


def test_target_near_the_curve_exits_2_before_any_fill(tmp_path, capsys, monkeypatch):
    # 0.05 outside the curve: usable at no N of the list; the sweep used to
    # fill N = 256 and solve N = 64 before it refused the target
    def no_fill(*args):
        raise AssertionError("filled a system for a config that cannot run")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_fill)
    raw = {**_HELM, "targets": [[2.0, 0.0], [1.35, 0.0]], "N": [64, 128, 256]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: N=64: target [1.35 0.  ]")
    assert "within 5 grid spacings" in err


def test_sources_are_placed_by_the_winding_number(tmp_path, capsys):
    # (1.0, 0) lies inside a lobe, beyond the curve's smallest radius 0.7,
    # which the old radial bound required of every source
    raw = {**_HELM, "sources": [[1.0, 0.0]], "strengths": [1.0]}
    assert harness.load_config(raw).data.sources.tolist() == [[1.0, 0.0]]
    rows, _ = harness.run_convergence(harness.load_config({**raw, "N": [256, 512]}))
    assert rows[-1][3] < 1e-10
    for outside in ([1.35, 0.0], [0.890, 0.647]):
        raw["sources"] = [[0.1, 0.0], outside]
        raw["strengths"] = [1.0, 1.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: source {np.array(outside)}")


@pytest.mark.parametrize("problem", ["helmholtz", "stokes"])
def test_load_accepts_the_targets_the_field_mask_accepts(problem, monkeypatch):
    # on the 81-point grid of the grid-walk test: a one-target config loads at
    # N exactly when run_field's evaluator accepts that point at N
    raw = {"problem": problem, "methods": [{"name": "zeta", "K": 2}]}
    if problem == "helmholtz":
        raw["kappa"] = 5.0
    spec = {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0, "nx": 9, "ny": 9}
    for N in (64, 128):
        # a Stokes config's targets are checked at the reference N as well
        monkeypatch.setattr(harness, "STOKES_REFERENCE_N", N)
        rows = np.array(harness.run_field(harness.load_config(raw), spec, N=N))

        def loads(point):
            try:
                harness.load_config({**raw, "N": [N], "targets": [point.tolist()]})
            except harness.ConfigError:
                return False
            return True

        accepted = rows[:, 4] == 0
        assert accepted.any() and not accepted.all()
        np.testing.assert_array_equal([loads(p) for p in rows[:, :2]], accepted)


def test_targets_of_data_without_an_exact_field_are_checked_at_the_reference_n(
    monkeypatch,
):
    # a shear-flow sweep is measured against the reference solved at
    # STOKES_REFERENCE_N, so its targets must be usable there as well; (1.7, 0)
    # is 0.4 from the star's tip, beyond 5 spacings at N = 128, within at 32
    monkeypatch.setattr(harness, "STOKES_REFERENCE_N", 32)
    raw = {"methods": [{"name": "zeta", "K": 2}], "N": [128], "targets": [[1.7, 0.0]]}
    harness.load_config({**raw, "problem": "helmholtz", "kappa": 5.0})
    with pytest.raises(harness.ConfigError, match=r"N=32: target \[1.7 0. \]"):
        harness.load_config({**raw, "problem": "stokes"})


# --- stencil-table ingestion ------------------------------------------------


def test_ingest_on_grid_table(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(ON_GRID_TABLE)
    method = harness.ingest_stencil_table(str(p))
    assert method.label == "tabulated6"
    assert method.order == 6.0
    st = method.stencil
    assert st.K == 2
    assert st.kind == "log"
    assert st.weights == (0.9096419217159841, 0.0289516566730613, -0.0014457290795897)
    # a repeated offset adds its weights
    p.write_text("name: twice\norder: 4\ngrid: on\n0 0.5\n2 1e-3\n0 0.25\n")
    assert harness.ingest_stencil_table(str(p)).stencil.weights == (0.75, 0.0, 1e-3)


def test_ingest_off_grid_table_rejected(tmp_path):
    # a parse error anywhere in the file comes first, then the off-grid
    # refusal, then a non-integer or negative offset
    p = tmp_path / "t.txt"
    p.write_text(OFF_GRID_TABLE)
    with pytest.raises(harness.OffGridTableError) as exc:
        harness.ingest_stencil_table(str(p))
    assert "grid: off" in str(exc.value)
    p.write_text(OFF_GRID_TABLE + "2.5 0.1 0.2\n")
    with pytest.raises(harness.StencilTableError, match="line 6") as exc:
        harness.ingest_stencil_table(str(p))
    assert not isinstance(exc.value, harness.OffGridTableError)
    for offset in ("0.5", "-1"):
        p.write_text(f"name: x\norder: 6\ngrid: on\n0 1.0\n{offset} 0.5\n")
        with pytest.raises(harness.StencilTableError, match="non-integer or negative"):
            harness.ingest_stencil_table(str(p))


def test_ingest_parse_errors(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    with pytest.raises(harness.StencilTableError, match="empty"):
        harness.ingest_stencil_table(str(p))
    p.write_text("name: x\norder: six\ngrid: on\n0 1.0\n")
    with pytest.raises(harness.StencilTableError, match="line 2"):
        harness.ingest_stencil_table(str(p))
    p.write_text("name: x\norder: 6\ngrid: maybe\n0 1.0\n")
    with pytest.raises(harness.StencilTableError, match="line 3"):
        harness.ingest_stencil_table(str(p))
    p.write_text("name: x\norder: 6\ngrid: on\n0 1.0 2.0\n")
    with pytest.raises(harness.StencilTableError, match="line 4"):
        harness.ingest_stencil_table(str(p))
    p.write_text("name: x\norder: 6\ngrid: on\n")
    with pytest.raises(harness.StencilTableError, match="no weight rows"):
        harness.ingest_stencil_table(str(p))
    p.write_text("order: 6\ngrid: on\n0 1.0\n")
    with pytest.raises(harness.StencilTableError, match="header"):
        harness.ingest_stencil_table(str(p))


def test_external_method_matches_zeta(tmp_path):
    # a table holding the converged order-6 weights reproduces zeta6 exactly
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": 5.0,
            "methods": [
                {"name": "external", "table": _table_of(tmp_path, "mirror6", 2)},
                {"name": "zeta", "K": 2},
            ],
            "N": [64],
        }
    )
    rows, _ = harness.run_convergence(cfg)
    assert abs(rows[0][3] - rows[1][3]) <= 1e-14


def test_external_table_runs_on_stokes(tmp_path, monkeypatch, capsys):
    # a Stokes config with an external table passed load_config and then
    # ended in an AssemblyError traceback; the stencil alone picks the
    # rule, so a table of the zeta6 weights gives zeta6's numbers bit for bit
    monkeypatch.setattr(harness, "STOKES_REFERENCE_N", 384)
    raw = {
        "problem": "stokes",
        "methods": [
            {"name": "external", "table": _table_of(tmp_path, "mirror6", 2)},
            {"name": "zeta", "K": 2},
        ],
        "N": [64, 96, 128],
    }
    rows, eoc_rows = harness.run_convergence(harness.load_config(raw))
    external = [(r[0], "zeta6", *r[2:4]) for r in rows if r[1] == "mirror6"]
    assert len(external) == 3
    assert external == [r[:4] for r in rows if r[1] == "zeta6"]
    assert [r[0] for r in eoc_rows] == ["mirror6", "zeta6"]
    np.testing.assert_equal(eoc_rows[0][1:], eoc_rows[1][1:])
    assert eoc_rows[0][2] > 3.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7 + 3
    argv = ["field", "--config", str(path), "--N", "64", "--nx", "3", "--ny", "3"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,u1,u2,mask" and len(lines) == 1 + 9


# --- CLI --------------------------------------------------------------------


def test_cli_weights(capsys):
    assert cli.main(["weights", "--K", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "0 8.884900761462795e-01"
    assert out[1] == "1 3.044845705839327e-02"
    assert out[2] == "# order 4"


def test_cli_weights_usage_errors(capsys):
    assert cli.main(["weights"]) == 2
    assert cli.main(["weights", "--kind", "pow", "--z", "0.5"]) == 2
    assert cli.main(["weights", "--K", "1", "--kind", "pow"]) == 2
    assert cli.main(["weights", "--K", "1", "--z", "0.5"]) == 2
    assert cli.main(["weights", "--K", "99"]) == 2
    assert cli.main(["no-such-command"]) == 2


def test_cli_weights_pow(capsys):
    assert cli.main(["weights", "--K", "0", "--kind", "pow", "--z", "0.5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert abs(float(out[0].split()[1]) - 1.4603545088095868) <= 1e-13
    assert out[-1] == "# order 2.5"


def test_cli_convergence_and_outputs(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(
        json.dumps(
            {
                "problem": "helmholtz",
                "kappa": 5.0,
                "methods": [{"name": "zeta", "K": 2}],
                "N": [64, 128],
            }
        )
    )
    outp = tmp_path / "sweep.csv"
    assert cli.main(["convergence", "--config", str(cfgp), "--out", str(outp)]) == 0
    capsys.readouterr()
    lines = outp.read_text().strip().splitlines()
    assert lines[0] == "N,method,order,max_rel_error,assemble_s,solve_s"
    assert len(lines) == 3
    eoc_lines = (tmp_path / "sweep_eoc.csv").read_text().strip().splitlines()
    assert eoc_lines[0] == "method,order,eoc,fit_window"
    assert len(eoc_lines) == 2


@pytest.mark.parametrize(
    "out, eoc", [("./rows", "rows_eoc.csv"), ("runs.v2/rows", "runs.v2/rows_eoc.csv")]
)
def test_cli_convergence_eoc_file_sits_beside_the_rows(out, eoc, tmp_path, monkeypatch):
    # the EOC file is the rows file with its extension, if any, replaced:
    # a dot in a directory name or a leading ./ is not an extension
    (tmp_path / "runs.v2").mkdir()
    cfgp = tmp_path / "cfg.json"
    raw = {"problem": "helmholtz", "kappa": 5.0, "methods": ["kress"], "N": [64, 96]}
    cfgp.write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["convergence", "--config", str(cfgp), "--out", out]) == 0
    assert (tmp_path / out).read_text().startswith("N,method,")
    assert (tmp_path / eoc).read_text().startswith("method,order,eoc,fit_window")
    assert not (tmp_path / "_eoc.csv").exists()
    assert not (tmp_path / "runs_eoc.csv").exists()


def test_cli_convergence_config_errors(tmp_path, capsys):
    assert cli.main(["convergence"]) == 2
    assert cli.main(["convergence", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "poisson"}))
    assert cli.main(["convergence", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    # a stencil too wide for N, an odd N for Kress and Im kappa < 0 are
    # config errors: exit 2 with a message, no traceback
    def config(**fields):
        path = tmp_path / "cfg.json"
        raw = {"problem": "helmholtz", "kappa": 5.0, "N": [64], **fields}
        path.write_text(json.dumps(raw))
        return str(path)

    bad = [
        config(methods=[{"name": "zeta", "K": 20}], N=[32]),
        config(methods=["kress"], N=[64, 65]),
        config(kappa=[12.5, -10.0]),
    ]
    for path in bad:
        assert cli.main(["convergence", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error:")
    good = config(methods=[{"name": "zeta", "K": 20}, "kress"])
    for argv in (
        ["table1", "--config", good, "--N", "32"],
        ["table1", "--config", good, "--N", "65"],
        ["field", "--config", good, "--N", "41", "--nx", "2", "--ny", "2"],
    ):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")


def test_too_few_points_per_wavelength_exit_2(tmp_path, capsys):
    # kappa = 500 at N = 64 is 0.09 nodes per wavelength on the star: it
    # returned a relative error of 1.03 with exit 0 before the check
    with pytest.raises(harness.ConfigError, match="points per wavelength"):
        harness.load_config({"problem": "helmholtz", "kappa": 500.0, "N": [64]})
    # the smallest N decides, and Re kappa sets the wavelength
    star = harness.load_config({"problem": "helmholtz", "kappa": 5.0}).curve
    t = np.linspace(0, star.period, 512, endpoint=False)
    length = star.period * np.mean(sample(star, t).speed)
    kappa = 2 * math.pi * 64 / (2 * length)  # 2 points per wavelength at N = 64
    raw = {"problem": "helmholtz", "N": [64]}
    harness.load_config({**raw, "kappa": [0.99 * kappa, 5.0]})
    with pytest.raises(harness.ConfigError, match="points per wavelength"):
        harness.load_config({**raw, "kappa": 1.01 * kappa, "N": [128, 64]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "helmholtz", "kappa": 500.0, "N": [64]}))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert "points per wavelength" in capsys.readouterr().err
    # the --N of table1 and field is held to the same rule
    path.write_text(json.dumps({"problem": "helmholtz", "kappa": 60.0, "N": [256]}))
    for argv in (
        ["table1", "--config", str(path), "--N", "64"],
        ["field", "--config", str(path), "--N", "64", "--nx", "2", "--ny", "2"],
    ):
        assert cli.main(argv) == 2
        assert "points per wavelength" in capsys.readouterr().err


@pytest.mark.parametrize("small", [False, True])
def test_benchmark_configs_load(small, monkeypatch):
    # the three perfbench workloads, at full and self-test size, pass every
    # config check (the points-per-wavelength one included)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    assert len(workloads.WORKLOADS) == 3
    for workload in workloads.WORKLOADS.values():
        raw = workload(seed=1, small=small).config()
        assert harness.load_config(raw).n_list == tuple(raw["N"])
    if not small:
        return
    # setup() loads the config and, for the weight fault, replaces its
    # methods on a copy; cfg.kappa is the config's wavenumber, None for Stokes
    for workload in workloads.WORKLOADS.values():
        raw = workload(seed=1, small=True).config()
        kappa = None if "kappa" not in raw else complex(*raw["kappa"])
        for fault in (None, "weight"):
            run = workload(seed=1, small=True, fault=fault)
            run.setup()
            assert run.cfg.kappa == kappa
            clean = harness.load_config(raw).methods
            assert (run.cfg.methods == clean) == (fault is None)


def test_cli_table1_over_the_svd_budget_exits_2(tmp_path, capsys, monkeypatch):
    # a system larger than the dense SVD budget is refused before assembly
    def no_assembly(*args):
        raise AssertionError("table1 assembled a system over the SVD budget")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_assembly)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "helmholtz", "kappa": 5.0}))
    N = nystrom.COND_MAX_DIM + 2
    assert cli.main(["table1", "--config", str(path), "--N", str(N)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["convergence", "table1", "field"])
def test_cli_unwritable_out_exits_2_before_any_fill(
    command, tmp_path, capsys, monkeypatch
):
    # an --out in a missing directory ran the whole job and then ended in a
    # FileNotFoundError traceback with exit 1; it is refused before the fill
    def no_fill(*args):
        raise AssertionError(f"{command} filled a system it could not write")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_fill)
    path = tmp_path / "cfg.json"
    raw = {"problem": "helmholtz", "kappa": 5.0, "N": [64]}
    path.write_text(json.dumps({**raw, "methods": [{"name": "zeta", "K": 2}]}))
    out = tmp_path / "missing" / "out.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out")
    assert not out.parent.exists()


def test_cli_refused_run_leaves_existing_out_untouched(tmp_path, capsys):
    # the refusal comes after the config loads, and the file is not opened
    path = tmp_path / "cfg.json"
    raw = {"problem": "helmholtz", "kappa": 5.0, "N": [64]}
    path.write_text(json.dumps({**raw, "methods": [{"name": "zeta", "K": 20}]}))
    out = tmp_path / "cond.csv"
    out.write_bytes(b"an earlier table\n")
    argv = ["table1", "--config", str(path), "--N", "32", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert out.read_bytes() == b"an earlier table\n"


def test_cli_stokes_kress_is_a_config_error(tmp_path, capsys):
    # nystrom's rule check refuses it at config load
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "stokes", "methods": ["kress"], "N": [64]}))
    with pytest.raises(harness.ConfigError, match="Helmholtz only"):
        harness.load_config(str(path))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Helmholtz only" in err


def test_memory_budget_refuses_large_n(tmp_path, capsys, monkeypatch):
    # one dense system may take MAX_SYSTEM_BYTES: 16 N^2 bytes for
    # Helmholtz, 32 N^2 for Stokes. N = 20000 (6.4 GB for Helmholtz) exits
    # 2 from the config's N and from the --N of table1 and field, before
    # anything is assembled.
    def no_assembly(*args):
        raise AssertionError("assembled a system over the memory budget")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_assembly)
    assert harness.MAX_SYSTEM_BYTES == 2 * 2**30
    for raw, largest in (
        ({"problem": "helmholtz", "kappa": 5.0}, 11585),
        ({"problem": "stokes"}, 8192),
    ):
        problem = raw["problem"]
        harness.load_config({**raw, "N": [64, largest]})
        with pytest.raises(harness.ConfigError, match="budget"):
            harness.load_config({**raw, "N": [64, largest + 1]})
        path = tmp_path / f"{problem}.json"
        path.write_text(json.dumps({**raw, "N": [64, 20000]}))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        assert "budget" in capsys.readouterr().err
        path.write_text(json.dumps({**raw, "N": [64]}))
        for argv in (
            ["table1", "--config", str(path), "--N", "20000"],
            ["field", "--config", str(path), "--N", "20000", "--nx", "2", "--ny", "2"],
        ):
            if problem == "stokes" and argv[0] == "table1":
                continue  # table1 is a Helmholtz experiment
            assert cli.main(argv) == 2
            assert "budget" in capsys.readouterr().err
    # the Stokes reference and the largest table1 system fit
    assert 32 * harness.STOKES_REFERENCE_N**2 <= harness.MAX_SYSTEM_BYTES
    assert 16 * nystrom.COND_MAX_DIM**2 <= harness.MAX_SYSTEM_BYTES


def test_sweep_budget_counts_what_the_sweep_holds(tmp_path, capsys, monkeypatch):
    # N = 5792 and 11584 each fit the budget alone, but the sweep holds the
    # N = 11584 fill while it measures the N = 5792 slice: 2.5 GiB. The
    # config loads; its sweep is refused before any fill, with exit 2
    def no_assembly(*args):
        raise AssertionError("assembled a sweep over the memory budget")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_assembly)
    raw = {
        "problem": "helmholtz",
        "kappa": 5.0,
        "methods": [{"name": "zeta", "K": 2}],
        "N": [5792, 11584],
    }
    cfg = harness.load_config(raw)
    with pytest.raises(harness.ConfigError, match=r"5792, 11584.*budget"):
        harness.run_convergence(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert "budget" in capsys.readouterr().err
    # the N_max fill and the largest other system; with Kress, each fill
    # keeps its factor, 16 bytes a pair, and a slice's is a view of N_max's
    zeta = cfg.methods[0].stencil
    helm, stokes = cfg.data.kernel(), kernels.stokes_combined()
    held = nystrom.held_bytes
    assert held(helm, [5792, 11584], [zeta]) == 16 * (5792**2 + 11584**2)
    assert held(helm, [128, 256, 512, 1024], [zeta, None]) == 16 * (
        2 * 1024**2 + 512**2
    )
    assert held(helm, [384, 512, 1024], [zeta, None]) == 32 * (1024**2 + 384**2)
    assert held(helm, [8192], [None]) == harness.MAX_SYSTEM_BYTES
    assert held(stokes, [256, 384, 512], [zeta]) == 32 * (512**2 + 384**2)
    # with no N to slice, one system at a time, as before
    assert held(stokes, [96, 128], [zeta]) == 32 * 128**2
    assert held(helm, [11585], [zeta]) == 16 * 11585**2
    # a real scalar kernel's systems and factors take 8 bytes an entry
    assert held(kernels.laplace_s(), [64, 128], [zeta, None]) == 8 * (
        2 * 128**2 + 64**2
    )


def test_kress_budget_counts_the_kept_factor(tmp_path, capsys, monkeypatch):
    # a Kress fill keeps phi*speed beside its matrix, 32 N^2 bytes at one
    # N: N = 8192 takes the whole budget and reaches the fill, N = 8194
    # (16 N^2 alone would fit) exits 2 before it
    def no_assembly(*args):
        raise AssertionError("filled")

    monkeypatch.setattr(quadrature, "_ptr_fill", no_assembly)
    raw = {"problem": "helmholtz", "kappa": 5.0, "methods": ["kress"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "N": [8192]}))
    harness.load_config({**raw, "N": [8192]})
    with pytest.raises(AssertionError, match="filled"):
        cli.main(["convergence", "--config", str(path)])
    with pytest.raises(harness.ConfigError, match="budget"):
        harness.load_config({**raw, "N": [8194]})
    path.write_text(json.dumps({**raw, "N": [8194]}))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert "budget" in capsys.readouterr().err
    path.write_text(json.dumps({**raw, "N": [64]}))
    argv = ["field", "--config", str(path), "--N", "8194", "--nx", "2", "--ny", "2"]
    assert cli.main(argv) == 2
    assert "budget" in capsys.readouterr().err


def test_n_list_must_ascend_strictly(tmp_path, capsys):
    # N = [128, 128, 256] exited 0 with its EOC fitted on 128;128;256: three
    # points from two grids
    raw = {"problem": "helmholtz", "kappa": 5.0, "methods": [{"name": "zeta", "K": 2}]}
    harness.load_config({**raw, "N": [128, 256]})
    for n_list in ([128, 128, 256], [256, 128], [128, 256, 192]):
        with pytest.raises(harness.ConfigError, match=re.escape(str(n_list))):
            harness.load_config({**raw, "N": n_list})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "N": [128, 128, 256]}))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert "ascend" in capsys.readouterr().err


def test_kappa_floor_is_the_low_frequency_breakdown():
    # MIN_KAPPA = 1e-6 stays the floor of a config; with the coupling
    # eta = max(Re kappa, 1) a sweep at the floor converges without a
    # warning and its finest error is at rounding (4.2e-16 at N = 256)
    assert harness.MIN_KAPPA == 1e-6
    raw = {"problem": "helmholtz", "methods": [{"name": "zeta", "K": 7}]}
    for kappa in (0.99e-6, [0.0, 0.99e-6], [0.7e-6, 0.7e-6], 1e-300):
        with pytest.raises(harness.ConfigError, match="low frequency"):
            harness.load_config({**raw, "kappa": kappa, "N": [64]})
    for kappa in (1e-6, [0.0, 1e-6]):
        cfg = harness.load_config({**raw, "kappa": kappa, "N": [128, 256]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, _ = harness.run_convergence(cfg)
        assert rows[-1][3] <= 1e-13
    harness.load_config({**raw, "kappa": [0.0, 1.01e-6], "N": [64]})


def test_cli_ingest_check(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(ON_GRID_TABLE)
    assert cli.main(["ingest-check", str(good)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name: tabulated6"
    assert out[1] == "order: 6"
    assert out[2] == "grid: on"
    assert out[3].startswith("0 9.096419217159841")

    off = tmp_path / "off.txt"
    off.write_text(OFF_GRID_TABLE)
    assert cli.main(["ingest-check", str(off)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("not supported:")

    assert cli.main(["ingest-check", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


# --- input contract -----------------------------------------------------------


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize(
    "field", ["sources", "strengths", "targets", "kappa", "shear_rate"]
)
def test_non_finite_config_values_exit_2(field, bad, tmp_path, capsys):
    # a NaN source used to run to a max relative error of 1.53 with exit 0,
    # an inf target to end in a NearFieldError traceback
    raw = {
        "problem": "helmholtz",
        "kappa": 5.0,
        "N": [32],
        "methods": [{"name": "zeta", "K": 2}],
        "sources": [[0.1, 0.0], [0.0, 0.2]],
        "strengths": [1.0, 0.5],
        "targets": [[2.0, 0.0], [0.0, 2.5]],
    }
    if field == "shear_rate":  # a Stokes key, on a Stokes config
        for key in ("kappa", "sources", "strengths"):
            del raw[key]
        raw["problem"] = "stokes"
    if field == "kappa":
        raw["kappa"] = bad
    elif field == "shear_rate":
        raw["shear_rate"] = bad
    elif field == "strengths":
        raw["strengths"] = [1.0, bad]
    else:
        raw[field][1][0] = bad
    with pytest.raises(harness.ConfigError, match=field):
        harness.load_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"problem": "stokes", "shear_rate": [5.0]}, "shear_rate"),
    ],
)
def test_one_element_list_for_a_scalar_field_exits_2(raw, field, tmp_path, capsys):
    # numpy refuses float() of a 1-d array: these ended in a TypeError
    # traceback with exit 1
    with pytest.raises(harness.ConfigError, match=f"{field} must be a single number"):
        harness.load_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_non_list_kappa_must_be_a_scalar():
    # [re, im] is the one list form; any other array is refused
    with pytest.raises(harness.ConfigError, match="kappa must be a single number"):
        harness.load_config({"problem": "helmholtz", "kappa": np.array([12.5])})


def test_config_rejects_empty_zero_and_malformed_values():
    # at N = 64, where the default targets are usable, so that zero
    # strengths reach the check of a vanishing known solution
    base = {
        "problem": "helmholtz",
        "kappa": 5.0,
        "N": [64],
        "methods": [{"name": "zeta", "K": 1}],
    }
    for fields in (
        {"sources": []},
        {"targets": []},
        {"sources": [0.1, 0.2]},
        {"strengths": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]},
        {"strengths": [0.0, 0.0, 0.0]},
        {"kappa": 0.0},
        {"kappa": 2.225073858507203e-309},  # H1(kappa r) overflows: inf * 0
        {"kappa": [12.5]},
        {"kappa": None},
        {"N": []},
        {"N": [math.inf]},
        {"methods": [{"name": "zeta", "K": math.inf}]},
    ):
        with pytest.raises(harness.ConfigError):
            harness.load_config({**base, **fields})
    stokes = {"problem": "stokes", "N": [64], "shear_rate": 0.0}
    with pytest.raises(harness.ConfigError, match="shear_rate must be nonzero"):
        harness.load_config(stokes)


def test_malformed_curve_and_method_entries_exit_2(tmp_path, capsys):
    # a non-object curve or methods entry, and a string radius, ended in an
    # AttributeError or TypeError traceback with exit 1; a NaN base passed
    # config load and failed later with a near-field message; a numeric
    # string ran as its number with exit 0, and an integer beyond the float
    # range ended in an OverflowError traceback
    base = {"problem": "helmholtz", "kappa": 5.0, "N": [64]}
    for fields, word in (
        ({"curve": 5}, "curve"),
        ({"curve": [1, 2]}, "curve"),
        ({"curve": {"type": "circle", "radius": "inf"}}, "radius"),
        ({"curve": {"type": "star", "base": "1.0"}}, "base"),
        ({"curve": {"type": "star", "lobes": "5"}}, "lobes"),
        ({"curve": {"type": "circle", "radius": "1"}}, "radius"),
        ({"curve": {"type": "circle", "radius": 10**400}}, "radius"),
        ({"curve": {"type": "star", "base": math.nan}}, "base"),
        ({"curve": {"type": "star", "amplitude": math.inf}}, "amplitude"),
        ({"curve": {"type": "star", "lobes": 2.5}}, "lobes"),
        # cos(-5t) = cos(5t): the radius reaches 1 - 1.5
        ({"curve": {"type": "star", "amplitude": 1.5, "lobes": -5}}, "radius"),
        ({"methods": [5]}, "methods"),
        ({"methods": [["zeta", 2]]}, "methods"),
        ({"methods": "kress"}, "methods"),
        ({"methods": [{"name": "external", "table": 5}]}, "table"),
    ):
        raw = {**base, **fields}
        with pytest.raises((harness.ConfigError, InvalidGeometryError), match=word):
            harness.load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and word in err


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    # each key was ignored and its field's default run, with exit 0: the first
    # config ran zeta16 over N = 64...512, the second zeta6, the third a unit
    # circle
    base = {"problem": "helmholtz", "kappa": 12.5, "N": [64]}
    for fields, key in (
        ({"N": None, "method": [{"name": "kress"}], "n": [64]}, "method"),
        ({"methods": [{"name": "zeta", "K": 2, "oder": 8}]}, "oder"),
        ({"curve": {"type": "circle", "base": 2.0}}, "base"),
        ({"curve": {"type": "star", "radius": 2.0}}, "radius"),
        ({"methods": [{"name": "kress", "K": 2}]}, "K"),
        ({"methods": [{"name": "external", "table": "t.txt", "order": 6}]}, "order"),
    ):
        raw = {k: v for k, v in {**base, **fields}.items() if v is not None}
        match = f"unknown key '{key}'"
        with pytest.raises((harness.ConfigError, InvalidGeometryError), match=match):
            harness.load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and match in err
    # a config that is not an object ended in an AttributeError traceback
    path.write_text("[1, 2]")
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err


_STOKES = {"problem": "stokes", "methods": [{"name": "zeta", "K": 2}], "N": [64]}


@pytest.mark.parametrize(
    "raw, key",
    [
        ({**_STOKES, "kappa": 5.0}, "kappa"),
        ({**_STOKES, "sources": [[0.1, 0.0]]}, "sources"),
        ({**_STOKES, "strengths": [1.0]}, "strengths"),
        (
            {
                "problem": "stokes",
                "kappa": "abc",
                "sources": [[5.0, 0.0]],
                "N": [64],
            },
            "kappa",
        ),
        ({**_HELM, "N": [64], "shear_rate": 0.0}, "shear_rate"),
        ({"problem": "helmholtz", "kappa": 5.0, "shear_rate": [5.0]}, "shear_rate"),
    ],
    ids=[
        "stokes-kappa",
        "stokes-sources",
        "stokes-strengths",
        "stokes-helmholtz-keys",
        "helmholtz-shear_rate",
        "helmholtz-shear_rate-list",
    ],
)
def test_a_key_of_the_other_problem_exits_2(raw, key, tmp_path, capsys):
    # each problem reads its own boundary data: every one of these loaded,
    # and the key was ignored
    match = f"{raw['problem']} config: unknown key '{key}'"
    with pytest.raises(harness.ConfigError, match=match):
        harness.load_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {match}\n"
    # without the other problem's keys the config loads
    other = {"helmholtz": harness.ShearFlow, "stokes": harness.PointSources}
    harness.load_config({k: v for k, v in raw.items() if k not in other[raw["problem"]].keys})


def test_readme_configs_use_only_known_keys():
    # every JSON config the README shows loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    configs = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert configs
    for text in configs:
        harness.load_config(text)


def _readme_block(after: str, fence: str) -> str:
    # the first fenced block of kind ``fence`` after the line ``after``
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    pattern = rf"^{re.escape(after)}$.*?```{fence}\n(.*?)```"
    return re.search(pattern, readme, re.S | re.M)[1]


def test_readme_examples_run():
    # the Quick start, the JSON config's sweep and every CLI line
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_readme_block("## Quick start", "python"), {})
    assert float(out.getvalue()) < 1e-12
    after = "Config files are JSON; minimal Helmholtz example:"
    cfg = harness.load_config(_readme_block(after, "json"))
    with pytest.warns(RuntimeWarning) as record:
        rows, _ = harness.run_convergence(cfg)
    # as the README says, Kress at kappa = 12.5+10i warns at every N
    warned = {str(w.message).split(":")[0] for w in record}
    assert warned == {f"kress at N={n}" for n in cfg.n_list}
    zeta = [r for r in rows if r[1] == "zeta16"]
    assert len(rows) == 8 and zeta[-1][3] < 1e-11
    lines = _readme_block("### CLI", "").splitlines()
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "zetatrap"
        cli.build_parser().parse_args(argv[1:])


def test_second_spellings_of_kappa_and_k_exit_2(tmp_path, capsys):
    # kappa is read only from "kappa" and a zeta rule only from "K": a
    # config with "wavelengths" or a zeta "order", and weights --order,
    # each ran with exit 0
    base = {"problem": "helmholtz", "N": [64], "methods": [{"name": "zeta", "K": 2}]}
    path = tmp_path / "cfg.json"
    for raw, line in (
        ({**base, "wavelengths": 2.0}, "helmholtz config: unknown key 'wavelengths'"),
        (
            {**base, "kappa": 5.0, "methods": [{"name": "zeta", "order": 6}]},
            "zeta method: unknown key 'order'",
        ),
    ):
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
    # argparse reports a missing required flag before an unknown one
    assert cli.main(["weights", "--order", "16"]) == 2
    assert "required: --K" in capsys.readouterr().err
    assert cli.main(["weights", "--K", "7", "--order", "16"]) == 2
    assert "unrecognized arguments: --order 16" in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["helmholtz", "stokes"])
def test_the_problem_is_stored_once_on_its_data(problem):
    raw = {"problem": problem, "N": [64], "methods": [{"name": "zeta", "K": 2}]}
    if problem == "helmholtz":
        raw["kappa"] = 5.0
    cfg = harness.load_config(raw)
    assert cfg.problem == type(cfg.data).problem == problem
    fields = [f.name for f in dataclasses.fields(cfg)]
    assert fields == ["curve", "data", "methods", "n_list", "targets"]
    with pytest.raises(AttributeError):
        cfg.problem = "stokes"
    assert dataclasses.replace(cfg, methods=cfg.methods * 2).problem == problem


@pytest.mark.parametrize("problem", [["helmholtz"], {"a": 1}, "poisson"])
def test_a_problem_that_is_not_a_name_exits_2(problem, tmp_path, capsys):
    # a lookup by an unhashable value would end in a TypeError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": problem, "kappa": 5.0}))
    assert cli.main(["convergence", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: problem must be")


def test_integer_fields_are_not_truncated(tmp_path, capsys):
    # "K": 2.5 ran zeta6, "N": [64.7] ran N = 64 and "K": true ran zeta4,
    # each with exit 0
    base = {"problem": "helmholtz", "kappa": 5.0, "N": [64]}
    for fields in (
        {"methods": [{"name": "zeta", "K": 2.5}]},
        {"methods": [{"name": "zeta", "K": True}]},
        {"N": [64.7]},
        {"N": [False]},
        {"N": ["64"]},
    ):
        raw = {**base, **fields}
        with pytest.raises(harness.ConfigError, match="integer"):
            harness.load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        assert "integer" in capsys.readouterr().err
    # a float without a fractional part is the integer it spells
    methods = [{"name": "zeta", "K": 2.0}]
    cfg = harness.load_config({**base, "N": [64.0], "methods": methods})
    assert cfg.n_list == (64,) and type(cfg.n_list[0]) is int
    assert cfg.methods[0].label == "zeta6"
    with pytest.raises(harness.ConfigError, match="integer"):
        harness.run_field(cfg, {**_GRID, "nx": 2.5}, N=64)


def test_bool_and_string_numbers_exit_2(tmp_path, capsys):
    # numpy read true as 1 and "12.5" as 12.5: each of these ran with exit 0
    base = {"problem": "helmholtz", "kappa": 5.0, "N": [64]}
    for fields, word in (
        ({"kappa": True}, "kappa"),
        ({"kappa": "12.5"}, "kappa"),
        ({"kappa": [True, False]}, "kappa"),
        ({"strengths": [True, True, True]}, "strengths"),
        ({"sources": [["0.1", "0.2"]], "strengths": [1.0]}, "sources"),
        ({"targets": [[True, 2.0], [2.5, False]]}, "targets"),
        ({"problem": "stokes", "kappa": None, "shear_rate": True}, "shear_rate"),
        ({"problem": "stokes", "kappa": None, "shear_rate": "5"}, "shear_rate"),
    ):
        raw = {k: v for k, v in {**base, **fields}.items() if v is not None}
        with pytest.raises(harness.ConfigError, match=word):
            harness.load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["convergence", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and word in err
    # Python complex strengths, as a dict config may pass them, still load
    strengths = [1 + 1j, 0.5, 2j]
    cfg = harness.load_config({**base, "strengths": strengths})
    assert cfg.data.strengths.tolist() == strengths


_GRID = {"nx": 2, "ny": 2, "xmin": 2.0, "xmax": 3.0, "ymin": -1.0, "ymax": 1.0}


def _field_argv(path, **grid):
    spec = {**_GRID, **grid}
    argv = ["field", "--config", path, "--N", "32"]
    return argv + [f"--{key}={value}" for key, value in spec.items()]


def test_field_grid_is_validated(tmp_path, capsys):
    # --nx -1 used to end in numpy's ValueError traceback, --xmin nan to
    # write all-NaN rows with exit 0
    path = tmp_path / "cfg.json"
    raw = {"problem": "helmholtz", "kappa": 5.0, "methods": [{"name": "zeta", "K": 2}]}
    path.write_text(json.dumps(raw))
    cfg = harness.load_config(str(path))
    for grid in (
        {"nx": -1},
        {"ny": 0},
        {"xmin": math.nan},
        {"ymax": math.inf},
        {"ymin": -math.inf},
    ):
        with pytest.raises(harness.ConfigError):
            harness.run_field(cfg, {**_GRID, **grid}, N=32)
        assert cli.main(_field_argv(str(path), **grid)) == 2
        assert capsys.readouterr().err.startswith("config error:")
    assert cli.main(_field_argv(str(path))) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


def test_field_grid_over_the_memory_budget_exits_2_before_it_is_made(tmp_path, capsys):
    # run_field made every point and row of a grid: 10^10 points would take
    # about 2 TB, and the run died with a MemoryError or was killed
    cfg = harness.default_stokes_config(N=[64])
    tracemalloc.start()
    try:
        with pytest.raises(harness.ConfigError, match="100000 x 100000 points"):
            harness.run_field(cfg, {**_GRID, "nx": 100000, "ny": 100000}, N=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "stokes", "N": [64]}))
    assert cli.main(_field_argv(str(path), nx=100000, ny=100000)) == 2
    assert capsys.readouterr().err.startswith("config error: a field grid of")


def test_field_grid_budget_covers_what_a_run_holds():
    # the bound's 224 bytes a point against the peak of a 300 x 300 grid
    cfg = harness.default_stokes_config(N=[64])
    grid = {**_GRID, "nx": 300, "ny": 300}
    tracemalloc.start()
    try:
        rows = harness.run_field(cfg, grid, N=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 300 * 300 and peak < 224 * len(rows)


@pytest.mark.parametrize("key", sorted(_GRID))
def test_run_field_refuses_a_grid_spec_without_a_key(key):
    cfg = harness.default_stokes_config(N=[64])
    spec = {k: v for k, v in _GRID.items() if k != key}
    with pytest.raises(harness.ConfigError, match=f"lacks {key}$"):
        harness.run_field(cfg, spec, N=64)


@pytest.mark.parametrize("kappa", [12.5, 12.5 + 10j])
def test_run_field_builds_the_combined_kernel_once(kappa, monkeypatch):
    # the evaluator sums the kernel the system was assembled from; at
    # complex kappa a second kernel would build a second Hankel table. The
    # kernels built to check the config and size the run build none
    built = []
    hankel01 = kernels.Hankel01

    def counted(k):
        built.append(k)
        return hankel01(k)

    monkeypatch.setattr(kernels, "Hankel01", counted)
    cfg = harness.default_helmholtz_config(kappa, methods=[{"name": "zeta", "K": 2}])
    rows = harness.run_field(cfg, dict(_GRID), N=64)
    assert built == [cfg.kappa]
    assert all(r[4] == 0 for r in rows)


_SPECIAL = [math.nan, math.inf, -math.inf, -1.5, 0.0]
_number = hst.one_of(hst.sampled_from(_SPECIAL), hst.floats(-4.0, 4.0))
# a bool or a numeric string where a number belongs
_leaf = hst.one_of(_number, hst.sampled_from([True, False, "12.5"]))
_point = hst.lists(_leaf, min_size=0, max_size=3)
_points = hst.one_of(hst.just([]), hst.lists(_point, min_size=1, max_size=3))
# a scalar field also drawn as a one-element list, which is refused
_scalar = hst.one_of(_leaf, hst.lists(_leaf, min_size=1, max_size=1))
_method = hst.one_of(
    hst.just("kress"),
    hst.fixed_dictionaries(
        {"name": hst.just("zeta"), "K": hst.sampled_from([-1, 0, 1, 2, 1.5, True])}
    ),
    hst.sampled_from([5, None, [1, 2], "galerkin", {}]),
)
_curve = hst.one_of(
    _number,
    hst.lists(_number, max_size=2),
    hst.fixed_dictionaries(
        {"type": hst.just("circle")},
        optional={"radius": hst.one_of(_number, hst.just("inf"))},
    ),
    hst.fixed_dictionaries(
        {"type": hst.just("star")},
        optional={
            "base": _number,
            "amplitude": _number,
            "lobes": hst.sampled_from([-5, 0, 3, 2.5, math.nan, "5"]),
        },
    ),
)
_common = {
    "targets": _points,
    "N": hst.lists(hst.sampled_from([-16, 0, 16, 17, 24, 32]), max_size=2),
    "methods": hst.one_of(hst.lists(_method, min_size=0, max_size=2), _number),
    "curve": _curve,
}
# the keys each problem's boundary data reads
_read = {
    "helmholtz": {
        "kappa": hst.one_of(_leaf, hst.lists(_leaf, min_size=0, max_size=3)),
        "sources": _points,
        "strengths": hst.lists(_leaf, min_size=0, max_size=3),
    },
    "stokes": {"shear_rate": _scalar},
}


def _config_of(problem):
    # a config of the problem's own keys, in about half the examples with
    # keys that only the other problem reads
    foreign = {k: v for p, keys in _read.items() if p != problem for k, v in keys.items()}
    return hst.builds(
        lambda own, other: {**own, **other},
        hst.fixed_dictionaries(
            {"problem": hst.just(problem)}, optional={**_common, **_read[problem]}
        ),
        hst.one_of(hst.just({}), hst.fixed_dictionaries({}, optional=foreign)),
    )


_config = hst.one_of(_config_of("helmholtz"), _config_of("stokes"))


def _not_a_number(value) -> bool:
    if isinstance(value, list):
        return any(_not_a_number(v) for v in value)
    return isinstance(value, (bool, str))


def _run_cli(argv):
    # cli.main must return its exit code: a traceback fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


@settings(max_examples=80, deadline=None)
@given(raw=_config)
def test_fuzzed_configs_exit_0_or_2(raw):
    # random configs with NaN, inf, negative, zero and empty values, at tiny
    # sizes: the Stokes reference is computed at N = 64, not 2000
    small_reference = mock.patch.object(harness, "STOKES_REFERENCE_N", 64)
    with tempfile.TemporaryDirectory() as tmp, small_reference:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(raw, fh)
        argv = ["convergence", "--config", path, "--out", f"{tmp}/out.csv"]
        code = _run_cli(argv)
    assert code in (0, 2)
    # a key that the config's problem does not read is refused
    read = ["targets", *_read[raw["problem"]]]
    if any(key not in ["problem", *_common, *read] for key in raw):
        assert code == 2
    # so is a bool or a string in a field the config reads
    if any(_not_a_number(raw[field]) for field in read if field in raw):
        assert code == 2
    # so is a list in a scalar field
    if isinstance(raw.get("shear_rate"), list) and "shear_rate" in read:
        assert code == 2


@settings(max_examples=40, deadline=None)
@given(
    N=hst.sampled_from([-8, 16, 24, 33]),
    nx=hst.sampled_from([-1, 0, 1, 3]),
    ny=hst.sampled_from([-1, 0, 1, 3]),
    bounds=hst.lists(_number, min_size=4, max_size=4),
    problem=hst.sampled_from(["helmholtz", "stokes"]),
)
def test_fuzzed_field_grids_exit_0_or_2(N, nx, ny, bounds, problem):
    raw = {"problem": problem, "methods": [{"name": "zeta", "K": 2}]}
    if problem == "helmholtz":
        raw["kappa"] = 5.0
    # the config loads, so each example reaches run_field's grid checks
    harness.load_config(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(raw, fh)
        argv = ["field", "--config", path, f"--N={N}", f"--nx={nx}", f"--ny={ny}"]
        argv += [f"--{k}={v}" for k, v in zip(("xmin", "xmax", "ymin", "ymax"), bounds)]
        argv += ["--out", f"{tmp}/field.csv"]
        assert _run_cli(argv) in (0, 2)
