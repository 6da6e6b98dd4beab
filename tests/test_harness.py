"""Config loading, experiment drivers, stencil-table ingestion, and CLI."""

import json
import math

import numpy as np
import pytest

from zetatrap import cli, harness, kernels, nystrom, specfun
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


def test_complex_kappa_and_order_spelling():
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": [12.5, 10.0],
            "methods": [{"name": "zeta", "order": 16}, "kress"],
        }
    )
    assert cfg.kappa == 12.5 + 10.0j
    assert cfg.methods[0].stencil.K == 7
    assert cfg.methods[1].name == "kress"


def test_wavelengths_consistency():
    base = {"problem": "helmholtz", "methods": [{"name": "zeta", "K": 2}]}
    cfg = harness.load_config({**base, "wavelengths": 4.0})
    diam = 2.6  # star_curve(1.0, 0.3, 5) diameter
    assert abs(cfg.kappa.real - 2 * math.pi * 4.0 / diam) <= 0.05 * cfg.kappa.real
    with pytest.raises(harness.ConfigError):
        harness.load_config({**base, "kappa": 50.0, "wavelengths": 4.0})


def test_config_validation_errors():
    with pytest.raises(harness.ConfigError):
        harness.load_config({"problem": "poisson"})
    with pytest.raises(harness.ConfigError):
        harness.load_config({"problem": "helmholtz"})  # no kappa
    with pytest.raises(harness.ConfigError):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "methods": [{"name": "zeta"}]}
        )
    with pytest.raises(harness.ConfigError):
        harness.load_config(
            {
                "problem": "helmholtz",
                "kappa": 5.0,
                "methods": [{"name": "zeta", "order": 7}],
            }
        )
    with pytest.raises(harness.ConfigError):
        harness.load_config({"problem": "stokes", "N": [8]})
    with pytest.raises(harness.ConfigError):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "targets": [[0.5, 0.0]]}
        )
    with pytest.raises(harness.ConfigError):
        harness.load_config(
            {"problem": "helmholtz", "kappa": 5.0, "sources": [[2.0, 0.0]]}
        )


# --- fit_eoc ----------------------------------------------------------------


def test_fit_eoc_recovers_slope():
    ns = [64, 128, 256, 512]
    errs = [1e-2 * (64 / n) ** 6 for n in ns]
    eoc, window = harness.fit_eoc(ns, errs)
    assert abs(eoc - 6.0) <= 1e-12
    assert window == ns


def test_fit_eoc_ignores_saturated_points():
    ns = [64, 128, 256, 512]
    errs = [1e-4, 1e-7, 2e-12, 3e-12]  # last two below the floor
    eoc, window = harness.fit_eoc(ns, errs)
    assert window == [64, 128]
    assert abs(eoc - math.log(1e-4 / 1e-7) / math.log(2)) <= 1e-12


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
            "N": [64, 128],
        }
    )
    rows, eoc_rows = harness.run_convergence(cfg)
    assert len(rows) == 2
    assert rows[0][0] == 64 and rows[0][1] == "zeta6"
    assert rows[1][3] < rows[0][3]  # error decreases
    assert len(eoc_rows) == 1
    assert eoc_rows[0][2] > 3.0


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
    ref = harness.known_solution(cfg.kappa, cfg.sources, cfg.strengths, pts[clear])
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


# --- stencil-table ingestion ------------------------------------------------


def test_ingest_on_grid_table(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(ON_GRID_TABLE)
    table = harness.ingest_stencil_table(str(p))
    assert table.name == "tabulated6"
    assert table.order == 6
    assert table.on_grid
    st = harness.stencil_from_table(table)
    assert st.K == 2
    assert st.kind == "log"
    assert st.order == 6.0


def test_ingest_off_grid_table_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(OFF_GRID_TABLE)
    table = harness.ingest_stencil_table(str(p))
    assert not table.on_grid
    with pytest.raises(harness.OffGridTableError) as exc:
        harness.stencil_from_table(table)
    assert "grid: off" in str(exc.value)


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
    st = build_log_stencil(2)
    lines = ["name: mirror6", "order: 6", "grid: on"]
    lines += [f"{j} {w:.17e}" for j, w in enumerate(st.weights)]
    p = tmp_path / "mirror.txt"
    p.write_text("\n".join(lines) + "\n")
    cfg = harness.load_config(
        {
            "problem": "helmholtz",
            "kappa": 5.0,
            "methods": [
                {"name": "external", "table": str(p)},
                {"name": "zeta", "K": 2},
            ],
            "N": [64],
        }
    )
    rows, _ = harness.run_convergence(cfg)
    assert abs(rows[0][3] - rows[1][3]) <= 1e-14


# --- CLI --------------------------------------------------------------------


def test_cli_weights(capsys):
    assert cli.main(["weights", "--K", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "0 8.884900761462795e-01"
    assert out[1] == "1 3.044845705839327e-02"
    assert out[2] == "# order 4"


def test_cli_weights_usage_errors(capsys):
    assert cli.main(["weights"]) == 2
    assert cli.main(["weights", "--K", "1", "--order", "4"]) == 2
    assert cli.main(["weights", "--order", "7"]) == 2
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


def test_cli_convergence_config_errors(tmp_path, capsys):
    assert cli.main(["convergence"]) == 2
    assert cli.main(["convergence", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "poisson"}))
    assert cli.main(["convergence", "--config", str(bad)]) == 2
    capsys.readouterr()


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
