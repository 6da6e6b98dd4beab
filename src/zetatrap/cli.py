"""Command-line interface.

Subcommands: weights, convergence, table1, field, ingest-check.
Exit codes: 0 success, 1 numerical failure, 2 usage or config error.

A command returns 0 or 1, or raises: :func:`main` alone turns an error
of ``_PREFIXES`` into exit 2 and a stderr line with its prefix. Output
paths are checked, not opened, before the config is loaded and run.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import harness
from .zetaweights import StencilError, build_log_stencil, build_pow_stencil

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """A command-line argument that the command cannot use."""


# The stderr prefix of each error that exits 2, a subclass before its base.
_PREFIXES = (
    (harness.OffGridTableError, "not supported"),
    (harness.StencilTableError, "parse error"),
    (harness.ConfigError, "config error"),
    ((StencilError, UsageError), "error"),
)


def _cmd_weights(args) -> int:
    if args.kind == "log":
        if args.z is not None:
            raise UsageError("--z only applies to --kind pow")
        stencil = build_log_stencil(args.K)
    else:
        if args.z is None:
            raise UsageError("--kind pow requires --z")
        stencil = build_pow_stencil(args.K, args.z)
    for j, w in enumerate(stencil.weights):
        print(f"{j} {w:.15e}")
    print(f"# order {stencil.order:g}")
    return EXIT_OK


def _write_csv(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _load_config(args, *paths):
    """The config of ``args`` once every output path in ``paths`` (None is
    stdout) is known to be writable: an existing file or a new name in an
    existing directory. Nothing is opened, so no file is truncated."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else folder
        if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
            target, os.W_OK
        ):
            raise UsageError(f"--out: cannot write {path}")
    return harness.load_config(args.config)


def _cmd_convergence(args) -> int:
    eoc_path = os.path.splitext(args.out)[0] + "_eoc.csv" if args.out else None
    cfg = _load_config(args, args.out, eoc_path)
    rows, eoc_rows = harness.run_convergence(cfg)
    _write_csv(
        args.out,
        ["N", "method", "order", "max_rel_error", "assemble_s", "solve_s"],
        rows,
    )
    _write_csv(eoc_path, ["method", "order", "eoc", "fit_window"], eoc_rows)
    bad = [r for r in rows if not (r[3] == r[3])]  # NaN errors
    return EXIT_NUMERICAL if bad else EXIT_OK


def _cmd_table1(args) -> int:
    cfg = _load_config(args, args.out)
    rows = harness.run_table1(cfg, N=args.N)
    _write_csv(
        args.out,
        ["method", "order", "re_kappa", "im_kappa", "cond2", "iterations", "residual"],
        rows,
    )
    if any(not (r[4] == r[4]) for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_field(args) -> int:
    cfg = _load_config(args, args.out)
    grid_spec = {
        "xmin": args.xmin,
        "xmax": args.xmax,
        "ymin": args.ymin,
        "ymax": args.ymax,
        "nx": args.nx,
        "ny": args.ny,
    }
    rows = harness.run_field(cfg, grid_spec, N=args.N)
    _write_csv(args.out, ["x", "y", *cfg.data.header, "mask"], rows)
    return EXIT_OK


def _cmd_ingest_check(args) -> int:
    try:
        method = harness.ingest_stencil_table(args.table)
    except OSError as exc:
        raise harness.StencilTableError(exc) from exc
    print(f"name: {method.label}")
    print(f"order: {int(method.order)}")
    print("grid: on")  # an off-grid table is refused
    for j, w in enumerate(method.stencil.weights):
        print(f"{j} {w:.15e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetatrap",
        description="Zeta-corrected trapezoidal quadrature and BIE experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="print correction weights")
    w.add_argument("--K", type=int, required=True)
    w.add_argument("--kind", choices=["log", "pow"], default="log")
    w.add_argument("--z", type=float, default=None)
    w.set_defaults(func=_cmd_weights)

    c = sub.add_parser("convergence", help="run a convergence sweep")
    c.add_argument("--config", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_convergence)

    t = sub.add_parser("table1", help="conditioning and GMRES iteration table")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--N", type=int, default=512)
    t.set_defaults(func=_cmd_table1)

    f = sub.add_parser(
        "field",
        help="evaluate the solved field on a grid; points inside the curve or "
        "within 5 grid spacings of it get mask 1 and NaN values",
    )
    f.add_argument("--config", required=True)
    f.add_argument("--out", default=None)
    f.add_argument("--N", type=int, default=512)
    f.add_argument("--xmin", type=float, default=-3.0)
    f.add_argument("--xmax", type=float, default=3.0)
    f.add_argument("--ymin", type=float, default=-3.0)
    f.add_argument("--ymax", type=float, default=3.0)
    f.add_argument("--nx", type=int, default=20)
    f.add_argument("--ny", type=int, default=20)
    f.set_defaults(func=_cmd_field)

    i = sub.add_parser("ingest-check", help="validate an external stencil table")
    i.add_argument("table")
    i.set_defaults(func=_cmd_ingest_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:
        for error, prefix in _PREFIXES:
            if isinstance(exc, error):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
