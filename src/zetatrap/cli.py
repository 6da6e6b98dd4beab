"""Command-line interface.

Subcommands: weights, convergence, table1, field, ingest-check.
Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import harness
from .zetaweights import StencilError, build_log_stencil, build_pow_stencil, order_to_k

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _cmd_weights(args) -> int:
    if args.K is not None and args.order is not None:
        print("error: give either --K or --order, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.K is None and args.order is None:
        print("error: --K or --order is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        K = args.K if args.K is not None else order_to_k(args.order)
    except StencilError as exc:
        print(f"error: --order: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.kind == "log":
            if args.z is not None:
                print("error: --z only applies to --kind pow", file=sys.stderr)
                return EXIT_USAGE
            stencil = build_log_stencil(K)
        else:
            if args.z is None:
                print("error: --kind pow requires --z", file=sys.stderr)
                return EXIT_USAGE
            stencil = build_pow_stencil(K, args.z)
    except StencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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


def _load_config_or_exit(args):
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return harness.load_config(args.config)
    except (harness.ConfigError, harness.StencilTableError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cmd_convergence(args) -> int:
    cfg = _load_config_or_exit(args)
    try:
        rows, eoc_rows = harness.run_convergence(cfg)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_csv(
        args.out,
        ["N", "method", "order", "max_rel_error", "assemble_s", "solve_s"],
        rows,
    )
    eoc_path = os.path.splitext(args.out)[0] + "_eoc.csv" if args.out else None
    _write_csv(eoc_path, ["method", "order", "eoc", "fit_window"], eoc_rows)
    bad = [r for r in rows if not (r[3] == r[3])]  # NaN errors
    return EXIT_NUMERICAL if bad else EXIT_OK


def _cmd_table1(args) -> int:
    cfg = _load_config_or_exit(args)
    try:
        rows = harness.run_table1(cfg, N=args.N)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_csv(
        args.out,
        ["method", "order", "re_kappa", "im_kappa", "cond2", "iterations", "residual"],
        rows,
    )
    if any(not (r[4] == r[4]) for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_field(args) -> int:
    cfg = _load_config_or_exit(args)
    grid_spec = {
        "xmin": args.xmin,
        "xmax": args.xmax,
        "ymin": args.ymin,
        "ymax": args.ymax,
        "nx": args.nx,
        "ny": args.ny,
    }
    try:
        rows = harness.run_field(cfg, grid_spec, N=args.N)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.problem == "helmholtz":
        header = ["x", "y", "re_u", "im_u", "mask"]
    else:
        header = ["x", "y", "u1", "u2", "mask"]
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _cmd_ingest_check(args) -> int:
    try:
        table = harness.ingest_stencil_table(args.table)
        stencil = harness.stencil_from_table(table)
    except harness.OffGridTableError as exc:
        print(f"not supported: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (harness.StencilTableError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"name: {table.name}")
    print(f"order: {table.order}")
    print(f"grid: {'on' if table.on_grid else 'off'}")
    for j, w in enumerate(stencil.weights):
        print(f"{j} {w:.15e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zetatrap",
        description="Zeta-corrected trapezoidal quadrature and BIE experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="print correction weights")
    w.add_argument("--K", type=int, default=None)
    w.add_argument("--order", type=int, default=None)
    w.add_argument("--kind", choices=["log", "pow"], default="log")
    w.add_argument("--z", type=float, default=None)
    w.set_defaults(func=_cmd_weights)

    c = sub.add_parser("convergence", help="run a convergence sweep")
    c.add_argument("--config", required=False)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_convergence)

    t = sub.add_parser("table1", help="conditioning and GMRES iteration table")
    t.add_argument("--config", required=False)
    t.add_argument("--out", default=None)
    t.add_argument("--N", type=int, default=512)
    t.set_defaults(func=_cmd_table1)

    f = sub.add_parser(
        "field",
        help="evaluate the solved field on a grid; points inside the curve or "
        "within 5 grid spacings of it get mask 1 and NaN values",
    )
    f.add_argument("--config", required=False)
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
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
