"""Self-test of the benchmark's checks: each must catch a planted fault.

    python3 perfbench/selftest.py

Runs every workload once at its small size, set up and checked as in the
benchmark: as it is, when its checks must pass, and with each planted
fault, when they must fail. The faults are the first correction weight
w_0 of the workload's highest-order stencil changed by 1e-6 relative,
and, on stokes_sweep, the Stokeslet's force flipped in the closed form
the solution is compared with. Writes ``perfbench/out/selftest.json`` and
exits with 1 if any outcome differs from the expected one.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    error = run.bootstrap()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    import workloads

    outcomes = []
    for name, cls in workloads.WORKLOADS.items():
        for fault in (None,) + cls.faults:
            workload = cls(seed=1, small=True, fault=fault)
            workload.setup()
            check = workload.check(workload.run_round())
            caught = bool(check.failures)
            ok = caught == (fault is not None)
            outcomes.append(
                {
                    "workload": name,
                    "fault": fault,
                    "check_failed": caught,
                    "as_expected": ok,
                    "errors": check.errors,
                    "failures": check.failures,
                }
            )
            print(
                f"{'ok  ' if ok else 'FAIL'} {name:18s} fault={fault or 'none':7s} "
                f"checks {'failed' if caught else 'passed'}: "
                + ("; ".join(check.failures) or "all held"),
                flush=True,
            )
    out_dir = run.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "selftest.json").write_text(json.dumps(outcomes, indent=1))
    return 0 if all(o["as_expected"] for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
