"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload helm_real_sweep --seed 1 --seconds 25 --trace 0

Run from any directory of a checkout: the zetatrap sources are taken from
``src/`` next to this directory, never from an installed copy.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics (setup_s, cpu_s, peak_rss_mb, accuracy_digits); with ``--trace 1``
it reports the per-layer metrics of a traced run. Times are process CPU
seconds; setup_s and cpu_s are scaled to the reference speed of the host
by the calibration kernel of :mod:`calibrate`, timed right after each
set-up and between rounds. The timed phase repeats whole rounds of the
workload, after one untimed warm-up round, until ``--seconds`` of wall
time have passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the program is single-threaded, and CPU time
# of extra threads on a shared 2-core machine is noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7  # set-ups per run: this process's and 6 in fresh interpreters
MIN_ROUNDS = 3  # timed rounds per untraced run, whatever --seconds says
CHILD_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print the CPU seconds that took, and exit",
    )
    return p.parse_args(argv)


def _setup_s() -> tuple[float, float]:
    """CPU seconds from interpreter start to now, as measured and at the
    reference speed."""
    cpu = time.process_time()
    import calibrate

    return cpu, calibrate.at_reference(cpu, calibrate.measure())


def _child_setup_s(args) -> tuple[float, float]:
    """``_setup_s`` of a set-up in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S
    )
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_round(workload):
    c0, w0 = time.process_time(), time.perf_counter()
    result = workload.run_round()
    return result, time.process_time() - c0, time.perf_counter() - w0


def _fmt(values):
    return " ".join(f"{v:.3f}" for v in values)


def _untraced(args, workload, solves):
    import calibrate

    setups = [_setup_s()]
    setups += [_child_setup_s(args) for _ in range(SETUP_RUNS - 1)]

    workload.run_round()  # warm-up: caches and lazy set-up
    # Peak memory of the set-up and one round, as a user running the job
    # once sees it. Later rounds in the same process can raise the peak
    # by 30-90 MB, at random, as the heap fragments.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n_warm = len(solves.reports)
    kernel = [calibrate.measure()]
    cpu, scaled, wall = [], [], []
    start = time.perf_counter()
    while len(cpu) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        result, c, w = _timed_round(workload)
        kernel.append(calibrate.measure())
        cpu.append(c)
        wall.append(w)
        scaled.append(calibrate.at_reference(c, (kernel[-2] + kernel[-1]) / 2))
    reports = solves.reports[n_warm:]

    check = workload.check(result)
    print(f"setup cpu s: {_fmt(s[0] for s in setups)}")
    print(f"setup cpu s at reference speed: {_fmt(s[1] for s in setups)}")
    print(f"calibration kernel s: {_fmt(kernel)}")
    print(f"round cpu s: {_fmt(cpu)}")
    print(f"round cpu s at reference speed: {_fmt(scaled)}")
    print(f"round wall s: {_fmt(wall)} (median {statistics.median(wall):.3f})")
    metrics = {
        "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
        "cpu_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "accuracy_digits": {"value": check.accuracy_digits, "unit": "digits"},
    }
    return check, reports, metrics


def _traced(args, workload, solves):
    import spans

    tracer = spans.Tracer()
    tracer.begin("cold")
    tracer.install()
    workload.setup()
    workload.run_round()  # warm-up, traced: the cold stencil builds
    tracer.restore()
    n_warm = len(solves.reports)

    untraced_cpu, traced_cpu, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        untraced_cpu.append(_timed_round(workload)[1])
        rounds.append(f"round{len(rounds)}")
        tracer.begin(rounds[-1])
        tracer.install()
        try:
            result, c, _ = _timed_round(workload)
        finally:
            tracer.restore()
        traced_cpu.append(c)
    reports = solves.reports[n_warm:]

    check = workload.check(result)
    overhead = statistics.median(traced_cpu) - statistics.median(untraced_cpu)
    print(f"untraced round cpu s: {_fmt(untraced_cpu)}")
    print(f"traced round cpu s: {_fmt(traced_cpu)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.to_json(), indent=1))
    print(f"spans: {spans_file.relative_to(ROOT)}")
    return check, reports, spans.layer_metrics(tracer, "cold", rounds, overhead)


def bootstrap() -> str | None:
    """Pin BLAS/OpenMP to one thread and import zetatrap from ``src/``.

    Returns an error message when the checkout has no zetatrap sources.
    Must run before numpy is first imported, which reads the settings.
    """
    if not (SRC / "zetatrap" / "__init__.py").is_file():
        return f"no zetatrap sources at {SRC}"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import zetatrap

    if Path(zetatrap.__file__).resolve().parent != SRC / "zetatrap":
        return f"zetatrap imported from {zetatrap.__file__}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    error = bootstrap()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from zetatrap import nystrom

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    solves = spans.SolveLog(nystrom)

    if args.trace:
        check, reports, metrics = _traced(args, workload, solves)
    else:
        workload.setup()
        if args.setup_only:
            print(json.dumps({"setup_s": _setup_s()}))
            return 0
        check, reports, metrics = _untraced(args, workload, solves)

    failed = sum(not r.converged for r in reports)
    for failure in check.failures:
        print(f"CHECK FAILED: {failure}")
    for name, err in check.errors.items():
        print(f"relative error {name}: {err:.3e}")
    print(
        json.dumps(
            {
                "correct": not check.failures,
                "attempted": len(reports),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
