"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--workload NAME ...]

Runs ``run.py`` once per workload and seed, one run after another, the
workloads in turn, and prints for every metric the median, the first and
third quartile (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, plus the share of failed operations. The raw results go to
``perfbench/out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(results: dict) -> list[str]:
    lines = []
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        lines.append(
            f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
            f"failed {failed}/{attempted}"
        )
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(med) if med else float("nan")
            lines.append(
                f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                f"spread {share:.4f}"
            )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    names = args.workload or json.loads((HERE.parent / "BENCHMARK.json").read_text())[
        "workloads"
    ]
    names = [n if isinstance(n, str) else n["name"] for n in names]
    results = {name: [] for name in names}
    # Workloads alternate run by run, so that each workload's runs span
    # the same stretch of time and meet the same changes in host load.
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.perf_counter()
            out = subprocess.run(
                cmd, capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["log"] = lines[:-1]
            result["run_wall_s"] = time.perf_counter() - t0
            results[name].append(result)
            print(
                f"{name} seed {seed}: {result['run_wall_s']:.1f} s wall, "
                + ", ".join(
                    f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                ),
                flush=True,
            )
    print("\n".join(summarize(results)))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"spread-{stamp}.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
