"""Steadiness check: run every workload K times and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seed 100]

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, the length the
bounds were set for.  Runs alternate between the workloads (a, b, c, d, a, b, ...), each with its
own seed (``seed``, ``seed + 1``, ...), one process at a time.  For every
end-to-end metric the table shows the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
next to the metric's bound from ``BENCHMARK.json``, and the minimum and
maximum.  All results are also written to ``.perfbench/steady-<time>.json``.
A run that fails or prints no result stops the command with an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        command
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed (exit {completed.returncode})")
    return json.loads(lines[-1])


def summarize(spec: dict, results: dict[str, list[dict]]) -> str:
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    rows = [
        f"{'workload':<15}{'metric':<17}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'spread':>8}{'bound':>7}{'min':>12}{'max':>12}"
    ]
    for workload, runs in results.items():
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        for name in bounds:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows.append(
                f"{workload:<15}{name:<17}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{(q3 - q1) / median:>8.3f}{bounds[name]:>7}"
                f"{min(values):>12.5g}{max(values):>12.5g}"
            )
        rows.append(f"{workload:<15}failed/attempted {failed}/{attempted}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = (
        args.workloads.split(",")
        if args.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    results: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(args.runs):
        for name in names:
            seed = args.seed + index
            started = time.perf_counter()
            result = run_once(spec["command"], name, seed, seconds, 0)
            results[name].append(result)
            print(
                f"{name} seed {seed}: {time.perf_counter() - started:.1f} s "
                + " ".join(
                    f"{key}={value['value']:.5g}"
                    for key, value in result["metrics"].items()
                ),
                flush=True,
            )
    table = summarize(spec, results)
    print(table)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "results": results}, indent=1))
    print(f"results written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
