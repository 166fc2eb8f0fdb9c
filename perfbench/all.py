"""Run every workload once and print its end-to-end metrics in one table.

    python3 perfbench/all.py [--seed 1]

Each workload runs as its own ``run.py`` process (so ``peak_rss_mb`` is
per workload), with the workloads and ``run_seconds`` that
``BENCHMARK.json`` fixes.  Exits non-zero if any run fails or reports
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed_frac={failed_frac:.6f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:16.6f} {metric['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
