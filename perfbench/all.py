"""Run every workload of BENCHMARK.json, untraced then traced, and print the results.

Usage (from the repository root): python3 perfbench/all.py [--seed N]

For each workload this prints every end-to-end metric with its median,
unit, spread and sample count, the pass/fail verdict of every repetition,
and the traced per-layer split. Exits 1 if any repetition failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            failed += json.loads(lines[-1])["failed"]
    print(f"{failed} repetition(s) failed a check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
