"""Determinism self-check: two traced runs with one seed give equal counts.

    python3 perfbench/determinism.py --workload random-dense --seed 3 --seconds 30

Runs `run.py --trace 1` twice, one after the other, and compares the
counters named in `tracing.DETERMINISTIC_COUNTS` request by request over the
requests both runs completed. Requests stopped by a time limit are skipped:
where they stop depends on the clock. Exits 0 when every compared request
agrees.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: float, size: str) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
           "--size", size]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("details: "):
            return json.loads(line[len("details: "):])["per_request"]
    raise RuntimeError("run printed no details line")


def compare(first: list, second: list) -> tuple[int, list]:
    """(requests compared, mismatch descriptions)."""
    compared, mismatches = 0, []
    for a, b in zip(first, second):
        if a["request"] != b["request"]:
            mismatches.append(f"request order differs: {a['request']} vs {b['request']}")
            break
        if a["time_limited"] or b["time_limited"]:
            continue
        compared += 1
        for name, value in a["counts"].items():
            if b["counts"].get(name) != value:
                mismatches.append(f"request {a['request']}: {name} "
                                  f"{value} vs {b['counts'].get(name)}")
    return compared, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)
    runs = [traced_counts(args.workload, args.seed, args.seconds, args.size)
            for _ in range(2)]
    compared, mismatches = compare(*runs)
    for line in mismatches:
        print(line)
    print(f"{args.workload} seed {args.seed}: {compared} requests compared, "
          f"{len(mismatches)} mismatches")
    return 0 if compared and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
