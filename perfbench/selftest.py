"""Smoke-sized self-test of the slot benchmark.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` for a few slots, untraced and
traced, and checks that each run passes the correctness gate and prints,
in its last stdout line, exactly the metrics ``BENCHMARK.json`` names for
that mode, each with its unit, and prints them (plus the untraced run's
``slot_p99_ms`` and ``failed_ratio``) in its table, which the self-test
echoes: one command shows every metric of every workload.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import UNGATED_END_TO_END  # noqa: E402
SMOKE_SLOTS = 40


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload["name"], "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                "--max-slots", str(SMOKE_SLOTS),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            printed = dict(want, **(UNGATED_END_TO_END if trace == 0 else {}))
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"correct={result['correct']} failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if got != want:
                problems.append(f"metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            table = proc.stdout.strip().splitlines()[:-1]
            for name, unit in printed.items():
                if name in result["metrics"] and not isinstance(
                        result["metrics"][name]["value"], (int, float)):
                    problems.append(f"{name} is not a number")
                if not any(line.split()[:1] == [name] and line.endswith(" " + unit)
                           for line in table):
                    problems.append(f"{name} [{unit}] missing from the printed table")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} requests")
            print("\n".join(line for line in table if line.startswith("  ")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
