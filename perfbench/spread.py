"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload dense-bfa --seeds 1-10 [--seconds 10]

Runs ``run.py --trace 0`` once per seed and prints, for each end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``), and the
inter-quartile distance as a share of the median next to the metric's
bound from ``BENCHMARK.json``.  Each seed's line ends with the median time
of the run's fixed host loop (``run.host_loop_ms``), which shows how fast
the host itself was.  Per-run results are appended to
``.perfbench-run/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    log = ROOT / ".perfbench-run" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = next((json.loads(x[len("details "):]) for x in lines
                        if x.startswith("details ")), {})
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, **result, "details": details}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        loop = statistics.median(details["host_loop_ms"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            + f"; host loop {loop:.1f} ms", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':26s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:26s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.4f} "
              f"{bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
