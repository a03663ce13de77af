"""Self-test of the benchmark at tiny sizes.

Usage, from anywhere:

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny`` for one second, untraced
and traced, and checks that each run passes its output checks and prints
every metric of its kind by name with its unit. Then corrupts outputs on
purpose -- a perturbed prediction and a flipped checkpoint byte -- and checks
that the fail ratio rises above 0. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FAULTS = (("infer", "perturb-pred"), ("infer", "flip-ckpt-byte"),
          ("io-eval", "perturb-pred"), ("io-eval", "flip-ckpt-byte"))


def run(workload: str, trace: int, fault: str = "none") -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", "--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != expected:
                problems.append(f"{label}: metrics {sorted(set(reported) ^ set(expected))} "
                                f"or their units differ from BENCHMARK.json")
            printed = {line.split()[0]: line.split()[-1] for line in lines if line.split()}
            for name, unit in expected.items():
                if printed.get(name) != unit:
                    problems.append(f"{label}: no line prints {name} with unit {unit}")
            print(f"{label}: {len(reported)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")
    for workload, fault in FAULTS:
        result, _ = run(workload, 0, fault)
        caught = result["failed"] > 0 and not result["correct"]
        if not caught:
            problems.append(f"{workload} --fault {fault}: fail ratio stayed 0")
        print(f"caught={caught}  {workload} --fault {fault}: "
              f"{result['failed']} of {result['attempted']} failed")
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
