"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10                 # every workload
    python3 perfbench/spread.py --workload reject-n7 --seeds 5 --first-seed 100

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints per
metric the median, the quartiles and the interquartile distance as a share
of the median, beside the metric's bound from BENCHMARK.json.  A spread
above the bound means two sets of runs of the same code could disagree by
more than the benchmark allows.
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


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, action="append")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    status = 0
    summary = {}
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[f"{workload}/{metric['name']}"] = {
                "values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
            }
            flag = "ok" if spread < metric["bound"] / 3 else (
                "WIDE" if spread <= metric["bound"] else "OVER BOUND")
            print(f"{workload} {metric['name']}: median {med:.6g} {metric['unit']} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"(bound {metric['bound']}) {flag}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
