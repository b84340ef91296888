"""Run the benchmark on several seeds and summarize each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1] [--out FILE] [WORKLOAD ...]

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (distance between the
quartiles over the median) next to the metric's bound from BENCHMARK.json.
With ``--out`` it also writes the summary, with the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    import numpy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(name, seed, result["correct"],
                  {k: round(v, 4) for k, v in runs[-1].items()}, flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med, "bound": metric["bound"],
                                    "unit": metric["unit"], "values": values}
            print(f"  {metric['name']:12s} median {med:.4g} {metric['unit']}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {metric['bound']}")
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
