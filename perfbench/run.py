"""The nambu-forge benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates its inputs from the seed (``generate.py``, no engine
code), then starts fresh workload processes (``child.py``) so that the
engine's caches start cold.  One closed-loop client, one process at a time.

``--trace 0`` measures the end-to-end metrics: ops per second over the
timed phase, median and tail latency of one op, set-up time (median of
several fresh set-ups) and peak RSS.  Times are scaled to a reference machine
speed measured in the same process (see ``child.py``); the unscaled values are
printed on a line above the result.  ``--trace 1`` runs the same ops twice
more in fresh processes, untraced and then with spans installed
(``spans.py``), and reports the per-layer metrics and the tracing overhead;
the spans are written to ``.perfbench_out/``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("star-assoc", "factor-roundtrip", "taylor-bracket", "sun-su2", "cli-mix")
SETUP_REPEATS = 2  # set-up-only processes, on top of the measured run's own
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # every process of one run must end within this


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def _child(budget: Budget, *args: str) -> dict:
    """Run one workload process and return what it wrote.  On timeout the
    whole process group is killed, with any CLI process it started."""
    out = OUT / f"child-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--out", str(out), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=budget.left())
        if proc.returncode != 0:
            raise RuntimeError(f"workload process failed ({proc.returncode}):\n{stderr}")
        return json.loads(out.read_text())
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        out.unlink(missing_ok=True)


def _fresh_import_s(budget: Budget, module: str) -> float:
    """Median wall time of ``import module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    env = {"PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=budget.left())
        times.append(float(proc.stdout))
    return statistics.median(times)


def tail(latencies_ms: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Below eleven samples, the maximum."""
    xs = sorted(latencies_ms)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def _failures(res: dict, doc: dict) -> list:
    failures = list(res["oracle_failures"]) + list(res["errors"])
    if doc["workload"] == "factor-roundtrip":
        import oracles

        failures += oracles.check_factorizations(res["results"], doc)
    return failures


def untraced(workload: str, inputs: Path, doc: dict, seconds: int, budget: Budget) -> tuple:
    """End-to-end metrics.  Each time is multiplied by the speed of its own
    process relative to the reference speed (see ``child.py``)."""
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        res = _child(budget, "--inputs", str(inputs), "--setup-only")
        raw_setups.append(res["setup_end"] - t0)
        setups.append(raw_setups[-1] * child.REFERENCE_S / res["kernel_s"])
    t0 = time.monotonic()
    res = _child(budget, "--inputs", str(inputs), "--seconds", str(seconds))
    speed = child.REFERENCE_S / res["kernel_s"]
    raw_setups.append(res["first_op_at"] - t0)
    setups.append(raw_setups[-1] * speed)

    failures = _failures(res, doc)
    attempted = res["attempted"]
    failed = min(attempted, res["failed"] + len(failures))
    lat_ms = [x / 1e6 for x in res["latencies_ns"]]
    tail_ms, tail_pct, n = tail(lat_ms)
    raw = {
        "ops_per_s": len(lat_ms) / res["phase_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(raw_setups),
    }
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / speed, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * speed, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * speed, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"{workload}: {len(lat_ms)} ops in {res['checks']} checks over {res['phase_s']:.2f} s",
        f"op_tail_ms is the p{tail_pct:.2f} latency, with 10 of {n} samples beyond it",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"machine speed factor {speed:.3f} (kernel {res['kernel_s'] * 1e3:.3f} ms against "
        f"{child.REFERENCE_S * 1e3:g} ms); unscaled: "
        + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()),
        f"fail_ratio = {failed}/{attempted} = {failed / attempted if attempted else 0:.4f}",
    ]
    if res["exhausted"]:
        notes.append("the run used every generated check before its time was up")
    return metrics, attempted, failed, failures, notes


def traced(workload: str, inputs: Path, doc: dict, seconds: int, budget: Budget) -> tuple:
    common = ["--inputs", str(inputs)]
    if workload == "cli-mix":
        common.append("--in-process-cli")
    plain = _child(budget, *common, "--seconds", str(seconds))
    spans_file = inputs.parent / "spans.tsv.gz"
    res = _child(budget, *common, "--checks", str(plain["checks"]), "--trace", str(spans_file))

    failures = list(plain["oracle_failures"]) + list(plain["errors"]) + _failures(res, doc)
    attempted = res["attempted"]
    failed = min(attempted, res["failed"] + plain["failed"] + len(failures))
    metrics = {k: (v, "count" if isinstance(v, int) else ("s" if k.endswith("_s") else "ratio"))
               for k, v in res["trace"].items()}
    metrics["cli.import_s"] = (_fresh_import_s(budget, "nambu_forge.cli"), "s")
    metrics["cli.numpy_import_s"] = (_fresh_import_s(budget, "numpy"), "s")
    metrics["trace.overhead_ratio"] = (res["phase_s"] / plain["phase_s"], "ratio")
    notes = [
        f"{workload}: {res['checks']} checks, {len(res['latencies_ns'])} ops; untraced "
        f"{plain['phase_s']:.2f} s, traced {res['phase_s']:.2f} s",
        f"{res['spans']} spans written to {spans_file.relative_to(ROOT)}",
    ]
    if res["absent"]:
        notes.append("absent from the engine, so not traced: " + ", ".join(res["absent"]))
    return metrics, attempted, failed, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nambu_forge" / "cli.py").is_file():
        print(f"error: no nambu_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget = Budget(RUN_BUDGET_S)
    run_dir = OUT / f"{args.workload}-{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = run_dir / "inputs.json"
    text = generate.generate(args.workload, args.seed)
    inputs.write_text(text)

    measure = traced if args.trace else untraced
    metrics, attempted, failed, failures, notes = measure(
        args.workload, inputs, json.loads(text), args.seconds, budget)
    for line in notes + failures:
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
