"""The workload process: one fresh interpreter per run, so caches start cold.

Usage (from ``run.py``): python3 perfbench/child.py --inputs FILE --out FILE
[--seconds S | --checks N] [--trace SPANS_FILE] [--setup-only] [--in-process-cli]
[--digest]

It imports the engine from the checkout's ``src``, parses the inputs and
builds the product objects (set-up), then runs checks until ``--seconds``
have passed and a round of checks is complete, or until ``--checks`` checks
are done (timed phase).  After the timed phase it reads its peak RSS, runs
the oracle checks and writes everything as JSON to ``--out``.  With ``--digest`` it also keeps every op's result and
writes a hash of their canonical text, so that two runs can be compared.

Untraced runs also measure the machine's speed: between checks, at most every
``CALIBRATE_EVERY_S``, they time a fixed kernel of stdlib ``Fraction`` and
dict work that uses no engine code, outside the timed phase.  On a shared
2-vCPU x86_64 host the speed of one process drifted by about +-20% over tens
of seconds, far more than the bounds the benchmark needs, so ``run.py`` scales
every time to the speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_S = 0.003
CALIBRATE_EVERY_S = 0.1
SETUP_KERNEL_SAMPLES = 9


def kernel_s() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = perf_counter_ns()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return (perf_counter_ns() - t0) / 1e9


def _import_engine():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nambu_forge

    if Path(nambu_forge.__file__).resolve().parent != src / "nambu_forge":
        raise SystemExit(f"nambu_forge was imported from {nambu_forge.__file__}, not {src}")


def _result_text(value) -> str:
    """Canonical text of one op result."""
    from nambu_forge.errors import NambuForgeError
    from nambu_forge.expr import render

    if isinstance(value, (str, int)):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_result_text(v) for v in value) + ")"
    if hasattr(value, "factors") and hasattr(value, "unit"):  # a Factorization
        return f"{value.unit} * " + " * ".join(f"({render(g)})^{m}" for g, m in value.factors)
    try:
        return render(value)
    except NambuForgeError:
        return type(value).__name__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--checks", type=int)
    parser.add_argument("--trace", metavar="SPANS_FILE")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--in-process-cli", action="store_true")
    parser.add_argument("--digest", action="store_true")
    args = parser.parse_args(argv)

    _import_engine()
    import workloads

    doc = json.loads(Path(args.inputs).read_text())
    wl = workloads.build(doc, in_process_cli=args.in_process_cli)
    round_size = doc["round"]
    if args.setup_only:
        setup_end = time.monotonic()
        kernel = sum(kernel_s() for _ in range(SETUP_KERNEL_SAMPLES)) / SETUP_KERNEL_SAMPLES
        Path(args.out).write_text(json.dumps({"setup_end": setup_end, "kernel_s": kernel}))
        return 0

    tracer = None
    latencies: list = []
    kept: list = []
    call = lambda fn, *a: fn(*a)  # noqa: E731
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        call = tracer.op

    def op(fn, *a):
        t0 = perf_counter_ns()
        try:
            out = call(fn, *a)
        finally:
            latencies.append(perf_counter_ns() - t0)
        if args.digest:
            kept.append(out)
        return out

    failed = 0
    opless_failures = 0
    errors: list = []
    done = 0
    kernels: list = []
    next_kernel = 0.0
    first_op_at = time.monotonic()
    deadline = first_op_at + (args.seconds or 0.0)
    t0 = perf_counter_ns()
    for check in wl.checks:
        now = time.monotonic()
        if args.checks is not None:
            if done >= args.checks:
                break
        elif done % round_size == 0 and now >= deadline:
            break
        if tracer is None and now >= next_kernel:
            kernels.append(kernel_s())
            next_kernel = now + CALIBRATE_EVERY_S
        start = len(latencies)
        try:
            ok = check(op)
        except Exception:
            ok = False
            if len(errors) < 5:
                errors.append(traceback.format_exc(limit=3))
        if not ok:
            ran = len(latencies) - start
            failed += ran
            opless_failures += ran == 0
        done += 1
    phase_s = (perf_counter_ns() - t0) / 1e9 - sum(kernels)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()

    out = {
        "first_op_at": first_op_at,
        "phase_s": phase_s,
        "checks": done,
        "exhausted": args.checks is None and done == len(wl.checks),
        "latencies_ns": latencies,
        "attempted": len(latencies) + opless_failures,
        "failed": failed + opless_failures,
        "errors": errors,
        "peak_rss_mb": rss_kb / 1024,
        "kernel_s": sum(kernels) / len(kernels) if kernels else None,
        "oracle_failures": wl.verify(),
        "results": wl.results(),
    }
    if args.digest:
        text = "\n".join(_result_text(v) for v in kept)
        out["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if tracer is not None:
        out["spans"] = tracer.write(args.trace)
        out["trace"] = tracer.metrics()
        out["absent"] = tracer.absent
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
