"""The fixed CLI calls of the ``cli-mix`` workload and their expected outputs.

Every expected value is worked out by hand from the definitions, not copied
from the program:

* su(2)*: L1 * L2 = L1 L2 + nu L3, and L3 * L3 = L3^2 + 2 nu^2, so the star
  exponential of L3 to order t^2 is 1 + (1/2) nu^-1 L3 t + (1/8) nu^-2 (L3^2 +
  2 nu^2) t^2.
* x1^2 x2 - x2^3 = x2 (x1 - x2) (x1 + x2).
* Z[x1] Z[x2]: the symmetrized partial-Moyal product x1 x2 has no nu part.
* {x1, x2, x3} = 1 for the canonical Nambu bracket, so its quantization is
  the unit Z[]; det of the Jacobian of (x1 x2, x2 x3, x3^2) is 2 x2 x3^2.
* a(4, 1) = 5/3 and a(4, 2) = 2/3, and F sun G = FG + sum_r nu^(2r) a(4, r)
  Delta^r(FG) on a degree-4 product: Delta(L1^2 L2^2) = 2 L1^2 + 2 L2^2 and
  Delta^2 = 8.
* The harmonic oscillator has E_n = n + 1/2; the Euler top conserves both
  Hamiltonians and its velocity field is divergence-free.
"""

from __future__ import annotations

import json


def _exact(text: str, data: dict):
    """Expected stdout in text mode, and the fields of the ``data`` object in
    JSON mode (fields not listed, such as which internal route ran, are not
    compared)."""

    def check(stdout: str, json_mode: bool) -> bool:
        if json_mode:
            doc = json.loads(stdout)
            got = doc.get("data", {})
            return doc.get("status") == "ok" and all(got.get(k) == v for k, v in data.items())
        return stdout == text

    return check


def _spectrum(levels: int):
    def check(stdout: str, json_mode: bool) -> bool:
        if json_mode:
            values = json.loads(stdout)["data"]["eigenvalues"]
        else:
            values = [float(line.split("=")[1]) for line in stdout.splitlines()]
        return len(values) == levels and all(
            abs(v - (n + 0.5)) < 1e-9 for n, v in enumerate(values)
        )

    return check


def _evolve(steps: int):
    def check(stdout: str, json_mode: bool) -> bool:
        if json_mode:
            data = json.loads(stdout)["data"]
            return (data["steps"] == steps and data["divergence_zero"] is True
                    and all(d < 1e-8 for d in data["max_relative_drift"]))
        lines = stdout.splitlines()
        drifts = [float(part.split("=")[1]) for part in lines[1].split(": ", 1)[1].split(", ")]
        return (lines[0] == f"steps: {steps}" and lines[2] == "divergence identically zero: True"
                and all(d < 1e-8 for d in drifts))

    return check


SUN_L1L2 = "L1^2*L2^2 + 10/3*nu^2*L1^2 + 10/3*nu^2*L2^2 + 16/3*nu^4"

# (argv, check(stdout, json_mode) -> bool)
CALLS = (
    (["star", "--product", "su2", "L1", "L2"],
     _exact("L1*L2 + nu*L3\n",
            {"operation": "mul", "product": "su2", "result": "L1*L2 + nu*L3"})),
    (["star", "--product", "su2", "--exp", "L3", "--t-order", "2"],
     _exact("t^0: 1\nt^1: 1/2*nu^-1*L3\nt^2: 1/8*nu^-2*L3^2 + 1/4\n",
            {"coefficients": ["1", "1/2*nu^-1*L3", "1/8*nu^-2*L3^2 + 1/4"],
             "product": "su2", "t_order": 2})),
    (["factor", "x1^2*x2 - x2^3"],
     _exact("1 * (x2) * (x1 - x2) * (x1 + x2)\n",
            {"factors": [{"multiplicity": 1, "poly": "x2"},
                         {"multiplicity": 1, "poly": "x1 - x2"},
                         {"multiplicity": 1, "poly": "x1 + x2"}],
             "input": "x1^2*x2 - x2^3", "unit": "1"})),
    (["zariski", "mul", "Z[x1]", "Z[x2]"],
     _exact("Z[x1; x2]\n", {"op": "mul", "result": "Z[x1; x2]"})),
    (["zariski", "qnambu", "J(Z[x1])", "J(Z[x2])", "J(Z[x3])"],
     _exact("Z[]\n", {"op": "qnambu", "result": "Z[]"})),
    (["sun", "L1^2", "L2^2"],
     _exact(SUN_L1L2 + "\n", {"product": "su2", "result": SUN_L1L2})),
    (["coeffs", "--a", "4", "1"],
     _exact("a(4,1): recursion=5/3 closed-form=5/3 agree=True\n",
            {"agree": True, "closed_form": "5/3", "n": 4, "r": 1, "recursion": "5/3"})),
    (["nambu", "x1*x2", "x2*x3", "x3^2"],
     _exact("2*x2*x3^2\n", {"bracket": "canonical3", "result": "2*x2*x3^2"})),
    (["check-fi", "--degree", "2", "--trials", "5"],
     _exact("PASS residual=0 (5/5)\n",
            {"all_zero": True, "bracket": "canonical3", "passes": 5, "trials": 5})),
    (["spectrum", "--dim", "40"], _spectrum(5)),
    (["evolve", "--horizon", "0.1"], _evolve(100)),
)


def argv_for(index: int, mode: str) -> list:
    argv = list(CALLS[index][0])
    return argv + ["--json"] if mode == "json" else argv


def check_output(index: int, mode: str, stdout: str) -> bool:
    try:
        return CALLS[index][1](stdout, mode == "json")
    except (ValueError, KeyError, IndexError, TypeError):
        return False
