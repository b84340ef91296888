"""Classical Nambu brackets of any order, identity checkers, and a numeric
evolver for the associated dynamics with conservation monitoring.

Supported bracket kinds:

* canonical(n) on R^n -- the Jacobian determinant of n functions;
* linear(n) on R^{n+1} -- sum over permutations of n+1 indices of
  eps(sigma) df1/dx_{s1} ... dfn/dx_{sn} x_{s(n+1)}, evaluated as the Laplace
  expansion sum_k (-1)^(n-k) x_k J_k with J_k the Jacobian determinant over
  every variable but x_k (k = 0..n);
* custom -- an explicit n-vector field given by coefficients on ascending
  index tuples, extended alternately.

Time evolution follows df/dt = {H_1, ..., H_{n-1}, f} for the canonical
bracket, integrated with fixed-step RK4; drift of the Hamiltonians is the
reported observable, and the divergence of the velocity field is checked
symbolically once per run.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import IntegrationFailureError, InvalidArgumentError, ResourceLimitError
from .poly import Poly, VarSpace, coordinate_space, jacobian_det

__all__ = [
    "NambuBracket",
    "canonical_bracket",
    "linear_bracket",
    "custom_bracket",
    "bracket_eval",
    "check_fi",
    "Dynamics",
    "EvolveResult",
    "evolve",
    "euler_top_dynamics",
    "nahm_dynamics",
]


@dataclass(frozen=True)
class NambuBracket:
    kind: str  # "canonical" | "linear" | "custom"
    order: int
    space: VarSpace
    eta: tuple = ()  # ((ascending index tuple, Poly), ...) for custom kind


# every bracket evaluation walks the n! signed permutations of jacobian_det:
# building them takes 0.09 s at n = 8 and 0.86 s at n = 9 on a 2-vCPU x86_64 host
BRACKET_ORDER_BOUND = 8


def _check_order(n: int) -> None:
    if n > BRACKET_ORDER_BOUND:
        raise ResourceLimitError(
            f"bracket order {n} exceeds the bracket order bound {BRACKET_ORDER_BOUND}"
        )


def canonical_bracket(n: int) -> NambuBracket:
    if n < 2:
        raise InvalidArgumentError("canonical bracket needs order >= 2")
    _check_order(n)
    return NambuBracket("canonical", n, coordinate_space(n))


def linear_bracket(n: int) -> NambuBracket:
    if n < 2:
        raise InvalidArgumentError("linear bracket needs order >= 2")
    _check_order(n)
    return NambuBracket("linear", n, coordinate_space(n + 1))


def custom_bracket(space: VarSpace, order: int, eta: dict) -> NambuBracket:
    _check_order(order)
    entries = []
    for idx, coeff in eta.items():
        idx = tuple(idx)
        if list(idx) != sorted(set(idx)):
            raise InvalidArgumentError("custom tensor indices must be strictly ascending")
        if len(idx) != order:
            raise InvalidArgumentError("custom tensor index arity mismatch")
        if coeff.space != space:
            raise InvalidArgumentError("custom tensor coefficient on a different space")
        entries.append((idx, coeff))
    entries.sort(key=lambda item: item[0])
    return NambuBracket("custom", order, space, tuple(entries))


def bracket_eval(b: NambuBracket, fs: Sequence[Poly]) -> Poly:
    """Evaluate the bracket on exactly ``b.order`` polynomials."""
    fs = list(fs)
    if len(fs) != b.order:
        raise InvalidArgumentError(f"bracket of order {b.order} got {len(fs)} arguments")
    for f in fs:
        if f.space != b.space:
            raise InvalidArgumentError("bracket arguments must live on the bracket's space")
    if b.kind == "canonical":
        return jacobian_det(fs, range(b.order))
    if b.kind == "linear":
        n = b.order
        out = Poly.zero(b.space)
        for k in range(n + 1):
            det = jacobian_det(fs, [j for j in range(n + 1) if j != k])
            out = out + det * Poly.variable(b.space, k) * (-1) ** (n - k)
        return out
    if b.kind == "custom":
        out = Poly.zero(b.space)
        for idx, coeff in b.eta:
            det = jacobian_det(fs, idx)
            if not det.is_zero():
                out = out + coeff * det
        return out
    raise InvalidArgumentError(f"unknown bracket kind {b.kind!r}")


def check_fi(b: NambuBracket, fs: Sequence[Poly]) -> Poly:
    """Residual (left minus right side) of the Fundamental Identity.

    For a bracket of order n the identity takes 2n-1 functions:
    {f1..f_{n-1}, {f_n..f_{2n-1}}} equals the sum over k of the bracket with
    the inner bracket replacing f_k in (f_n..f_{2n-1}).
    """
    n = b.order
    fs = list(fs)
    if len(fs) != 2 * n - 1:
        raise InvalidArgumentError(f"Fundamental Identity of order {n} needs {2*n-1} arguments")
    head, tail = fs[: n - 1], fs[n - 1 :]
    lhs = bracket_eval(b, head + [bracket_eval(b, tail)])
    rhs = Poly.zero(b.space)
    for k in range(n):
        inner = bracket_eval(b, head + [tail[k]])
        args = tail[:k] + [inner] + tail[k + 1 :]
        rhs = rhs + bracket_eval(b, args)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Dynamics


@dataclass(frozen=True)
class Dynamics:
    bracket: NambuBracket
    hamiltonians: tuple
    state: tuple  # initial condition, floats
    step: float = 1e-3

    def __post_init__(self):
        if self.bracket.kind != "canonical":
            raise InvalidArgumentError("time evolution is defined for the canonical bracket")
        if len(self.hamiltonians) != self.bracket.order - 1:
            raise InvalidArgumentError(
                f"order-{self.bracket.order} dynamics needs {self.bracket.order - 1} Hamiltonians"
            )
        if len(self.state) != self.bracket.space.nvars:
            raise InvalidArgumentError("initial state dimension mismatch")


@dataclass
class EvolveResult:
    times: list
    states: list
    hamiltonian_values: list  # per step, list of H_k floats
    max_relative_drift: list  # per Hamiltonian
    divergence_zero: bool
    steps: int

    def report(self) -> dict:
        return {
            "steps": self.steps,
            "max_relative_drift": self.max_relative_drift,
            "divergence_zero": self.divergence_zero,
        }

    def to_csv(self, names: Sequence[str]) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", *names, *[f"H{k+1}" for k in range(len(self.max_relative_drift))]])
        for t, x, hs in zip(self.times, self.states, self.hamiltonian_values):
            writer.writerow([repr(t), *[repr(v) for v in x], *[repr(v) for v in hs]])
        return buf.getvalue()


def velocity_field(d: Dynamics) -> list:
    """dx_i/dt = {H_1, ..., H_{n-1}, x_i}, computed symbolically."""
    space = d.bracket.space
    return [
        bracket_eval(d.bracket, list(d.hamiltonians) + [Poly.variable(space, i)])
        for i in range(space.nvars)
    ]


def divergence_is_zero(field: Sequence[Poly]) -> bool:
    total = Poly.zero(field[0].space)
    for i, v in enumerate(field):
        total = total + v.diff(i)
    return total.is_zero()


# 10^5 steps of the Euler top take about 2.5 s and 55 MB on a 2-vCPU x86_64 host
EVOLVE_STEP_BOUND = 100_000


def evolve(d: Dynamics, horizon: float, rk4_step: float = None) -> EvolveResult:
    """Fixed-step RK4 integration with conservation monitoring."""
    h = d.step if rk4_step is None else rk4_step
    if not h > 0:  # NaN included
        raise InvalidArgumentError("RK4 step must be positive")
    if math.isnan(horizon):
        raise InvalidArgumentError("horizon must be a number")
    # every state is kept, so the step count bounds time and memory alike
    steps = max(1, round(min(horizon / h, EVOLVE_STEP_BOUND + 1)))
    if steps > EVOLVE_STEP_BOUND:
        raise ResourceLimitError(
            f"horizon {horizon} at step {h} needs more RK4 steps than the evolve bound "
            f"{EVOLVE_STEP_BOUND}"
        )
    field = velocity_field(d)
    div_zero = divergence_is_zero(field)
    compiled = [_compile(v) for v in field]
    ham_compiled = [_compile(hk) for hk in d.hamiltonians]

    def rhs(x):
        return [f(x) for f in compiled]

    x = list(map(float, d.state))
    times = [0.0]
    states = [tuple(x)]
    h_values = [[f(x) for f in ham_compiled]]
    h0 = h_values[0]
    drift = [0.0] * len(ham_compiled)
    for n in range(steps):
        try:
            k1 = rhs(x)
            k2 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
            k3 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
            k4 = rhs([xi + h * ki for xi, ki in zip(x, k3)])
        except OverflowError:
            raise IntegrationFailureError("state became non-finite", n) from None
        x = [
            xi + h / 6.0 * (a + 2 * b + 2 * c + e)
            for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
        ]
        if not all(math.isfinite(v) for v in x):
            raise IntegrationFailureError("state became non-finite", n)
        times.append((n + 1) * h)
        states.append(tuple(x))
        hs = [f(x) for f in ham_compiled]
        h_values.append(hs)
        for k, (now, ref) in enumerate(zip(hs, h0)):
            scale = abs(ref) if ref != 0 else 1.0
            drift[k] = max(drift[k], abs(now - ref) / scale)
    return EvolveResult(times, states, h_values, drift, div_zero, steps)


def _compile(f: Poly):
    data = [(float(c), tuple((i, k) for i, k in enumerate(e) if k)) for e, c in f.terms.items()]

    def ev(x, data=data):
        total = 0.0
        for c, mono in data:
            t = c
            for i, k in mono:
                t *= x[i] ** k if k > 1 else x[i]
            total += t
        return total

    return ev


def euler_top_dynamics(inertia=(1.0, 2.0, 3.0), state=(1.0, 1.0, 1.0), step=1e-3) -> Dynamics:
    """Rigid-body dynamics: Hamiltonians are the kinetic energy and |L|^2."""
    if len(inertia) != 3 or not all(inertia):
        raise InvalidArgumentError(
            f"the Euler top needs three nonzero moments of inertia, got {','.join(map(str, inertia))}"
        )
    b = canonical_bracket(3)
    sp = b.space
    from fractions import Fraction

    kin = Poly.zero(sp)
    for i, I in enumerate(inertia):
        kin = kin + Poly.variable(sp, i) ** 2 * (Fraction(1, 2) / Fraction(I))
    total = sum((Poly.variable(sp, i) ** 2 for i in range(3)), Poly.zero(sp))
    return Dynamics(b, (kin, total), tuple(state), step)


def nahm_dynamics(state=(0.2, 0.3, 0.4), step=1e-3) -> Dynamics:
    """Nahm-type system: h = x1^2 - x2^2 and g = x1^2 - x3^2 are conserved."""
    b = canonical_bracket(3)
    sp = b.space
    x1, x2, x3 = (Poly.variable(sp, i) for i in range(3))
    g = x1 * x1 - x3 * x3
    h = x1 * x1 - x2 * x2
    return Dynamics(b, (g, h), tuple(state), step)
