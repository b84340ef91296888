"""Classical Nambu brackets of any order, identity checkers, and a numeric
evolver for the associated dynamics with conservation monitoring.

A bracket of order n is its n-vector eta, coefficients on ascending index
tuples I extended alternately: {f1, ..., fn} = sum_I eta^I d(f_I)/d(x_I),
each minor read from one table over the columns eta uses.  canonical(n) is
eta = e_1 ^ ... ^ e_n on R^n, the Jacobian determinant; linear(n) on
R^{n+1} has eta^{I_k} = (-1)^(n-k) x_k, I_k every index but k; custom is
any n-vector field.

Time evolution follows df/dt = {H_1, ..., H_{n-1}, f} for any bracket,
integrated with fixed-step RK4; drift of the Hamiltonians is the
reported observable, and the divergence of the velocity field is checked
symbolically once per run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import IntegrationFailureError, InvalidArgumentError, ResourceLimitError
from .poly import Poly, VarSpace, _Frozen, _jacobian_table, _mul_into, coordinate_space

__all__ = [
    "NambuBracket",
    "canonical_bracket",
    "linear_bracket",
    "custom_bracket",
    "bracket_eval",
    "fi_residual",
    "check_fi",
    "Dynamics",
    "EvolveResult",
    "evolve",
    "euler_top_dynamics",
    "nahm_dynamics",
]


class NambuBracket(_Frozen):
    __slots__ = _fields = ("order", "space", "eta")

    def __init__(self, order: int, space: VarSpace, eta: tuple):
        # eta: ((ascending index tuple, Poly), ...) in index order
        self._set(order, space, eta)


# each evaluation is one Laplace expansion over at most 2^n column sets: on a
# 2-vCPU x86_64 host the bracket of n dense linear forms takes 0.002 s at n = 8
# and 0.3 s at 14 (0.005 and 0.85 s for linear(n)), 0.8 and 5.9 s at n = 8 when
# it walked all n! permutations, which set this value; it is kept as it was
BRACKET_ORDER_BOUND = 8


def _check_order(n: int, name: str = "") -> None:
    # before a space or a tensor is built; a named bracket needs order >= 2,
    # any other order >= 1
    if name and n < 2:
        raise InvalidArgumentError(f"{name} bracket needs order >= 2")
    if n < 1:
        raise InvalidArgumentError(f"bracket needs order >= 1, got {n}")
    if n > BRACKET_ORDER_BOUND:
        raise ResourceLimitError.over(f"bracket order {n}", "bracket order", BRACKET_ORDER_BOUND)


def canonical_bracket(n: int) -> NambuBracket:
    _check_order(n, "canonical")
    sp = coordinate_space(n)
    return custom_bracket(sp, n, {tuple(range(n)): Poly.const(sp, 1)})


def linear_bracket(n: int) -> NambuBracket:
    _check_order(n, "linear")
    sp = coordinate_space(n + 1)
    return custom_bracket(sp, n, {tuple(i for i in range(n + 1) if i != k):
                                  Poly.variable(sp, k) * (-1) ** (n - k) for k in range(n + 1)})


def custom_bracket(space: VarSpace, order: int, eta: dict) -> NambuBracket:
    _check_order(order)
    entries = []
    for idx, coeff in eta.items():
        idx = tuple(idx)
        if list(idx) != sorted(set(idx)):
            raise InvalidArgumentError("custom tensor indices must be strictly ascending")
        if len(idx) != order:
            raise InvalidArgumentError("custom tensor index arity mismatch")
        if not all(0 <= i < space.nvars for i in idx):
            raise InvalidArgumentError(f"custom tensor index {idx} out of range")
        if not isinstance(coeff, Poly):
            raise InvalidArgumentError(f"custom tensor coefficient {coeff!r} is not a Poly")
        if coeff.space != space:
            raise InvalidArgumentError("custom tensor coefficient on a different space")
        entries.append((idx, coeff))
    entries.sort(key=lambda item: item[0])
    return NambuBracket(order, space, tuple(entries))


def bracket_eval(b: NambuBracket, fs: Sequence[Poly]) -> Poly:
    """sum_I eta^I times the minor on the columns I, on exactly ``b.order``
    polynomials; the table is expanded inside the index sets I only unless
    they are all the order-subsets of its columns, where that prunes nothing."""
    fs = list(fs)
    if len(fs) != b.order:
        raise InvalidArgumentError(f"bracket of order {b.order} got {len(fs)} arguments")
    for f in fs:
        if f.space != b.space:
            raise InvalidArgumentError("bracket arguments must live on the bracket's space")
    cols = sorted({i for idx, _ in b.eta for i in idx})
    masks = [sum(1 << cols.index(i) for i in idx) for idx, _ in b.eta]
    targets = masks if len(masks) < math.comb(len(cols), b.order) else None
    table, den = _jacobian_table(fs, cols, targets)
    d = math.lcm(*(coeff.den for _, coeff in b.eta))
    acc: dict = {}
    for m, (_, coeff) in zip(masks, b.eta):
        if m in table:
            _mul_into(acc, coeff.num, table[m], d // coeff.den)
    return Poly._of(b.space, acc, d * den)


def fi_residual(bracket, n: int, fs: Sequence):
    """Residual of the Fundamental Identity of the n-ary callable ``bracket``
    on fs = f1..f_{n-1}, g1..gn: {f1..f_{n-1}, {g1..gn}} minus, one by one,
    each term {g1..{f1..f_{n-1}, g_k}..gn}, so no zero value is needed."""
    fs = list(fs)
    if len(fs) != 2 * n - 1:
        raise InvalidArgumentError(f"Fundamental Identity of order {n} needs {2*n-1} arguments")
    head, tail = fs[: n - 1], fs[n - 1 :]
    out = bracket(*head, bracket(*tail))
    for k in range(n):
        out = out - bracket(*tail[:k], bracket(*head, tail[k]), *tail[k + 1 :])
    return out


def check_fi(b: NambuBracket, fs: Sequence[Poly]) -> Poly:
    """Fundamental Identity residual of the bracket on 2 * order - 1 inputs."""
    return fi_residual(lambda *args: bracket_eval(b, args), b.order, fs)


# ---------------------------------------------------------------------------
# Dynamics


class Dynamics(_Frozen):
    __slots__ = _fields = ("bracket", "hamiltonians", "state", "step")

    def __init__(self, bracket: NambuBracket, hamiltonians: tuple, state: tuple,
                 step: float = 1e-3):
        # state: the initial condition, floats
        if len(hamiltonians) != bracket.order - 1:
            raise InvalidArgumentError(
                f"order-{bracket.order} dynamics needs {bracket.order - 1} Hamiltonians"
            )
        if len(state) != bracket.space.nvars:
            raise InvalidArgumentError("initial state dimension mismatch")
        self._set(bracket, hamiltonians, state, step)


class EvolveResult(_Frozen):
    __slots__ = _fields = ("times", "states", "hamiltonian_values", "max_relative_drift",
                           "divergence_zero", "steps")

    def __init__(self, times: list, states: list, hamiltonian_values: list,
                 max_relative_drift: list, divergence_zero: bool, steps: int):
        # hamiltonian_values: per step, the H_k floats; max_relative_drift: per H_k
        self._set(times, states, hamiltonian_values, max_relative_drift, divergence_zero, steps)

    def report(self) -> dict:
        return {
            "steps": self.steps,
            "max_relative_drift": self.max_relative_drift,
            "divergence_zero": self.divergence_zero,
        }

    def to_csv(self, names: Sequence[str]) -> str:
        import csv  # only --csv needs it; keep it out of start-up
        import io

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
    if not 0 < h < math.inf:  # NaN included
        raise InvalidArgumentError(f"RK4 step must be positive and finite, got {h}")
    if not horizon > 0:  # NaN included
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    # every state is kept, so the step count bounds time and memory alike
    steps = max(1, round(min(horizon / h, EVOLVE_STEP_BOUND + 1)))
    if steps > EVOLVE_STEP_BOUND:
        raise ResourceLimitError.over(f"the RK4 step count of horizon {horizon} at step {h}",
                                      "evolve step", EVOLVE_STEP_BOUND)
    field = velocity_field(d)
    div_zero = divergence_is_zero(field)
    n = 0
    # float() and float powers raise OverflowError where the rest gives inf
    try:
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
            k1 = rhs(x)
            k2 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
            k3 = rhs([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
            k4 = rhs([xi + h * ki for xi, ki in zip(x, k3)])
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
    except OverflowError:
        raise IntegrationFailureError("state became non-finite", n) from None
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
