"""Sun products: Abelian quantizations built by symmetrizing a star product
over monomial decompositions, their closed form on su(2)* as Laplacian
powers scaled per homogeneous degree by Euler and Bernoulli coefficients,
the quantized Nambu bracket they induce, and the equivalence / triviality
framework for generalized deformations.

A sun product annihilates nonzero nu powers of its operands, so it factors
through the ordinary product of classical parts: F sun G = lift(FG).  The
lift of the coordinate-monomial kind, which symmetrizes the star product
over each monomial's coordinate factors, is computed in closed form: on
su(2)* it is the scaled Laplacian series, and on the Moyal and partial-Moyal
products it is the identity (Weyl ordering).  The Moyal-standard split lifts
q^a p^b to q^a * p^b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, inf, lcm

from .errors import InvalidArgumentError, ResourceLimitError
from .numbers import secant_coefficient, tangent_coefficient
from .poly import (
    NuObject,
    Poly,
    TSeries,
    VarSpace,
    _add_rows,
    _as_nu,
    _diff_terms,
    _Frozen,
    _poisson_sum,
    jacobian_det,
    qp_space,
    su2_space,
)
from .star import (
    _MOYAL_KINDS,
    StarProduct,
    _check_degree,
    _check_t_order,
    _nterms,
    moyal_product,
    su2_product,
)

__all__ = [
    "SunProduct",
    "USUAL_PRODUCT",
    "sun_su2",
    "sun_moyal_standard",
    "sun_lift",
    "sun_mul",
    "SunCoefficients",
    "sun_coefficients",
    "a_recursion",
    "a_closed_form",
    "big_a",
    "z_coefficient",
    "sun_closed_form",
    "sun_homogeneous_form",
    "quantized_nambu_sun",
    "fi_residual_sun",
    "weak_leibniz_residual",
    "DiffOpSeries",
    "identity_series",
    "weak_trivializer",
    "apply_equivalence",
    "sun_exponential",
]

class SunProduct(_Frozen):
    __slots__ = _fields = ("star", "alpha_kind")

    def __init__(self, star: StarProduct, alpha_kind: str):
        # alpha_kind: "coordinate_monomial" | "moyal_standard_split"
        self._set(star, alpha_kind)

    @property
    def space(self) -> VarSpace:
        return self.star.space


class _Usual:
    """Marker for the undeformed product in equivalence checks."""

    def __repr__(self):
        return "usual-product"


USUAL_PRODUCT = _Usual()


def sun_su2() -> SunProduct:
    return SunProduct(su2_product(), "coordinate_monomial")


def sun_moyal_standard() -> SunProduct:
    return SunProduct(moyal_product(qp_space()), "moyal_standard_split")


_SU2 = sun_su2()  # the su(2)* sun product of sun_closed_form


def _classical(x, space: VarSpace) -> Poly:
    """The nu^0 part of an operand on space; a Poly on space is read as
    itself, and poly._as_nu refuses any other operand."""
    return x if isinstance(x, Poly) and x.space == space else _as_nu(x, space).classical()


def sun_lift(sp: SunProduct, x) -> NuObject:
    """The unary map underlying the product, applied to the classical part."""
    return _lift(sp, NuObject.from_poly(_classical(x, sp.space)))


def _lift(sp: SunProduct, x: NuObject) -> NuObject:
    """The lift of each row of x, the row at nu^k landing at nu^k and above.

    For the coordinate-monomial kind it symmetrizes the star product over
    each monomial's coordinate factors.  On su(2)* that is the closed form
    F + sum_r nu^{2r} a(m, r) Delta^r on each homogeneous degree-m part.
    On the Moyal and partial-Moyal products it is the identity: the graph
    expansion of linear factors has only matchings, whose ordering signs
    average to zero.  The Moyal-standard split, defined on one (q, p) pair,
    lifts c q^a p^b to c q^a * p^b, all terms summed as integers over one
    denominator."""
    if sp.alpha_kind == "coordinate_monomial":
        if sp.star.kind == "su2":
            return DiffOpSeries(x.space, inf).apply(x)
        if sp.star.kind in _MOYAL_KINDS:
            return x
        raise InvalidArgumentError(
            f"the coordinate-monomial lift needs g * f = (f * g)(-nu); {sp.star.kind!r} has none"
        )
    if sp.alpha_kind == "moyal_standard_split":
        if sp.star.kind not in _MOYAL_KINDS:
            raise InvalidArgumentError(
                f"the Moyal-standard split needs a Moyal product; {sp.star.kind!r} is not one"
            )
        if (sp.space.nvars, sp.space.pairs) != (2, ((0, 1),)):
            raise InvalidArgumentError("the Moyal-standard split is defined on one (q, p) pair")
        for row in x.rows.values():
            for e in row:
                _check_degree(max(e))
        rows, den = _poisson_sum([(k, n, {(e[0], 0): 1}, {(0, e[1]): 1})
                                  for (k,), row in x.rows.items() for e, n in row.items()],
                                 sp.space)
        return NuObject._of(sp.space, rows, den * x.den)
    raise InvalidArgumentError(f"unknown sun-product kind {sp.alpha_kind!r}")


# the most term products, len(f) * len(g), of one product of classical parts
# in sun_mul, sun_closed_form and sun_exponential or of one usual product in
# apply_equivalence, counted before it is formed.  One takes about 1.1 us on a
# 2-vCPU x86_64 host: (L1 + L2 + L3)^40 squared (741,321) forms its product in
# 0.8 s, while ^80 squared (11.0 million) took 10.6 s of its 18 s.  The tests
# reach 63 and the benchmark 9.
SUN_PRODUCT_BOUND = 1_000_000


def _bounded_mul(x, y):
    """x * y of two Polys or two NuObjects, refused if its term products,
    counted before it is formed, are over SUN_PRODUCT_BOUND."""
    work = (len(x.num) if isinstance(x, Poly) else _nterms(x)) * (
        len(y.num) if isinstance(y, Poly) else _nterms(y))
    if work > SUN_PRODUCT_BOUND:
        raise ResourceLimitError.over(f"sun product of {work} term products", "sun product",
                                      SUN_PRODUCT_BOUND)
    return x * y


def sun_mul(sp: SunProduct, f, g) -> NuObject:
    """Abelian product: positive nu powers of both operands are discarded."""
    return sun_lift(sp, _bounded_mul(_classical(f, sp.space), _classical(g, sp.space)))


def sun_exponential(sp: SunProduct, h: Poly, t_order: int) -> TSeries:
    """Formal exponential with the sun product replacing the star product.

    The r-th coefficient is (1/r!) (1/2 nu)^r times the r-fold sun power,
    the lift of h^r for r >= 2, since the product discards nu powers of its
    operands.  Every product h^r and, on su(2)*, the Laplacian passes of
    every lift are counted before the first lift.
    """
    _check_t_order(t_order)
    first = _as_nu(h, sp.space)  # the sun power r = 1 is h itself
    h = first.classical()
    powers = [h]
    for _ in range(1, t_order):
        powers.append(_bounded_mul(powers[-1], h))
    if sp == _SU2:
        _eta_parts({(r,): p.num for r, p in enumerate(powers[1:])}, inf)
    lifts = [first] + [sun_lift(sp, p) for p in powers[1:]]
    coeffs = [x.nu_shift(-r) * Fraction(1, 2**r * factorial(r)) for r, x in enumerate(lifts, 1)]
    return TSeries(t_order, (NuObject.one(sp.space), *coeffs[:t_order]))


# ---------------------------------------------------------------------------
# Coefficient tables: recursion and Euler/Bernoulli closed form


# a_recursion does n * min(n, r) Fraction updates; at 10^5 of them, a(316, 316)
# and a(100000, 1) each take about 1.5 s on a 2-vCPU x86_64 host
A_RECURSION_BOUND = 100_000


def a_recursion(n: int, r: int) -> Fraction:
    """a(n, r) from a(n,0) = 1 = a(0,r) and
    a(n,r) = ((n-2r) a(n-1,r) + (n-2r+2) a(n-1,r-1)) / n, row by row in n:
    the last entry of _a_row(n, r, r), n * min(n, r) updates in all, at most
    A_RECURSION_BOUND."""
    if n < 0 or r < 0:
        raise InvalidArgumentError(f"a(n, r) needs n >= 0 and r >= 0, got a({n}, {r})")
    if n * min(n, r) > A_RECURSION_BOUND:
        raise ResourceLimitError.over(f"a({n}, {r}) of {n * min(n, r)} recursion steps",
                                      "a_recursion", A_RECURSION_BOUND)
    if r == 0:
        return Fraction(1)  # the row loop would still take n passes
    return _a_row(n, r, r)[-1]


@cache
def _a_row(n: int, lo: int, r: int) -> tuple:
    """(a(n, lo), ..., a(n, r)), empty if lo > r, by one row loop in m.

    a(n, k) needs a(m, j) only for j >= k - (n - m), so row m keeps the
    window j = max(0, lo - n + m)..r: O(r) entries, and about n * (r - lo + 1)
    updates in all; cached, and a tuple, so callers share it."""
    start = max(0, lo - n)
    row = [Fraction(1)] * (r - start + 1)  # a(0, start..r)
    for m in range(1, n + 1):
        new = max(0, lo - n + m)
        row = [
            Fraction(1) if k == 0 else
            (Fraction(m - 2 * k) * row[k - start] + Fraction(m - 2 * k + 2) * row[k - 1 - start]) / m
            for k in range(new, r + 1)
        ]
        start = new
    return tuple(row)


def _series_mul(a: list, b: list) -> list:
    """Product of two power series given by coefficient lists of equal
    length, truncated to that length."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def _secant_square(r: int) -> list:
    """G(x)^2 to degree r, G = sum gamma_j x^j (secant)."""
    gamma = [secant_coefficient(j) for j in range(r + 1)]
    return _series_mul(gamma, gamma)


def a_closed_form(n: int, r: int) -> Fraction:
    """[x^r] G(x)^2 T(x)^(n-2r) with G = sum gamma_j x^j (secant) and
    T = sum tau_j x^j (tangent): the sum over compositions of r of two secant
    and n-2r tangent coefficients.  Every product is truncated at degree r
    and the power is taken by squaring.  Defined for n >= 2r."""
    if r < 0 or n < 2 * r:
        raise InvalidArgumentError(f"closed form requires n >= 2r >= 0, got a({n}, {r})")
    tau = [tangent_coefficient(j) for j in range(r + 1)]
    out = _secant_square(r)
    k = n - 2 * r
    while k:
        if k & 1:
            out = _series_mul(out, tau)
        k >>= 1
        if k:
            tau = _series_mul(tau, tau)
    return out[r]


def big_a(k: int) -> Fraction:
    """A_k = sum_{i+j=k} gamma_i gamma_j = [x^k] G(x)^2 (0 for k < 0)."""
    return _secant_square(k)[k] if k >= 0 else Fraction(0)


def z_coefficient(p: int, r: int) -> Fraction:
    """z_{p,r} = sum_{k=p}^{r} A_{r-k} sum over length-p partitions of k of
    the tangent-coefficient product divided by the part multiplicities, that
    is [x^r] G(x)^2 (T(x) - 1)^p / p!: a partition whose parts occur m_1, m_2,
    ... times has p! / (m_1! m_2! ...) distinct orderings, which are its
    compositions into p positive parts, and tau_0 = 1."""
    if not 1 <= p <= r:
        raise InvalidArgumentError("z coefficient needs 1 <= p <= r")
    tail = [Fraction(0)] + [tangent_coefficient(j) for j in range(1, r + 1)]
    out = _secant_square(r)
    for _ in range(p):
        out = _series_mul(out, tail)
    return out[r] / factorial(p)


class SunCoefficients(_Frozen):
    __slots__ = _fields = ("n_max", "r_max", "recursion", "closed")

    def __init__(self, n_max: int, r_max: int, recursion: dict, closed: dict):
        # recursion: (n, r) -> Fraction on the full grid; closed: the same, n >= 2r
        self._set(n_max, r_max, recursion, closed)

    def agree(self) -> bool:
        return all(self.recursion[key] == val for key, val in self.closed.items())


# the largest r_max of sun_coefficients.  A_RECURSION_BOUND counts no step on
# the row n = 0, so without this bound coeffs --table 0 N would build N + 1
# entries: on a 2-vCPU x86_64 host, N = 10^6 took 3.7 s and 360 MB in-process.
# The largest table that this bound and A_RECURSION_BOUND admit,
# coeffs --table 28 20, takes 0.4 s in-process
TABLE_ORDER_BOUND = 20


def sun_coefficients(n_max: int, r_max: int) -> SunCoefficients:
    """The tables up to (n_max, r_max); entry (n, r) counts n * (min(n, r) + 1)
    steps, its recursion grid, against A_RECURSION_BOUND."""
    if n_max < 0 or r_max < 0:
        raise InvalidArgumentError("table bounds must be non-negative")
    if r_max > TABLE_ORDER_BOUND:
        raise ResourceLimitError.over(f"table order {r_max}", "table order", TABLE_ORDER_BOUND)
    steps = 0
    for n in range(n_max + 1):
        steps += sum(n * (min(n, r) + 1) for r in range(r_max + 1))
        if steps > A_RECURSION_BOUND:
            raise ResourceLimitError.over(f"the recursion step count of the table up to "
                                          f"a({n_max}, {r_max})", "a_recursion", A_RECURSION_BOUND)
    rec = {(n, r): a_recursion(n, r) for n in range(n_max + 1) for r in range(r_max + 1)}
    closed = {
        (n, r): a_closed_form(n, r)
        for n in range(n_max + 1)
        for r in range(r_max + 1)
        if n >= 2 * r
    }
    return SunCoefficients(n_max, r_max, rec, closed)


# ---------------------------------------------------------------------------
# The closed form: scaled Laplacian powers


def _laplacian(terms: dict) -> dict:
    """The Laplacian of an integer term map, zero entries dropped."""
    out: dict = {}
    for e, c in terms.items():
        for i, k in enumerate(e):
            if k > 1:
                e2 = e[:i] + (k - 2,) + e[i + 1:]
                out[e2] = out.get(e2, 0) + k * (k - 1) * c
    return {e: c for e, c in out.items() if c}


# the most Laplacian steps of one _eta_terms call, or of every lift of one
# sun exponential, counted before the first pass: r passes over a homogeneous
# degree-m part of n terms count r * n, plus m * r once per degree m for the
# cached row loop that gives a(m, 1..r).  On a 2-vCPU x86_64 host, a
# fresh process per call, sun L1^156 L1^156 (48,828 steps, nearly all of them
# the row loop for a(312, 1..156)) takes 1.0 s and (L1 + L2 + L3)^28 squared
# (47,852) 0.4 s; L1^100 squared (20,100) takes 0.3 s, where the recursion run
# afresh for each a(200, k) took 12 s.  The lifts of sun --exp L1^15
# --t-order 20 count 323,583 steps and took 4.3-5.5 s when each was counted
# on its own; those of L1^2 + L2 count 13,124 and take 0.25-0.4 s, where a
# loop charge per part counted 56,207.  The tests reach 13,124 steps and the
# benchmark 117.
LAPLACIAN_STEP_BOUND = 50_000


def _eta_parts(rows: dict, r_max) -> dict:
    """{(key, m): the homogeneous degree-m part of the row keyed key}, refused
    if the min(r_max, m // 2) Laplacian passes on every part and the a-row
    loop of each distinct degree count over LAPLACIAN_STEP_BOUND."""
    parts: dict = {}
    for k, row in rows.items():
        for e, n in row.items():
            parts.setdefault((k, sum(e)), {})[e] = n
    degrees = {m for _, m in parts}  # one cached _a_row loop per degree
    steps = (sum(min(r_max, m // 2) * len(part) for (_, m), part in parts.items())
             + sum(m * min(r_max, m // 2) for m in degrees))
    if steps > LAPLACIAN_STEP_BOUND:
        raise ResourceLimitError.over(f"Laplacian work of {steps} steps", "Laplacian step",
                                      LAPLACIAN_STEP_BOUND)
    return parts


def _eta_terms(rows: dict, r_max) -> tuple:
    """(out, d): out / d = sum_r eta_r(rows) for r = 0..r_max (inf for every
    r), eta_0 being the identity, over integer rows whose keys end in a nu
    power: eta_r of the row keyed (..., k) lands at (..., k + 2r).

    eta_r = (A_r + sum_p z_{p,r} D(D-1)...(D-p+1)) Delta^r with D the Euler
    operator acts on a homogeneous degree-m part as a(m, r) Delta^r, so the
    r-th Laplacian of each part is scaled by a(m, r); it vanishes past
    r = m // 2.  The Laplacians run on the integer rows, and d is the lcm of
    the a(m, r) denominators.
    """
    laps = []  # (key, a(m, r), r-th Laplacian of the degree-m part of a row)
    for (k, m), cur in _eta_parts(rows, r_max).items():
        for r, a in enumerate(_a_row(m, 1, min(r_max, m // 2)), 1):
            cur = _laplacian(cur)
            if not cur:
                break
            laps.append((k[:-1] + (k[-1] + 2 * r,), a, cur))
    den = lcm(*(a.denominator for _, a, _ in laps))
    out = _add_rows({}, rows, den)
    for k, a, cur in laps:
        _add_rows(out, {k: cur}, a.numerator * (den // a.denominator))
    return out, den


def sun_closed_form(f, g) -> NuObject:
    """F sun G = FG + sum_r nu^{2r} eta_r(FG) on su(2)*, exact (the series
    stops once the iterated Laplacian kills the product): sun_mul on the
    su(2)* sun product."""
    return sun_mul(_SU2, f, g)


def sun_homogeneous_form(f, g) -> NuObject:
    """The simpler display for homogeneous operands of equal degree n:
    sum_r nu^{2r} a(2n, r) Delta^r(FG), which is the closed form."""
    f, g = _classical(f, _SU2.space), _classical(g, _SU2.space)
    for h in (f, g):
        degs = set(map(sum, h.num))
        if len(degs) > 1:
            raise InvalidArgumentError("operands must be homogeneous")
    if g.total_degree() != f.total_degree():
        raise InvalidArgumentError("operands must have equal degree")
    return sun_closed_form(f, g)


# ---------------------------------------------------------------------------
# Quantized Nambu bracket through the sun product


def quantized_nambu_sun(f, g, h, sp: SunProduct) -> NuObject:
    """Lift of the classical Jacobian of the classical parts."""
    if sp.space.nvars != 3:
        raise InvalidArgumentError("the quantized Nambu bracket needs three variables")
    fs = [_classical(x, sp.space) for x in (f, g, h)]
    return sun_lift(sp, jacobian_det(fs, (0, 1, 2)))


def fi_residual_sun(sp: SunProduct, fs) -> NuObject:
    """Fundamental Identity residual for the quantized bracket on 5 inputs."""
    from .nambu import fi_residual  # the sun, coeffs and equiv commands load no nambu

    return fi_residual(lambda f, g, h: quantized_nambu_sun(f, g, h, sp), 3, fs)


def weak_leibniz_residual(sp: SunProduct, f: Poly, g: Poly, h: Poly, axis: int) -> NuObject:
    """F sun (d_i(G sun H) - G sun d_i H - d_i G sun H); vanishes because the
    inner combination has zero classical part."""
    gh = sun_mul(sp, g, h)
    inner = sun_mul(sp, g, h.diff(axis)) + sun_mul(sp, g.diff(axis), h)
    dgh = NuObject._of(gh.space, {k: _diff_terms(row, axis) for k, row in gh.rows.items()}, gh.den)
    return sun_mul(sp, f, dgh - inner)


# ---------------------------------------------------------------------------
# Equivalence and triviality.  An intertwiner S is stored as its r_max and
# applied by one _eta_terms pass over the rows of its operand, which gives
# every S_k of every row at once.


class DiffOpSeries(_Frozen):
    """S = Id + sum_{r=1..r_max} nu^{2r} eta_r, eta_r being the nu^{2r}
    cochain of the su(2)* sun product, a(m, r) Delta^r on each homogeneous
    degree-m part; r_max = 0 is the identity, and r_max = inf the su(2)* sun
    lift."""

    __slots__ = _fields = ("space", "r_max")

    def __init__(self, space: VarSpace, r_max: int):
        if r_max < 0:
            raise InvalidArgumentError("r_max must be non-negative")
        self._set(space, r_max)

    def apply(self, x) -> NuObject:
        x = _as_nu(x, self.space)
        rows, d = _eta_terms(x.rows, self.r_max)
        return NuObject._of(self.space, rows, d * x.den)


def identity_series(space: VarSpace) -> DiffOpSeries:
    return DiffOpSeries(space, 0)


def weak_trivializer(r_max: int, space: VarSpace = None) -> DiffOpSeries:
    """S with S_{2r} = eta_r for r <= r_max; S(F G) = F sun G on su(2)* up to
    nu^{2 r_max}."""
    if space is None:
        space = su2_space()
    if r_max < 1:
        raise InvalidArgumentError("weak_trivializer needs r_max >= 1")
    return DiffOpSeries(space, r_max)


def _lifted(prod, x: NuObject) -> NuObject:
    """rho(x), each nu row of x taken by the cochains rho_r of prod to nu^r
    above it: rho_0 = id for the usual product."""
    if prod is USUAL_PRODUCT:
        return x
    if isinstance(prod, SunProduct):
        return _lift(prod, x)
    raise InvalidArgumentError("expected a sun product or the usual product")


def _product_apply(prod, x: NuObject, y: NuObject) -> NuObject:
    if isinstance(prod, SunProduct):
        return sun_mul(prod, x, y)
    return _lifted(prod, _bounded_mul(x, y))


def apply_equivalence(
    s: DiffOpSeries,
    mode: str,
    p1,
    p2,
    f: Poly,
    g: Poly,
    nu_order: int,
) -> NuObject:
    """Residual of the equivalence relation between two products.

    Mode "B": S(F o1 G) - S(F) o2 S(G), truncated at nu_order.  Mode "A":
    the double cochain expansion S(rho(FG)) - rho'(S(F) S(G)), rho and rho'
    applied to each nu coefficient, truncated at nu_order.  A zero residual
    certifies equivalence to the computed order.  Every usual product is
    counted against SUN_PRODUCT_BOUND before it is formed.
    """
    if nu_order < 0:
        raise InvalidArgumentError("nu_order must be non-negative")
    if mode not in ("A", "B"):
        raise InvalidArgumentError("mode must be 'A' or 'B'")
    f, g = _as_nu(f, s.space), _as_nu(g, s.space)
    lhs = s.apply(_product_apply(p1, f, g))
    sf, sg = s.apply(f), s.apply(g)
    rhs = (_product_apply(p2, sf, sg) if mode == "B"
           else _lifted(p2, _bounded_mul(sf, sg).truncate(nu_order)))
    return (lhs - rhs).truncate(nu_order)
