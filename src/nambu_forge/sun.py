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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .errors import InvalidArgumentError, ResourceLimitError
from .numbers import secant_coefficient, tangent_coefficient
from .poly import (
    NuObject,
    Poly,
    TSeries,
    VarSpace,
    _add_into,
    _bump,
    _freeze,
    _int_terms,
    jacobian_det,
    qp_space,
    su2_space,
)
from .star import _MOYAL_KINDS, StarProduct, _as_nu, moyal_product, star_mul, su2_product

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

@dataclass(frozen=True)
class SunProduct:
    star: StarProduct
    alpha_kind: str  # "coordinate_monomial" | "moyal_standard_split"

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


def sun_lift(sp: SunProduct, x) -> NuObject:
    """The unary map underlying the product, applied to the classical part.

    For the coordinate-monomial kind it symmetrizes the star product over
    each monomial's coordinate factors.  On su(2)* that is the closed form
    FG + sum_r nu^{2r} a(m, r) Delta^r on each homogeneous degree-m part.
    On the Moyal and partial-Moyal products it is the identity: the graph
    expansion of linear factors has only matchings, whose ordering signs
    average to zero.  The Moyal-standard split lifts c q^a p^b to
    c q^a * p^b, summed into one {nu-power: {exponent: Fraction}} map."""
    xo = _as_nu(x, sp.space)
    f = xo.classical()
    if sp.alpha_kind == "coordinate_monomial":
        if sp.star.kind == "su2":
            return _su2_closed_lift(f)
        if sp.star.kind in _MOYAL_KINDS:
            return NuObject.from_poly(f)
        raise InvalidArgumentError(
            f"the coordinate-monomial lift needs g * f = (f * g)(-nu); {sp.star.kind!r} has none"
        )
    if sp.alpha_kind == "moyal_standard_split":
        q, p = Poly.variable(sp.space, 0), Poly.variable(sp.space, 1)
        acc: dict = {}
        for e, c in f.terms.items():
            _add_into(acc, star_mul(sp.star, q ** e[0], p ** e[1]), 0, c)
        return _freeze(sp.space, acc)
    raise InvalidArgumentError(f"unknown sun-product kind {sp.alpha_kind!r}")


def sun_mul(sp: SunProduct, f, g) -> NuObject:
    """Abelian product: positive nu powers of both operands are discarded."""
    fo = _as_nu(f, sp.space)
    go = _as_nu(g, sp.space)
    return sun_lift(sp, fo.classical() * go.classical())


def sun_exponential(sp: SunProduct, h: Poly, t_order: int) -> TSeries:
    """Formal exponential with the sun product replacing the star product.

    The r-th coefficient is (1/r!) (1/2 nu)^r times the r-fold sun power;
    powers fold left on classical parts before the Laurent scaling, since the
    product discards nu powers of its operands.
    """
    if t_order < 0:
        raise InvalidArgumentError("t_order must be non-negative")
    coeffs = [NuObject.one(sp.space)]
    power = NuObject.one(sp.space)
    for r in range(1, t_order + 1):
        power = NuObject.from_poly(h) if r == 1 else sun_mul(sp, power, h)
        coeffs.append(power.nu_shift(-r) * Fraction(1, 2**r * factorial(r)))
    return TSeries(t_order, tuple(coeffs))


# ---------------------------------------------------------------------------
# Coefficient tables: recursion and Euler/Bernoulli closed form


def _partitions_exact(k: int, p: int, cap: int = None):
    """Partitions of k into exactly p positive nonincreasing parts."""
    if cap is None:
        cap = k
    if p == 0:
        if k == 0:
            yield ()
        return
    for first in range(min(k - p + 1, cap), 0, -1):
        for rest in _partitions_exact(k - first, p - 1, first):
            yield (first,) + rest


# a_recursion does n * min(n, r) Fraction updates; at 10^5 of them, a(316, 316)
# and a(100000, 1) each take about 1.5 s on a 2-vCPU x86_64 host
A_RECURSION_BOUND = 100_000


@cache
def a_recursion(n: int, r: int) -> Fraction:
    """a(n, r) from a(n,0) = 1 = a(0,r) and
    a(n,r) = ((n-2r) a(n-1,r) + (n-2r+2) a(n-1,r-1)) / n, row by row in n.

    a(n, r) needs a(m, k) only for k >= r - (n - m), so row m keeps the
    window k = lo..r with lo = max(0, r - n + m): O(min(n, r)) entries, and
    n * min(n, r) updates in all, at most A_RECURSION_BOUND."""
    if n < 0 or r < 0:
        raise InvalidArgumentError(f"a(n, r) needs n >= 0 and r >= 0, got a({n}, {r})")
    if n * min(n, r) > A_RECURSION_BOUND:
        raise ResourceLimitError(
            f"a({n}, {r}) needs {n * min(n, r)} recursion steps, over the a_recursion bound "
            f"{A_RECURSION_BOUND}"
        )
    if r == 0:
        return Fraction(1)  # the row loop below would still take n passes
    lo = max(0, r - n)
    row = [Fraction(1)] * (r - lo + 1)  # a(0, lo..r)
    for m in range(1, n + 1):
        new_lo = max(0, r - n + m)
        row = [
            Fraction(1) if k == 0 else
            (Fraction(m - 2 * k) * row[k - lo] + Fraction(m - 2 * k + 2) * row[k - 1 - lo]) / m
            for k in range(new_lo, r + 1)
        ]
        lo = new_lo
    return row[-1]


def _series_mul(a: list, b: list) -> list:
    """Product of two power series given by coefficient lists of equal
    length, truncated to that length."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def a_closed_form(n: int, r: int) -> Fraction:
    """[x^r] G(x)^2 T(x)^(n-2r) with G = sum gamma_j x^j (secant) and
    T = sum tau_j x^j (tangent): the sum over compositions of r of two secant
    and n-2r tangent coefficients.  Every product is truncated at degree r
    and the power is taken by squaring.  Defined for n >= 2r."""
    if r < 0 or n < 2 * r:
        raise InvalidArgumentError(f"closed form requires n >= 2r >= 0, got a({n}, {r})")
    gamma = [secant_coefficient(j) for j in range(r + 1)]
    tau = [tangent_coefficient(j) for j in range(r + 1)]
    out = _series_mul(gamma, gamma)
    k = n - 2 * r
    while k:
        if k & 1:
            out = _series_mul(out, tau)
        k >>= 1
        if k:
            tau = _series_mul(tau, tau)
    return out[r]


def big_a(k: int) -> Fraction:
    """A_k = sum_{i+j=k} gamma_i gamma_j."""
    return sum(
        (secant_coefficient(i) * secant_coefficient(k - i) for i in range(k + 1)),
        Fraction(0),
    )


def z_coefficient(p: int, r: int) -> Fraction:
    """z_{p,r} = sum_{k=p}^{r} A_{r-k} sum over length-p partitions of k of
    the tangent-coefficient product divided by the part multiplicities."""
    if not 1 <= p <= r:
        raise InvalidArgumentError("z coefficient needs 1 <= p <= r")
    total = Fraction(0)
    for k in range(p, r + 1):
        inner = Fraction(0)
        for parts in _partitions_exact(k, p):
            mults: dict = {}
            for v in parts:
                mults[v] = mults.get(v, 0) + 1
            denom = 1
            for m in mults.values():
                denom *= factorial(m)
            term = Fraction(1, denom)
            for v in parts:
                term *= tangent_coefficient(v)
            inner += term
        total += big_a(r - k) * inner
    return total


@dataclass(frozen=True)
class SunCoefficients:
    n_max: int
    r_max: int
    recursion: dict  # (n, r) -> Fraction, full grid
    closed: dict     # (n, r) -> Fraction, n >= 2r only
    gamma: tuple
    tau: tuple
    big_a: tuple
    z: dict          # (p, r) -> Fraction

    def agree(self) -> bool:
        return all(self.recursion[key] == val for key, val in self.closed.items())


# the largest r_max of sun_coefficients, whose z_{p,r} enumerate the
# partitions of every k <= r_max: on a 2-vCPU x86_64 host the z table takes
# 0.6-0.9 s at order 20, 3.1 s at 24 and 10 s at 30, and the largest table
# that this bound and A_RECURSION_BOUND admit, coeffs --table 28 20, 1.8 s
TABLE_ORDER_BOUND = 20


def sun_coefficients(n_max: int, r_max: int) -> SunCoefficients:
    """The tables up to (n_max, r_max); entry (n, r) counts n * (min(n, r) + 1)
    steps, its recursion grid, against A_RECURSION_BOUND."""
    if n_max < 0 or r_max < 0:
        raise InvalidArgumentError("table bounds must be non-negative")
    if r_max > TABLE_ORDER_BOUND:
        raise ResourceLimitError(
            f"table order {r_max} is over the table order bound {TABLE_ORDER_BOUND}"
        )
    steps = 0
    for n in range(n_max + 1):
        steps += sum(n * (min(n, r) + 1) for r in range(r_max + 1))
        if steps > A_RECURSION_BOUND:
            raise ResourceLimitError(
                f"the table up to a({n_max}, {r_max}) takes more recursion steps than the "
                f"a_recursion bound {A_RECURSION_BOUND}"
            )
    rec = {(n, r): a_recursion(n, r) for n in range(n_max + 1) for r in range(r_max + 1)}
    closed = {
        (n, r): a_closed_form(n, r)
        for n in range(n_max + 1)
        for r in range(r_max + 1)
        if n >= 2 * r
    }
    gamma = tuple(secant_coefficient(k) for k in range(r_max + 1))
    tau = tuple(tangent_coefficient(k) for k in range(r_max + 1))
    bigs = tuple(big_a(k) for k in range(r_max + 1))
    zs = {(p, r): z_coefficient(p, r) for r in range(1, r_max + 1) for p in range(1, r + 1)}
    return SunCoefficients(n_max, r_max, rec, closed, gamma, tau, bigs, zs)


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


def _eta_terms(f: Poly, r_max: int) -> list:
    """[eta_0(f), ..., eta_{r_max}(f)], eta_0 being the identity.

    eta_r = (A_r + sum_p z_{p,r} D(D-1)...(D-p+1)) Delta^r with D the Euler
    operator acts on a homogeneous degree-m part as a(m, r) Delta^r, so the
    r-th Laplacian of each part is scaled by a(m, r).  Parts of different
    degree land on different degrees at each r, so their terms never meet.
    The Laplacians run on f's integer numerators over its least common
    denominator d, and each output term is one Fraction a(m, r) * n / d.
    """
    terms, d = _int_terms(f)
    parts: dict = {}
    for e, n in terms.items():
        parts.setdefault(sum(e), {})[e] = n
    acc = [{} for _ in range(min(r_max, max(f.total_degree(), 0) // 2) + 1)]
    for m, cur in parts.items():
        for r in range(1, min(r_max, m // 2) + 1):
            cur = _laplacian(cur)
            if not cur:
                break
            a = a_recursion(m, r)
            num, den = a.numerator, a.denominator * d
            acc[r].update((e, Fraction(num * n, den)) for e, n in cur.items())
    return [f] + [Poly._frozen(f.space, t) for t in acc[1:]]


def _su2_closed_lift(prod: Poly) -> NuObject:
    etas = _eta_terms(prod, max(prod.total_degree(), 0) // 2)
    return NuObject(prod.space, {2 * r: eta for r, eta in enumerate(etas)})


def sun_closed_form(f: Poly, g: Poly) -> NuObject:
    """F sun G = FG + sum_r nu^{2r} eta_r(FG), exact (the series stops once
    the iterated Laplacian kills the product)."""
    if g.space != f.space:
        raise InvalidArgumentError("operands live on different spaces")
    return _su2_closed_lift(f * g)


def sun_homogeneous_form(f: Poly, g: Poly) -> NuObject:
    """The simpler display for homogeneous operands of equal degree n:
    sum_r nu^{2r} a(2n, r) Delta^r(FG), which is the closed form."""
    for h in (f, g):
        degs = {sum(e) for e in h.terms}
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
    fs = [_as_nu(x, sp.space).classical() for x in (f, g, h)]
    return sun_lift(sp, jacobian_det(fs, (0, 1, 2)))


def fi_residual_sun(sp: SunProduct, fs) -> NuObject:
    """Fundamental Identity residual for the quantized bracket on 5 inputs."""
    fs = list(fs)
    if len(fs) != 5:
        raise InvalidArgumentError("the order-3 Fundamental Identity needs 5 arguments")
    lhs = quantized_nambu_sun(fs[0], fs[1], quantized_nambu_sun(fs[2], fs[3], fs[4], sp), sp)
    rhs = NuObject.zero(sp.space)
    for k in range(3):
        inner = quantized_nambu_sun(fs[0], fs[1], fs[2 + k], sp)
        args = fs[2:]
        args[k] = inner
        rhs = rhs + quantized_nambu_sun(args[0], args[1], args[2], sp)
    return lhs - rhs


def _nu_diff(x: NuObject, axis: int) -> NuObject:
    return NuObject(x.space, {k: p.diff(axis) for k, p in x.coeffs.items()})


def weak_leibniz_residual(sp: SunProduct, f: Poly, g: Poly, h: Poly, axis: int) -> NuObject:
    """F sun (d_i(G sun H) - G sun d_i H - d_i G sun H); vanishes because the
    inner combination has zero classical part."""
    gh = sun_mul(sp, g, h)
    inner = _nu_diff(gh, axis) - sun_mul(sp, g, h.diff(axis)) - sun_mul(sp, g.diff(axis), h)
    return sun_mul(sp, f, inner)


# ---------------------------------------------------------------------------
# Equivalence and triviality.  An intertwiner S is stored as its r_max and
# applied by one _eta_terms pass per polynomial, which gives every S_k at once.


@dataclass(frozen=True)
class DiffOpSeries:
    """S = Id + sum_{r=1..r_max} nu^{2r} eta_r, eta_r being the nu^{2r}
    cochain of the su(2)* sun product, a(m, r) Delta^r on each homogeneous
    degree-m part; r_max = 0 is the identity."""

    space: VarSpace
    r_max: int

    def __post_init__(self):
        if self.r_max < 0:
            raise InvalidArgumentError("r_max must be non-negative")

    def components(self, f: Poly) -> list:
        """Every nonzero (k, S_k(f)), all from one _eta_terms pass."""
        if f.space != self.space:
            raise InvalidArgumentError("polynomials live on different variable spaces")
        return [(2 * r, eta) for r, eta in enumerate(_eta_terms(f, self.r_max)) if not eta.is_zero()]

    def apply(self, x) -> NuObject:
        out: dict = {}
        for k, p in _as_nu(x, self.space).coeffs.items():
            for s, v in self.components(p):
                _bump(out, k + s, v)
        return NuObject(self.space, out)


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


def _product_apply(prod, x: NuObject, y: NuObject) -> NuObject:
    if prod is USUAL_PRODUCT:
        return x * y
    if isinstance(prod, SunProduct):
        return sun_mul(prod, x, y)
    raise InvalidArgumentError("expected a sun product or the usual product")


def _product_cochains(prod, h: Poly) -> dict:
    """{r: rho_r(h)}: rho_0 = id for the usual product, and every nonzero
    cochain of a sun product from one sun_lift."""
    if prod is USUAL_PRODUCT:
        return {0: h}
    if isinstance(prod, SunProduct):
        return sun_lift(prod, h).coeffs
    raise InvalidArgumentError("expected a sun product or the usual product")


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
    the double cochain expansion sum nu^{r+s} S_s(rho_r(FG)) minus
    sum nu^{r+s+s'} rho'_r(S_s(F) S_{s'}(G)).  A zero residual certifies
    equivalence to the computed order.
    """
    if nu_order < 0:
        raise InvalidArgumentError("nu_order must be non-negative")
    space = s.space
    if mode == "B":
        lhs = s.apply(_product_apply(p1, _as_nu(f, space), _as_nu(g, space)))
        rhs = _product_apply(p2, s.apply(f), s.apply(g))
        return (lhs - rhs).truncate(nu_order)
    if mode == "A":
        out: dict = {}
        for r, rho in _product_cochains(p1, f * g).items():
            if r <= nu_order:
                for ss, v in s.components(rho):
                    _bump(out, r + ss, v)
        sg = s.components(g)
        for ss, a in s.components(f):
            for tt, b in sg:
                if ss + tt <= nu_order:
                    for r, rho in _product_cochains(p2, a * b).items():
                        _bump(out, r + ss + tt, -rho)
        return NuObject(space, out).truncate(nu_order)
    raise InvalidArgumentError("mode must be 'A' or 'B'")
