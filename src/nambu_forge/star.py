"""Star products: full and partial Moyal, a standard-ordering product, and
the invariant (covariant) star product on su(2)*.

All products are exact on polynomials: the nu-series terminates because every
cochain lowers the total derivative order, so no truncation is involved.  The
sign conventions are pinned by two testable constraints: the antisymmetrized
first cochain equals twice the Poisson bivector, and the su(2) product closes
on L_i * L_j = L_i L_j + nu eps_ijk L_k + 2 nu^2 delta_ij.

The su(2) product writes the factor of lower degree in star monomials
L_{i1} * ... * L_{in} and applies their letters to the other factor through
the closed formula for L_i * F and F * L_i; the Moyal product of the R^6
lifts is kept as an independent oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .errors import InvalidArgumentError, ResourceLimitError
from .poly import (
    NuObject,
    Poly,
    TSeries,
    VarSpace,
    _DerivativeCache,
    _add_into,
    _add_over,
    _bump,
    _diff_terms,
    _freeze,
    _int_terms,
    _mul_into,
    _poisson_grid,
    _poisson_into,
    su2_lift_space,
    su2_space,
)

__all__ = [
    "StarProduct",
    "moyal_product",
    "partial_moyal_product",
    "standard_ordering_product",
    "su2_product",
    "star_mul",
    "su2_left_mul",
    "star_commutator",
    "star_exponential",
]

# the largest total degree of a star operand; the tests and the benchmark use
# at most 10.  On a 2-vCPU x86_64 host, at degree 16, L1^16 * L2^16 takes
# 0.02 s and (q + p)^16 squared under Moyal 0.02 s, while dense operands on
# su(2)* are the slowest: (L1 + L2 + L3)^16 squared takes 98 s (20 s at
# degree 12).  The su(2)* words also recurse once per letter, so degrees
# near 1000 would overflow Python's recursion limit.
STAR_DEGREE_BOUND = 16

# the star products with g * f = (f * g)(-nu), whose symmetrizations are even
# in nu; the Moyal kinds take their terms from powers of the Poisson bivector
_MOYAL_KINDS = ("moyal", "partial_moyal")
_EVEN_KINDS = _MOYAL_KINDS + ("su2",)

_EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


@dataclass(frozen=True)
class StarProduct:
    """A star-product rule tagged with its variable space.

    kind is one of ``moyal``, ``partial_moyal``, ``standard_ordering``,
    ``su2``; the first three act on the symplectic pairs of the space.
    """

    kind: str
    space: VarSpace


def moyal_product(space: VarSpace) -> StarProduct:
    if not space.pairs:
        raise InvalidArgumentError("Moyal product needs at least one symplectic pair")
    return StarProduct("moyal", space)


def partial_moyal_product(space: VarSpace) -> StarProduct:
    if not space.pairs:
        raise InvalidArgumentError("partial Moyal product needs at least one active pair")
    return StarProduct("partial_moyal", space)


def standard_ordering_product(space: VarSpace) -> StarProduct:
    if len(space.pairs) != 1:
        raise InvalidArgumentError("standard-ordering product is defined on one pair")
    return StarProduct("standard_ordering", space)


def su2_product() -> StarProduct:
    return StarProduct("su2", su2_space())


def _as_nu(x, space: VarSpace) -> NuObject:
    out = NuObject._coerce(x, space)
    if out is None:
        raise InvalidArgumentError(f"cannot interpret {type(x).__name__} as an operand")
    return out


def _moyal_into(acc: dict, f: Poly, g: Poly, shift: int) -> None:
    """acc[shift + r] += P^r(f, g) / r! for every r."""
    (ft, fd), (gt, gd) = _int_terms(f), _int_terms(g)
    df, dg = _DerivativeCache(ft, f.space), _DerivativeCache(gt, f.space)
    grid = _poisson_grid(df, dg)
    ints: dict = {}
    _poisson_into(ints, df, dg, grid)
    for r, row in ints.items():
        _add_over(acc.setdefault(shift + r, {}), row, fd * gd * grid[1])


def _standard_into(acc: dict, f: Poly, g: Poly, shift: int) -> None:
    # f *_S g = sum_r (-2 nu)^r / r! (d^r f / dp^r)(d^r g / dq^r); the sign is
    # forced by C1(f,g) - C1(g,f) = 2 P(f,g) and matches the ordering with all
    # q-operators to the left under nu = i hbar / 2.
    a, b = f.space.pairs[0]
    (df, fd), (dg, gd) = _int_terms(f), _int_terms(g)
    r = 0
    while df and dg:
        ints: dict = {}
        _mul_into(ints, df, dg, (-2) ** r)
        _add_over(acc.setdefault(shift + r, {}), ints, fd * gd * factorial(r))
        df = _diff_terms(df, b)
        dg = _diff_terms(dg, a)
        r += 1


# -- su(2)* covariant product ------------------------------------------------

_L_SPACE = su2_space()
_R6 = su2_lift_space()


def su2_generators() -> tuple:
    """The lifts L_i = sum eps_ijk p_j q_k as polynomials on R^6."""
    gens = []
    for i in range(3):
        terms = {}
        for (i2, j, k), s in _EPS.items():
            if i2 != i:
                continue
            e = [0] * 6
            e[j] += 1      # p_j
            e[3 + k] += 1  # q_k
            terms[tuple(e)] = Fraction(s)
        gens.append(Poly(_R6, terms))
    return tuple(gens)


_L_GENS = su2_generators()


def su2_lift(f: Poly) -> Poly:
    """Substitute L_i -> eps_ijk p_j q_k, mapping L-polynomials onto R^6."""
    if f.space != _L_SPACE:
        raise InvalidArgumentError("su2_lift expects a polynomial in L1, L2, L3")
    return f.compose(_L_GENS, _R6)


def _unit(i: int, k: int = 1) -> tuple:
    return tuple(k if j == i else 0 for j in range(3))


def _shift(e: tuple, d: tuple) -> tuple:
    return tuple(map(int.__add__, e, d))


# per axis i: u_i, -u_i and (j, eps_ijk, u_k - u_j) for the two j != i
_AXES = tuple(
    (_unit(i), _unit(i, -1),
     tuple((j, s, _shift(_unit(k), _unit(j, -1))) for (i2, j, k), s in _EPS.items() if i2 == i))
    for i in range(3)
)


def _degree(x: NuObject) -> int:
    return max((p.total_degree() for p in x.coeffs.values()), default=-1)


def _var_mul(i: int, x: NuObject, sign: int) -> NuObject:
    """L_i * x (sign +1) or x * L_i (sign -1), term by term.

    The closed covariant formula L_i * F = L_i F + nu eps_ijk L_k dF/dL_j
    + nu^2 (2 dF/dL_i + sum_j L_j d2F/dL_i dL_j), whose mirror F * L_i flips
    the sign of the nu^1 term, sends c L^e at nu^m to c L^(e+u_i) at nu^m,
    sign eps_ijk e_j c L^(e-u_j+u_k) at nu^(m+1) for j != i, and, by Euler's
    relation on the nu^2 part, (1 + |e|) e_i c L^(e-u_i) at nu^(m+2).
    """
    up, down, cross = _AXES[i]
    acc: dict = {}
    for m, poly in x.coeffs.items():
        a0, a1, a2 = (acc.setdefault(m + d, {}) for d in range(3))
        for e, c in poly.terms.items():
            _bump(a0, _shift(e, up), c)
            for j, s, d in cross:
                if e[j]:
                    _bump(a1, _shift(e, d), c * (sign * s * e[j]))
            if e[i]:
                _bump(a2, _shift(e, down), c * ((1 + sum(e)) * e[i]))
    return _freeze(_L_SPACE, acc)


def su2_left_mul(i: int, f: Poly) -> NuObject:
    """L_i * f on su(2)*, computed from the closed covariant formula."""
    if not 1 <= i <= 3:
        raise InvalidArgumentError("axis index must be 1, 2 or 3")
    if f.space != _L_SPACE:
        raise InvalidArgumentError("su2_left_mul expects a polynomial in L1, L2, L3")
    return _var_mul(i - 1, NuObject.from_poly(f), 1)


def _word(e: tuple, sign: int, memo: dict) -> NuObject:
    """The word L_{i1} * ... * L_{in} of e acting on memo[(0, 0, 0)].

    From the left (sign +1) it is L_first * word(e - u_first), from the right
    (sign -1) word(e - u_last) * L_last; every prefix value stays in memo.
    """
    got = memo.get(e)
    if got is None:
        used = [j for j, k in enumerate(e) if k]
        i = used[0] if sign > 0 else used[-1]
        got = memo[e] = _var_mul(i, _word(_shift(e, _AXES[i][1]), sign, memo), sign)
    return got


@cache
def _star_monomial(e: tuple) -> NuObject:
    """The star monomial SM(e) = L_{i1} * ... * L_{in}, letters in axis order.

    Its classical part is exactly L^e and every other term has smaller total
    degree, which makes the basis triangular.
    """
    if not any(e):
        return NuObject.one(_L_SPACE)
    i = next(j for j, k in enumerate(e) if k)
    return _var_mul(i, _star_monomial(_shift(e, _AXES[i][1])), 1)


def _to_star_coefficients(x: NuObject) -> list:
    """Write x as sum of nu^k c * star-monomials, by descending degree."""
    residual = x
    out = []
    while not residual.is_zero():
        level = _degree(residual)
        batch = [(e, k, c) for k, poly in residual.coeffs.items()
                 for e, c in poly.terms.items() if sum(e) == level]
        out.extend(batch)
        acc: dict = {}
        _add_into(acc, residual, 0, 1)
        for e, k, c in batch:
            _add_into(acc, _star_monomial(e), k, -c)
        residual = _freeze(_L_SPACE, acc)
    return out


def _su2_mul(f: NuObject, g: NuObject) -> NuObject:
    """Covariant product by star-monomial decomposition of the smaller factor.

    The factor of lower total degree (the right one on a tie) is written in
    star monomials, and each word acts on the whole other series one letter
    at a time through the closed linear formula, sharing word prefixes within
    the call.  The product stays on three variables; the R^6 lift below is an
    independent oracle for this route.
    """
    if _degree(f) < _degree(g):
        words, memo, sign = _to_star_coefficients(f), {(0, 0, 0): g}, 1
    else:
        words, memo, sign = _to_star_coefficients(g), {(0, 0, 0): f}, -1
    acc: dict = {}
    for e, k, c in words:
        _add_into(acc, _word(e, sign, memo), k, c)
    return _freeze(_L_SPACE, acc)


def su2_star_via_lift(f: Poly, g: Poly) -> NuObject:
    """Reference route: Moyal product of the R^6 lifts, re-expressed in L."""
    acc: dict = {}
    _moyal_into(acc, su2_lift(f), su2_lift(g), 0)
    return NuObject(_L_SPACE, {k: _su2_project(Poly(_R6, row)) for k, row in acc.items()})


def _su2_project(f: Poly) -> Poly:
    """Express an R^6 polynomial in the image of the L-substitution exactly.

    A leading-term reduction in lex order p1 > p2 > p3 > q1 > q2 > q3, the
    tuple order of R^6 exponents: the lift of L^(a, b, c) leads with
    (-1)^b p1^(b+c) p2^a q2^c q3^(a+b), and this map is injective, so the
    leading term of what is left names the next L-monomial.  Reaching zero
    certifies the result; a leading term of any other shape means the
    product left the image (a bug).
    """
    rest = dict(f.terms)
    out = {}
    while rest:
        e = max(rest)
        a, c = e[1], e[4]
        b = e[0] - c
        if e[2] or e[3] or b < 0 or e[5] != a + b:
            raise InvalidArgumentError("su2 product left the L-image")
        k = rest[e] if b % 2 == 0 else -rest[e]
        out[(a, b, c)] = k
        for e2, c2 in su2_lift(Poly.monomial(_L_SPACE, (a, b, c))).terms.items():
            v = rest.get(e2, 0) - k * c2
            if v:
                rest[e2] = v
            else:
                del rest[e2]
    return Poly(_L_SPACE, out)


# -- public operations -------------------------------------------------------


def star_mul(s: StarProduct, f, g) -> NuObject:
    """Exact star product of two polynomials or nu-objects."""
    fo = _as_nu(f, s.space)
    go = _as_nu(g, s.space)
    if fo.space != s.space or go.space != s.space:
        raise InvalidArgumentError("star operands must live on the product's space")
    degree = max(_degree(fo), _degree(go))
    if degree > STAR_DEGREE_BOUND:
        raise ResourceLimitError(
            f"star operand of degree {degree} is over the star degree bound {STAR_DEGREE_BOUND}"
        )
    if s.kind == "su2":
        return _su2_mul(fo, go)
    acc: dict = {}
    for a, fp in sorted(fo.coeffs.items()):
        for b, gp in sorted(go.coeffs.items()):
            if s.kind in _MOYAL_KINDS:
                _moyal_into(acc, fp, gp, a + b)
            elif s.kind == "standard_ordering":
                _standard_into(acc, fp, gp, a + b)
            else:
                raise InvalidArgumentError(f"unknown star product kind {s.kind!r}")
    return _freeze(s.space, acc)


def star_commutator(s: StarProduct, f, g) -> NuObject:
    """[f, g] = (f * g - g * f) / (2 nu)."""
    diff = star_mul(s, f, g) - star_mul(s, g, f)
    return diff.nu_shift(-1) * Fraction(1, 2)


def star_power(s: StarProduct, h: Poly, r: int) -> NuObject:
    out = NuObject.one(s.space)
    for _ in range(r):
        out = star_mul(s, out, h)
    return out


def star_exponential(s: StarProduct, h: Poly, t_order: int) -> TSeries:
    """Star exponential as a t-series: sum_r (1/r!)(t/2nu)^r h*...*h."""
    if t_order < 0:
        raise InvalidArgumentError("t_order must be non-negative")
    coeffs = [NuObject.one(s.space)]
    for r in range(1, t_order + 1):
        nxt = star_mul(s, coeffs[-1], h).nu_shift(-1) * Fraction(1, 2 * r)
        coeffs.append(nxt)
    return TSeries(t_order, tuple(coeffs))
