"""Star products: full and partial Moyal, a standard-ordering product, and
the invariant (covariant) star product on su(2)*.

All products are exact on polynomials: the nu-series terminates because every
cochain lowers the total derivative order, so no truncation is involved.
Each operand's integer rows {(nu power,): {exponent: int}} over one
denominator (poly._Rows) are read as they are stored and the product is
stored as such rows too, so it builds no Fraction.  The Moyal, partial-Moyal
and standard-ordering products are each exp(nu B) for a constant
bidifferential operator B (the Poisson bivector, or -2 d_p (x) d_q), so each
hands every pair of rows to poly._poisson_sum in one call with B's axes.

The sign conventions are pinned by two testable constraints: the
antisymmetrized first cochain equals twice the Poisson bivector, and the
su(2) product closes on L_i * L_j = L_i L_j + nu eps_ijk L_k + 2 nu^2 delta_ij.

The su(2) product writes the factor of lower degree in star monomials
L_{i1} * ... * L_{in} and applies their letters to the other factor through
the closed formula for L_i * F and F * L_i; the Moyal product of the R^6
lifts is kept as an independent oracle for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import InvalidArgumentError, ResourceLimitError
from .poly import (
    NuObject,
    Poly,
    TSeries,
    VarSpace,
    _Frozen,
    _poisson_sum,
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
# 0.002 s and (q + p)^16 squared under Moyal 0.02 s, while dense operands on
# su(2)* are the slowest: (L1 + L2 + L3)^16 squared takes 6.2 s (1.3 s at
# degree 12), and SU2_WORD_BOUND refuses it.  The su(2)* words also recurse
# once per letter, so degrees near 1000 would overflow Python's recursion
# limit.
STAR_DEGREE_BOUND = 16

# the largest su(2)* word work: star monomials of the smaller factor times
# terms of the larger, counted before any word acts.  One unit takes 30-100 us
# on the same host: (L1 + L2 + L3)^12 squared (455 words x 91 terms) takes
# 1.3 s, ^14 (81,600) 2.8 s and ^16 (148,257) 6.2 s; the slowest admitted
# shape found, ten degree-16 monomials times the 969 monomials of degree <= 16
# (4819 words x 10 terms), takes 3.9 s.  The tests and the benchmark reach 576.
SU2_WORD_BOUND = 50_000

# the largest t-order of star_exponential and sun.sun_exponential.  The
# degree bound stops the star exponential of a non-constant h by order 17,
# but not the sun exponential, whose r-th power has degree r deg(h), nor
# either of a constant h.  On a 2-vCPU x86_64 host, with a fresh process per
# call: sun --exp L1+L2+L3 takes 0.3 s at order 20 and took 2.3, 8.2 and
# 28 s at orders 40, 60 and 80.  sun.LAPLACIAN_STEP_BOUND counts the passes
# of all the sun lifts before the first, so at order 20 L1^10 (2.0 s) and
# L1^15 (4-5 s) are refused in 0.1 s.  The slowest admitted shapes found,
# L1^2*L2^2*L3 + 1 (39,418 steps) and L1^2*L2*L3 + L2*L3 (48,895), take
# 2.5-4 s, about 1 s of it the lifts and the rest printing their 10 MB of
# coefficients.  Both exponentials of 1 ran past 25 s at order 200000.  The
# tests use at most order 20 and the benchmark order 6.
EXP_ORDER_BOUND = 20

# the Moyal kinds take their terms from powers of the Poisson bivector
_MOYAL_KINDS = ("moyal", "partial_moyal")
_KINDS = _MOYAL_KINDS + ("su2", "standard_ordering")

_EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


class StarProduct(_Frozen):
    """A star-product rule tagged with its variable space.

    kind is one of ``moyal``, ``partial_moyal``, ``standard_ordering``,
    ``su2``; the first three act on the symplectic pairs of the space.
    """

    __slots__ = _fields = ("kind", "space")

    def __init__(self, kind: str, space: VarSpace):
        self._set(kind, space)


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


def _check_degree(degree: int) -> None:
    if degree > STAR_DEGREE_BOUND:
        raise ResourceLimitError(
            f"star operand of degree {degree} is over the star degree bound {STAR_DEGREE_BOUND}"
        )


def _check_t_order(t_order: int) -> None:
    if t_order < 0:
        raise InvalidArgumentError("t_order must be non-negative")
    if t_order > EXP_ORDER_BOUND:
        raise ResourceLimitError(
            f"t-order {t_order} is over the exponential order bound {EXP_ORDER_BOUND}"
        )


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
            terms[tuple(e)] = s
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
    return max((max(map(sum, row)) for row in x.rows.values()), default=-1)


def _nterms(x: NuObject) -> int:
    return sum(map(len, x.rows.values()))


def _var_mul(i: int, rows: dict, sign: int) -> dict:
    """L_i * x (sign +1) or x * L_i (sign -1) on the integer rows
    {(nu power,): {exponent: int}} of x, term by term, into new rows.

    The closed covariant formula L_i * F = L_i F + nu eps_ijk L_k dF/dL_j
    + nu^2 (2 dF/dL_i + sum_j L_j d2F/dL_i dL_j), whose mirror F * L_i flips
    the sign of the nu^1 term, sends c L^e at nu^m to c L^(e+u_i) at nu^m,
    sign eps_ijk e_j c L^(e-u_j+u_k) at nu^(m+1) for j != i, and, by Euler's
    relation on the nu^2 part, (1 + |e|) e_i c L^(e-u_i) at nu^(m+2).  Every
    factor is an integer, so the rows stay integer; entries that cancel stay
    as zeros and are skipped by the next letter.
    """
    (u0, u1, u2), (v0, v1, v2), ((j, s, (w0, w1, w2)), (k, t, (x0, x1, x2))) = _AXES[i]
    s *= sign
    t *= sign
    acc: dict = {}
    for (m,), row in rows.items():
        a0, a1, a2 = (acc.setdefault((m + d,), {}) for d in range(3))
        for e, c in row.items():
            if not c:
                continue
            e0, e1, e2 = e
            y = (e0 + u0, e1 + u1, e2 + u2)
            a0[y] = a0.get(y, 0) + c
            if e[j]:
                y = (e0 + w0, e1 + w1, e2 + w2)
                a1[y] = a1.get(y, 0) + c * s * e[j]
            if e[k]:
                y = (e0 + x0, e1 + x1, e2 + x2)
                a1[y] = a1.get(y, 0) + c * t * e[k]
            if e[i]:
                y = (e0 + v0, e1 + v1, e2 + v2)
                a2[y] = a2.get(y, 0) + c * (1 + e0 + e1 + e2) * e[i]
    return acc


def su2_left_mul(i: int, f: Poly) -> NuObject:
    """L_i * f on su(2)*, computed from the closed covariant formula."""
    if not 1 <= i <= 3:
        raise InvalidArgumentError("axis index must be 1, 2 or 3")
    if f.space != _L_SPACE:
        raise InvalidArgumentError("su2_left_mul expects a polynomial in L1, L2, L3")
    return NuObject._of(_L_SPACE, _var_mul(i - 1, {(0,): f.num}, 1), f.den)


def _word(e: tuple, sign: int, memo: dict) -> dict:
    """The integer rows of the word L_{i1} * ... * L_{in} of e acting on
    memo[(0, 0, 0)].

    From the left (sign +1) it is L_first * word(e - u_first), from the right
    (sign -1) word(e - u_last) * L_last; every prefix value stays in memo,
    which its callers read and never mutate.
    """
    got = memo.get(e)
    if got is None:
        used = [j for j, k in enumerate(e) if k]
        i = used[0] if sign > 0 else used[-1]
        got = memo[e] = _var_mul(i, _word(_shift(e, _AXES[i][1]), sign, memo), sign)
    return got


@cache
def _star_monomial(e: tuple) -> dict:
    """The integer rows of the star monomial SM(e) = L_{i1} * ... * L_{in},
    letters in axis order: the left word of e on the unit; cached, so read
    and never mutated.

    Its classical part is exactly L^e and every term at nu^m has total degree
    |e| - m, which makes the basis triangular.
    """
    return _word(e, 1, {(0, 0, 0): {(0,): {(0, 0, 0): 1}}})


def _to_star_coefficients(x: NuObject) -> list:
    """The words (e, k, c) with x = sum of nu^k (c / d) SM(e), c an integer
    and d x's denominator.

    The residual is kept in buckets by total degree and cleared from the top
    down: SM(e) is L^e plus its nu^m rows of degree |e| - m, so subtracting
    those leaves the bucket of degree |e| alone.
    """
    levels: dict = {}
    for (k,), row in x.rows.items():
        for e, c in row.items():
            levels.setdefault(sum(e), {})[k, e] = c
    words = []
    for level in range(max(levels, default=-1), -1, -1):
        for (k, e), c in levels.pop(level, {}).items():
            if not c:
                continue
            words.append((e, k, c))
            for (m,), row in _star_monomial(e).items():
                if m:
                    bucket, km = levels.setdefault(level - m, {}), k + m
                    for y, n in row.items():
                        bucket[km, y] = bucket.get((km, y), 0) - c * n
    return words


def _su2_mul(f: NuObject, g: NuObject) -> NuObject:
    """Covariant product by star-monomial decomposition of the smaller factor.

    The factor of lower total degree (on a tie the one with fewer terms, and
    the right one when those tie too) is written in star monomials, and each
    word acts on the whole other series one letter at a time through the
    closed linear formula, sharing word prefixes within the call.  Both
    factors are integer rows over their own denominators, so the words are
    summed in ints and the product is stored over the product of the two.
    Past SU2_WORD_BOUND words times terms it is refused before any word
    acts.  The product stays on three variables; the R^6 lift below is an
    independent oracle for this route.
    """
    if (_degree(f), _nterms(f)) < (_degree(g), _nterms(g)):
        small, big, sign = f, g, 1
    else:
        small, big, sign = g, f, -1
    words = _to_star_coefficients(small)
    terms = _nterms(big)
    if len(words) * terms > SU2_WORD_BOUND:
        raise ResourceLimitError(
            f"su(2)* product of {len(words)} star monomials by {terms} terms is over "
            f"the su2 word bound {SU2_WORD_BOUND}"
        )
    memo = {(0, 0, 0): big.rows}
    acc: dict = {}
    for e, k, c in words:
        for (m,), row in _word(e, sign, memo).items():
            out = acc.setdefault((m + k,), {})
            for y, n in row.items():
                out[y] = out.get(y, 0) + c * n
    return NuObject._of(_L_SPACE, acc, small.den * big.den)


def su2_star_via_lift(f: Poly, g: Poly) -> NuObject:
    """Reference route: Moyal product of the R^6 lifts, re-expressed in L."""
    fl, gl = su2_lift(f), su2_lift(g)
    rows, d = _poisson_sum([(0, 1, fl.num, gl.num)], _R6)
    return NuObject(_L_SPACE, {k: _su2_project(Poly._of(_R6, row, d * fl.den * gl.den))
                               for (k,), row in rows.items()})


def _su2_project(f: Poly) -> Poly:
    """Express an R^6 polynomial in the image of the L-substitution exactly.

    A leading-term reduction in lex order p1 > p2 > p3 > q1 > q2 > q3, the
    tuple order of R^6 exponents: the lift of L^(a, b, c) leads with
    (-1)^b p1^(b+c) p2^a q2^c q3^(a+b), and this map is injective, so the
    leading term of what is left names the next L-monomial.  Reaching zero
    certifies the result; a leading term of any other shape means the
    product left the image (a bug).
    """
    rest = dict(f.num)
    out = {}
    while rest:
        e = max(rest)
        a, c = e[1], e[4]
        b = e[0] - c
        if e[2] or e[3] or b < 0 or e[5] != a + b:
            raise InvalidArgumentError("su2 product left the L-image")
        k = rest[e] if b % 2 == 0 else -rest[e]
        out[(a, b, c)] = k
        for e2, c2 in su2_lift(Poly.monomial(_L_SPACE, (a, b, c))).num.items():
            v = rest.get(e2, 0) - k * c2
            if v:
                rest[e2] = v
            else:
                del rest[e2]
    return Poly._of(_L_SPACE, out, f.den)


# -- public operations -------------------------------------------------------


def star_mul(s: StarProduct, f, g) -> NuObject:
    """Exact star product of two polynomials or nu-objects."""
    if s.kind not in _KINDS:
        raise InvalidArgumentError(f"unknown star product kind {s.kind!r}")
    fo = _as_nu(f, s.space)
    go = _as_nu(g, s.space)
    if fo.space != s.space or go.space != s.space:
        raise InvalidArgumentError("star operands must live on the product's space")
    _check_degree(max(_degree(fo), _degree(go)))
    if s.kind == "su2":
        return _su2_mul(fo, go)
    axes = None  # the Moyal kinds: the Poisson bivector of the space
    if s.kind == "standard_ordering":
        # f *_S g = sum_r (-2 nu)^r / r! (d^r f / dp^r)(d^r g / dq^r): the sign
        # is forced by C1(f,g) - C1(g,f) = 2 P(f,g) and matches the ordering
        # with all q-operators to the left under nu = i hbar / 2
        q, p = s.space.pairs[0]
        axes = [(p, q, -2)]
    rows, d = _poisson_sum([(a + b, 1, x, y) for (a,), x in fo.rows.items()
                            for (b,), y in go.rows.items()], s.space, axes=axes)
    return NuObject._of(s.space, rows, d * fo.den * go.den)


def star_commutator(s: StarProduct, f, g) -> NuObject:
    """[f, g] = (f * g - g * f) / (2 nu)."""
    diff = star_mul(s, f, g) - star_mul(s, g, f)
    return diff.nu_shift(-1) * Fraction(1, 2)


def star_exponential(s: StarProduct, h: Poly, t_order: int) -> TSeries:
    """Star exponential as a t-series: sum_r (1/r!)(t/2nu)^r h*...*h."""
    _check_t_order(t_order)
    coeffs = [NuObject.one(s.space)]
    for r in range(1, t_order + 1):
        nxt = star_mul(s, coeffs[-1], h).nu_shift(-1) * Fraction(1, 2 * r)
        coeffs.append(nxt)
    return TSeries(t_order, tuple(coeffs))
