"""Zariski quantization: the semigroup algebra over irreducible-factor
multisets, its Abelian nu-deformation, Leibniz-postulated derivations with
their Frobenius failure, and the Taylor algebra that repairs it.

The basis element Z_u of the classical algebra is a multiset of normalized
irreducible polynomials (the factorization of u); the empty multiset is the
unit.  The field is Q: factors are irreducible over the rationals, as
``factor`` finds them, while the construction is stated for polynomials on
R^n.  Where a factor splits over R but not over Q the two algebras differ:
Z[x1^2 - 2] times Z[x2; x2] has the tail 2/3*nu^2*Z[] here, and over R,
where every factor is linear, it has none.

The deformed product discards positive nu powers of its operands (it
is R-linear, not linear over series in nu), so it is one fixed linear map D
applied to the classical product:

    D(Z_u) = Z_u + sum_{r>0} nu^r Z(T_r(u)),

where T(u) is the symmetrized star product over the factor multiset of u
(``eval_T``) and Z(.) re-factors each nu coefficient back into the algebra
(Dito-Flato-Sternheimer-Takhtajan, CMP 183 (1997), hep-th/9602016).  The nu^0
part of D is the identity, so a nested deformed product (x*y)*z equals
D(x_0 y_0 z_0).  ``z_mul_nu``, ``a_mul_nu`` (y-degree by y-degree) and
``quantum_nambu`` (the alternating sum of triple products of y-derivatives)
therefore build the classical product in one mutable map and apply D once,
through one ``_deform``; terms that cancel classically never reach ``eval_T``.

T is even in nu: reversing every ordering leaves it unchanged, and on the
Moyal and partial-Moyal products g * f is f * g with nu replaced by -nu.  So
``eval_T`` keeps only the even part of each step of its recursion,

    T(S) = (1/|S|) sum_u mult(u) sum_{r even} nu^(a+r) P^r(T_a(S - u), u) / r!,

summed on integer rows over one denominator; every other star product is
refused.  The terms r = 0, a = 0 add up to |S| times the product of S's
factors, so the nu^0 row of T(S) is that product, formed once, and the
Poisson sums take r >= 2 only.

The products run on integer numerators.  ``_eval_T`` caches T(S) as integer
rows over one denominator, which the next recursion step reads as they are;
``_deformation_tail`` keeps the nu^r parts of D(Z_m) as integer multiples of
one Z-monomial each over one denominator, in one table per star product.
Every classical product (plain, nu-graded, y-graded, and the y-derivatives
in ``quantum_nambu``) multiplies rows of {ZMonomial: numerator} with
``_z_mul_into``, keyed by tuples that add entrywise under the product
(through ``poly._graded_mul_into``), with one denominator per operand; the
y-graded products of ``a_mul_nu`` and both Nambu brackets run on the tuple
keys that TaylorElem stores.  A ZElem is one such row over its own
denominator, in the integer layout it shares with Poly (``poly._Rational``).
A ZNu and a TaylorElem store such rows keyed by (nu power,) and y-exponent
+ (nu power,) over one denominator, through the base class ``poly._Rows``
they share with NuObject, so no product, + or - builds a Fraction; one is
built per term only when a caller reads ``terms``.

Z-monomials are interned: every ZMonomial is built through one cached
constructor over its tuple of interned factors, so equal factor multisets
are one object, == and hash are those of identity, and dict operations on
{ZMonomial: ...} rows never call Python code.  ``union`` is cached per pair of
Z-monomials, ``_eval_T`` per Z-monomial and star product, and ``jmap`` adds
c times the J-image of each Z-monomial, cached per Z-monomial and space.
Since the hash is by identity, no output may depend on the iteration order of
a set of ZMonomials; rows are dicts, which keep insertion order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cache, partial
from math import comb, lcm, prod

from . import factor
from .errors import InvalidArgumentError, ResourceLimitError
from .factor import factorize, is_irreducible, normalize
from .poly import (
    DEFAULT_DEGREE_BOUND,
    NuObject,
    Poly,
    VarSpace,
    _add_rows,
    _alternating_sum,
    _bump,
    _Frozen,
    _graded_mul_into,
    _joined,
    _mul_into,
    _num_rows,
    _poisson_sum,
    _Rational,
    _reduced,
    _Rows,
    _term_text,
    grlex_key,
    zariski_space,
)
from .star import (
    _MOYAL_KINDS,
    StarProduct,
    moyal_product,
    partial_moyal_product,
)

__all__ = [
    "ZMonomial",
    "ZElem",
    "ZNu",
    "TaylorElem",
    "zariski_space",
    "zariski_star",
    "zmonomial",
    "zelem_from_poly",
    "alpha",
    "eval_T",
    "times_alpha",
    "zeta",
    "z_mul_classical",
    "z_mul_nu",
    "znu_mul_classical",
    "znu_power_nu",
    "delta",
    "FrobeniusWitness",
    "frobenius_counterexample_search",
    "jmap",
    "taylor_unit",
    "taylor_mul_classical",
    "a_mul_nu",
    "delta_y",
    "quantum_nambu",
    "classical_nambu",
]


def zariski_star(n: int = 3) -> StarProduct:
    space = zariski_space(n)
    if n % 2 == 0:
        return moyal_product(space)
    return partial_moyal_product(space)


# ---------------------------------------------------------------------------
# The semigroup algebra


@cache
def _interned(f: Poly) -> Poly:
    """The first factor equal to f that a ZMonomial met, so that equal
    factors of different factorizations are one object in every ZMonomial."""
    return f


class ZMonomial:
    """Canonical multiset of normalized irreducible factors.

    Interned: every construction returns the one ZMonomial over its
    (interned) factors, so equal multisets are one object, and == and hash
    are those of object identity.
    """

    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Poly], trusted: bool = False):
        factors = sorted(factors, key=Poly.sort_key, reverse=True)
        if not trusted:
            for f in factors:
                if f.is_zero() or f.is_constant():
                    raise InvalidArgumentError("factors must be non-constant polynomials")
                if f.leading_coeff() != 1:
                    raise InvalidArgumentError(f"factor {f} is not normalized")
                if not is_irreducible(f):
                    raise InvalidArgumentError(f"factor {f} is not irreducible")
        return cls._sorted(tuple(map(_interned, factors)))

    @staticmethod
    @cache
    def _sorted(factors: tuple) -> "ZMonomial":
        """The ZMonomial over factors already in canonical order, each of them
        interned; cached, so each factor tuple builds one object."""
        out = object.__new__(ZMonomial)
        object.__setattr__(out, "factors", factors)
        return out

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ZMonomial is immutable")

    def __len__(self):
        return len(self.factors)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return ZMonomial, (self.factors, True)

    def degree(self) -> int:
        return sum(f.total_degree() for f in self.factors)

    def product_poly(self, space: VarSpace) -> Poly:
        return prod(self.factors, start=Poly.const(space, 1))

    @cache
    def union(self, other: "ZMonomial") -> "ZMonomial":
        """The multiset sum, computed once per pair: one sorted merge of the
        two factor tuples, so union(a, b) is union(b, a)."""
        return ZMonomial._sorted(tuple(sorted(self.factors + other.factors, key=Poly.sort_key,
                                              reverse=True)))

    __add__ = union  # so Z-monomial keys add under poly._mul_into

    def __mul__(self, k: int) -> "ZMonomial":
        """The k-fold union: each factor repeated k times in place, which
        keeps the canonical order (a key entry times k, as in a power)."""
        return ZMonomial._sorted(tuple(f for f in self.factors for _ in range(k)))

    def sort_key(self):
        return (self.degree(), tuple(f.sort_key() for f in self.factors))

    def __repr__(self):
        inner = "; ".join(str(f) for f in self.factors)
        return f"Z[{inner}]"


def zmonomial(factors: Iterable[Poly]) -> ZMonomial:
    """Validated construction from explicit factors."""
    return ZMonomial(factors)


_Z_UNIT = ZMonomial((), trusted=True)


# The product kernel works on integer rows: {key: {ZMonomial: numerator}}
# over one denominator per operand, with tuple keys that add under the
# product (y-exponents, nu powers or both), or on one ZElem's num map.


def _z_mul_into(row: dict, a: Mapping, b: Mapping, c: int = 1) -> None:
    """row[mu ∪ mv] += c * a[mu] * b[mv] over {ZMonomial: int} maps."""
    bterms = b.items()
    for mu, cu in a.items():
        if not cu:
            continue
        cu *= c
        for mv, cv in bterms:
            m = mu.union(mv)
            row[m] = row.get(m, 0) + cu * cv


class ZElem(_Rational):
    """Finite rational combination of factor multisets: a poly._Rational
    keyed by ZMonomial, with space None."""

    __slots__ = ()
    _kernel = staticmethod(_z_mul_into)

    def __init__(self, terms: Mapping[ZMonomial, int | Fraction]):
        super().__init__(None, terms)

    @classmethod
    def zero(cls) -> "ZElem":
        return cls._of(None, {})

    @classmethod
    def unit(cls, c: int | Fraction = 1) -> "ZElem":
        return cls({_Z_UNIT: c})

    @classmethod
    def basis(cls, m: ZMonomial, c: int | Fraction = 1) -> "ZElem":
        return cls({m: c})

    def _like(self, other):
        return other if isinstance(other, ZElem) else None

    def _term_parts(self, prefix: str = "") -> list:
        """(sign, body) pairs of the terms, leading multiset first, each body
        led by ``prefix``."""
        terms = self.terms
        return [
            _term_text(terms[m], _joined(prefix, repr(m)))
            for m in sorted(terms, key=ZMonomial.sort_key, reverse=True)
        ]


def _factor_monomial(u: Poly) -> ZMonomial:
    """The ZMonomial of the normalized factors of a nonzero u (none for a
    constant)."""
    return ZMonomial(factorize(u).factor_multiset(), trusted=True)


def zelem_from_poly(u: Poly) -> ZElem:
    """The image Z_u = lc(u) Z_(u / lc(u)), since Z_{cu} = c Z_u."""
    if u.is_zero():
        return ZElem.zero()
    return ZElem.basis(_factor_monomial(u), u.leading_coeff())


class ZNu(_Rows):
    """Polynomial in nu with ZElem coefficients (non-negative powers):
    poly._Rows keyed by (nu power,), with space None."""

    __slots__ = ()
    _kernel = staticmethod(_z_mul_into)

    def __init__(self, coeffs: Mapping[int, ZElem]):
        super().__init__(None, {(k,): z for k, z in coeffs.items()})

    @classmethod
    def zero(cls) -> "ZNu":
        return cls({})

    from_zelem = vars(_Rows)["_at_nu0"]

    def _coef(self, row: dict) -> ZElem:
        return ZElem._of(None, row, self.den)

    @property
    def coeffs(self) -> dict:
        """{nu power: ZElem}, built afresh from the rows."""
        return {k: self._coef(row) for (k,), row in self.rows.items()}

    def coefficient(self, k: int) -> ZElem:
        return self._coef(self.rows.get((k,), {}))

    def classical(self) -> ZElem:
        return self.coefficient(0)

    def _like(self, other):
        if isinstance(other, ZNu):
            return other
        return ZNu.from_zelem(other) if isinstance(other, ZElem) else None


def _as_znu(x) -> ZNu:
    if isinstance(x, ZNu):
        return x
    if isinstance(x, ZElem):
        return ZNu.from_zelem(x)
    if isinstance(x, Poly):
        return ZNu.from_zelem(zelem_from_poly(x))
    raise InvalidArgumentError("expected a Zariski-algebra element")


# ---------------------------------------------------------------------------
# alpha, the evaluation map, and the deformed product


def alpha(p):
    """Factor multiset of the classical part of a normalized nu-polynomial.

    Returns a tuple of irreducible factors, or None when the classical part
    vanishes (the zero tensor).
    """
    if isinstance(p, Poly):
        p = NuObject.from_poly(p)
    if not isinstance(p, NuObject):
        raise InvalidArgumentError("alpha expects a polynomial or nu-polynomial")
    if p.is_zero():
        return None
    low = p.coefficient(p.min_power())
    if low.leading_coeff() != 1:
        raise InvalidArgumentError(
            f"operand is not normalized: lowest nu coefficient has leading coefficient "
            f"{low.leading_coeff()}"
        )
    classical = p.classical()
    if classical.is_zero():
        return None
    fac = factorize(classical)
    if fac.unit != 1:
        raise InvalidArgumentError(
            f"operand is not normalized: classical part has unit {fac.unit}"
        )
    return fac.factor_multiset()


# eval_T visits every sub-multiset of its input, prod(mult + 1) of them; on a
# 2-vCPU x86_64 host, with the factors x1^2 + k x1 x2 + (k+1) x2^2 + k x3 for
# k = 1..8 (256 sub-multisets) a cold call takes about 0.6 s, for k = 1..9
# (512) 1.8 s and for k = 1..10 (1024) 3.6 s
EVAL_T_SUBSET_BOUND = 256


def eval_T(factors: Sequence[Poly], s: StarProduct) -> NuObject:
    """Symmetrized star product over all orderings of the factor multiset,
    on the Moyal and partial-Moyal products.

    Reversing every ordering leaves T(S) unchanged, and g * f = (f * g)(-nu)
    on these products, so T is even in nu and (T * u + u * T) / 2 is the
    even part of T * u.  T is computed by the recursion

        T(S) = (1/|S|) sum over distinct u of mult(u) * even part of T(S - u) * u,

    which shares every sub-multiset; the even part is
    sum_{r even} nu^(a+r) P^r(T_a(S - u), u) / r!, summed as integers over
    one common denominator.  Its order r = 0 at a = 0 sums to the product of
    S's factors, the nu^0 row of T(S), which is formed once.  Each T(S) is
    cached per Z-monomial of S and star product as integer rows keyed by
    (nu power,) over one denominator, which the larger multisets read as
    they are and the result is stored over.  Any other star product raises
    InvalidArgumentError: the standard-ordering product lacks the symmetry,
    and on su(2)* the closed-form sun lift (sun.sun_lift) replaces T.  A
    multiset with more than EVAL_T_SUBSET_BOUND sub-multisets raises
    ResourceLimitError.
    """
    return NuObject._of(s.space, *_eval_T(ZMonomial(factors, trusted=True), s))


def _runs(m: ZMonomial, s: StarProduct) -> list:
    """[(u, mult(u)), ...] over the distinct factors of m, after the three
    refusals of T(m): a star product other than the Moyal kinds, a factor not
    on the product's space, and a multiset of more than
    EVAL_T_SUBSET_BOUND sub-multisets."""
    if s.kind not in _MOYAL_KINDS:
        raise InvalidArgumentError(
            f"eval_T runs on the Moyal and partial-Moyal products; {s.kind!r} is not one"
        )
    runs = [(u, len(tuple(run))) for u, run in itertools.groupby(m.factors)]
    for u, _ in runs:
        if u.space != s.space:
            raise InvalidArgumentError(f"eval_T factor {u} is not on the star product's space")
    subsets = prod(mult + 1 for _, mult in runs)
    if subsets > EVAL_T_SUBSET_BOUND:
        raise ResourceLimitError.over(f"factor multiset of {subsets} sub-multisets",
                                      "eval_T subset", EVAL_T_SUBSET_BOUND)
    return runs


def _central(m: ZMonomial, s: StarProduct) -> tuple | None:
    """(v, m - v) for the first factor v of m in no variable of a pair of s's
    space, which is central under s, or None."""
    paired = [i for pair in s.space.pairs for i in pair]
    factors = m.factors
    for i, v in enumerate(factors):
        if not any(e[j] for e in v.num for j in paired):
            return v, ZMonomial._sorted(factors[:i] + factors[i + 1 :])
    return None


@cache
def _eval_T(m: ZMonomial, s: StarProduct) -> tuple:
    """eval_T on the factor multiset m as integer rows (numerators, d): T_r
    has coefficient numerators[(r,)][e] / d at x^e, and d is the least common
    denominator of every coefficient."""
    runs = _runs(m, s)
    factors = m.factors
    if not factors:
        return {(0,): {(0,) * s.space.nvars: 1}}, 1
    steps = []  # (mult(u), rows of T(S - u), their denominator, u) per distinct u
    i = 0
    for u, mult in runs:
        rest = ZMonomial._sorted(factors[:i] + factors[i + 1 :])
        steps.append((mult, *_eval_T(rest, s), u))
        i += mult
    # (1/|S|) sum mult(u) sum_{r even} nu^(a+r) P^r(T_a, u) / r! over one
    # common denominator: the Poisson sum takes r > 0; at r = 0 each a > 0
    # adds T_a(S - u) u, and the a = 0 terms add up to |S| times the product
    # of S's factors, which is T_0(S - u) u for any u
    den = lcm(*(td * u.den for _, _, td, u in steps))
    jobs = [(a, mult * (den // (td * u.den)), ta, u.num)
            for mult, t, td, u in steps for (a,), ta in t.items()]
    rows, d = _poisson_sum(jobs, s.space, even=True)
    n = len(factors)
    _, t, td, u = steps[0]
    _mul_into(rows.setdefault((0,), {}), t[0,], u.num, d * n * (den // (td * u.den)))
    for a, w, ta, un in jobs:
        if a:
            _mul_into(rows.setdefault((a,), {}), ta, un, w * d)
    # rows by increasing nu power, the order in which _deformation_tail
    # factors them, so the first refused factorization is the smallest r's
    return _reduced(dict(sorted(rows.items())), d * den * n)


def times_alpha(p, q, s: StarProduct) -> NuObject:
    """The Abelian product: evaluation of the combined factor multisets."""
    fa = alpha(p)
    fb = alpha(q)
    if fa is None or fb is None:
        return NuObject.zero(s.space)
    return eval_T(tuple(fa) + tuple(fb), s)


def zeta(x: NuObject) -> ZNu:
    """Coefficientwise injection of a nu-polynomial into the algebra."""
    out = {}
    for r, p in x.coeffs.items():
        if r < 0:
            raise InvalidArgumentError("zeta expects non-negative nu powers")
        out[r] = zelem_from_poly(p)
    return ZNu(out)


def z_mul_classical(a: ZElem, b: ZElem) -> ZElem:
    """Z_u . Z_v = Z_{uv}: multiset union, extended bilinearly."""
    return a * b


def _factorable(m: ZMonomial, space: VarSpace) -> bool:
    """True when factorize admits every T_r(m), r > 0: each Poisson order
    takes one degree off each side, so T_r(m) has total degree at most
    deg m - 2, and at most comb(deg m - 2 + n, n) terms in n variables."""
    top = m.degree() - 2
    n = space.nvars
    return top <= DEFAULT_DEGREE_BOUND and comb(top + n, n) <= factor.FACTOR_TERM_BOUND


def _deformation_tail(m: ZMonomial, s: StarProduct) -> tuple:
    """(d, ((r, m_r, n_r), ...)): the nu^r part of D(Z_m) for r > 0 is
    n_r / d * Z(m_r).  T_r(m) is the integer row T_r over T's denominator d;
    m_r is the row's factor multiset and n_r its leading numerator, since
    Z_{cu} = c Z_u with c = lc(u).  A factor v of m in no variable of a pair
    of the space is central under the product, so T(m) = v T(m - v), and v
    is monic and irreducible, so the tail of m is that of m - v with v
    united into each m_r.  This is the one place T splits off a central
    factor; it comes after T(m)'s own refusals (_runs), which come before
    _central reads the factors' exponents, and only where no factorization
    of a T_r(m) could be refused (_factorable), so every refusal is
    unchanged.  Elsewhere T(m) takes the even-power recursion."""
    _runs(m, s)
    central = _central(m, s)
    if central and _factorable(m, s.space):
        v, rest = central
        table = _tails(s)
        d, parts = table.get(rest) or table.setdefault(rest, _deformation_tail(rest, s))
        zv = ZMonomial._sorted((v,))
        return d, tuple((r, m_r.union(zv), n) for r, m_r, n in parts)
    rows, d = _eval_T(m, s)
    parts = []
    for (r,), row in rows.items():
        if r > 0:
            u = Poly._of(s.space, row)
            parts.append((r, _factor_monomial(u), row[max(row, key=grlex_key)]))
    return d, tuple(parts)


@cache
def _tails(s: StarProduct) -> dict:
    """{ZMonomial: _deformation_tail(m, s)}, filled by _deform."""
    return {}


def _deform(rows: Mapping, d: int, s: StarProduct) -> tuple:
    """(rows keyed key + (r,), d): D(sum c_m Z_m) = sum c_m (Z_m + sum_{r>0}
    nu^r Z(T_r(m))) of each integer row {m: c_m * d} of rows, over one common
    denominator.  Each tail is read from the one table per star product
    (_deformation_tail).
    Cancelled (zero) entries never reach eval_T."""
    table = _tails(s)  # s is hashed once; tails are looked up by identity
    tails = [(key, m, c, *(table.get(m) or table.setdefault(m, _deformation_tail(m, s))))
             for key, row in rows.items() for m, c in row.items() if c]
    dt = lcm(*(t for _, _, _, t, _ in tails))
    acc: dict = {}
    for key, m, c, t, parts in tails:
        acc.setdefault(key + (0,), {})[m] = c * dt  # every tail has r > 0
        c *= dt // t
        for r, m_r, n in parts:
            _bump(acc.setdefault(key + (r,), {}), m_r, c * n)
    return acc, d * dt


def z_mul_nu(a, b, s: StarProduct) -> ZNu:
    """Deformed product D(a_0 . b_0); positive nu powers of the operands are
    discarded."""
    p = _as_znu(a).classical() * _as_znu(b).classical()
    return ZNu._of(None, *_deform({(): p.num}, p.den, s))


def znu_mul_classical(a: ZNu, b: ZNu) -> ZNu:
    """nu-bilinear extension of the classical product."""
    return a * b


# the largest power of znu_power_nu: the m-th power of one factor has m + 1
# sub-multisets, so eval_T refuses every power of a non-unit past 255, but
# 'zariski power --power 1000000 Z[]' ran for 16-20 s.  On a 2-vCPU x86_64
# host, a call at the bound takes 0.2-0.3 s for Z[], 2 and x1, or is refused
# as fast (x1^2 + x2^2 + x3, Z[x1] + Z[x2] + Z[x3]); past those, the cost is
# eval_T's, as for zariski mul: x1 + x2 + x3 takes 13.3 s.
ZNU_POWER_BOUND = EVAL_T_SUBSET_BOUND - 1


def znu_power_nu(a, m: int, s: StarProduct) -> ZNu:
    """m-fold deformed product of a with itself, D of the classical m-th
    power, folded from the left: each step deforms, so the first power with
    a refused tail ends it before eval_T runs on a higher one.  A power over
    ZNU_POWER_BOUND is refused before any product."""
    if m < 1:
        raise InvalidArgumentError("power needs m >= 1")
    if m > ZNU_POWER_BOUND:
        raise ResourceLimitError.over(f"power {m}", "zariski power", ZNU_POWER_BOUND)
    out = _as_znu(a)
    for _ in range(m - 1):
        out = z_mul_nu(out, a, s)
    return out


# ---------------------------------------------------------------------------
# Leibniz-postulated derivations and the Frobenius failure


def delta(i: int, a: ZElem, space: VarSpace = None) -> ZElem:
    """Derivation fixed by d(Z_u) = Z_{du} on irreducibles plus the Leibniz
    rule across each factor multiset (1-based axis i of space, R^3 by
    default, checked whatever a is; every factor of a must be on space)."""
    if space is None:
        space = zariski_space(3)
    k = _axis_index(i, space)
    off = next((f for mono in a.num for f in mono.factors if f.space != space), None)
    if off is not None:
        raise InvalidArgumentError(f"delta factor {off} is not on the derivation's space")
    return _delta(k, a, zelem_from_poly)


def _delta(k: int, a: ZElem, zelem) -> ZElem:
    """delta on the 0-based axis k, with zelem(d) the Z-image of each
    derivative d (zelem_from_poly, or a memo of it)."""
    parts = []  # (Z-monomial, numerator, denominator) per term
    for mono, c in a.num.items():
        factors = mono.factors
        seen = None
        for j, f in enumerate(factors):
            if f == seen:
                continue
            seen = f
            mult = factors.count(f)
            d = f.diff(k)
            if d.is_zero():
                continue
            rest = ZMonomial._sorted(factors[:j] + factors[j + 1 :])
            z = zelem(d)
            parts += ((m.union(rest), v * c * mult, z.den) for m, v in z.num.items())
    den = lcm(*(t for _, _, t in parts))
    row: dict = {}
    for m, n, t in parts:
        _bump(row, m, n * (den // t))
    return ZElem._of(None, row, den * a.den)


class FrobeniusWitness(_Frozen):
    __slots__ = _fields = ("u", "i", "j", "lhs", "rhs")

    def __init__(self, u: Poly, i: int, j: int, lhs: ZElem, rhs: ZElem):
        # u normalized irreducible; lhs, rhs: delta_i delta_j Z_u, delta_j delta_i Z_u
        self._set(u, i, j, lhs, rhs)

    def verify(self) -> bool:
        zu = ZElem.basis(ZMonomial((self.u,), trusted=True))
        lhs = delta(self.i, delta(self.j, zu, self.u.space), self.u.space)
        rhs = delta(self.j, delta(self.i, zu, self.u.space), self.u.space)
        return lhs == self.lhs and rhs == self.rhs and lhs != rhs


def _candidate_polys(space: VarSpace, degree: int):
    """Deterministic stream of small-coefficient bivariate candidates."""
    monos = []
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            e = [0] * space.nvars
            e[0], e[1] = a, b
            monos.append(tuple(e))
    monos.sort(key=grlex_key, reverse=True)
    coeff_pool = (1, -1, 2, -2, 3, -3)
    for k in (2, 3):
        for combo in itertools.combinations(monos, k):
            if max(sum(e) for e in combo) != degree:
                continue
            for coeffs in itertools.product(coeff_pool, repeat=k):
                if coeffs[0] < 0:
                    continue
                yield Poly(space, dict(zip(combo, coeffs)))


def frobenius_counterexample_search(max_degree: int, space: VarSpace = None):
    """Find an irreducible u with non-commuting second derivations.

    Scans small-coefficient candidates in x1, x2 by increasing degree, each
    over every pair of axes of space (R^3 by default, at least two axes);
    inequality of the two mixed derivations is established exactly, and
    irreducibility of the candidate is checked last because it is the
    expensive step.  Each derivative is factored once per search.  Returns
    a FrobeniusWitness or None when the bound is too small.
    """
    if space is None:
        space = zariski_space(3)
    if space.nvars < 2:
        raise InvalidArgumentError("the Frobenius search needs at least two variables")
    if max_degree < 3:
        return None
    axes = range(space.nvars)
    zelem = cache(zelem_from_poly)  # candidates share derivatives
    seen = set()
    for degree in range(3, max_degree + 1):
        for cand in _candidate_polys(space, degree):
            _, u = normalize(cand)
            if u in seen:
                continue
            seen.add(u)
            zu = ZElem.basis(ZMonomial((u,), trusted=True))
            first = {k: _delta(k, zu, zelem) for k in axes}
            for i, j in itertools.combinations(axes, 2):
                lhs, rhs = _delta(i, first[j], zelem), _delta(j, first[i], zelem)
                if lhs != rhs:
                    if is_irreducible(u):
                        return FrobeniusWitness(u, i + 1, j + 1, lhs, rhs)
                    break
    return None


# ---------------------------------------------------------------------------
# The Taylor algebra


class TaylorElem(_Rows):
    """Polynomial in formal translation variables y and in nu with ZElem
    coefficients: poly._Rows keyed by y-exponent + (nu power,).

    ``in_a`` marks elements constructed from images of the Taylor expansion
    map (and their sums and products); the deformed product is only defined
    on that subalgebra.
    """

    __slots__ = ("in_a",)
    _fields = _Rows._fields + __slots__
    _kernel = staticmethod(_z_mul_into)

    def __init__(self, space: VarSpace, terms: Mapping[tuple, ZElem], in_a: bool = False):
        super().__init__(space, terms, in_a)

    _coef = ZNu._coef

    def _with(self, rows: dict, d: int, other: "TaylorElem") -> "TaylorElem":
        return TaylorElem._of(self.space, rows, d, self.in_a and other.in_a)

    def _check_space(self, other: "TaylorElem") -> None:
        if self.space != other.space:
            raise InvalidArgumentError("TaylorElem spaces differ")

    @classmethod
    def zero(cls, space: VarSpace) -> "TaylorElem":
        return cls(space, {}, in_a=True)

    def coefficient(self, e: tuple) -> ZNu:
        """The ZNu coefficient of y^e, e one entry per variable, from the rows keyed e + (r,)."""
        e = tuple(e)
        if len(e) != self.space.nvars:
            raise InvalidArgumentError(f"y-exponent {e} needs {self.space.nvars} entries")
        return ZNu._of(None, {k[-1:]: row for k, row in self.rows.items() if k[:-1] == e},
                       self.den)

    def y_constant(self) -> ZNu:
        return self.coefficient((0,) * self.space.nvars)

    def _like(self, other):
        return other if isinstance(other, TaylorElem) else None


def taylor_unit(space: VarSpace = None) -> TaylorElem:
    if space is None:
        space = zariski_space(3)
    return TaylorElem(space, {(0,) * (space.nvars + 1): ZElem.unit()}, in_a=True)


def jmap(z: ZElem, space: VarSpace = None) -> TaylorElem:
    """Taylor expansion J(Z_u) = sum_I y^I / I! Z_{d^I u}, additive in z:
    c times the cached integer image of each Z-monomial."""
    if space is None:
        space = zariski_space(3)
    images = [(n, *_jmap_image(mono, space)) for mono, n in z.num.items()]
    den = lcm(*(d for _, _, d in images))
    acc: dict = {}
    for n, rows, d in images:
        _add_rows(acc, rows, n * (den // d))
    return TaylorElem._of(space, acc, den * z.den, True)


@cache
def _jmap_image(mono: ZMonomial, space: VarSpace) -> tuple:
    """J(Z_mono) as integer rows over one denominator: {I + (0,): {Z-monomial
    of d^I u: numerator of its coefficient / I!}} per nonzero derivative
    d^I u of u = the product of mono's factors, each y-exponent I once."""
    n = space.nvars
    out = {}

    def accumulate(u: Poly, e: tuple, fact: int, start: int):
        z = zelem_from_poly(u)
        out[e + (0,)] = ZElem._of(None, z.num, z.den * fact)
        for i in range(start, n):
            d = u.diff(i)
            if d.is_zero():
                continue
            e2 = list(e)
            e2[i] += 1
            accumulate(d, tuple(e2), fact * e2[i], i)

    accumulate(mono.product_poly(space), (0,) * n, 1, 0)
    return _num_rows(out)


def taylor_mul_classical(a: TaylorElem, b: TaylorElem) -> TaylorElem:
    """The undeformed product: y-graded with nu-bilinear coefficients."""
    return a * b


def _check_deformable(a: TaylorElem, b: TaylorElem) -> None:
    a._check_space(b)
    if not (a.in_a and b.in_a):
        raise InvalidArgumentError("the deformed product is defined on the Taylor subalgebra only")


def _y_classical(a: TaylorElem) -> dict:
    """The nu^0 rows of a, keyed by y-exponent."""
    return {k[:-1]: row for k, row in a.rows.items() if not k[-1]}


def a_mul_nu(a: TaylorElem, b: TaylorElem, s: StarProduct) -> TaylorElem:
    """Deformed Abelian product on the Taylor subalgebra: D applied to each
    y-degree of the classical product of the nu^0 parts."""
    _check_deformable(a, b)
    acc: dict = {}
    _graded_mul_into(_z_mul_into, acc, _y_classical(a), _y_classical(b))
    return TaylorElem._of(a.space, *_deform(acc, a.den * b.den, s), True)


def _axis_index(axis: int, space: VarSpace) -> int:
    """The 0-based index of the 1-based axis of space; InvalidArgumentError
    naming the axis and the range when space has no such axis."""
    if not 1 <= axis <= space.nvars:
        raise InvalidArgumentError(f"axis {axis} is out of range 1..{space.nvars}")
    return axis - 1


def _y_diff(rows: dict, i: int) -> dict:
    """d/dy_i of integer rows keyed by a y-exponent, or one with a nu power
    appended."""
    out = {}
    for e, row in rows.items():
        if k := e[i]:
            out[e[:i] + (k - 1,) + e[i + 1 :]] = {m: n * k for m, n in row.items()}
    return out


def delta_y(axis: int, a: TaylorElem) -> TaylorElem:
    """Formal derivative with respect to y^axis (1-based)."""
    return TaylorElem._of(a.space, _y_diff(a.rows, _axis_index(axis, a.space)), a.den, a.in_a)


def _check_axes(args: tuple) -> None:
    for axis, x in enumerate(args, 1):  # as delta_y checks the first product
        _axis_index(axis, x.space)


def _y_nambu(rows: list) -> dict:
    """The sum over sigma in S3 of sgn(sigma) d/dy_sigma(1) a . d/dy_sigma(2)
    b . d/dy_sigma(3) c on the integer rows [a, b, c]."""
    table = _alternating_sum([[_y_diff(r, i) for i in range(3)] for r in rows],
                             partial(_graded_mul_into, _z_mul_into))
    return table.get(0b111, {})


def quantum_nambu(a: TaylorElem, b: TaylorElem, c: TaylorElem, s: StarProduct) -> TaylorElem:
    """Alternating sum of deformed triple products of y-derivatives: D of the
    classical one on the nu^0 parts."""
    args = (a, b, c)
    _check_axes(args)
    _check_deformable(a, b)
    _check_deformable(a, c)
    rows = _y_nambu([_y_classical(x) for x in args])
    return TaylorElem._of(a.space, *_deform(rows, a.den * b.den * c.den, s), True)


def classical_nambu(a: TaylorElem, b: TaylorElem, c: TaylorElem) -> TaylorElem:
    """The same alternating sum with the undeformed product, nu-graded."""
    args = (a, b, c)
    _check_axes(args)
    a._check_space(b)
    a._check_space(c)
    return TaylorElem._of(a.space, _y_nambu([x.rows for x in args]), a.den * b.den * c.den,
                          a.in_a and b.in_a and c.in_a)
