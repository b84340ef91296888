"""Zariski quantization: the semigroup algebra over irreducible-factor
multisets, its Abelian nu-deformation, Leibniz-postulated derivations with
their Frobenius failure, and the Taylor algebra that repairs it.

The basis element Z_u of the classical algebra is a multiset of normalized
irreducible polynomials (the factorization of u); the empty multiset is the
unit.  The deformed product discards positive nu powers of its operands (it
is R-linear, not linear over series in nu), so it is one fixed linear map D
applied to the classical product:

    D(Z_u) = Z_u + sum_{r>0} nu^r Z(T_r(u)),

where T(u) is the symmetrized star product over the factor multiset of u
(``eval_T``) and Z(.) re-factors each nu coefficient back into the algebra
(Dito-Flato-Sternheimer-Takhtajan, CMP 183 (1997), hep-th/9602016).  The nu^0
part of D is the identity, so a nested deformed product (x*y)*z equals
D(x_0 y_0 z_0).  ``z_mul_nu``, ``a_mul_nu`` (y-degree by y-degree) and
``quantum_nambu`` (the alternating sum of triple products of y-derivatives)
therefore build the classical product in one mutable map and apply D once;
terms that cancel classically never reach ``eval_T``.

T is even in nu: reversing every ordering leaves it unchanged, and on the
Moyal, partial-Moyal and su(2)* products g * f is f * g with nu replaced by
-nu.  So ``eval_T`` keeps only the even part of each step of its recursion,

    T(S) = (1/|S|) sum_u mult(u) sum_{r even} nu^(a+r) P^r(T_a(S - u), u) / r!,

summed on integer rows over one denominator for the Moyal kinds; the
standard-ordering product lacks the symmetry and is refused.

The products run on integer numerators.  ``_eval_T`` caches T(S) as integer
rows over one denominator, which the next recursion step reads as they are;
``_deformation_tail`` keeps the nu^r parts of D(Z_m) as integer multiples of
one Z-monomial each over one denominator.  Every classical product (plain,
nu-graded, y-graded, and the y-derivatives in ``quantum_nambu``) multiplies
{ZMonomial: numerator} rows with one denominator per operand, and Fractions
are built once per output term.  ``zelem_from_poly`` interns the factors it
puts in a ZMonomial, so equal factors are one object and comparing factor
multisets stops at identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import InvalidArgumentError, ResourceLimitError
from .factor import factorize, is_irreducible, normalize
from .poly import (
    NuObject,
    Poly,
    VarSpace,
    _DerivativeCache,
    _add_into,
    _bump,
    _freeze,
    _int_rows,
    _int_terms,
    _joined,
    _nu_label,
    _over,
    _poisson_grid,
    _poisson_into,
    _render_monomial,
    _render_terms,
    _Sparse,
    _term_text,
    coordinate_space,
    grlex_key,
)
from .star import (
    _EVEN_KINDS,
    _MOYAL_KINDS,
    StarProduct,
    moyal_product,
    partial_moyal_product,
    star_mul,
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


def zariski_space(n: int = 3) -> VarSpace:
    """R^n with the pairing used by the evaluation map: all of it for even n,
    the first n-1 coordinates for odd n."""
    if n < 2:
        raise InvalidArgumentError("the construction needs at least two variables")
    return coordinate_space(n, paired=n // 2)


def zariski_star(n: int = 3) -> StarProduct:
    space = zariski_space(n)
    if n % 2 == 0:
        return moyal_product(space)
    return partial_moyal_product(space)


# ---------------------------------------------------------------------------
# The semigroup algebra


_stored_hash = attrgetter("_hash")


class ZMonomial:
    """Canonical multiset of normalized irreducible factors.

    Factors from zelem_from_poly are interned, so equal factors are usually
    one object and tuple equality stops at identity.  The hash is that of
    the tuple of the factors' hashes, which every factor of a ZMonomial has
    stored.
    """

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: Iterable[Poly], trusted: bool = False):
        factors = sorted(factors, key=Poly.sort_key, reverse=True)
        if not trusted:
            for f in factors:
                if f.is_zero() or f.is_constant():
                    raise InvalidArgumentError("factors must be non-constant polynomials")
                if f.leading_coeff() != 1:
                    raise InvalidArgumentError(f"factor {f} is not normalized")
                if not is_irreducible(f):
                    raise InvalidArgumentError(f"factor {f} is not irreducible")
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "_hash", hash(tuple(map(hash, factors))))

    @classmethod
    def _sorted(cls, factors: tuple) -> "ZMonomial":
        """A ZMonomial over factors already in canonical order, each of them
        taken from another ZMonomial."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        object.__setattr__(out, "_hash", hash(tuple(map(_stored_hash, factors))))
        return out

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ZMonomial is immutable")

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        return self is other or (isinstance(other, ZMonomial) and self.factors == other.factors)

    def __hash__(self):
        return object.__getattribute__(self, "_hash")

    def degree(self) -> int:
        return sum(f.total_degree() for f in self.factors)

    def product_poly(self, space: VarSpace) -> Poly:
        out = Poly.const(space, 1)
        for f in self.factors:
            out = out * f
        return out

    def union(self, other: "ZMonomial") -> "ZMonomial":
        """The multiset sum.  When one side's factors all come before the
        other's, the two tuples are joined without sorting."""
        a, b = self.factors, other.factors
        if not b:
            return self
        if not a:
            return other
        key = Poly.sort_key
        if key(a[-1]) >= key(b[0]):
            return ZMonomial._sorted(a + b)
        if key(b[-1]) >= key(a[0]):
            return ZMonomial._sorted(b + a)
        return ZMonomial._sorted(tuple(sorted(a + b, key=key, reverse=True)))

    def sort_key(self):
        return (self.degree(), tuple(f.sort_key() for f in self.factors))

    def __repr__(self):
        inner = "; ".join(str(f) for f in self.factors)
        return f"Z[{inner}]"


def zmonomial(factors: Iterable[Poly]) -> ZMonomial:
    """Validated construction from explicit factors."""
    return ZMonomial(factors)


_Z_UNIT = ZMonomial((), trusted=True)


class ZElem(_Sparse):
    """Finite rational combination of factor multisets."""

    __slots__ = ("terms",)
    _parts = property(attrgetter("terms"))

    def __init__(self, terms: Mapping[ZMonomial, Fraction]):
        clean = {}
        for m, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _frozen(cls, row: dict) -> "ZElem":
        """A ZElem over an accumulator row of exact Fractions, taken as it is
        apart from its zero entries."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {m: c for m, c in row.items() if c})
        return out

    @classmethod
    def zero(cls) -> "ZElem":
        return cls({})

    @classmethod
    def unit(cls, c: Fraction = Fraction(1)) -> "ZElem":
        return cls({_Z_UNIT: Fraction(c)})

    @classmethod
    def basis(cls, m: ZMonomial, c: Fraction = Fraction(1)) -> "ZElem":
        return cls({m: Fraction(c)})

    def _like(self, other):
        return other if isinstance(other, ZElem) else None

    def _rebuild(self, row: dict, other: "ZElem") -> "ZElem":
        return ZElem._frozen(row)

    def scale(self, c) -> "ZElem":
        c = Fraction(c)
        if not c:
            return ZElem.zero()
        return ZElem({m: v * c for m, v in self.terms.items()})

    def __str__(self):
        return render_zelem(self)


@cache
def _interned(f: Poly) -> Poly:
    """The first factor equal to f that zelem_from_poly met, so that equal
    factors of different factorizations are one object in every ZMonomial
    it builds."""
    return f


def zelem_from_poly(u: Poly) -> ZElem:
    """The image Z_u, using Z_{cu} = c Z_u and a full factorization of u."""
    if u.is_zero():
        return ZElem.zero()
    if u.is_constant():
        return ZElem.unit(u.constant_value())
    fac = factorize(u)
    mono = ZMonomial(map(_interned, fac.factor_multiset()), trusted=True)
    return ZElem.basis(mono, fac.unit)


class ZNu(_Sparse):
    """Polynomial in nu with ZElem coefficients (non-negative powers)."""

    __slots__ = ("coeffs",)
    _parts = property(attrgetter("coeffs"))

    def __init__(self, coeffs: Mapping[int, ZElem]):
        clean = {}
        for k, z in coeffs.items():
            if k < 0:
                raise InvalidArgumentError("ZNu supports non-negative nu powers only")
            if not z.is_zero():
                clean[int(k)] = z
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls) -> "ZNu":
        return cls({})

    @classmethod
    def from_zelem(cls, z: ZElem) -> "ZNu":
        return cls({0: z})

    def coefficient(self, k: int) -> ZElem:
        return self.coeffs.get(k, ZElem.zero())

    def classical(self) -> ZElem:
        return self.coefficient(0)

    def nu_shift(self, k: int) -> "ZNu":
        return ZNu({r + k: z for r, z in self.coeffs.items()})

    def _like(self, other):
        if isinstance(other, ZNu):
            return other
        return ZNu.from_zelem(other) if isinstance(other, ZElem) else None

    def _rebuild(self, row: dict, other: "ZNu") -> "ZNu":
        return ZNu(row)

    def scale(self, c) -> "ZNu":
        return ZNu({k: z.scale(c) for k, z in self.coeffs.items()})

    def __str__(self):
        return render_znu(self)


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


def alpha(p, space: VarSpace = None):
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
    """Symmetrized star product over all orderings of the factor multiset.

    Reversing every ordering leaves T(S) unchanged, and g * f = (f * g)(-nu)
    on the Moyal, partial-Moyal and su(2)* products, so T is even in nu and
    (T * u + u * T) / 2 is the even part of T * u.  T is computed by the
    recursion

        T(S) = (1/|S|) sum over distinct u of mult(u) * even part of T(S - u) * u,

    which shares every sub-multiset.  For the Moyal kinds the even part is
    sum_{r even} nu^(a+r) P^r(T_a(S - u), u) / r!, summed as integers over
    one common denominator; for su(2)* it is star_mul with its odd powers
    dropped.  Each T(S) is cached as integer rows over one denominator, which
    the larger multisets read as they are, and turned into Fractions only
    here.  No production route takes the su(2)* branch: it is kept as the
    brute-force oracle that the tests hold the closed-form sun product
    (sun.sun_lift) against.  The standard-ordering product has no such
    symmetry and raises InvalidArgumentError.  A multiset with more than EVAL_T_SUBSET_BOUND
    sub-multisets raises ResourceLimitError.
    """
    return _freeze(s.space, _over(*_T_rows(factors, s)))


def _T_rows(factors: Sequence[Poly], s: StarProduct) -> tuple:
    """eval_T as the integer rows that _eval_T caches."""
    if s.kind not in _EVEN_KINDS:
        raise InvalidArgumentError(
            f"eval_T needs a star product with g * f = (f * g)(-nu); {s.kind!r} has none"
        )
    return _eval_T(tuple(sorted(factors, key=Poly.sort_key)), s)


@cache
def _eval_T(factors: tuple, s: StarProduct) -> tuple:
    """eval_T on a sorted factor tuple as integer rows (numerators, d): T_r
    has coefficient numerators[r][e] / d at x^e, and d is the least common
    denominator of every coefficient."""
    if not factors:
        return {0: {(0,) * s.space.nvars: 1}}, 1
    runs = [(u, len(tuple(run))) for u, run in itertools.groupby(factors)]
    subsets = prod(mult + 1 for _, mult in runs)
    if subsets > EVAL_T_SUBSET_BOUND:
        raise ResourceLimitError(
            f"factor multiset has {subsets} sub-multisets, over the eval_T bound "
            f"{EVAL_T_SUBSET_BOUND}"
        )
    steps = []  # (mult(u), T(S - u) as integer rows, u) per distinct u
    i = 0
    for u, mult in runs:
        steps.append((mult, _eval_T(factors[:i] + factors[i + 1 :], s), u))
        i += mult
    k = len(factors)
    if s.kind in _MOYAL_KINDS:
        return _even_poisson_sum(steps, s, k)
    acc: dict = {}
    for mult, rest, u in steps:
        _add_into(acc, star_mul(s, _freeze(s.space, _over(*rest)), u), 0, mult)
    rows, d = _int_rows({r: row for r, row in acc.items() if r % 2 == 0})
    return _reduced(rows, d * k)


def _even_poisson_sum(steps: list, s: StarProduct, k: int) -> tuple:
    """(1/k) sum mult(u) sum_{r even} nu^(a+r) P^r(T_a, u) / r! over the steps
    (mult(u), rows of T, u), on integer rows over one common denominator."""
    jobs = []  # (a, mult, denominator of the job's terms, T_a, u, grid)
    for mult, (rows, td), u in steps:
        ut, ud = _int_terms(u)
        du = _DerivativeCache(ut, s.space)
        for a, ta in rows.items():
            dt = _DerivativeCache(ta, s.space)
            grid = _poisson_grid(dt, du)
            jobs.append((a, mult, td * ud * grid[1], dt, du, grid))
    den = lcm(*(d for _, _, d, _, _, _ in jobs))
    acc: dict = {}
    for a, mult, d, dt, du, grid in jobs:
        _poisson_into(acc, dt, du, grid, a, mult * (den // d), even=True)
    return _reduced(acc, den * k)


def _reduced(rows: dict, d: int) -> tuple:
    """Integer rows over d in lowest terms, zero entries and rows dropped."""
    g = gcd(d, *(n for row in rows.values() for n in row.values()))
    return {m: {e: n // g for e, n in row.items() if n} for m, row in rows.items()
            if any(row.values())}, d // g


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


# The product kernel works on integer rows: {key: {ZMonomial: numerator}}
# over one denominator per operand, with tuple keys that add under the
# product (y-exponents, nu powers or both, () for a single row).  Coefficients
# become Fractions once per output term.


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


def _y_mul_into(acc: dict, a: dict, b: dict, c: int = 1) -> None:
    """The graded classical product c * a . b of integer rows, added into acc."""
    for ea, ra in a.items():
        for eb, rb in b.items():
            _z_mul_into(acc.setdefault(tuple(map(int.__add__, ea, eb)), {}), ra, rb, c)


def _classical_product(a: Mapping, b: Mapping) -> tuple:
    """(rows, d): the graded classical product of two maps of Fraction rows,
    as integer rows over d."""
    (ra, da), (rb, db) = _int_rows(a), _int_rows(b)
    acc: dict = {}
    _y_mul_into(acc, ra, rb)
    return acc, da * db


def z_mul_classical(a: ZElem, b: ZElem) -> ZElem:
    """Z_u . Z_v = Z_{uv}: multiset union, extended bilinearly."""
    rows = _over(*_classical_product({(): a.terms}, {(): b.terms}))
    return ZElem._frozen(rows.get((), {}))


@cache
def _deformation_tail(m: ZMonomial, s: StarProduct) -> tuple:
    """(d, ((r, m_r, n_r), ...)): the nu^r part of D(Z_m) for r > 0 is
    n_r / d * Z(m_r), the factorization of T_r(m)."""
    rows, den = _T_rows(m.factors, s)
    parts = []
    for r, row in rows.items():
        if r > 0:
            z = zelem_from_poly(Poly._frozen(s.space, {e: Fraction(n, den) for e, n in row.items()}))
            parts.extend((r, m_r, c) for m_r, c in z.terms.items())
    d = lcm(*(c.denominator for _, _, c in parts))
    return d, tuple((r, m_r, c.numerator * (d // c.denominator)) for r, m_r, c in parts)


def _deform(row: Mapping, d: int, s: StarProduct) -> ZNu:
    """D(sum c_m Z_m) = sum c_m (Z_m + sum_{r>0} nu^r Z(T_r(m))) for the
    integer row {m: c_m * d}.

    Cancelled (zero) entries of ``row`` are skipped, so they never reach
    eval_T.
    """
    classical = {m: c for m, c in row.items() if c}
    tails = [(c, _deformation_tail(m, s)) for m, c in classical.items()]
    dt = lcm(*(t for _, (t, _) in tails))
    acc: dict = {}
    for c, (t, parts) in tails:
        c *= dt // t
        for r, m_r, n in parts:
            sub = acc.setdefault(r, {})
            sub[m_r] = sub.get(m_r, 0) + c * n
    rows = _over({0: classical}, d)
    rows.update(_over(acc, d * dt))
    return ZNu({r: ZElem._frozen(row) for r, row in rows.items()})


def z_mul_nu(a, b, s: StarProduct) -> ZNu:
    """Deformed product D(a_0 . b_0); positive nu powers of the operands are
    discarded."""
    a0, b0 = _as_znu(a).classical().terms, _as_znu(b).classical().terms
    rows, d = _classical_product({(): a0}, {(): b0})
    return _deform(rows.get((), {}), d, s)


def znu_mul_classical(a: ZNu, b: ZNu) -> ZNu:
    """nu-bilinear extension of the classical product."""
    rows, d = _classical_product(
        {(r,): z.terms for r, z in a.coeffs.items()},
        {(r,): z.terms for r, z in b.coeffs.items()},
    )
    return ZNu({r: ZElem._frozen(row) for (r,), row in _over(rows, d).items()})


def znu_power_nu(a, m: int, s: StarProduct) -> ZNu:
    """m-fold deformed product of a with itself, folded from the left."""
    if m < 1:
        raise InvalidArgumentError("power needs m >= 1")
    out = _as_znu(a)
    for _ in range(m - 1):
        out = z_mul_nu(out, a, s)
    return out


# ---------------------------------------------------------------------------
# Leibniz-postulated derivations and the Frobenius failure


def delta(i: int, a: ZElem) -> ZElem:
    """Derivation fixed by d(Z_u) = Z_{du} on irreducibles plus the Leibniz
    rule across each factor multiset (1-based axis index)."""
    row: dict = {}
    for mono, c in a.terms.items():
        factors = mono.factors
        seen = None
        for j, f in enumerate(factors):
            if f == seen:
                continue
            seen = f
            mult = factors.count(f)
            d = f.diff(i - 1)
            if d.is_zero():
                continue
            rest = ZMonomial(factors[:j] + factors[j + 1 :], trusted=True)
            for m, v in zelem_from_poly(d).terms.items():
                _bump(row, m.union(rest), v * c * mult)
    return ZElem._frozen(row)


@dataclass(frozen=True)
class FrobeniusWitness:
    u: Poly  # normalized irreducible
    i: int
    j: int
    lhs: ZElem  # delta_i delta_j Z_u
    rhs: ZElem  # delta_j delta_i Z_u

    def verify(self) -> bool:
        zu = ZElem.basis(ZMonomial((self.u,), trusted=True))
        lhs = delta(self.i, delta(self.j, zu))
        rhs = delta(self.j, delta(self.i, zu))
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
                yield Poly(space, dict(zip(combo, map(Fraction, coeffs))))


def frobenius_counterexample_search(max_degree: int, space: VarSpace = None):
    """Find an irreducible u with non-commuting second derivations.

    Scans small-coefficient candidates by increasing degree; inequality of the
    two mixed derivations is established exactly, and irreducibility of the
    candidate is checked last because it is the expensive step.  Returns a
    FrobeniusWitness or None when the bound is too small.
    """
    if space is None:
        space = zariski_space(3)
    if max_degree < 3:
        return None
    seen = set()
    for degree in range(3, max_degree + 1):
        for cand in _candidate_polys(space, degree):
            _, u = normalize(cand)
            if u in seen:
                continue
            seen.add(u)
            zu = ZElem.basis(ZMonomial((u,), trusted=True))
            for i, j in ((1, 2), (1, 3), (2, 3)):
                lhs = delta(i, delta(j, zu))
                rhs = delta(j, delta(i, zu))
                if lhs != rhs:
                    if is_irreducible(u):
                        witness = FrobeniusWitness(u, i, j, lhs, rhs)
                        if witness.verify():
                            return witness
                    break
    return None


# ---------------------------------------------------------------------------
# The Taylor algebra


class TaylorElem(_Sparse):
    """Polynomial in formal translation variables y with ZNu coefficients.

    ``in_a`` marks elements constructed from images of the Taylor expansion
    map (and their sums and products); the deformed product is only defined
    on that subalgebra.
    """

    __slots__ = ("space", "terms", "in_a")
    _parts = property(attrgetter("terms"))

    def __init__(self, space: VarSpace, terms: Mapping[tuple, ZNu], in_a: bool = False):
        clean = {}
        for e, z in terms.items():
            if not z.is_zero():
                clean[tuple(e)] = z
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "in_a", in_a)

    @classmethod
    def zero(cls, space: VarSpace) -> "TaylorElem":
        return cls(space, {}, in_a=True)

    def coefficient(self, e: tuple) -> ZNu:
        return self.terms.get(tuple(e), ZNu.zero())

    def y_constant(self) -> ZNu:
        return self.coefficient((0,) * self.space.nvars)

    def _like(self, other):
        return other if isinstance(other, TaylorElem) else None

    def _rebuild(self, row: dict, other: "TaylorElem") -> "TaylorElem":
        if self.space != other.space:
            raise InvalidArgumentError("TaylorElem spaces differ")
        return TaylorElem(self.space, row, in_a=self.in_a and other.in_a)

    def scale(self, c) -> "TaylorElem":
        return TaylorElem(self.space, {e: z.scale(c) for e, z in self.terms.items()}, in_a=self.in_a)

    def nu_shift(self, k: int) -> "TaylorElem":
        return TaylorElem(self.space, {e: z.nu_shift(k) for e, z in self.terms.items()}, in_a=self.in_a)

    def __str__(self):
        return render_taylor(self)


def taylor_unit(space: VarSpace = None) -> TaylorElem:
    if space is None:
        space = zariski_space(3)
    return TaylorElem(space, {(0,) * space.nvars: ZNu.from_zelem(ZElem.unit())}, in_a=True)


def jmap(z: ZElem, space: VarSpace = None) -> TaylorElem:
    """Taylor expansion J(Z_u) = sum_I y^I / I! Z_{d^I u}, additive in z."""
    if space is None:
        space = zariski_space(3)
    n = space.nvars
    rows: dict = {}

    def accumulate(u: Poly, c: Fraction, e: tuple, fact: int, start: int):
        row = rows.setdefault(e, {})
        scale = Fraction(c, fact)
        for m, v in zelem_from_poly(u).terms.items():
            _bump(row, m, v * scale)
        for i in range(start, n):
            d = u.diff(i)
            if d.is_zero():
                continue
            e2 = list(e)
            e2[i] += 1
            accumulate(d, c, tuple(e2), fact * e2[i], i)

    for mono, c in z.terms.items():
        u = mono.product_poly(space)
        accumulate(u, c, (0,) * n, 1, 0)
    return TaylorElem(space, {e: ZNu.from_zelem(ZElem._frozen(row)) for e, row in rows.items()}, in_a=True)


def _y_nu_rows(a: TaylorElem) -> dict:
    """{y-exponent + (nu power,): {ZMonomial: Fraction}} of a."""
    return {e + (r,): z.terms for e, x in a.terms.items() for r, z in x.coeffs.items()}


def taylor_mul_classical(a: TaylorElem, b: TaylorElem) -> TaylorElem:
    """The undeformed product: y-graded with nu-bilinear coefficients."""
    if a.space != b.space:
        raise InvalidArgumentError("TaylorElem spaces differ")
    rows, d = _classical_product(_y_nu_rows(a), _y_nu_rows(b))
    out: dict = {}
    for key, row in _over(rows, d).items():
        out.setdefault(key[:-1], {})[key[-1]] = ZElem._frozen(row)
    return TaylorElem(a.space, {e: ZNu(x) for e, x in out.items()}, in_a=a.in_a and b.in_a)


def _check_deformable(a: TaylorElem, b: TaylorElem) -> None:
    if a.space != b.space:
        raise InvalidArgumentError("TaylorElem spaces differ")
    if not (a.in_a and b.in_a):
        raise InvalidArgumentError("the deformed product is defined on the Taylor subalgebra only")


def _y_classical(a: TaylorElem) -> dict:
    """{y-exponent: {ZMonomial: Fraction}} of the nu^0 parts of a."""
    return {e: z.coeffs[0].terms for e, z in a.terms.items() if 0 in z.coeffs}


def _deform_taylor(rows: dict, d: int, space: VarSpace, s: StarProduct) -> TaylorElem:
    return TaylorElem(space, {e: _deform(row, d, s) for e, row in rows.items()}, in_a=True)


def a_mul_nu(a: TaylorElem, b: TaylorElem, s: StarProduct) -> TaylorElem:
    """Deformed Abelian product on the Taylor subalgebra: D applied to each
    y-degree of the classical product of the nu^0 parts."""
    _check_deformable(a, b)
    rows, d = _classical_product(_y_classical(a), _y_classical(b))
    return _deform_taylor(rows, d, a.space, s)


def _y_lowered(terms: Mapping, i: int):
    """(e - 1_i, e_i, value) for each entry of a map keyed by y-exponent e
    with e_i > 0: the pieces of d/dy_i."""
    for e, v in terms.items():
        k = e[i]
        if k:
            e2 = list(e)
            e2[i] = k - 1
            yield tuple(e2), k, v


def delta_y(axis: int, a: TaylorElem) -> TaylorElem:
    """Formal derivative with respect to y^axis (1-based)."""
    i = axis - 1
    if not 0 <= i < a.space.nvars:
        raise InvalidArgumentError("axis out of range")
    out = {e: z.scale(k) for e, k, z in _y_lowered(a.terms, i)}
    return TaylorElem(a.space, out, in_a=a.in_a)


_S3 = tuple(
    (perm, sign)
    for perm, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    )
)


def _y_diff(rows: dict, i: int) -> dict:
    """d/dy_i of integer rows keyed by y-exponent."""
    return {e: {m: n * k for m, n in row.items()} for e, k, row in _y_lowered(rows, i)}


def quantum_nambu(a: TaylorElem, b: TaylorElem, c: TaylorElem, s: StarProduct) -> TaylorElem:
    """Alternating sum of deformed triple products of y-derivatives, computed
    as D of the alternating sum of the classical triple products.  The
    y-derivatives are taken on the integer rows of the nu^0 parts, which
    share one denominator per operand."""
    args = (a, b, c)
    for i, x in enumerate(args):  # the axes of the first product, as delta_y checks them
        if i >= x.space.nvars:
            raise InvalidArgumentError("axis out of range")
    _check_deformable(a, b)
    _check_deformable(a, c)
    rows = [_int_rows(_y_classical(x)) for x in args]
    diffs = [[_y_diff(r, i) for i in range(3)] for r, _ in rows]
    acc: dict = {}
    for perm, sign in _S3:
        pair: dict = {}
        _y_mul_into(pair, diffs[0][perm[0]], diffs[1][perm[1]])
        _y_mul_into(acc, pair, diffs[2][perm[2]], sign)
    return _deform_taylor(acc, prod(d for _, d in rows), a.space, s)


def classical_nambu(a: TaylorElem, b: TaylorElem, c: TaylorElem) -> TaylorElem:
    args = (a, b, c)
    out = TaylorElem.zero(a.space)
    for perm, sign in _S3:
        term = taylor_mul_classical(
            taylor_mul_classical(delta_y(perm[0] + 1, args[0]), delta_y(perm[1] + 1, args[1])),
            delta_y(perm[2] + 1, args[2]),
        )
        out = out + (term if sign > 0 else -term)
    return out


# ---------------------------------------------------------------------------
# Rendering


def _zelem_parts(z: ZElem, prefix: str = "") -> list:
    """(sign, body) pairs of z's terms, leading multiset first, each body led
    by ``prefix``."""
    return [
        _term_text(z.terms[m], _joined(prefix, repr(m)))
        for m in sorted(z.terms, key=ZMonomial.sort_key, reverse=True)
    ]


def _znu_parts(x: ZNu, prefix: str = "") -> list:
    """The term walk of ``_zelem_parts`` over x's nu powers, lowest first."""
    return [
        part
        for k in sorted(x.coeffs)
        for part in _zelem_parts(x.coeffs[k], _joined(prefix, _nu_label(k)))
    ]


def render_zelem(z: ZElem) -> str:
    return _render_terms(_zelem_parts(z))


def render_znu(x: ZNu) -> str:
    return _render_terms(_znu_parts(x))


def render_taylor(t: TaylorElem) -> str:
    names = tuple(f"y{i + 1}" for i in range(t.space.nvars))
    return _render_terms(
        [
            part
            for e in sorted(t.terms, key=grlex_key)
            for part in _znu_parts(t.terms[e], _render_monomial(names, e))
        ]
    )
