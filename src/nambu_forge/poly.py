"""Exact sparse multivariate polynomials over the rationals, Laurent objects
in the formal deformation parameter nu, and the basic differential machinery
(partial derivatives, Poisson bivector powers, Jacobian determinants).

A polynomial is a map from dense exponent tuples to nonzero Fractions; the
empty map is the zero polynomial.  All values are immutable after
construction and hashable, so they can serve as dictionary keys and multiset
members throughout the package.

Monomial order is graded lexicographic with the first variable largest:
compare total degree, then the exponent tuples componentwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import attrgetter
from typing import Mapping, Sequence, Union

from .errors import InvalidArgumentError, ResourceLimitError

Exponent = tuple  # tuple[int, ...], one entry per variable
Scalar = Union[int, Fraction]

__all__ = [
    "VarSpace",
    "Poly",
    "NuObject",
    "TSeries",
    "grlex_key",
    "poisson_power",
    "jacobian_det",
    "leading_monomial",
    "qp_space",
    "coordinate_space",
    "su2_space",
    "su2_lift_space",
]


def grlex_key(e: Exponent):
    """Sort key realising graded-lex order (largest key = leading monomial)."""
    return (sum(e), e)


# the largest number of variables of a space.  Every exponent tuple has one
# entry per variable, and Poisson powers walk the pairs both operands use: on
# a 2-vCPU x86_64 host the Moyal square of a1*a2*...*a16 takes 1.2 s on 16
# variables and 3.6 s (370 MB peak) on 128, and that of a1^8 + ... + a128^8 2 s
VARIABLE_BOUND = 128


@dataclass(frozen=True)
class VarSpace:
    """An ordered set of variables plus its symplectic pairing.

    ``pairs`` lists index pairs (a, b); the Poisson bivector acts as
    d/dx_a (x) d/dx_b  -  d/dx_b (x) d/dx_a on each pair.  Indices not in any
    pair are central.
    """

    names: tuple
    pairs: tuple = ()

    def __post_init__(self):
        if len(self.names) > VARIABLE_BOUND:
            raise ResourceLimitError(
                f"space of {len(self.names)} variables is over the variable bound {VARIABLE_BOUND}"
            )
        seen = set()
        for a, b in self.pairs:
            for i in (a, b):
                if not 0 <= i < len(self.names):
                    raise InvalidArgumentError(f"pair index {i} out of range")
                if i in seen:
                    raise InvalidArgumentError(f"variable index {i} appears in two pairs")
                seen.add(i)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidArgumentError(
                f"unknown variable {name!r}; expected one of {', '.join(self.names)}"
            ) from None


def qp_space() -> VarSpace:
    """One canonical pair (q, p)."""
    return VarSpace(("q", "p"), ((0, 1),))


def coordinate_space(n: int, paired: int = 0) -> VarSpace:
    """Variables x1..xn with the first ``paired`` consecutive couples paired."""
    names = tuple(f"x{i + 1}" for i in range(n))
    pairs = tuple((2 * i, 2 * i + 1) for i in range(paired))
    return VarSpace(names, pairs)


def su2_space() -> VarSpace:
    """The angular-momentum variables L1, L2, L3 (no symplectic pairs)."""
    return VarSpace(("L1", "L2", "L3"))


def su2_lift_space() -> VarSpace:
    """R^6 with coordinates p1..p3, q1..q3 paired as (p_i, q_i).

    The pair order is chosen so that the lifted functions
    L_i = sum eps_{ijk} p_j q_k close onto [L1, L2] = L3 under the Moyal
    commutator built from this space.
    """
    names = ("p1", "p2", "p3", "q1", "q2", "q3")
    return VarSpace(names, ((0, 3), (1, 4), (2, 5)))


class _Sparse:
    """+, -, negation, is_zero, == and repr of the immutable sparse values
    (Poly, NuObject, ZElem, ZNu, TaylorElem).  Each supplies ``_parts``, its
    map of nonzero values; ``_like(other)``, the operand of its own type that
    other stands for, or None; and ``_rebuild(row, other)``, the value of a
    summed row, with the type's space check.  == compares ``space`` (None
    where a type has none), so it is False where + and - raise."""

    __slots__ = ()
    space = None

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self._parts

    def _check_space(self, other) -> None:
        if self.space != other.space:
            raise InvalidArgumentError("polynomials live on different variable spaces")

    def _signed(self, other, sign: int):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return self._rebuild(_summed(self._parts, o._parts, sign), o)

    def __add__(self, other):
        return self._signed(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._signed(other, -1)

    def __rsub__(self, other):
        o = self._like(other)
        return NotImplemented if o is None else o._signed(self, -1)

    def __neg__(self):
        return self._rebuild({k: -v for k, v in self._parts.items()}, self)

    def __eq__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return self.space == o.space and self._parts == o._parts

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Poly(_Sparse):
    """Immutable sparse polynomial over Fraction coefficients."""

    __slots__ = ("space", "terms", "_hash", "_sort_key")
    _parts = property(attrgetter("terms"))

    def __init__(self, space: VarSpace, terms: Mapping[Exponent, Scalar]):
        clean = {}
        for e, c in terms.items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[e if type(e) is tuple else tuple(e)] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _frozen(cls, space: VarSpace, row: dict) -> "Poly":
        """A Poly over an accumulator row of exact Fractions, taken as it is
        apart from its zero entries (no conversion hides a stray int or float)."""
        out = object.__new__(cls)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "terms", {e: c for e, c in row.items() if c})
        object.__setattr__(out, "_hash", None)
        return out

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, space: VarSpace) -> "Poly":
        return cls(space, {})

    @classmethod
    def const(cls, space: VarSpace, c: Scalar) -> "Poly":
        return cls(space, {(0,) * space.nvars: Fraction(c)})

    @classmethod
    def variable(cls, space: VarSpace, i: int) -> "Poly":
        e = [0] * space.nvars
        e[i] = 1
        return cls(space, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, space: VarSpace, e: Exponent, c: Scalar = 1) -> "Poly":
        return cls(space, {tuple(e): Fraction(c)})

    # -- basic queries -----------------------------------------------------
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.space.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_monomial(self) -> Exponent:
        if not self.terms:
            raise InvalidArgumentError("the zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def sort_key(self):
        """Canonical total order on polynomials of one space (leading first)."""
        try:
            return self._sort_key  # set on first use; Poly is immutable
        except AttributeError:
            key = tuple(sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True))
            object.__setattr__(self, "_sort_key", key)
            return key

    # -- arithmetic --------------------------------------------------------
    def _like(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.space, other)
        return None

    def _rebuild(self, row: dict, other: "Poly") -> "Poly":
        self._check_space(other)
        return Poly._frozen(self.space, row)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly.zero(self.space)
            return Poly(self.space, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_space(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(int.__add__, e1, e2))
                cur = out.get(e)
                prod = c1 * c2
                out[e] = prod if cur is None else cur + prod
        return Poly(self.space, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidArgumentError("negative polynomial powers are not defined")
        out = Poly.const(self.space, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a constant equals its Fraction value, so it hashes as one
            if self.is_constant():
                h = hash(self.constant_value())
            else:
                h = hash((self.space, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus ----------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        if not 0 <= i < self.space.nvars:
            raise InvalidArgumentError(f"variable index {i} out of range")
        return Poly(self.space, _diff_terms(self.terms, i))

    def diff_multi(self, orders: Sequence[int]) -> "Poly":
        p = self
        for i, k in enumerate(orders):
            for _ in range(k):
                if p.is_zero():
                    return p
                p = p.diff(i)
        return p

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term *= Fraction(v) ** k
            total += term
        return total

    def evaluate_float(self, values: Sequence[float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            term = float(c)
            for v, k in zip(values, e):
                if k == 1:
                    term *= v
                elif k:
                    term *= v**k
            total += term
        return total

    def compose(self, images: Sequence["Poly"], target: VarSpace) -> "Poly":
        """Substitute each variable by the corresponding polynomial in ``target``."""
        if len(images) != self.space.nvars:
            raise InvalidArgumentError("compose needs one image per variable")
        powers: list[dict] = [dict() for _ in images]

        def power(i: int, k: int) -> Poly:
            cache = powers[i]
            if k not in cache:
                cache[k] = images[i] ** k
            return cache[k]

        out = Poly.zero(target)
        for e, c in self.terms.items():
            term = Poly.const(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    # -- rendering ---------------------------------------------------------
    def __str__(self) -> str:
        return render_poly(self)


def _render_monomial(names: Sequence[str], e: Exponent) -> str:
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k)


def _render_terms(parts: list) -> str:
    """Assemble (sign, body) pairs into canonical text."""
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def _term_text(c: Fraction, mono: str) -> tuple:
    neg = c < 0
    mag = -c if neg else c
    if mono and mag == 1:
        return neg, mono
    body = str(mag) if not mono else f"{mag}*{mono}"
    return neg, body


def _joined(*texts: str) -> str:
    """The non-empty texts, joined by '*'."""
    return "*".join(t for t in texts if t)


def _nu_label(k: int) -> str:
    return "" if k == 0 else ("nu" if k == 1 else f"nu^{k}")


def _poly_parts(f: Poly, prefix: str = "") -> list:
    """(sign, body) pairs of f's terms, leading term first, each body led by
    ``prefix``."""
    return [
        _term_text(f.terms[e], _joined(prefix, _render_monomial(f.space.names, e)))
        for e in sorted(f.terms, key=grlex_key, reverse=True)
    ]


def render_poly(f: Poly) -> str:
    return _render_terms(_poly_parts(f))


class NuObject(_Sparse):
    """Finite Laurent object in nu with Poly coefficients.

    Ordinary polynomials embed at nu-power 0; negative powers appear only in
    star-exponential coefficients.
    """

    __slots__ = ("space", "coeffs", "_hash")
    _parts = property(attrgetter("coeffs"))

    def __init__(self, space: VarSpace, coeffs: Mapping[int, Poly]):
        clean = {}
        for k, p in coeffs.items():
            if not isinstance(p, Poly):
                raise InvalidArgumentError("NuObject coefficients must be Poly values")
            if p.space != space:
                raise InvalidArgumentError("NuObject coefficient on a different space")
            if not p.is_zero():
                clean[int(k)] = p
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_poly(cls, p: Poly) -> "NuObject":
        return cls(p.space, {0: p})

    @classmethod
    def zero(cls, space: VarSpace) -> "NuObject":
        return cls(space, {})

    @classmethod
    def one(cls, space: VarSpace) -> "NuObject":
        return cls(space, {0: Poly.const(space, 1)})

    def classical(self) -> Poly:
        """The nu^0 coefficient."""
        return self.coeffs.get(0, Poly.zero(self.space))

    def min_power(self) -> int:
        if not self.coeffs:
            raise InvalidArgumentError("zero object has no lowest nu power")
        return min(self.coeffs)

    def coefficient(self, k: int) -> Poly:
        return self.coeffs.get(k, Poly.zero(self.space))

    def nu_shift(self, k: int) -> "NuObject":
        return NuObject(self.space, {r + k: p for r, p in self.coeffs.items()})

    def truncate(self, max_power: int) -> "NuObject":
        return NuObject(self.space, {r: p for r, p in self.coeffs.items() if r <= max_power})

    @staticmethod
    def _coerce(other, space) -> "NuObject":
        if isinstance(other, NuObject):
            return other
        if isinstance(other, Poly):
            return NuObject.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return NuObject.from_poly(Poly.const(space, other))
        return None

    def _like(self, other):
        return self._coerce(other, self.space)

    def _rebuild(self, row: dict, other: "NuObject") -> "NuObject":
        self._check_space(other)
        return NuObject(self.space, row)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NuObject(self.space, {k: p * other for k, p in self.coeffs.items()})
        o = self._coerce(other, self.space)
        if o is None:
            return NotImplemented
        out: dict = {}
        for a, p in self.coeffs.items():
            for b, q in o.coeffs.items():
                k = a + b
                s = out.get(k)
                pq = p * q
                out[k] = pq if s is None else s + pq
        return NuObject(self.space, out)

    __rmul__ = __mul__

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a nu^0-only object equals its classical Poly, so it hashes as one
            if self.coeffs.keys() <= {0}:
                h = hash(self.classical())
            else:
                h = hash((self.space, frozenset((k, p) for k, p in self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return render_nuobject(self)


def render_nuobject(x: NuObject) -> str:
    return _render_terms(
        [part for k in sorted(x.coeffs) for part in _poly_parts(x.coeffs[k], _nu_label(k))]
    )


@dataclass(frozen=True)
class TSeries:
    """Truncated formal series in t with NuObject coefficients."""

    truncation_order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.truncation_order + 1:
            raise InvalidArgumentError("TSeries needs truncation_order + 1 coefficients")

    def coefficient(self, r: int) -> NuObject:
        return self.coeffs[r]

    def __str__(self) -> str:
        lines = [f"t^{r}: {render_nuobject(c)}" for r, c in enumerate(self.coeffs)]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Accumulators: sparse maps summed in place with _bump, whatever their values
# (Fractions, Polys, ZElems, ZNus), and {nu-power: {exponent: Fraction}} maps
# frozen into a NuObject once


def _bump(row: dict, e, v) -> None:
    cur = row.get(e)
    row[e] = v if cur is None else cur + v


def _summed(a: Mapping, b: Mapping, sign: int = 1) -> dict:
    """A copy of a with each entry of b added in (sign 1) or subtracted
    (sign -1); only the entries of b missing from a are negated.  Entries
    that cancel stay as zeros: every value constructor drops them."""
    out = dict(a)
    if sign > 0:
        for k, v in b.items():
            _bump(out, k, v)
    else:
        for k, v in b.items():
            cur = out.get(k)
            out[k] = -v if cur is None else cur - v
    return out


def _add_into(acc: dict, x: NuObject, shift: int, c) -> None:
    """acc[m + shift][e] += c * (nu^m coefficient of x)[e]."""
    for m, poly in x.coeffs.items():
        row = acc.setdefault(m + shift, {})
        if c == 1:
            for e, v in poly.terms.items():
                _bump(row, e, v)
        else:
            for e, v in poly.terms.items():
                _bump(row, e, v * c)


def _freeze(space: VarSpace, acc: dict) -> NuObject:
    """The NuObject an accumulator holds; zero entries are dropped."""
    return NuObject(space, {m: Poly._frozen(space, row) for m, row in acc.items()})


# Term maps with integer numerators: the product kernels multiply and add
# plain ints and divide by the common denominator once per output term.


def _int_terms(f: Poly) -> tuple:
    """(numerators, d) with f = numerators / d and d the least common
    denominator of f's coefficients."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}, d


def _int_rows(rows: Mapping) -> tuple:
    """(numerators, d) with rows[k][x] = numerators[k][x] / d for a map of
    Fraction rows, d the least common denominator of all their entries."""
    d = lcm(*(c.denominator for row in rows.values() for c in row.values()))
    return {k: {x: c.numerator * (d // c.denominator) for x, c in row.items()}
            for k, row in rows.items()}, d


def _over(rows: Mapping, d: int) -> dict:
    """The Fraction rows numerators / d of integer rows, zero entries dropped."""
    return {k: {x: Fraction(n, d) for x, n in row.items() if n} for k, row in rows.items()}


def _add_over(row: dict, ints: dict, d: int) -> None:
    """row[e] += ints[e] / d for an integer term map."""
    for e, n in ints.items():
        if n:
            _bump(row, e, Fraction(n, d))


def _diff_terms(terms: dict, i: int) -> dict:
    """d/dx_i of a term map, with the coefficients' own arithmetic."""
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            e2 = list(e)
            e2[i] = k - 1
            out[tuple(e2)] = c * k
    return out


def _mul_into(row: dict, f: dict, g: dict, w: int) -> None:
    """row[e1 + e2] += w * f[e1] * g[e2] over two term maps (integer ones
    in the product kernels; the parser's also hold Fractions from a/b)."""
    gterms = g.items()
    for e1, c1 in f.items():
        c1 *= w
        for e2, c2 in gterms:
            e = tuple(map(int.__add__, e1, e2))
            row[e] = row.get(e, 0) + c1 * c2


# ---------------------------------------------------------------------------
# Poisson bivector powers and Jacobians


class _DerivativeCache:
    """Mixed partial derivatives of one term map on a space, computed on
    demand, and the map's degree in each variable."""

    def __init__(self, terms: dict, space: VarSpace):
        self.space = space
        self.degrees = tuple(map(max, zip(*terms))) if terms else (0,) * space.nvars
        self.cache = {(0,) * space.nvars: terms}

    def get(self, orders: tuple) -> dict:
        got = self.cache.get(orders)
        if got is not None:
            return got
        i = next(j for j, k in enumerate(orders) if k)
        lower = list(orders)
        lower[i] -= 1
        got = _diff_terms(self.get(tuple(lower)), i)
        self.cache[orders] = got
        return got


def poisson_power(f: Poly, g: Poly, r: int) -> Poly:
    """r-th power of the Poisson bivector of f's space applied to (f, g).

    The bivector is sum over pairs (a, b) of d/da (x) d/db - d/db (x) d/da,
    so on one pair P(f, g) = f_a g_b - f_b g_a and P(q, p) = 1.
    """
    if f.space != g.space:
        raise InvalidArgumentError("poisson_power arguments live on different spaces")
    if r < 0:
        raise InvalidArgumentError("poisson_power needs r >= 0")
    if r == 0:
        return f * g
    if not f.space.pairs:
        raise InvalidArgumentError("poisson_power needs at least one symplectic pair")
    (ft, fd), (gt, gd) = _int_terms(f), _int_terms(g)
    df, dg = _DerivativeCache(ft, f.space), _DerivativeCache(gt, f.space)
    grid = _poisson_grid(df, dg)
    rows: dict = {}
    _poisson_into(rows, df, dg, grid)
    return Poly._frozen(f.space, _over(rows, fd * gd * grid[1]).get(r, {})) * factorial(r)


def _poisson_grid(df: _DerivativeCache, dg: _DerivativeCache) -> tuple:
    """(bounds, d) for the Poisson powers of the maps behind df and dg.

    bounds holds (a, b, kmax, lmax) for each pair (a, b) of the space with
    kmax = min(deg_a f, deg_b g) or lmax = min(deg_b f, deg_a g) positive; no
    other pair contributes.  d = prod kmax! lmax! is a common denominator of
    the weights (-1)^l / (k! l!) on the grids."""
    fdeg, gdeg = df.degrees, dg.degrees
    bounds = []
    d = 1
    for a, b in df.space.pairs:
        kmax, lmax = min(fdeg[a], gdeg[b]), min(fdeg[b], gdeg[a])
        if kmax or lmax:
            bounds.append((a, b, kmax, lmax))
            d *= factorial(kmax) * factorial(lmax)
    return bounds, d


def _poisson_into(acc: dict, df: _DerivativeCache, dg: _DerivativeCache, grid: tuple,
                  shift: int = 0, w: int = 1, even: bool = False) -> None:
    """acc[shift + r] += w * d * P^r(f, g) / r! for every r (every even r if
    ``even``), over the integer term maps behind df and dg and the grid
    (bounds, d) from _poisson_grid.

    exp(nu P) is the product over pairs of exp(nu P_ab), which sends f (x) g
    to the sum over k, l >= 0 of nu^(k+l) (-1)^l / (k! l!) d_a^k d_b^l f *
    d_b^k d_a^l g.  The (k, l) grids are walked one pair at a time, and a
    branch ends at its first zero derivative: every higher one is zero too."""
    bounds, d = grid
    zero = (0,) * df.space.nvars
    states = [(0, w * d, zero, zero, df.get(zero), dg.get(zero))]  # (r, weight, orders, maps)
    for n, (a, b, kmax, lmax) in enumerate(bounds, 1):
        step = 2 if even and n == len(bounds) else 1  # the last pair fixes r's parity
        grown = []
        for r, c, lo, ro, lf, rg in states:
            left, right = list(lo), list(ro)
            for k in range(kmax + 1):
                left[a] = right[b] = k
                for l in range((r + k) % step, lmax + 1, step):
                    left[b] = right[a] = l
                    lo, ro = tuple(left), tuple(right)
                    rg = dg.get(ro)
                    lf = rg and df.get(lo)
                    if not lf:
                        break
                    grown.append((r + k + l, c // (factorial(k) * factorial(l)) * (-1) ** l,
                                  lo, ro, lf, rg))
                if not lf and l == 0:
                    break  # lf is zero only after a break: d_a^k f or d_b^k g is zero
        states = grown
    for r, c, _, _, lf, rg in states:
        _mul_into(acc.setdefault(shift + r, {}), lf, rg, c)


# the most term products one Jacobian determinant may form, counted before any
# is formed as the sum over the permutations of the product of the partials'
# term counts.  One product takes about 3.3 us on a 2-vCPU x86_64 host: an
# order-6 Jacobian of six random degree-8 check-fi operands forms 159,158 in
# 0.53 s, and an order-8 one of degree-6 operands 6.4 million in 21 s
JACOBIAN_TERM_BOUND = 100_000


@cache
def _signed_permutations(n: int) -> tuple:
    out = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out.append((perm, sign))
    return tuple(out)


def jacobian_det(fs: Sequence[Poly], var_indices: Sequence[int]) -> Poly:
    """Determinant of the matrix of partials d f_i / d x_{var_indices[j]}.

    Each f_i is taken once as integer numerators over its least common
    denominator d_i, and the partials are taken on those integer maps.  Every
    signed permutation product is multiplied out in ints, its last factor
    straight into one row, and the row becomes Fractions over prod d_i once
    per output term.  The term products are counted first and bounded by
    JACOBIAN_TERM_BOUND."""
    fs = list(fs)
    idx = list(var_indices)
    if len(fs) != len(idx):
        raise InvalidArgumentError("jacobian_det needs as many variables as functions")
    if len(set(idx)) != len(idx):
        raise InvalidArgumentError("jacobian_det variable indices must be distinct")
    space = fs[0].space
    for f in fs:
        if f.space != space:
            raise InvalidArgumentError("jacobian_det arguments live on different spaces")
    for i in idx:
        if not 0 <= i < space.nvars:
            raise InvalidArgumentError(f"variable index {i} out of range")
    n = len(fs)
    den = 1
    partials = []
    for f in fs:
        terms, d = _int_terms(f)
        den *= d
        partials.append([_diff_terms(terms, i) for i in idx])
    products = []
    for perm, sign in _signed_permutations(n):
        factors = [partials[i][perm[i]] for i in range(n)]
        if all(factors):
            products.append((factors, sign))
    work = sum(prod(map(len, factors)) for factors, _ in products)
    if work > JACOBIAN_TERM_BOUND:
        raise ResourceLimitError(
            f"Jacobian determinant of {work} term products is over the Jacobian term bound "
            f"{JACOBIAN_TERM_BOUND}"
        )
    one = {(0,) * space.nvars: 1}
    row: dict = {}
    for factors, sign in products:
        term = one
        for p in factors[:-1]:
            nxt: dict = {}
            _mul_into(nxt, term, p, 1)
            term = nxt
        _mul_into(row, term, factors[-1], sign)
    return Poly._frozen(space, {e: Fraction(c, den) for e, c in row.items() if c})


def leading_monomial(f: Poly) -> Exponent:
    """Graded-lex maximal exponent tuple of a nonzero polynomial."""
    return f.leading_monomial()
