"""Exact sparse multivariate polynomials over the rationals, Laurent objects
in the formal deformation parameter nu, and the basic differential machinery
(partial derivatives, Poisson bivector powers, Jacobian determinants).

A polynomial is stored as integer numerators over one denominator: a map
from dense exponent tuples to nonzero ints and one positive int, in lowest
terms; the empty map over 1 is the zero polynomial.  Sums, products and
derivatives run on the ints, and Fractions are built only when a caller
reads the coefficients.  All values are immutable after construction and
hashable, so they can serve as dictionary keys and multiset members
throughout the package.

Monomial order is graded lexicographic with the first variable largest:
compare total degree, then the exponent tuples componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm, prod
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

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
# a 2-vCPU x86_64 host the Moyal square of a1*a2*...*a16 takes 0.4 s on 16
# variables and 1.7 s (23 MB peak RSS) on 128, and that of a1^8 + ... + a128^8
# 0.6 s
VARIABLE_BOUND = 128

# factor.factorize's default total-degree bound, defined here so that the CLI
# reads its default without loading the factorizer
DEFAULT_DEGREE_BOUND = 12


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
        if len(set(self.names)) != len(self.names):
            twice = next(n for i, n in enumerate(self.names) if n in self.names[:i])
            raise InvalidArgumentError(f"variable name {twice!r} appears twice")
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
    """+, -, negation, is_zero, ==, copy and repr of the immutable sparse values
    (NuObject and ZNu; _Rational and TaylorElem, over one denominator, bring
    their own +, -, negation and ==).  Each supplies ``_parts``, its nonzero
    values; ``_like(other)``, the operand of its own type that other stands
    for, or None; and ``_rebuild(row, other)``, the value of a summed row,
    with the type's space check.  == compares ``space``, so it is False where
    + and - raise."""

    __slots__ = ()
    space = None

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    # immutable, so a copy is the value itself; each type's __reduce__
    # rebuilds a pickled value through its constructor
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

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


class _Rational(_Sparse):
    """Immutable rational combination of keys, stored as integer numerators
    ``num`` = {key: int} over ``den``, in lowest terms (den > 0, gcd of den
    and the numerators 1, no zero entry, den 1 for zero), so == compares
    space, den and num.  ``terms`` is the {key: Fraction} map that the
    constructor takes.  Poly (keys exponent tuples) and zariski.ZElem (keys
    Z-monomials, space None) are the two kinds."""

    __slots__ = ("space", "num", "den")
    _parts = property(attrgetter("num"))

    def __init__(self, space, terms: Mapping):
        clean = {}
        for e, c in terms.items():
            if type(c) is not int and type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[e] = c
        # over the lcm of reduced denominators the numerators are coprime to
        # it; an int has numerator and denominator too
        d = lcm(*(c.denominator for c in clean.values()))
        self._set(space, {e: c.numerator * (d // c.denominator) for e, c in clean.items()}, d)

    def _set(self, space, num: dict, den: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, space, row: Mapping, d: int = 1):
        """The value of integer numerators row over d > 0, brought to lowest
        terms; zero entries are dropped."""
        num = {e: n for e, n in row.items() if n}
        if d != 1:
            g = gcd(d, *num.values())
            if g != 1:
                num = {e: n // g for e, n in num.items()}
                d //= g
        out = object.__new__(cls)
        out._set(space, num, d)
        return out

    @property
    def terms(self) -> dict:
        """{key: Fraction}, built afresh from num and den."""
        d = self.den
        return {e: Fraction(n, d) for e, n in self.num.items()}

    def _signed(self, other, sign: int):
        o = self._like(other)
        if o is None:
            return NotImplemented
        self._check_space(o)
        d = lcm(self.den, o.den)
        a, b = d // self.den, d // o.den
        x = self.num if a == 1 else {e: n * a for e, n in self.num.items()}
        y = o.num if b == 1 else {e: n * b for e, n in o.num.items()}
        return self._of(self.space, _summed(x, y, sign), d)

    def __neg__(self):
        return self._of(self.space, {e: -n for e, n in self.num.items()}, self.den)

    def __eq__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return self.space == o.space and self.den == o.den and self.num == o.num

    def scale(self, c):
        """c times the value, for any rational scalar c."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        n = c.numerator
        return self._of(self.space, {e: v * n for e, v in self.num.items()},
                        self.den * c.denominator)


class Poly(_Rational):
    """Immutable sparse polynomial over the rationals: a _Rational keyed by
    exponent tuples, one entry per variable of ``space``."""

    __slots__ = ("_hash", "_sort_key")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, space: VarSpace) -> "Poly":
        return cls._of(space, {})

    @classmethod
    def const(cls, space: VarSpace, c: Scalar) -> "Poly":
        return cls(space, {(0,) * space.nvars: c})

    @classmethod
    def variable(cls, space: VarSpace, i: int) -> "Poly":
        e = [0] * space.nvars
        e[i] = 1
        return cls._of(space, {tuple(e): 1})

    @classmethod
    def monomial(cls, space: VarSpace, e: Exponent, c: Scalar = 1) -> "Poly":
        return cls(space, {tuple(e): c})

    # -- basic queries -----------------------------------------------------
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.num)

    def constant_value(self) -> Fraction:
        return Fraction(self.num.get((0,) * self.space.nvars, 0), self.den)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.num:
            return -1
        return max(map(sum, self.num))

    def leading_monomial(self) -> Exponent:
        if not self.num:
            raise InvalidArgumentError("the zero polynomial has no leading monomial")
        return max(self.num, key=grlex_key)

    def leading_coeff(self) -> Fraction:
        return Fraction(self.num[self.leading_monomial()], self.den)

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

    def __reduce__(self):
        return Poly, (self.space, self.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_space(other)
        row: dict = {}
        _mul_into(row, self.num, other.num, 1)
        return Poly._of(self.space, row, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidArgumentError("negative polynomial powers are not defined")
        out = Poly._of(self.space, {(0,) * self.space.nvars: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __hash__(self):
        try:
            return self._hash  # set on first use; Poly is immutable
        except AttributeError:
            # a constant equals its Fraction value, so it hashes as one
            if self.is_constant():
                h = hash(self.constant_value())
            else:
                h = hash((self.space, self.den, frozenset(self.num.items())))
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus ----------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        if not 0 <= i < self.space.nvars:
            raise InvalidArgumentError(f"variable index {i} out of range")
        return Poly._of(self.space, _diff_terms(self.num, i), self.den)

    def diff_multi(self, orders: Sequence[int]) -> "Poly":
        p = self
        for i, k in enumerate(orders):
            for _ in range(k):
                if p.is_zero():
                    return p
                p = p.diff(i)
        return p

    def _check_arity(self, values: Sequence) -> None:
        if len(values) != self.space.nvars:
            raise InvalidArgumentError(f"evaluation needs {self.space.nvars} values, got {len(values)}")

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        self._check_arity(values)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term *= Fraction(v) ** k
            total += term
        return total

    def evaluate_float(self, values: Sequence[float]) -> float:
        self._check_arity(values)
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
    terms = f.terms
    return [
        _term_text(terms[e], _joined(prefix, _render_monomial(f.space.names, e)))
        for e in sorted(terms, key=grlex_key, reverse=True)
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
        return self.coefficient(0)

    def min_power(self) -> int:
        if not self.coeffs:
            raise InvalidArgumentError("zero object has no lowest nu power")
        return min(self.coeffs)

    def coefficient(self, k: int) -> Poly:
        p = self.coeffs.get(k)
        return Poly.zero(self.space) if p is None else p

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

    def __reduce__(self):
        return NuObject, (self.space, self.coeffs)

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
# (ints, Fractions, Polys, ZElems, ZNus)


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


# Integer rows: the product kernels multiply and add plain ints on rows
# {key: {exponent or Z-monomial: int}} over one denominator per operand.


def _num_rows(values: Mapping) -> tuple:
    """(rows, d) with values[k] = rows[k] / d for a map of _Rational values
    (the nu-coefficients of a NuObject or ZNu, say), d the least common
    multiple of their denominators.  A row over d itself is the value's own
    num map, so callers read the rows and never mutate them."""
    d = lcm(*(p.den for p in values.values()))
    return {k: p.num if p.den == d else {e: n * (d // p.den) for e, n in p.num.items()}
            for k, p in values.items()}, d


def _nu_of(space: VarSpace, rows: Mapping, d: int) -> NuObject:
    """The NuObject sum of nu^k rows[k] / d over integer rows, d > 0."""
    return NuObject(space, {k: Poly._of(space, row, d) for k, row in rows.items()})


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


def _chain(terms: dict, i: int):
    """terms, d/dx_i terms, d^2/dx_i^2 terms, ... up to the last nonzero one;
    each derivative is computed when it is pulled."""
    while terms:
        yield terms
        terms = _diff_terms(terms, i)


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
    rows, d = _poisson_sum([(0, 1, f.num, g.num)], f.space)
    scale = factorial(r)
    return Poly._of(f.space, {e: n * scale for e, n in rows.get(r, {}).items()},
                    d * f.den * g.den)


def _poisson_sum(jobs: Iterable, space: VarSpace, even: bool = False) -> tuple:
    """(rows, d) with rows[m] / d the sum over the jobs (shift, w, f, g) of
    w nu^(shift + r) P^r(f, g) / r! over every r (every even r if ``even``),
    w an integer and f, g integer term maps on ``space``.

    exp(nu P) is the product over pairs of exp(nu P_ab), which sends f (x) g
    to the sum over k, l >= 0 of nu^(k+l) (-1)^l / (k! l!) d_a^k d_b^l f *
    d_b^k d_a^l g.  So a job's grid has the axes k on (a, b, kmax, 1) and l
    on (b, a, lmax, -1) for each pair, kmax = min(deg_a f, deg_b g) and
    lmax = min(deg_b f, deg_a g), but none of top order 0.  d is the least
    common multiple of the grids' denominators, the products of their top
    orders' factorials, so every job is summed in ints and the caller
    divides once: this is the one place where grids and denominators meet."""
    runs = []
    for shift, w, f, g in jobs:
        grid = []
        if f and g:
            fdeg, gdeg = tuple(map(max, zip(*f))), tuple(map(max, zip(*g)))
            for a, b in space.pairs:
                for i, j, sign in ((a, b, 1), (b, a, -1)):
                    if top := min(fdeg[i], gdeg[j]):
                        grid.append((i, j, top, sign))
        runs.append((shift, w, f, g, grid))
    d = lcm(*(prod(factorial(top) for _, _, top, _ in grid) for *_, grid in runs))
    rows: dict = {}
    for shift, w, f, g, grid in runs:
        _poisson_walk(rows, grid, f, g, w * d, shift, 0, even)
    return rows, d


def _poisson_walk(acc: dict, grid: list, f: dict, g: dict, c: int, shift: int, r: int,
                  even: bool) -> None:
    """Add c * w_p * (d_p f) (d_p g) into acc[shift + r + s] for each point p
    of ``grid`` whose coordinates sum to s (only where r + s is even if
    ``even``).  Coordinate k on the axis (i, j, top, sign) gives w_p the
    factor sign^k / k!, d_p f the factor d_i^k and d_p g the factor d_j^k.
    The derivatives come from chains cut at top, g's first, so a branch ends
    at its first zero derivative and no derivative is taken that no term
    uses.  Only the last axis fixes the parity of r, and there the chains
    stop at the last order of the wanted parity."""
    if not grid:
        _mul_into(acc.setdefault(shift + r, {}), f, g, c)
        return
    (i, j, top, sign), rest = grid[0], grid[1:]
    last = even and not rest
    if last:
        top -= (r + top) % 2
    for k, (gk, fk) in enumerate(islice(zip(_chain(g, j), _chain(f, i)), top + 1)):
        if not (last and (r + k) % 2):
            _poisson_walk(acc, rest, fk, gk, c // factorial(k) * sign**k, shift, r + k, even)


# the most term products one table of Jacobian minors may form, counted as
# len(minor) * len(partial) before each product of the Laplace expansion.  One
# product takes 2-4 us on a 2-vCPU x86_64 host: the largest table of check-fi
# --bracket linear6 --degree 8 forms 2.0 million in 3.7 s
JACOBIAN_TERM_BOUND = 100_000


def _alternating_sum(rows: Sequence, mul_into, targets=None, bound=None) -> dict:
    """{mask: minor}: the k-row minors of the matrix rows[i][j] of sparse maps
    (an empty map is zero), keyed by the bitmask of their columns in ascending
    order.  Laplace expansion row by row: a minor extends to each column j it
    lacks, signed -1 per used column above j, by mul_into(acc, minor, entry,
    sign), the minor on the left so row order is kept.  Zero entries and
    cancelled minors end their branch; with ``targets`` only masks inside one
    of them are kept; with ``bound`` len(minor) * len(entry) is counted before
    each product, and passing it is refused as a Jacobian's."""
    table = {1 << j: entry for j, entry in enumerate(rows[0]) if entry}
    work = 0
    for row in rows[1:]:
        grown: dict = {}
        for mask, minor in table.items():
            for j, entry in enumerate(row):
                new = mask | 1 << j
                if new == mask or not entry or targets and all(new & ~t for t in targets):
                    continue
                if bound is not None:
                    work += len(minor) * len(entry)
                    if work > bound:
                        raise ResourceLimitError(f"Jacobian determinant of {work} term products "
                                                 f"is over the Jacobian term bound {bound}")
                sign = -1 if (mask >> j).bit_count() & 1 else 1
                mul_into(grown.setdefault(new, {}), minor, entry, sign)
        table = {mask: minor for mask, acc in grown.items()
                 if (minor := {k: v for k, v in acc.items() if v})}
    return table


def _jacobian_minors(fs: Sequence[Poly], idx: Sequence[int], targets=None) -> dict:
    """{mask: Poly}: the nonzero len(fs)-row minors of the matrix of partials
    d f_i / d x_{idx[j]}, keyed as by _alternating_sum, on the integer
    numerators of the f_i over the product of their denominators."""
    if len(set(idx)) != len(idx):
        raise InvalidArgumentError("jacobian_det variable indices must be distinct")
    space = fs[0].space
    if any(f.space != space for f in fs):
        raise InvalidArgumentError("jacobian_det arguments live on different spaces")
    for i in idx:
        if not 0 <= i < space.nvars:
            raise InvalidArgumentError(f"variable index {i} out of range")
    den = prod(f.den for f in fs)
    rows = [[_diff_terms(f.num, i) for i in idx] for f in fs]
    table = _alternating_sum(rows, _mul_into, targets, JACOBIAN_TERM_BOUND)
    return {mask: Poly._of(space, row, den) for mask, row in table.items()}


def jacobian_det(fs: Sequence[Poly], var_indices: Sequence[int]) -> Poly:
    """Determinant of the matrix of partials d f_i / d x_{var_indices[j]}."""
    fs, idx = list(fs), list(var_indices)
    if len(fs) != len(idx):
        raise InvalidArgumentError("jacobian_det needs as many variables as functions")
    det = _jacobian_minors(fs, idx).get((1 << len(idx)) - 1)
    return Poly.zero(fs[0].space) if det is None else det


def leading_monomial(f: Poly) -> Exponent:
    """Graded-lex maximal exponent tuple of a nonzero polynomial."""
    return f.leading_monomial()
