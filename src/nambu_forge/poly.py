"""Exact sparse multivariate polynomials over the rationals, Laurent objects
in the formal deformation parameter nu, and the basic differential machinery
(partial derivatives, Poisson bivector powers, Jacobian determinants).

A polynomial is stored as integer numerators over one denominator: a map
from dense exponent tuples to nonzero ints and one positive int, in lowest
terms; the empty map over 1 is the zero polynomial.  Sums, products and
derivatives run on the ints, and Fractions are built only when a caller
reads the coefficients.  Every nu-series (a NuObject here, a ZNu or a
TaylorElem in zariski) is stored through one base class ``_Rows`` as integer
rows {key: {exponent or Z-monomial: int}} over one denominator, each key
ending in a nu power, and the graded product of two such row maps is one
``_graded_mul_into`` that takes the row kernel.  Polynomials and NuObjects
are immutable after construction and hashable, so they can serve as
dictionary keys and multiset members throughout the package.

Monomial order is graded lexicographic with the first variable largest:
compare total degree, then the exponent tuples componentwise.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain, islice
from math import factorial, gcd, lcm, prod
from operator import add, attrgetter

from .errors import InvalidArgumentError, ResourceLimitError

Exponent = tuple  # tuple[int, ...], one entry per variable
Scalar = int | Fraction

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
    "zariski_space",
    "su2_space",
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


class _Frozen:
    """Immutable values and records over the slots ``_fields`` names (two or
    more, in constructor order): the assignment guard, ``_set``, copy,
    pickling by ``_of`` (the class unless a kind supplies one), and == (within
    one class), hash and repr as a frozen dataclass's, over ``_values``."""

    __slots__ = ()
    _of = property(type)

    def __init_subclass__(cls):
        if "_fields" in vars(cls):
            cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        for name, v in zip(self._fields, values):
            object.__setattr__(self, name, v)

    # immutable, so a copy is the value itself
    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        return self._of, self._values

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class VarSpace(_Frozen):
    """An ordered set of variables plus its symplectic pairing.

    ``pairs`` lists index pairs (a, b); the Poisson bivector acts as
    d/dx_a (x) d/dx_b  -  d/dx_b (x) d/dx_a on each pair.  Indices not in any
    pair are central.
    """

    __slots__ = _fields = ("names", "pairs")

    def __init__(self, names: tuple, pairs: tuple = ()):
        if len(names) > VARIABLE_BOUND:
            raise ResourceLimitError(
                f"space of {len(names)} variables is over the variable bound {VARIABLE_BOUND}"
            )
        if len(set(names)) != len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise InvalidArgumentError(f"variable name {twice!r} appears twice")
        seen = set()
        for a, b in pairs:
            for i in (a, b):
                if not 0 <= i < len(names):
                    raise InvalidArgumentError(f"pair index {i} out of range")
                if i in seen:
                    raise InvalidArgumentError(f"variable index {i} appears in two pairs")
                seen.add(i)
        self._set(names, pairs)

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


def zariski_space(n: int = 3) -> VarSpace:
    """R^n with the pairing used by the Zariski evaluation map: all of it for
    even n, the first n-1 coordinates for odd n."""
    if n < 2:
        raise InvalidArgumentError("the construction needs at least two variables")
    return coordinate_space(n, paired=n // 2)


def su2_space() -> VarSpace:
    """The angular-momentum variables L1, L2, L3 (no symplectic pairs)."""
    return VarSpace(("L1", "L2", "L3"))


# ---------------------------------------------------------------------------
# Accumulators: sparse maps of ints summed in place (the test oracles also
# sum Fractions, Polys and ZElems with _bump)


def _bump(row: dict, e, v) -> None:
    cur = row.get(e)
    row[e] = v if cur is None else cur + v


def _add_num(acc: dict, num: Mapping, f: int) -> dict:
    """acc with acc[e] += f * num[e] over an integer term map."""
    for e, n in num.items():
        acc[e] = acc.get(e, 0) + f * n
    return acc


def _add_rows(acc: dict, rows: Mapping, f: int) -> dict:
    """acc with acc[k][m] += f * rows[k][m] over integer rows."""
    for k, row in rows.items():
        _add_num(acc.setdefault(k, {}), row, f)
    return acc


def _scaled_num(num: Mapping, f: int) -> dict:
    """A fresh integer term map f * num, copied at C level when f is 1."""
    return dict(num) if f == 1 else {e: f * n for e, n in num.items()}


def _scaled_rows(rows: Mapping, f: int) -> dict:
    """Fresh integer rows f * rows, each row a fresh map."""
    return {k: _scaled_num(row, f) for k, row in rows.items()}


def _mul_into(row: dict, f: dict, g: dict, w: int = 1) -> None:
    """row[e1 + e2] += w * f[e1] * g[e2] over two term maps (integer ones
    in the product kernels; the parser's also hold Fractions from a/b and
    J-images), the keys added entrywise with + (the parser's Zariski keys
    lead with a Z-monomial, whose + is the multiset union)."""
    gterms = g.items()
    for e1, c1 in f.items():
        c1 *= w
        for e2, c2 in gterms:
            e = tuple(map(add, e1, e2))
            row[e] = row.get(e, 0) + c1 * c2


def _graded_mul_into(mul_into, acc: dict, a: Mapping, b: Mapping, c: int = 1) -> None:
    """The graded product c * a . b of integer rows, added into acc: the rows
    keyed ka and kb multiply by mul_into (_mul_into on exponent rows,
    zariski._z_mul_into on Z-monomial rows) into the row keyed ka + kb,
    added entrywise."""
    for ka, ra in a.items():
        for kb, rb in b.items():
            mul_into(acc.setdefault(tuple(map(add, ka, kb)), {}), ra, rb, c)


class _Sparse(_Frozen):
    """The sparse values, stored as integer entries ``_parts`` over one
    denominator ``den`` in lowest terms on ``space``: their +, -, negation,
    ==, * and ``scale``, written once over the entries.  A layout supplies
    ``_fields``, the slots that its constructor from integer entries over d,
    ``_of(space, parts, d, ...)``, takes in order; ``_parts``;
    ``_scaled(parts, f)``, fresh entries f times parts;
    ``_add(acc, parts, f)``, which adds f times the entries into acc; and
    ``_mul(acc, a, b)``, which adds the entries' product into acc.  Each kind
    supplies ``_like(other)``, the operand of its own type that other stands
    for, or None, and its product kernel ``_kernel``."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self._parts

    def _check_space(self, other) -> None:
        if self.space != other.space:
            raise InvalidArgumentError("polynomials live on different variable spaces")

    def _with(self, parts: dict, d: int, other):
        """The value of self's type and space of integer entries over d, the
        result of an operation on self and other (a TaylorElem joins their
        in_a flags)."""
        return self._of(self.space, parts, d)

    def _signed(self, other, sign: int):
        """self + sign * other over the lcm of the denominators, or
        NotImplemented: one pass over each operand's entries."""
        o = self._like(other)
        if o is None:
            return NotImplemented
        self._check_space(o)
        d = lcm(self.den, o.den)
        acc = self._scaled(self._parts, d // self.den)
        return self._with(self._add(acc, o._parts, sign * (d // o.den)), d, o)

    def __add__(self, other):
        return self._signed(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._signed(other, -1)

    def __rsub__(self, other):
        o = self._like(other)
        return NotImplemented if o is None else o._signed(self, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        """c times the value for a rational scalar c, else the kind's product
        with the operand other stands for."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        o = self._like(other)
        if o is None:
            return NotImplemented
        self._check_space(o)
        acc: dict = {}
        self._mul(acc, self._parts, o._parts)
        return self._with(acc, self.den * o.den, o)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._like(other)
        if o is None:
            return NotImplemented
        return self.space == o.space and self.den == o.den and self._parts == o._parts

    def scale(self, c):
        """c times the value, for any rational scalar c."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return self._with(self._scaled(self._parts, c.numerator), self.den * c.denominator, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class _Rational(_Sparse):
    """Immutable rational combination of keys, stored as integer numerators
    ``num`` = {key: int} over ``den``, in lowest terms (den > 0, gcd of den
    and the numerators 1, no zero entry, den 1 for zero), so == compares
    space, den and num.  ``terms`` is the {key: Fraction} map that the
    constructor takes, and each kind supplies ``_term_parts(prefix)``, the
    (sign, body) text of its terms.  Poly (keys exponent tuples) and
    zariski.ZElem (keys Z-monomials, space None) are the two kinds."""

    __slots__ = ("space", "num", "den")
    _fields = __slots__
    _parts = property(attrgetter("num"))
    _add = staticmethod(_add_num)
    _scaled = staticmethod(_scaled_num)

    def _mul(self, acc: dict, a: Mapping, b: Mapping) -> None:
        self._kernel(acc, a, b)

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

    def __str__(self) -> str:
        """The terms, leading one first, from each kind's ``_term_parts``."""
        return _render_terms(self._term_parts())


class Poly(_Rational):
    """Immutable sparse polynomial over the rationals: a _Rational keyed by
    exponent tuples, one entry per variable of ``space``."""

    __slots__ = ("_hash", "_sort_key")
    _kernel = staticmethod(_mul_into)

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

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.space.nvars:
            raise InvalidArgumentError(f"evaluation needs {self.space.nvars} values, got {len(values)}")
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term *= Fraction(v) ** k
            total += term
        return total

    # -- rendering ---------------------------------------------------------
    def _term_parts(self, prefix: str = "") -> list:
        """(sign, body) pairs of the terms, leading term first, each body led
        by ``prefix``."""
        terms = self.terms
        return [
            _term_text(terms[e], _joined(prefix, _render_monomial(self.space.names, e)))
            for e in sorted(terms, key=grlex_key, reverse=True)
        ]


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


def _scalar_text(c: Scalar) -> str:
    """str(c), or ResourceLimitError where an integer of c has more digits
    than the interpreter converts to text (sys.get_int_max_str_digits())."""
    try:
        return str(c)
    except ValueError:
        raise ResourceLimitError(f"coefficient is over the integer string limit of "
                                 f"{sys.get_int_max_str_digits()} digits") from None


def _term_text(c: Fraction, mono: str) -> tuple:
    neg = c < 0
    mag = -c if neg else c
    if mono and mag == 1:
        return neg, mono
    body = _scalar_text(mag)
    return neg, f"{body}*{mono}" if mono else body


def _joined(*texts: str) -> str:
    """The non-empty texts, joined by '*'."""
    return "*".join(t for t in texts if t)


def _nu_label(k: int) -> str:
    return "" if k == 0 else ("nu" if k == 1 else f"nu^{k}")


class _Rows(_Sparse):
    """Immutable nu-series stored as the integer rows the products multiply:
    ``rows`` = {key: {exponent or Z-monomial: numerator}} over ``den``, in
    lowest terms (den > 0, gcd of den and the numerators 1, no zero entry or
    empty row), so == compares space, den and rows.  Every key is a tuple of
    ints ending in a nu power; ``terms`` is the {key: coefficient} map of
    _Rational values that the constructor takes, each row being one
    coefficient's numerators over den, and each kind supplies ``_coef(row)``,
    that coefficient.  NuObject (keys (nu power,), Poly coefficients),
    zariski.ZNu (keys (nu power,), ZElem coefficients, space None) and
    zariski.TaylorElem (keys y-exponent + (nu power,), ZElem coefficients)
    are the three kinds; only NuObject admits negative nu powers."""

    __slots__ = ("space", "rows", "den")
    _fields = __slots__
    _parts = property(attrgetter("rows"))
    _add = staticmethod(_add_rows)
    _scaled = staticmethod(_scaled_rows)
    _negative_nu = False

    def _mul(self, acc: dict, a: Mapping, b: Mapping) -> None:
        _graded_mul_into(self._kernel, acc, a, b)

    def __init__(self, space, terms: Mapping[tuple, _Rational], *flags):
        bad = [p for k in terms for p in k if not isinstance(p, int)]
        if bad:
            raise InvalidArgumentError(f"{type(self).__name__} power {bad[0]!r} is not an integer")
        self._check_nu(terms)
        self._set(space, *_reduced(*_num_rows({tuple(k): z for k, z in terms.items()})), *flags)

    def _check_nu(self, keys) -> None:
        if not self._negative_nu and any(k[-1] < 0 for k in keys):
            raise InvalidArgumentError(f"{type(self).__name__} supports non-negative nu powers only")

    @classmethod
    def _of(cls, space, rows: dict, d: int, *flags):
        """The value of integer rows over d > 0, brought to lowest terms."""
        out = object.__new__(cls)
        out._set(space, *_reduced(rows, d), *flags)
        return out

    @classmethod
    def _at_nu0(cls, x: _Rational):
        """x at nu^0, sharing x's num as its one row.  NuObject.from_poly and
        zariski.ZNu.from_zelem are this classmethod, read by vars() so that
        it binds to their class."""
        out = object.__new__(cls)
        out._set(x.space, {(0,): x.num} if x.num else {}, x.den)
        return out

    @property
    def terms(self) -> dict:
        """{key: coefficient}, built afresh from the rows by each kind's
        ``_coef``."""
        return {k: self._coef(row) for k, row in self.rows.items()}

    def nu_shift(self, n: int):
        rows = {k[:-1] + (k[-1] + n,): row for k, row in self.rows.items()}
        self._check_nu(rows)
        return self._with(rows, self.den, self)

    def __str__(self) -> str:
        """The terms by y-exponent in graded-lex order, then by nu power (the
        keys of a NuObject and a ZNu hold the nu power alone)."""
        names = [f"y{i + 1}" for i in range(max(map(len, self.rows), default=1) - 1)]
        terms = self.terms
        return _render_terms([
            part
            for k in sorted(terms, key=lambda k: (grlex_key(k[:-1]), k[-1]))
            for part in terms[k]._term_parts(_joined(_render_monomial(names, k[:-1]),
                                                     _nu_label(k[-1])))
        ])


class NuObject(_Rows):
    """Finite Laurent object in nu with Poly coefficients: _Rows keyed by
    (nu power,), the one kind with negative powers; ``coeffs`` is a
    {nu power: Poly} view.

    Ordinary polynomials embed at nu-power 0; negative powers appear only in
    star-exponential coefficients.
    """

    __slots__ = ("_hash",)
    _kernel = staticmethod(_mul_into)
    _negative_nu = True

    def __init__(self, space: VarSpace, coeffs: Mapping[int, Poly]):
        for p in coeffs.values():
            if not isinstance(p, Poly):
                raise InvalidArgumentError("NuObject coefficients must be Poly values")
            if p.space != space:
                raise InvalidArgumentError("NuObject coefficient on a different space")
        super().__init__(space, {(k,): p for k, p in coeffs.items()})

    from_poly = vars(_Rows)["_at_nu0"]

    @classmethod
    def zero(cls, space: VarSpace) -> "NuObject":
        return cls._of(space, {}, 1)

    @classmethod
    def one(cls, space: VarSpace) -> "NuObject":
        return cls._of(space, {(0,): {(0,) * space.nvars: 1}}, 1)

    def _coef(self, row: dict) -> Poly:
        return Poly._of(self.space, row, self.den)

    @property
    def coeffs(self) -> dict:
        """{nu power: Poly}, built afresh from the rows."""
        return {k: self._coef(row) for (k,), row in self.rows.items()}

    def classical(self) -> Poly:
        """The nu^0 coefficient."""
        return self.coefficient(0)

    def min_power(self) -> int:
        if not self.rows:
            raise InvalidArgumentError("zero object has no lowest nu power")
        return min(self.rows)[0]

    def coefficient(self, k: int) -> Poly:
        return self._coef(self.rows.get((k,), {}))

    def truncate(self, max_power: int) -> "NuObject":
        return self._of(self.space, {k: row for k, row in self.rows.items() if k[0] <= max_power},
                        self.den)

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

    def __hash__(self):
        try:
            return self._hash  # set on first use; NuObject is immutable
        except AttributeError:
            # a nu^0-only object equals its classical Poly, so it hashes as one
            if self.rows.keys() <= {(0,)}:
                h = hash(self.classical())
            else:
                h = hash((self.space, self.den,
                          frozenset((k, frozenset(row.items())) for k, row in self.rows.items())))
            object.__setattr__(self, "_hash", h)
            return h


class TSeries(_Frozen):
    """Truncated formal series in t with NuObject coefficients."""

    __slots__ = _fields = ("truncation_order", "coeffs")

    def __init__(self, truncation_order: int, coeffs: tuple):
        if len(coeffs) != truncation_order + 1:
            raise InvalidArgumentError("TSeries needs truncation_order + 1 coefficients")
        self._set(truncation_order, coeffs)

    def coefficient(self, r: int) -> NuObject:
        if not 0 <= r <= self.truncation_order:
            raise InvalidArgumentError(
                f"t-order {r} is outside the series' orders 0..{self.truncation_order}")
        return self.coeffs[r]

    def __str__(self) -> str:
        lines = [f"t^{r}: {c}" for r, c in enumerate(self.coeffs)]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Integer rows: the product kernels multiply and add plain ints on rows
# {key: {exponent or Z-monomial: int}} over one denominator per operand.


def _num_rows(values: Mapping) -> tuple:
    """(rows, d) with values[k] = rows[k] / d for a map of _Rational values
    (the terms a _Rows constructor takes, or a J-image), d the least common
    multiple of their denominators.  A row over d itself is the value's own
    num map, so callers read the rows and never mutate them."""
    d = lcm(*(p.den for p in values.values()))
    return {k: p.num if p.den == d else {e: n * (d // p.den) for e, n in p.num.items()}
            for k, p in values.items()}, d


def _reduced(rows: dict, d: int) -> tuple:
    """Integer rows over d in lowest terms, zero entries and rows dropped."""
    g = gcd(d, *chain.from_iterable(map(dict.values, rows.values())))
    return {m: {e: n // g for e, n in row.items() if n} for m, row in rows.items()
            if any(row.values())}, d // g


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
    return Poly._of(f.space, {e: n * scale for e, n in rows.get((r,), {}).items()},
                    d * f.den * g.den)


def _poisson_sum(jobs: Iterable, space: VarSpace, even: bool = False, axes=None) -> tuple:
    """(rows, d) with rows[(m,)] / d the sum over the jobs (shift, w, f, g) of
    w nu^(shift + r) B^r(f, g) / r! over every r (every positive even r if
    ``even``: the caller forms the order 0, the plain product, itself),
    w an integer and f, g integer term maps on ``space``.

    B is the constant bidifferential operator sum over ``axes`` (i, j, w) of
    w d_i (x) d_j; by default the Poisson bivector P of the space, the axes
    (a, b, 1) and (b, a, -1) per pair.  exp(nu B) is the product over the
    axes of exp(nu w d_i (x) d_j), which sends f (x) g to the sum over k of
    nu^k w^k / k! d_i^k f * d_j^k g.  So a job's grid has one coordinate k
    per axis, up to top = min(deg_i f, deg_j g), and no axis of top 0.  d is
    the least common multiple of the grids' denominators, the products of
    their tops' factorials, so every job is summed in ints and the caller
    divides once: this is the one place where grids and denominators meet."""
    if axes is None:
        axes = [axis for a, b in space.pairs for axis in ((a, b, 1), (b, a, -1))]
    runs = []
    for shift, w, f, g in jobs:
        grid = []
        if f and g:
            fdeg, gdeg = tuple(map(max, zip(*f))), tuple(map(max, zip(*g)))
            for i, j, weight in axes:
                if top := min(fdeg[i], gdeg[j]):
                    grid.append((i, j, top, weight))
        runs.append((shift, w, f, g, grid))
    d = lcm(*(prod(factorial(top) for _, _, top, _ in grid) for *_, grid in runs))
    rows: dict = {}
    for shift, w, f, g, grid in runs:
        _poisson_walk(rows, grid, f, g, w * d, shift, 0, even)
    return rows, d


def _poisson_walk(acc: dict, grid: list, f: dict, g: dict, c: int, shift: int, r: int,
                  even: bool) -> None:
    """Add c * w_p * (d_p f) (d_p g) into acc[(shift + r + s,)] for each point p
    of ``grid`` whose coordinates sum to s (only where r + s is even and
    positive if ``even``).  Coordinate k on the axis (i, j, top, weight)
    gives w_p the factor weight^k / k!, d_p f the factor d_i^k and d_p g the
    factor d_j^k.  The derivatives come from chains cut at top, g's first,
    so a branch ends at its first zero derivative and no derivative is taken
    that no term uses.  Only the last axis fixes the parity of r, and there
    the chains stop at the last order of the wanted parity."""
    if not grid:
        if r or not even:
            _mul_into(acc.setdefault((shift + r,), {}), f, g, c)
        return
    (i, j, top, weight), rest = grid[0], grid[1:]
    last = even and not rest
    if last:
        top -= (r + top) % 2
    for k, (gk, fk) in enumerate(islice(zip(_chain(g, j), _chain(f, i)), top + 1)):
        if not (last and (r + k) % 2):
            _poisson_walk(acc, rest, fk, gk, c // factorial(k) * weight**k, shift, r + k, even)


# the most entry products one table of Jacobian minors may form, counted as
# entries(minor) * entries(partial) before each product of the Laplace
# expansion, where a row map counts the entries of all its rows.  One product
# takes 2-4 us on a 2-vCPU x86_64 host: the largest table of check-fi
# --bracket linear6 --degree 8 forms 2.0 million in 3.7 s, and the Taylor
# Nambu bracket of J-images of dense degree-5 polynomials 0.19 million in 0.39 s
JACOBIAN_TERM_BOUND = 100_000

# the entry products formed by every table since import; a caller that
# bounds a sum of tables reads its growth
jacobian_work = 0


def _entries(m: Mapping) -> int:
    """The entries of a term map, or of every row of a row map."""
    return sum(map(len, m.values())) if type(next(iter(m.values()))) is dict else len(m)


def _alternating_sum(rows: Sequence, mul_into, targets=None) -> dict:
    """{mask: minor}: the k-row minors of the matrix rows[i][j] of sparse maps
    (an empty map is zero), keyed by the bitmask of their columns in ascending
    order.  Laplace expansion row by row: a minor extends to each column j it
    lacks, signed -1 per used column above j, by mul_into(acc, minor, entry,
    sign), the minor on the left so row order is kept.  Zero entries and
    cancelled minors end their branch; with ``targets`` only masks inside one
    of them are kept.  _entries(minor) * _entries(entry) is counted before
    each product, passing JACOBIAN_TERM_BOUND is refused as a Jacobian's, and
    the count is added to ``jacobian_work``."""
    global jacobian_work
    table = {1 << j: entry for j, entry in enumerate(rows[0]) if entry}
    work = 0
    for row in rows[1:]:
        grown: dict = {}
        for mask, minor in table.items():
            for j, entry in enumerate(row):
                new = mask | 1 << j
                if new == mask or not entry or targets and all(new & ~t for t in targets):
                    continue
                work += _entries(minor) * _entries(entry)
                if work > JACOBIAN_TERM_BOUND:
                    raise ResourceLimitError(f"Jacobian determinant of {work} term products is "
                                             f"over the Jacobian term bound {JACOBIAN_TERM_BOUND}")
                sign = -1 if (mask >> j).bit_count() & 1 else 1
                mul_into(grown.setdefault(new, {}), minor, entry, sign)
        table = {mask: minor for mask, acc in grown.items()
                 if (minor := {k: v for k, v in acc.items() if v})}
    jacobian_work += work
    return table


def _jacobian_table(fs: Sequence[Poly], idx: Sequence[int], targets=None) -> tuple:
    """(table, den): the nonzero len(fs)-row minors of the matrix of partials
    d f_i / d x_{idx[j]}, keyed as by _alternating_sum, as integer numerators
    over den, the product of the denominators of the f_i."""
    if len(set(idx)) != len(idx):
        raise InvalidArgumentError("jacobian_det variable indices must be distinct")
    space = fs[0].space
    if any(f.space != space for f in fs):
        raise InvalidArgumentError("jacobian_det arguments live on different spaces")
    for i in idx:
        if not 0 <= i < space.nvars:
            raise InvalidArgumentError(f"variable index {i} out of range")
    rows = [[_diff_terms(f.num, i) for i in idx] for f in fs]
    return _alternating_sum(rows, _mul_into, targets), prod(f.den for f in fs)


def jacobian_det(fs: Sequence[Poly], var_indices: Sequence[int]) -> Poly:
    """Determinant of the matrix of partials d f_i / d x_{var_indices[j]}."""
    fs, idx = list(fs), list(var_indices)
    if len(fs) != len(idx):
        raise InvalidArgumentError("jacobian_det needs as many variables as functions")
    table, den = _jacobian_table(fs, idx)
    return Poly._of(fs[0].space, table.get((1 << len(idx)) - 1, {}), den)


def leading_monomial(f: Poly) -> Exponent:
    """Graded-lex maximal exponent tuple of a nonzero polynomial."""
    return f.leading_monomial()
