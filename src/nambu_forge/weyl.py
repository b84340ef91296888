"""Numeric verification layer: Weyl quantization of phase-space polynomials
into truncated harmonic-oscillator matrices.

Ladder operators corrupt the highest truncated levels, so every comparison
is restricted to a safe top-left block; tolerances are stated per check by
the caller.  The deformation parameter identification is nu = i hbar / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .poly import NuObject, Poly, TSeries, qp_space

__all__ = [
    "FockTruncation",
    "OperatorMatrix",
    "ladder_operators",
    "position_momentum",
    "weyl_quantize",
    "star_vs_operator",
    "ho_spectrum",
    "star_exponential_deviation",
]


# every check builds several dense complex dim x dim matrices and multiplies
# them; the spectrum at dim 512 takes 2-3 s and 56 MB on a 2-vCPU x86_64 host
FOCK_DIM_BOUND = 512
# weyl_quantize makes 2ab + a + b matrix products for a monomial q^a p^b, each
# about 13 ms at dim 512 on the same host: q^22 p^21 (967 products) takes
# 12.6 s there and 0.02 s at dim 40
WEYL_PRODUCT_BOUND = 1000


@dataclass(frozen=True)
class FockTruncation:
    dim: int
    hbar: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidArgumentError("truncation needs dim >= 2")
        if self.dim > FOCK_DIM_BOUND:
            raise ResourceLimitError(
                f"truncation dim {self.dim} is over the Fock dimension bound {FOCK_DIM_BOUND}"
            )
        if self.hbar <= 0:
            raise InvalidArgumentError("hbar must be positive")


@dataclass(frozen=True)
class OperatorMatrix:
    entries: np.ndarray
    truncation: FockTruncation
    degree_warning: bool = False  # polynomial degree too close to the cutoff


def ladder_operators(t: FockTruncation) -> tuple:
    """(annihilation, creation) matrices with a|n> = sqrt(n)|n-1>."""
    n = np.sqrt(np.arange(1, t.dim))
    a = np.zeros((t.dim, t.dim), dtype=complex)
    a[np.arange(t.dim - 1), np.arange(1, t.dim)] = n
    return a, a.conj().T


def position_momentum(t: FockTruncation) -> tuple:
    a, adag = ladder_operators(t)
    scale = math.sqrt(t.hbar / 2.0)
    q = scale * (a + adag)
    p = 1j * scale * (adag - a)
    return q, p


def weyl_quantize(f: Poly, t: FockTruncation) -> OperatorMatrix:
    """Totally symmetric ordering: each monomial q^a p^b becomes the average
    of all C(a+b, a) distinct arrangements of a Q factors and b P factors.

    The sum S(i, j) of the words with i Q's and j P's is S(i-1, j) Q +
    S(i, j-1) P, so S(a, b) takes (a+1)(b+1) sums, not C(a+b, a) words."""
    if f.space != qp_space():
        raise InvalidArgumentError("weyl_quantize expects a polynomial in (q, p)")
    products = sum(2 * a * b + a + b for a, b in f.terms)
    if products > WEYL_PRODUCT_BOUND:
        raise ResourceLimitError(f"Weyl quantization needs {products} matrix products, "
                                 f"over the Weyl product bound {WEYL_PRODUCT_BOUND}")
    qm, pm = position_momentum(t)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for (a, b), c in f.terms.items():
        row = [np.eye(t.dim, dtype=complex)]  # row[j] = S(i, j), here for i = 0
        for _ in range(b):
            row.append(row[-1] @ pm)
        for _ in range(a):
            row[0] = row[0] @ qm
            for j in range(1, b + 1):
                row[j] = row[j] @ qm + row[j - 1] @ pm
        out += complex(c) * row[b] / math.comb(a + b, a)
    return OperatorMatrix(out, t, any(a + b >= t.dim for a, b in f.terms))


def _nu_value(t: FockTruncation) -> complex:
    return 0.5j * t.hbar


def _quantize_nuobject(x: NuObject, t: FockTruncation) -> np.ndarray:
    nu = _nu_value(t)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for k, p in x.coeffs.items():
        out += nu**k * weyl_quantize(p, t).entries
    return out


def star_vs_operator(f: Poly, g: Poly, t: FockTruncation, safe_band: int) -> float:
    """Max-norm deviation between W(f * g) at nu = i hbar/2 and W(f) W(g),
    over the top-left safe_band x safe_band block."""
    if safe_band >= t.dim:
        raise InvalidArgumentError("safe_band must be smaller than dim")
    from .star import moyal_product, star_mul

    star = star_mul(moyal_product(qp_space()), f, g)
    lhs = _quantize_nuobject(star, t)
    rhs = weyl_quantize(f, t).entries @ weyl_quantize(g, t).entries
    block = slice(0, safe_band)
    return float(np.abs(lhs[block, block] - rhs[block, block]).max())


def ho_spectrum(t: FockTruncation, k: int) -> list:
    """Lowest k eigenvalues of the quantized harmonic oscillator (q^2+p^2)/2."""
    if k < 0 or 2 * k >= t.dim:
        raise InvalidArgumentError("need k >= 0 with 2k < dim")
    if k == 0:
        return []
    sp = qp_space()
    from fractions import Fraction

    h = (Poly.variable(sp, 0) ** 2 + Poly.variable(sp, 1) ** 2) * Fraction(1, 2)
    m = weyl_quantize(h, t).entries
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return [float(v) for v in np.sort(vals)[:k]]


def star_exponential_deviation(
    series: TSeries, h: Poly, t: FockTruncation, safe_band: int
) -> float:
    """Compare t-coefficients of a star exponential against the Taylor
    coefficients of the matrix exponential exp(t H_op / (i hbar)).

    The r-th matrix coefficient is H_op^r / (r! (i hbar)^r); the symbol-side
    coefficient is quantized at nu = i hbar / 2.
    """
    if safe_band >= t.dim:
        raise InvalidArgumentError("safe_band must be smaller than dim")
    hop = weyl_quantize(h, t).entries
    block = slice(0, safe_band)
    worst = 0.0
    acc = np.eye(t.dim, dtype=complex)
    for r in range(series.truncation_order + 1):
        if r > 0:
            acc = acc @ (hop / (1j * t.hbar * r))
        sym = _quantize_nuobject(series.coefficient(r), t)
        worst = max(worst, float(np.abs(sym[block, block] - acc[block, block]).max()))
    return worst
