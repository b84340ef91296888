"""Numeric verification layer: Weyl quantization of phase-space polynomials
into truncated harmonic-oscillator matrices.

Ladder operators corrupt the highest truncated levels, so every comparison
is restricted to a safe top-left block; tolerances are stated per check by
the caller.  The deformation parameter identification is nu = i hbar / 2.
"""

from __future__ import annotations

import itertools
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
    of all distinct arrangements of a Q factors and b P factors."""
    if f.space != qp_space():
        raise InvalidArgumentError("weyl_quantize expects a polynomial in (q, p)")
    qm, pm = position_momentum(t)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    warning = False
    for (a, b), c in f.terms.items():
        if a + b >= t.dim:
            warning = True
        # distinct arrangements = choices of the Q positions among a+b slots
        count = 0
        acc = np.zeros_like(out)
        for q_slots in itertools.combinations(range(a + b), a):
            m = np.eye(t.dim, dtype=complex)
            for pos in range(a + b):
                m = m @ (qm if pos in q_slots else pm)
            acc += m
            count += 1
        out += complex(c) * acc / max(count, 1)
    return OperatorMatrix(out, t, warning)


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
