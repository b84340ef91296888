"""Weyl quantization oracle: spectra, operator products, exponentials."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from nambu_forge import weyl
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.poly import Poly, qp_space
from nambu_forge.star import moyal_product, star_exponential
from nambu_forge.weyl import (
    FockTruncation,
    ho_spectrum,
    position_momentum,
    star_exponential_deviation,
    star_vs_operator,
    weyl_quantize,
)

QP = qp_space()
q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)


def test_harmonic_oscillator_spectrum():
    values = ho_spectrum(FockTruncation(40, 1.0), 5)
    assert max(abs(v - (n + 0.5)) for n, v in enumerate(values)) < 1e-9


def test_spectrum_hbar_scaling():
    values = ho_spectrum(FockTruncation(40, 2.0), 1)
    assert abs(values[0] - 1.0) < 1e-9


def test_spectrum_empty():
    assert ho_spectrum(FockTruncation(40, 1.0), 0) == []


def test_constant_is_identity():
    t = FockTruncation(20, 1.0)
    m = weyl_quantize(Poly.const(QP, 1), t)
    assert np.abs(m.entries - np.eye(20)).max() < 1e-12
    assert not m.degree_warning


def test_qp_is_symmetrized():
    t = FockTruncation(20, 1.0)
    qm, pm = position_momentum(t)
    m = weyl_quantize(q * p, t).entries
    assert np.abs(m - (qm @ pm + pm @ qm) / 2).max() < 1e-12


def test_number_operator_diagonal():
    t = FockTruncation(20, 1.0)
    m = weyl_quantize(q * q + p * p, t).entries
    diag = np.real(np.diag(m))[:10]
    assert np.abs(diag - (2 * np.arange(10) + 1)).max() < 1e-10


def test_hermitian_images():
    t = FockTruncation(30, 1.0)
    for f in (q, p, q * p, q * q + p * p, q * q * p, q**3):
        m = weyl_quantize(f, t).entries
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_degree_warning_flag():
    t = FockTruncation(3, 1.0)
    assert weyl_quantize(q**4, t).degree_warning
    assert not weyl_quantize(q, t).degree_warning


def test_star_vs_operator():
    assert star_vs_operator(q, p, FockTruncation(30, 1.0), 15) < 1e-10
    assert star_vs_operator(q * q, p * p, FockTruncation(40, 1.0), 15) < 1e-9
    assert star_vs_operator(q * p, Poly.const(QP, 1), FockTruncation(30, 1.0), 15) < 1e-12


def test_star_vs_operator_band_guard():
    with pytest.raises(InvalidArgumentError):
        star_vs_operator(q, p, FockTruncation(10, 1.0), 10)


def test_eigenstate_relation():
    t = FockTruncation(40, 1.0)
    h = (q * q + p * p) * Fraction(1, 2)
    m = weyl_quantize(h, t).entries
    m = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(m)
    for n in range(5):
        proj = np.outer(vecs[:, n], vecs[:, n].conj())
        assert np.abs(m @ proj - vals[n] * proj)[:20, :20].max() < 1e-9
        # projectors are mutually orthogonal idempotents on the safe band
        for k in range(5):
            other = np.outer(vecs[:, k], vecs[:, k].conj())
            target = proj if k == n else np.zeros_like(proj)
            assert np.abs(proj @ other - target)[:20, :20].max() < 1e-9


def test_star_exponential_matches_matrix_exponential():
    h = (q * q + p * p) * Fraction(1, 2)
    series = star_exponential(moyal_product(QP), h, 6)
    dev = star_exponential_deviation(series, h, FockTruncation(40, 1.0), 12)
    assert dev < 1e-8


def test_truncation_validation():
    with pytest.raises(InvalidArgumentError):
        FockTruncation(1, 1.0)
    with pytest.raises(InvalidArgumentError):
        FockTruncation(10, -1.0)


def test_fock_dim_bound(monkeypatch):
    monkeypatch.setattr(weyl, "FOCK_DIM_BOUND", 8)
    assert ho_spectrum(FockTruncation(8, 1.0), 2) == pytest.approx([0.5, 1.5])

    def refuse(*_, **__):
        raise AssertionError("matrix allocated")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ResourceLimitError, match="Fock dimension bound 8") as err:
        FockTruncation(9, 1.0)
    assert "dim 9" in str(err.value)


@pytest.mark.parametrize("a, b", [(0, 0), (3, 0), (0, 2), (1, 1), (2, 2), (3, 1), (2, 4)])
def test_weyl_quantize_averages_every_arrangement(a, b):
    # the oracle multiplies out each of the C(a+b, a) words
    t = FockTruncation(12, 1.0)
    qm, pm = position_momentum(t)
    words = [
        np.linalg.multi_dot([np.eye(t.dim)] * 2 + [qm if k in slots else pm for k in range(a + b)])
        for slots in itertools.combinations(range(a + b), a)
    ]
    expected = sum(words) * Fraction(-3, 7).__float__() / math.comb(a + b, a)
    got = weyl_quantize(q**a * p**b * Fraction(-3, 7), t).entries
    assert np.abs(got - expected).max() < 1e-9 * max(1.0, np.abs(expected).max())


def test_weyl_product_bound(monkeypatch):
    # q^2 p^3 takes 2*2*3 + 2 + 3 = 17 products, q takes 1
    monkeypatch.setattr(weyl, "WEYL_PRODUCT_BOUND", 18)
    t = FockTruncation(8, 1.0)
    weyl_quantize(q**2 * p**3 + q, t)
    with pytest.raises(ResourceLimitError, match="needs 19 matrix products, over the Weyl product bound 18"):
        weyl_quantize(q**2 * p**3 + q + p, t)
