"""Argument refusals that no other test reaches: each call raises its named
error with its exact message, through the API or through the CLI."""

import contextlib
import io
import json
import re
from fractions import Fraction

import pytest

from nambu_forge import cli
from nambu_forge.errors import InvalidArgumentError
from nambu_forge.nambu import (
    Dynamics,
    bracket_eval,
    canonical_bracket,
    custom_bracket,
    linear_bracket,
)
from nambu_forge.numbers import bernoulli_number, falling_factorial
from nambu_forge.poly import (
    NuObject,
    Poly,
    TSeries,
    VarSpace,
    coordinate_space,
    jacobian_det,
    poisson_power,
    qp_space,
    su2_space,
)
from nambu_forge.star import (
    moyal_product,
    partial_moyal_product,
    standard_ordering_product,
    star_exponential,
    su2_left_mul,
    su2_lift,
)
from nambu_forge.sun import (
    USUAL_PRODUCT,
    DiffOpSeries,
    SunProduct,
    apply_equivalence,
    identity_series,
    quantized_nambu_sun,
    sun_closed_form,
    sun_coefficients,
    sun_homogeneous_form,
    sun_lift,
    sun_moyal_standard,
    z_coefficient,
)
from nambu_forge.weyl import FockTruncation, ho_spectrum, weyl_quantize
from nambu_forge.zariski import ZElem, ZMonomial, alpha, zariski_space, zeta

SP = zariski_space(3)
QP = qp_space()
SU2 = su2_space()
x1, x2 = Poly.variable(SP, 0), Poly.variable(SP, 1)
q = Poly.variable(QP, 0)
L1, L2 = Poly.variable(SU2, 0), Poly.variable(SU2, 1)
R3 = coordinate_space(3)
ONE3 = Poly.const(R3, 1)


def _cli(*argv):
    """The CLI run in-process with --json; raises the error its envelope
    reports, after checking that the call exits 1 with its command's
    invalid-argument code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", *argv])
    error = json.loads(out.getvalue())["error"]
    assert (code, error["code"]) == (1, f"{argv[0]}.invalid-argument")
    raise InvalidArgumentError(error["message"])


_REFUSALS = {
    # poly
    "varspace-pair-index": (lambda: VarSpace(("a", "b"), ((0, 2),)),
                            "pair index 2 out of range"),
    "varspace-index-in-two-pairs": (lambda: VarSpace(("a", "b", "c"), ((0, 1), (1, 2))),
                                    "variable index 1 appears in two pairs"),
    "poly-negative-power": (lambda: x1 ** -1, "negative polynomial powers are not defined"),
    "poly-diff-index": (lambda: x1.diff(3), "variable index 3 out of range"),
    "nuobject-non-poly": (lambda: NuObject(SP, {0: 1}), "NuObject coefficients must be Poly values"),
    "nuobject-space": (lambda: NuObject(SP, {0: q}), "NuObject coefficient on a different space"),
    "nuobject-zero-min-power": (lambda: NuObject.zero(SP).min_power(),
                                "zero object has no lowest nu power"),
    "tseries-length": (lambda: TSeries(2, (NuObject.zero(SP),)),
                       "TSeries needs truncation_order + 1 coefficients"),
    "poisson-power-negative-r": (lambda: poisson_power(x1, x2, -1), "poisson_power needs r >= 0"),
    "poisson-power-no-pair": (lambda: poisson_power(ONE3, ONE3, 1),
                              "poisson_power needs at least one symplectic pair"),
    "jacobian-mixed-spaces": (lambda: jacobian_det([x1, q], [0, 1]),
                              "jacobian_det arguments live on different spaces"),
    "jacobian-count": (lambda: jacobian_det([x1], [0, 1]),
                       "jacobian_det needs as many variables as functions"),
    # star
    "partial-moyal-no-pair": (lambda: partial_moyal_product(R3),
                              "partial Moyal product needs at least one active pair"),
    "standard-ordering-two-pairs": (lambda: standard_ordering_product(zariski_space(4)),
                                    "standard-ordering product is defined on one pair"),
    "t-order-negative": (lambda: star_exponential(moyal_product(QP), q, -1),
                         "t_order must be non-negative"),
    "su2-left-mul-space": (lambda: su2_left_mul(1, x1),
                           "su2_left_mul expects a polynomial in L1, L2, L3"),
    "su2-lift-space": (lambda: su2_lift(x1), "su2_lift expects a polynomial in L1, L2, L3"),
    # sun
    "sun-unknown-kind": (lambda: sun_lift(SunProduct(moyal_product(QP), "other"), q),
                         "unknown sun-product kind 'other'"),
    "z-coefficient-range": (lambda: z_coefficient(0, 2), "z coefficient needs 1 <= p <= r"),
    "table-bounds": (lambda: sun_coefficients(-1, 2), "table bounds must be non-negative"),
    "closed-form-spaces": (lambda: sun_closed_form(L1, q), "operands live on different spaces"),
    "homogeneous-form-inhomogeneous": (lambda: sun_homogeneous_form(L1 * L1 + L2, L1 * L2),
                                       "operands must be homogeneous"),
    "homogeneous-form-degrees": (lambda: sun_homogeneous_form(L1 * L1, L2),
                                 "operands must have equal degree"),
    "quantized-nambu-sun-arity": (lambda: quantized_nambu_sun(q, q, q, sun_moyal_standard()),
                                  "the quantized Nambu bracket needs three variables"),
    "diffop-r-max": (lambda: DiffOpSeries(SU2, -1), "r_max must be non-negative"),
    "lifted-product-type": (lambda: apply_equivalence(identity_series(SU2), "A", "other",
                                                      USUAL_PRODUCT, L1, L2, 2),
                            "expected a sun product or the usual product"),
    "equivalence-nu-order": (lambda: apply_equivalence(identity_series(SU2), "A", USUAL_PRODUCT,
                                                       USUAL_PRODUCT, L1, L2, -1),
                             "nu_order must be non-negative"),
    "equivalence-mode": (lambda: apply_equivalence(identity_series(SU2), "C", USUAL_PRODUCT,
                                                   USUAL_PRODUCT, L1, L2, 2),
                         "mode must be 'A' or 'B'"),
    # nambu
    "canonical-order": (lambda: canonical_bracket(1), "canonical bracket needs order >= 2"),
    "linear-order": (lambda: linear_bracket(1), "linear bracket needs order >= 2"),
    "custom-not-ascending": (lambda: custom_bracket(R3, 2, {(1, 0): ONE3}),
                             "custom tensor indices must be strictly ascending"),
    "custom-arity": (lambda: custom_bracket(R3, 2, {(0, 1, 2): ONE3}),
                     "custom tensor index arity mismatch"),
    "custom-coefficient-space": (lambda: custom_bracket(R3, 2, {(0, 1): x1}),
                                 "custom tensor coefficient on a different space"),
    "bracket-argument-space": (lambda: bracket_eval(canonical_bracket(2), [x1, x2]),
                               "bracket arguments must live on the bracket's space"),
    "dynamics-hamiltonians": (lambda: Dynamics(canonical_bracket(3), (ONE3,), (1.0, 1.0, 1.0)),
                              "order-3 dynamics needs 2 Hamiltonians"),
    "dynamics-state": (lambda: Dynamics(canonical_bracket(3), (ONE3, ONE3), (1.0, 1.0)),
                       "initial state dimension mismatch"),
    # weyl
    "weyl-quantize-space": (lambda: weyl_quantize(x1, FockTruncation(4, 1.0)),
                            "weyl_quantize expects a polynomial in (q, p)"),
    "ho-spectrum-k": (lambda: ho_spectrum(FockTruncation(4, 1.0), 2), "need k >= 0 with 2k < dim"),
    # zariski
    "zmonomial-constant": (lambda: ZMonomial([Poly.const(SP, 2)]),
                           "factors must be non-constant polynomials"),
    "alpha-type": (lambda: alpha(ZElem.unit()), "alpha expects a polynomial or nu-polynomial"),
    "alpha-unit": (lambda: alpha(NuObject(SP, {-1: x1, 0: x2 * 2})),
                   "operand is not normalized: classical part has unit 2"),
    "zeta-negative-power": (lambda: zeta(NuObject(SP, {-1: x1})),
                            "zeta expects non-negative nu powers"),
    # numbers
    "bernoulli-negative": (lambda: bernoulli_number(-1),
                           "Bernoulli numbers are defined for n >= 0, got -1"),
    "falling-factorial-negative": (lambda: falling_factorial(Fraction(3), -1),
                                   "falling_factorial needs r >= 0, got -1"),
    # cli
    "cli-nambu-zariski-text": (lambda: _cli("nambu", "--bracket", "canonical3", "y1", "x1", "x2"),
                               "bracket arguments must be plain polynomials"),
    "cli-spectrum-zariski-text": (lambda: _cli("spectrum", "--dim", "4", "--deviation", "y1", "q"),
                                  "deviation check takes plain polynomials"),
}


@pytest.mark.parametrize("call, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_refusal_type_and_message(call, message):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert type(err.value) is InvalidArgumentError
    assert re.fullmatch(re.escape(message), str(err.value))
