"""Argument refusals that no other test reaches: each call raises its named
error with its exact message, through the API or through the CLI; and every
named bound once, each refused in the one sentence that errors.py writes."""

import contextlib
import io
import json
import re
from fractions import Fraction

import pytest

from nambu_forge import cli, expr, factor, nambu, poly, star, sun, weyl, zariski
from nambu_forge.errors import InvalidArgumentError, ResourceLimitError
from nambu_forge.expr import parse_expr
from nambu_forge.factor import factorize
from nambu_forge.nambu import (
    Dynamics,
    bracket_eval,
    canonical_bracket,
    custom_bracket,
    evolve,
    linear_bracket,
    nahm_dynamics,
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
    star_mul,
    su2_product,
    su2_left_mul,
    su2_lift,
)
from nambu_forge.sun import (
    USUAL_PRODUCT,
    DiffOpSeries,
    SunProduct,
    a_recursion,
    apply_equivalence,
    identity_series,
    quantized_nambu_sun,
    sun_closed_form,
    sun_coefficients,
    sun_exponential,
    sun_homogeneous_form,
    sun_lift,
    sun_moyal_standard,
    sun_mul,
    sun_su2,
    z_coefficient,
)
from nambu_forge.weyl import FockTruncation, ho_spectrum, weyl_quantize
from nambu_forge.zariski import (
    ZElem,
    ZMonomial,
    alpha,
    delta,
    eval_T,
    zariski_space,
    zariski_star,
    zelem_from_poly,
    zeta,
    znu_power_nu,
)

SP = zariski_space(3)
QP = qp_space()
SU2 = su2_space()
SP4 = zariski_space(4)
x1, x2, x3 = (Poly.variable(SP, i) for i in range(3))
q, p = Poly.variable(QP, 0), Poly.variable(QP, 1)
L1, L2, L3 = (Poly.variable(SU2, i) for i in range(3))
R3 = coordinate_space(3)
ONE3 = Poly.const(R3, 1)
X1, X2, X3 = (Poly.variable(R3, i) for i in range(3))
OPERAND = "cannot interpret Poly as an operand"  # a Poly on another space


def _cli(*argv, error=InvalidArgumentError):
    """The CLI run in-process with --json; raises the error its envelope
    reports, after checking that the call exits 1 with its command's code
    for that error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", *argv])
    envelope = json.loads(out.getvalue())["error"]
    assert (code, envelope["code"]) == (1, f"{argv[0]}.{error.code}")
    raise error(envelope["message"])


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
    "star-operand-space": (lambda: star_mul(su2_product(), q, L1), OPERAND),
    # sun
    "sun-unknown-kind": (lambda: sun_lift(SunProduct(moyal_product(QP), "other"), q),
                         "unknown sun-product kind 'other'"),
    "z-coefficient-range": (lambda: z_coefficient(0, 2), "z coefficient needs 1 <= p <= r"),
    "table-bounds": (lambda: sun_coefficients(-1, 2), "table bounds must be non-negative"),
    "closed-form-spaces": (lambda: sun_closed_form(L1, q), OPERAND),
    # every sun entry point reads its operands on the product's space only
    "sun-mul-su2-operands-on-moyal": (lambda: sun_mul(sun_moyal_standard(), L1, L2), OPERAND),
    "sun-mul-qp-operands-on-su2": (lambda: sun_mul(sun_su2(), q**2, p**2), OPERAND),
    "sun-exponential-qp-on-su2": (lambda: sun_exponential(sun_su2(), q**2, 2), OPERAND),
    "quantized-nambu-sun-r3-on-su2": (lambda: quantized_nambu_sun(X1 * X1, X2, X3, sun_su2()),
                                      OPERAND),
    "closed-form-qp-operands": (lambda: sun_closed_form(q**2, p**2), OPERAND),
    "homogeneous-form-qp-operands": (lambda: sun_homogeneous_form(q * q, p * p), OPERAND),
    "homogeneous-form-operand-type": (lambda: sun_homogeneous_form(ZElem.unit(), L1),
                                      "cannot interpret ZElem as an operand"),
    "diffop-apply-space": (lambda: identity_series(SU2).apply(q), OPERAND),
    "equivalence-operand-space": (lambda: apply_equivalence(identity_series(SU2), "B",
                                                            USUAL_PRODUCT, USUAL_PRODUCT, q, L2, 2),
                                  OPERAND),
    # the Moyal-standard split reads q^a p^b from one (q, p) pair
    "moyal-standard-split-two-pairs": (
        lambda: sun_lift(SunProduct(moyal_product(SP4), "moyal_standard_split"),
                         Poly.monomial(SP4, (1, 1, 2, 0))),
        "the Moyal-standard split is defined on one (q, p) pair"),
    "moyal-standard-split-unpaired-variable": (
        lambda: sun_lift(SunProduct(partial_moyal_product(SP), "moyal_standard_split"),
                         Poly.monomial(SP, (0, 0, 5))),
        "the Moyal-standard split is defined on one (q, p) pair"),
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
    "delta-factor-off-space": (lambda: delta(1, zelem_from_poly(x1 * x3 + x2), zariski_space(2)),
                               "delta factor x1*x3 + x2 is not on the derivation's space"),
    "delta-factor-off-space-in-range": (
        lambda: delta(4, zelem_from_poly(x1 * x3 + x2), SP4),
        "delta factor x1*x3 + x2 is not on the derivation's space"),
    "taylor-coefficient-length": (lambda: parse_expr("y1*Z[x1]").coefficient((1,)),
                                  "y-exponent (1,) needs 3 entries"),
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


def _refused_cli(*argv):
    return _cli(*argv, error=ResourceLimitError)


S3 = (x1 + x2 + Poly.variable(SP, 2)) ** 2  # six terms, three in each derivative

# every named bound once: (module, bound, patched value or None to keep it,
# call, sentence)
_BOUNDS = {
    "check-fi-degree": (cli, "CHECK_FI_DEGREE_BOUND", 8, lambda: _refused_cli(
        "check-fi", "--degree", "9"), "--degree 9 is over the check-fi degree bound 8"),
    "check-fi-trials": (cli, "CHECK_FI_TRIAL_BOUND", 8, lambda: _refused_cli(
        "check-fi", "--trials", "9"), "--trials 9 is over the check-fi trial bound 8"),
    "check-fi-work": (cli, "CHECK_FI_WORK_BOUND", 8, lambda: _refused_cli(
        "check-fi", "--trials", "2"),
        "check-fi work of 237 term products by trial 1 is over the check-fi work bound 8"),
    "parse-terms": (expr, "PARSE_TERM_BOUND", 8,
                    lambda: parse_expr("(x1 + x2 + 1)*(x1 + x2 + 1)", SP),
                    "parse of 9 term products is over the parse term bound 8"),
    "parse-depth": (expr, "PARSE_DEPTH_BOUND", 8, lambda: parse_expr("(" * 9 + "x1" + ")" * 9, SP),
                    "bracket nesting of depth 9 is over the parse depth bound 8"),
    "coefficient-power-bits": (expr, "COEFF_POWER_BIT_BOUND", 8, lambda: parse_expr("2^9*x1", SP),
                               "coefficient power of 9 bits is over the coefficient power bit "
                               "bound 8"),
    "variables": (poly, "VARIABLE_BOUND", 8, lambda: coordinate_space(9),
                  "space of 9 variables is over the variable bound 8"),
    "jacobian-terms": (poly, "JACOBIAN_TERM_BOUND", 8, lambda: jacobian_det([S3] * 3, (0, 1, 2)),
                       "Jacobian determinant of 9 term products is over the Jacobian term bound 8"),
    "factor-degree": (factor, "DEFAULT_DEGREE_BOUND", None,
                      lambda: factorize(x1**3 + x2, degree_bound=2),
                      "total degree 3 is over the degree bound 2"),
    "factor-terms": (factor, "FACTOR_TERM_BOUND", 8, lambda: factorize((x1 + x2 + 1) ** 3),
                     "polynomial of 10 terms is over the factor term bound 8"),
    "bracket-order": (nambu, "BRACKET_ORDER_BOUND", None, lambda: canonical_bracket(9),
                      "bracket order 9 is over the bracket order bound 8"),
    "evolve-steps": (nambu, "EVOLVE_STEP_BOUND", 10, lambda: evolve(nahm_dynamics(), 0.011, 1e-3),
                     "the RK4 step count of horizon 0.011 at step 0.001 is over the evolve step "
                     "bound 10"),
    "fock-dimension": (weyl, "FOCK_DIM_BOUND", 8, lambda: FockTruncation(9),
                       "truncation dim 9 is over the Fock dimension bound 8"),
    "weyl-products": (weyl, "WEYL_PRODUCT_BOUND", 8,
                      lambda: weyl_quantize(q**2 * p**2, FockTruncation(4)),
                      "Weyl quantization of 12 matrix products is over the Weyl product bound 8"),
    "eval-t-subsets": (zariski, "EVAL_T_SUBSET_BOUND", 4,
                       lambda: eval_T((x1, x2, x1 + x2), zariski_star(3)),
                       "factor multiset of 8 sub-multisets is over the eval_T subset bound 4"),
    "zariski-power": (zariski, "ZNU_POWER_BOUND", 8,
                      lambda: znu_power_nu(ZElem.unit(), 9, zariski_star(3)),
                      "power 9 is over the zariski power bound 8"),
    "star-degree": (star, "STAR_DEGREE_BOUND", 3, lambda: star_mul(moyal_product(QP), q**4, q),
                    "star operand of degree 4 is over the star degree bound 3"),
    "exponential-order": (star, "EXP_ORDER_BOUND", 8,
                          lambda: star_exponential(moyal_product(QP), q, 9),
                          "t-order 9 is over the exponential order bound 8"),
    "su2-words": (star, "SU2_WORD_BOUND", 8,
                  lambda: star_mul(su2_product(), L1 * L2 * L3 + L3**3 + L1, L1**2 + L2),
                  "su(2)* product of 3 star monomials by 3 terms is over the su2 word bound 8"),
    "sun-product": (sun, "SUN_PRODUCT_BOUND", 8,
                    lambda: sun_mul(sun_su2(), L1 + L2 + L3, L1 + L2 + L3),
                    "sun product of 9 term products is over the sun product bound 8"),
    "a-recursion": (sun, "A_RECURSION_BOUND", 12, lambda: a_recursion(13, 1),
                    "a(13, 1) of 13 recursion steps is over the a_recursion bound 12"),
    "table-order": (sun, "TABLE_ORDER_BOUND", 8, lambda: sun_coefficients(0, 9),
                    "table order 9 is over the table order bound 8"),
    "table-steps": (sun, "A_RECURSION_BOUND", 12, lambda: sun_coefficients(3, 1),
                    "the recursion step count of the table up to a(3, 1) is over the a_recursion "
                    "bound 12"),
    # two passes over one degree-4 term count 2, and the a-row loop 4 * 2
    "laplacian-steps": (sun, "LAPLACIAN_STEP_BOUND", 8, lambda: sun_mul(sun_su2(), L1**2, L2**2),
                        "Laplacian work of 10 steps is over the Laplacian step bound 8"),
}


@pytest.mark.parametrize("module, bound, value, call, message", _BOUNDS.values(),
                         ids=_BOUNDS.keys())
def test_named_bound_refusal_is_one_sentence(monkeypatch, module, bound, value, call, message):
    if value is not None:
        monkeypatch.setattr(module, bound, value)
    with pytest.raises(ResourceLimitError) as err:
        call()
    assert type(err.value) is ResourceLimitError
    assert str(err.value) == message
    limit = re.fullmatch(r".+ is over the .+ bound (\d+)", message).group(1)
    assert value is None or int(limit) == value
