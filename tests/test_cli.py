"""CLI contract: subcommands, exit codes, JSON envelope, config precedence."""

import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest

import nambu_forge
from nambu_forge import cli, expr, factor, nambu, poly, star, sun, weyl
from nambu_forge.cli import load_schema, main


ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(doc):
    """Validate a JSON envelope against the shipped schema."""
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, load_schema())


def test_star_su2_display(capsys):
    code, out, _ = run(capsys, "star", "--product", "su2", "L1", "L2")
    assert code == 0
    assert out.strip() == "L1*L2 + nu*L3"


def test_check_fi_pass_line(capsys):
    code, out, _ = run(
        capsys, "check-fi", "--bracket", "canonical3", "--degree", "2",
        "--trials", "25", "--seed", "7",
    )
    assert code == 0
    assert out.strip() == "PASS residual=0 (25/25)"


def test_check_fi_seed_deterministic(capsys):
    _, out1, _ = run(capsys, "--json", "check-fi", "--trials", "10", "--seed", "3")
    _, out2, _ = run(capsys, "--json", "check-fi", "--trials", "10", "--seed", "3")
    assert out1 == out2
    with pytest.raises(SystemExit) as err:
        main(["check-fi", "--trials", "10", "--jobs", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--degree", "-1", "--degree must be at least 0, got -1"),
        ("--trials", "0", "--trials must be at least 1, got 0"),
        ("--trials", "-3", "--trials must be at least 1, got -3"),
    ],
)
def test_check_fi_rejects_bad_counts(capsys, flag, value, message):
    argv = ("check-fi", "--bracket", "canonical3", flag, value)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error[check-fi.invalid-argument]: {message}\n"
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    validate(doc)
    assert doc["status"] == "error"
    assert doc["error"] == {"code": "check-fi.invalid-argument", "message": message}


def test_check_fi_work_bound_refuses_the_sum_of_trials(capsys):
    # no trial's tables pass the Jacobian term bound; the 24th trial takes
    # the count over the work bound at its own value
    code, out, err = run(capsys, "check-fi", "--bracket", "linear3", "--degree", "100",
                         "--trials", "100")
    assert code == 1
    assert out == ""
    assert err == ("error[check-fi.resource-limit]: 24 check-fi trials of 502859 term products "
                   "are over the check-fi work bound 500000\n")


def test_check_fi_degree_zero_runs(capsys):
    code, out, _ = run(capsys, "check-fi", "--degree", "0", "--trials", "1")
    assert code == 0
    assert out.strip() == "PASS residual=0 (1/1)"


def test_coeffs_agreement(capsys):
    code, out, _ = run(capsys, "coeffs", "--a", "6", "3")
    assert code == 0
    assert "recursion=17/45" in out and "closed-form=17/45" in out and "agree=True" in out


def test_coeffs_table_text_and_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--table", "3", "1")
    assert code == 0
    assert out == ("a(0,0) = 1\na(1,0) = 1\na(2,0) = 1\na(2,1) = 1\na(3,0) = 1\n"
                   "a(3,1) = 4/3\ntables agree: True\n")
    code, out, _ = run(capsys, "--json", "coeffs", "--table", "2", "1")
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["data"] == {"n_max": 2, "r_max": 1, "agree": True,
                           "values": {"0,0": "1", "1,0": "1", "2,0": "1", "2,1": "1"}}


def test_coeffs_rejects_negative_index(capsys):
    code, _, err = run(capsys, "coeffs", "--a", "-1", "1")
    assert code == 1
    assert err.startswith("error[coeffs.invalid-argument]")
    code, out, _ = run(capsys, "--json", "coeffs", "--a", "2", "-1")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "coeffs.invalid-argument"


def test_coeffs_with_r_far_past_n(capsys):
    # only the recursion is evaluated for n < 2r, and it keeps min(n, r) entries
    code, out, _ = run(capsys, "coeffs", "--a", "0", "1000000000")
    assert code == 0
    assert "recursion=1 " in out and "agree=None" in out


def test_coeffs_closed_form_at_large_n(capsys):
    # the closed form is a truncated series product, so n = 3000 is immediate
    code, out, _ = run(capsys, "coeffs", "--a", "3000", "1")
    assert code == 0
    assert "agree=True" in out


def _child_env() -> dict:
    """The environment for a child interpreter that imports this nambu_forge."""
    src = str(pathlib.Path(nambu_forge.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# the modules a child interpreter has loaded: nambu_forge's by their short
# names, and numpy
_LOADED = ("import sys; print(*sorted(m.split('.')[-1] for m in sys.modules"
           " if m.startswith('nambu_forge.') or m == 'numpy'), file=sys.stderr)")


def test_cli_import_leaves_numpy_out():
    # importing the CLI loads the parser only; each subcommand imports the
    # engine modules it runs, and numpy is loaded by spectrum only
    code = "import nambu_forge.cli; " + _LOADED
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True)
    assert out.stderr.split() == ["cli", "errors", "expr", "poly"]


def test_cli_path_imports_no_dataclasses_inspect_or_typing():
    # the CLI and the engine modules it loads import none of these heavy
    # standard modules at start-up; -S keeps the site's .pth preloads out of
    # the check.  weyl is exempt: numpy imports inspect
    modules = ("cli", "expr", "star", "sun", "numbers", "factor", "zariski", "nambu")
    code = "; ".join(f"import nambu_forge.{m}" for m in modules) + (
        "; import sys; print(*sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True)
    assert out.stdout.split() == []


def test_star_import_builds_nothing_of_the_r6_oracle():
    # the R^6 lift behind su2_star_via_lift is built on its first use only
    code = ("import nambu_forge.poly as p, nambu_forge.star as s; "
            "print(s._su2_lift_generators.cache_info().currsize, hasattr(p, 'su2_lift_space'))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True)
    assert out.stdout.split() == ["0", "False"]


# one call per subcommand and the modules it loads beyond cli, errors, expr
# and poly
SUBCOMMAND_MODULES = [
    (["star", "--product", "su2", "L1", "L2"], ["star"]),
    (["star", "--product", "partial", "x1", "x2"], ["star"]),
    (["factor", "x1^2 - x2^2"], ["factor"]),
    (["zariski", "mul", "Z[x1]", "Z[x2]"], ["factor", "star", "zariski"]),
    (["sun", "L1", "L2"], ["numbers", "star", "sun"]),
    (["coeffs", "--a", "4", "1"], ["numbers", "star", "sun"]),
    (["equiv", "--mode", "A", "L1", "L2"], ["numbers", "star", "sun"]),
    (["nambu", "x1", "x2", "x3"], ["nambu"]),
    (["check-fi", "--trials", "2"], ["nambu"]),
    (["evolve", "--horizon", "0.01"], ["nambu"]),
    (["spectrum", "--dim", "10", "--levels", "2"], ["numpy", "weyl"]),
]


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in SUBCOMMAND_MODULES])
def test_subcommand_loads_only_its_modules(capsys, argv, modules):
    # a fresh interpreter, so that a module the test session has imported
    # cannot stand in for a missing import; the output is the in-process one
    code = "import sys; from nambu_forge.cli import main; main(sys.argv[1:]); " + _LOADED
    child = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                           env=_child_env(), check=True)
    assert child.stderr.split() == sorted(["cli", "errors", "expr", "poly", *modules])
    assert child.stdout == run(capsys, *argv)[1]


def test_factor_text(capsys):
    code, out, _ = run(capsys, "factor", "x1^2 - x2^2")
    assert code == 0
    assert out.strip() == "1 * (x1 - x2) * (x1 + x2)"


def test_json_envelope_validates(capsys):
    for argv in (
        ["--json", "factor", "6*x1"],
        ["--json", "star", "--product", "moyal", "q", "p"],
        ["--json", "coeffs", "--a", "2", "1"],
        ["--json", "spectrum", "--dim", "30", "--levels", "3"],
        ["--json", "nambu", "--bracket", "canonical3", "x1", "x2", "x3"],
        ["--json", "zariski", "mul", "Z[x1]", "Z[x1]"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        doc = json.loads(out)
        validate(doc)
        assert doc["status"] == "ok"


@pytest.mark.parametrize("change", [
    pytest.param({"extra": 1}, id="extra-key"),
    pytest.param({"status": "maybe"}, id="unknown-status"),
    pytest.param({"status": "error", "error": {"code": "factor.syntax"}}, id="error-without-message"),
])
def test_schema_rejects_malformed_envelopes(change):
    jsonschema = pytest.importorskip("jsonschema")
    doc = {"tool": "nambu-forge", "command": "factor", "status": "ok", "data": {}}
    validate(doc)
    with pytest.raises(jsonschema.ValidationError):
        validate({**doc, **change})


def test_json_and_text_encode_same_data(capsys):
    _, text_out, _ = run(capsys, "star", "--product", "su2", "L1", "L2")
    _, json_out, _ = run(capsys, "--json", "star", "--product", "su2", "L1", "L2")
    doc = json.loads(json_out)
    assert doc["data"]["result"] == text_out.strip()


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "factor", "x1^20")
    assert code == 1
    assert "factor.resource-limit" in err


@pytest.mark.parametrize(
    "module, bound, argv, code",
    [
        (weyl, "FOCK_DIM_BOUND", ("spectrum", "--dim", "9"), "spectrum.resource-limit"),
        (nambu, "EVOLVE_STEP_BOUND", ("evolve", "--horizon", "0.011"), "evolve.resource-limit"),
        (sun, "A_RECURSION_BOUND", ("coeffs", "--a", "9", "2"), "coeffs.resource-limit"),
        (nambu, "BRACKET_ORDER_BOUND", ("nambu", "--bracket", "canonical9", "x1"),
         "nambu.resource-limit"),
        (nambu, "BRACKET_ORDER_BOUND", ("check-fi", "--bracket", "linear1000000"),
         "check-fi.resource-limit"),
        (star, "STAR_DEGREE_BOUND", ("star", "--product", "su2", "L1^9", "L2"), "star.resource-limit"),
        # the t^6 coefficient multiplies a degree-10 coefficient by q^2
        (star, "STAR_DEGREE_BOUND", ("star", "--exp", "q^2", "--t-order", "6"), "star.resource-limit"),
        # the nu^0 part q^2*p^2 of q^2*p * p needs 2*2*2 + 2 + 2 = 12 products
        (weyl, "WEYL_PRODUCT_BOUND", ("spectrum", "--dim", "20", "--deviation", "q^2*p", "p"),
         "spectrum.resource-limit"),
        (poly, "VARIABLE_BOUND", ("zariski", "mul", "Z[x1]", "Z[x2]", "--dim", "9"),
         "zariski.resource-limit"),
        (poly, "VARIABLE_BOUND", ("star", "--vars", ",".join(f"a{i}" for i in range(9)), "a1", "a2"),
         "star.resource-limit"),
        (cli, "CHECK_FI_DEGREE_BOUND", ("check-fi", "--degree", "9", "--trials", "1"),
         "check-fi.resource-limit"),
        (cli, "CHECK_FI_TRIAL_BOUND", ("check-fi", "--trials", "9"), "check-fi.resource-limit"),
        (sun, "TABLE_ORDER_BOUND", ("coeffs", "--table", "9", "9"), "coeffs.resource-limit"),
        # rows n = 1 and 2 of the table take 5 + 12 steps
        (sun, "A_RECURSION_BOUND", ("coeffs", "--table", "3", "2"), "coeffs.resource-limit"),
        # each partial of x1*x2 + x2*x3 + x3*x1 has two terms and each of
        # x1^2 + x2^2 + x3^2 one, so the Laplace expansion counts 2 for each
        # product of a first-row minor and a second-row partial, 10 at the fifth
        (poly, "JACOBIAN_TERM_BOUND",
         ("nambu", "--bracket", "canonical3", "x1*x2 + x2*x3 + x3*x1", "x1^2 + x2^2 + x3^2",
          "x1 + x2 + x3"), "nambu.resource-limit"),
        # L1^2 + L2 is three star monomials, acting on three terms
        (star, "SU2_WORD_BOUND", ("star", "--product", "su2", "L1*L2*L3 + L3^3 + L1", "L1^2 + L2"),
         "star.resource-limit"),
        # the square of a three-term operand forms 3 + 9 term products
        (expr, "PARSE_TERM_BOUND", ("factor", "(x1 + x2 + 1)^2"), "factor.resource-limit"),
        # (y1 + Z[x1])^2 counts 1 * 2 + 2 * 2, and its three entries times
        # the two of (y2 + Z[x2]) 6 more, 12 in all
        (expr, "PARSE_TERM_BOUND", ("zariski", "amul", "(y1 + Z[x1])^2*(y2 + Z[x2])", "Z[x1]"),
         "zariski.resource-limit"),
        # nine brackets are open at x1: J(, seven ( and Z[
        (expr, "PARSE_DEPTH_BOUND", ("zariski", "mul", "J(" + "(" * 7 + "Z[x1]" + ")" * 8, "Z[x1]"),
         "zariski.resource-limit"),
        # one bound on the t-order of both exponentials
        (star, "EXP_ORDER_BOUND", ("star", "--exp", "1", "--t-order", "9"), "star.resource-limit"),
        (star, "EXP_ORDER_BOUND", ("sun", "--exp", "1", "--t-order", "9"), "sun.resource-limit"),
        # three terms times four
        (sun, "SUN_PRODUCT_BOUND", ("sun", "L1 + L2 + L3", "L1 + L2 + L3 + 1"), "sun.resource-limit"),
        # L1^2*L2^2 is one degree-4 term: two passes count 2 * 1 terms and
        # 4 * 1 + 4 * 2 recursion steps
        (sun, "LAPLACIAN_STEP_BOUND", ("sun", "L1^2", "L2^2"), "sun.resource-limit"),
        # the lifts of (L1 + L2)^2 and (L1 + L2)^3 count 5 and 7 steps, each
        # under the bound, and are refused together before the first
        (sun, "LAPLACIAN_STEP_BOUND", ("sun", "--exp", "L1 + L2", "--t-order", "3"),
         "sun.resource-limit"),
        # the usual product of two three-term operands forms 9 term products
        (sun, "SUN_PRODUCT_BOUND", ("equiv", "--mode", "A", "--left", "usual", "--right", "usual",
                                    "L1 + L2 + L3", "L1 + L2 + L3"), "equiv.resource-limit"),
        # (x1 + x2 + 1)^3 has 10 terms, refused before any factorization work
        (factor, "FACTOR_TERM_BOUND", ("factor", "(x1 + x2 + 1)^3"), "factor.resource-limit"),
        # the trials share one count of Jacobian term products
        (cli, "CHECK_FI_WORK_BOUND", ("check-fi", "--trials", "2"), "check-fi.resource-limit"),
    ],
)
def test_resource_bounds_exit_1(capsys, monkeypatch, module, bound, argv, code):
    monkeypatch.setattr(module, bound, 8)
    exit_code, out, err = run(capsys, *argv)
    assert exit_code == 1
    assert out == ""
    assert err.startswith(f"error[{code}]: ") and err.count("\n") == 1
    assert "bound 8" in err
    exit_code, out, _ = run(capsys, "--json", *argv)
    assert exit_code == 1
    doc = json.loads(out)
    validate(doc)
    assert doc["error"]["code"] == code


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(("nambu", "--bracket", "canonicalX", "x1"), "--bracket", id="bracket-suffix"),
        pytest.param(("nambu", "--bracket", "canonical", "x1"), "--bracket", id="bracket-no-order"),
        pytest.param(("evolve", "--inertia", "1,0,3"), "inertia", id="inertia-zero"),
        pytest.param(("evolve", "--inertia", "a,b,c"), "--inertia", id="inertia-not-numbers"),
        pytest.param(("evolve", "--state", "x,y,z"), "--state", id="state-not-numbers"),
        pytest.param(("evolve", "--horizon", "0.01", "--csv", "{missing}"), "--csv",
                     id="csv-missing-directory"),
        pytest.param(("evolve", "--horizon", "-5"), "horizon", id="horizon-negative"),
        pytest.param(("spectrum", "--hbar", "nan"), "hbar", id="hbar-nan"),
        pytest.param(("spectrum", "--hbar", "inf"), "hbar", id="hbar-inf"),
        pytest.param(("spectrum", "--deviation", "q", "p", "--hbar", "inf"), "hbar",
                     id="deviation-hbar-inf"),
        pytest.param(("spectrum", "--deviation", "q", "p", "--band", "0"), "band", id="band-zero"),
        pytest.param(("spectrum", "--deviation", "q", "p", "--band", "-3"), "band",
                     id="band-negative"),
        pytest.param(("star", "--vars", "x,x", "x", "x"), "'x' appears twice", id="vars-twice"),
        pytest.param(("star", "--vars", "nu,p", "nu", "p"), "--vars", id="vars-nu"),
        pytest.param(("factor", "--vars", "Z,x", "x"), "--vars", id="vars-z"),
        pytest.param(("star", "--vars", "1x,p", "p", "p"), "--vars", id="vars-not-identifier"),
    ],
)
def test_bad_option_values_exit_1(tmp_path, capsys, argv, option):
    argv = tuple(a.format(missing=tmp_path / "absent" / "f.csv") for a in argv)
    code = f"{argv[0]}.invalid-argument"
    exit_code, out, err = run(capsys, *argv)
    assert exit_code == 1
    assert out == ""
    assert err.startswith(f"error[{code}]: ") and err.count("\n") == 1
    assert option in err
    exit_code, out, err = run(capsys, "--json", *argv)
    assert exit_code == 1
    assert err == ""
    doc = json.loads(out)
    validate(doc)
    assert doc["error"]["code"] == code
    assert option in doc["error"]["message"]


def test_star_operand_over_the_degree_bound(capsys):
    # the bound is checked before any work, so this call is cheap; without
    # it the su(2)* word recursion overflows with a RecursionError traceback
    argv = ("star", "--product", "su2", "L1^1100", "L2^1100")
    message = f"star operand of degree 1100 is over the star degree bound {star.STAR_DEGREE_BOUND}"
    assert run(capsys, *argv) == (1, "", f"error[star.resource-limit]: {message}\n")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == {"code": "star.resource-limit", "message": message}


_DEEP = (f"brackets nested {expr.PARSE_DEPTH_BOUND + 1} deep are over the parse depth bound "
         f"{expr.PARSE_DEPTH_BOUND}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zariski", "mul", "Z[x1]", "Z[x2]", "--dim", "3000"),
         "space of 3000 variables is over the variable bound 128"),
        (("star", "--vars", ",".join(f"a{i}" for i in range(1, 2401)), "a1", "a2"),
         "space of 2400 variables is over the variable bound 128"),
        (("check-fi", "--degree", "3000000", "--trials", "1"),
         "--degree 3000000 is over the check-fi degree bound 100"),
        (("check-fi", "--trials", "100000"), "--trials 100000 is over the check-fi trial bound 1000"),
        (("coeffs", "--table", "60", "30"), "table order 30 is over the table order bound 20"),
        (("coeffs", "--table", "100", "5"),
         "the table up to a(100, 5) takes more recursion steps than the a_recursion bound 100000"),
        (("check-fi", "--bracket", "linear6", "--degree", "8", "--trials", "1"),
         "Jacobian determinant of 115719 term products is over the Jacobian term bound 100000"),
        (("zariski", "amul", "y1^100000000", "Z[x1]"),
         "parse of 100000000 term products is over the parse term bound 500000"),
        # the parse stops at the first bracket past the bound
        (("factor", "(" * 300 + "x1" + ")" * 300), _DEEP),
        (("zariski", "mul", "J(" * 600 + "Z[x1]" + ")" * 600, "Z[x1]"), _DEEP),
        (("zariski", "mul", "Z[" + "(" * 3000 + "x1" + ")" * 3000 + "]", "Z[x1]"), _DEEP),
        (("star", "--exp", "1", "--t-order", "200000"),
         "t-order 200000 is over the exponential order bound 20"),
        (("sun", "--exp", "1", "--t-order", "200000"),
         "t-order 200000 is over the exponential order bound 20"),
        (("sun", "--exp", "L1 + L2 + L3", "--t-order", "40"),
         "t-order 40 is over the exponential order bound 20"),
        (("sun", "(L1 + L2 + L3)^45", "(L1 + L2 + L3)^45"),
         "sun product of 1168561 term products is over the sun product bound 1000000"),
        (("sun", "L1^160", "L1^160"),
         "Laplacian passes of 51360 steps are over the Laplacian step bound 50000"),
    ],
    ids=["dim-3000", "vars-2400", "fi-degree", "fi-trials", "table-order", "table-steps",
         "fi-jacobian", "zariski-power", "parentheses-300", "j-600", "parentheses-in-z-3000",
         "star-exp-order", "sun-exp-order", "sun-exp-dense", "sun-product", "sun-laplacian"],
)
def test_unpatched_bounds_end_without_traceback(capsys, argv, message):
    # without these bounds each call printed a RecursionError traceback or
    # ran from 12 s to minutes, except the last three sun calls, which sit
    # just over their bounds (0.6-2.3 s without them); the bounds are checked
    # before the work they bound, the Jacobian's as its products are formed
    command = argv[0]
    assert run(capsys, *argv) == (1, "", f"error[{command}.resource-limit]: {message}\n")


@pytest.fixture
def int_str_limit():
    """Python's default limit on the digits of an int converted to text, set
    for the test where the interpreter runs with another or none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any size to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        # the t^r coefficient 1 / (2^r r!) has over 4300 digits from r = 1424 on
        ("star", "--exp", "1", "--t-order", "2000"),
        ("star", "9" * 2500 + "*q", "9" * 2500 + "*p"),
        # the unit, the leading coefficient, is rendered first
        ("factor", "9" * 2500 + "*" + "9" * 2500 + "*x1"),
    ],
    ids=["star-exp", "star-product", "factor-unit"],
)
def test_coefficients_over_the_int_string_limit_end_without_traceback(
        capsys, monkeypatch, int_str_limit, argv):
    # each printed a ValueError traceback from str(int); the t-order bound
    # would refuse the first call before any coefficient is formed
    monkeypatch.setattr(star, "EXP_ORDER_BOUND", 2000)
    message = f"coefficient is over the integer string limit of {int_str_limit} digits"
    assert run(capsys, *argv) == (1, "", f"error[{argv[0]}.resource-limit]: {message}\n")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 1 and json.loads(out)["error"]["message"] == message


def test_nesting_at_the_depth_bound_parses(capsys):
    # PARSE_DEPTH_BOUND open brackets, with J( and Z[ among them, parse
    # under pytest's own frames
    k = expr.PARSE_DEPTH_BOUND
    assert run(capsys, "factor", "(" * k + "x1" + ")" * k) == (0, "1 * (x1)\n", "")
    argv = ("zariski", "amul", "(" * (k - 2) + "J(Z[x1])" + ")" * (k - 2), "Z[]")
    assert run(capsys, *argv) == (0, "Z[x1] + y1*Z[]\n", "")
    argv = ("zariski", "mul", "Z[" + "(" * (k - 1) + "x1" + ")" * (k - 1) + "]", "Z[]")
    assert run(capsys, *argv) == (0, "Z[x1]\n", "")


@pytest.mark.parametrize(
    "record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN],
)
def test_golden_outputs(capsys, record):
    # captured from the branch-per-name CLI that the tables replaced: every
    # zariski op, every star, sun and equiv product name, and error paths
    code, out, err = run(capsys, *record["argv"])
    assert (code, out, err) == (record["exit"], record["stdout"], record["stderr"])
    if record["argv"][0] == "--json":
        validate(json.loads(out))


# one golden call per subcommand, star product and zariski op, run in a
# fresh interpreter as the installed command runs: in this process every
# module is loaded already, so a missing import inside a handler cannot fail
FRESH_GOLDENS = [
    "star --product moyal q p",
    "star --product partial x1^2 x2^2*x3",
    "star --product standard q^2 p^2",
    "star --product su2 L1 L2",
    "--json star --product su2 L1 L2",
    "factor x1^2*x2 - x2^3",
    "--json factor nu*x1",
    "nambu x1*x2 x2*x3 x3^2",
    "check-fi --degree 2 --trials 5",
    "sun L1^2 L2^2",
    "sun --product ms q^2 p^2",
    "equiv --mode B L1 L2",
    "coeffs --a 4 1",
    "zariski mul Z[x1] Z[x2]",
    "zariski cmul nu*Z[x1] x1 + x2",
    "zariski power Z[x1]",
    "zariski delta Z[x1; x2^2 + 1] --axis 2",
    "zariski jmap x1*x2 + 1",
    "zariski amul J(Z[x1]) J(Z[x2])",
    "zariski qnambu J(Z[x1]) J(Z[x2]) J(Z[x3])",
    "zariski frobenius --max-degree 3",
]
GOLDEN_BY_ID = {" ".join(r["argv"]): r for r in GOLDEN}


def test_fresh_goldens_cover_every_route():
    calls = [GOLDEN_BY_ID[name]["argv"] for name in FRESH_GOLDENS]
    calls = [argv[1:] if argv[0] == "--json" else argv for argv in calls]
    assert {argv[2] for argv in calls if argv[0] == "star"} == set(cli._STAR_PRODUCTS)
    assert {argv[1] for argv in calls if argv[0] == "zariski"} == {*cli._ZARISKI_OPS, "frobenius"}
    subcommands = set(cli.build_parser()._subparsers._group_actions[0].choices)
    assert {argv[0] for argv in calls} | {"spectrum", "evolve"} == subcommands
    assert {argv[0] for argv, _ in SUBCOMMAND_MODULES} == subcommands


@pytest.mark.parametrize("name", FRESH_GOLDENS)
def test_golden_outputs_in_a_fresh_process(name):
    record = GOLDEN_BY_ID[name]
    child = subprocess.run([sys.executable, "-m", "nambu_forge.cli", *record["argv"]],
                           capture_output=True, text=True, env=_child_env())
    assert (child.returncode, child.stdout, child.stderr) == (
        record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize(
    "op, options, exprs, text",
    [
        ("power", ["--power", "3"], ["Z[x1]"], "Z[x1; x1; x1]"),
        ("delta", ["--axis", "2"], ["Z[x1; x2^2 + 1]"], "2*Z[x1; x2]"),
        ("mul", ["--dim", "2"], ["Z[x1]", "Z[x2]"], "Z[x1; x2]"),
    ],
)
def test_zariski_options_before_expressions(capsys, op, options, exprs, text):
    # argparse fills op and an empty expression list together, so main must
    # append the expressions that follow an option
    assert run(capsys, "zariski", op, *options, *exprs) == (0, text + "\n", "")
    assert run(capsys, "zariski", op, *exprs, *options) == (0, text + "\n", "")
    code, out, err = run(capsys, "zariski", op, "--json", *options, *exprs)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    validate(doc)
    assert doc["data"]["result"] == text
    assert run(capsys, "zariski", op, *exprs, "--json", *options)[1] == out


@pytest.mark.parametrize(
    "op, exprs",
    [
        ("mul", ["Z[x1]", "Z[x2]", "Z[x3]"]),
        ("jmap", ["Z[x1]", "Z[x2]"]),
        ("power", ["Z[x1]", "Z[x2]"]),
        ("qnambu", ["J(Z[x1])", "J(Z[x2])", "J(Z[x3])", "J(Z[x1])"]),
    ],
)
def test_zariski_refuses_extra_expressions(capsys, op, exprs):
    # like star and sun, an expression beyond the op's arity is an error,
    # not silently dropped
    arity = len(exprs) - 1
    message = f"zariski {op} needs exactly {arity} expression(s)"
    assert run(capsys, "zariski", op, *exprs) == (
        1, "", f"error[zariski.invalid-argument]: {message}\n")
    code, out, err = run(capsys, "--json", "zariski", op, *exprs)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    validate(doc)
    assert doc["error"] == {"code": "zariski.invalid-argument", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ("zariski", "mul", "--bogus", "Z[x1]", "Z[x2]"),
        ("zariski", "mul", "Z[x1]", "Z[x2]", "--bogus"),
        ("equiv", "--mode", "A", "L1", "L2", "L3"),
        ("factor", "x1", "x2"),
    ],
)
def test_leftover_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_cli_lines() -> list:
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("nambu-forge ")]


def test_readme_has_cli_examples():
    assert len(_readme_cli_lines()) >= 13


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # for the evolve CSV
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert (code, err) == (0, "")
    assert out


_SUN_DENSE = "(L1 + L2 + L3)^80"  # 3321 terms


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sun", "--exp", "L1^15", "--t-order", "20"),
         "Laplacian passes of 323583 steps are over the Laplacian step bound 50000"),
        (("sun", "--exp", "L1^16", "--t-order", "20"),
         "Laplacian passes of 368904 steps are over the Laplacian step bound 50000"),
        (("equiv", "--mode", "A", "--left", "usual", "--right", "usual", "--s", "identity",
          _SUN_DENSE, _SUN_DENSE),
         "sun product of 11029041 term products is over the sun product bound 1000000"),
        (("equiv", "--mode", "B", "--left", "usual", "--right", "su2", "--s", "identity",
          _SUN_DENSE, _SUN_DENSE),
         "sun product of 11029041 term products is over the sun product bound 1000000"),
    ],
    ids=["sun-exp-L1^15", "sun-exp-L1^16", "equiv-A-usual", "equiv-B-usual-su2"],
)
def test_series_and_equivalence_bounds_refuse_before_the_work(argv, message):
    # counted one lift or one product at a time, the first sun exponential
    # ran for about 4 s and was admitted and the second was refused at t^20
    # after about 4 s; the first equiv call formed its 11 million term
    # products in about 18 s, and the second refused only after forming them
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nambu_forge.cli", *argv], capture_output=True,
                          env=_child_env(), text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error[{argv[0]}.resource-limit]: {message}\n"
    assert elapsed < 2.0, elapsed


def test_closed_stdout_prints_no_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "nambu_forge.cli", "coeffs", "--table", "8", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), text=True)
    proc.stdout.close()  # before the child has started, let alone written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("spectrum", "--hbar", "nan"),
                                  ("spectrum", "--deviation", "q", "p", "--hbar", "inf")])
def test_non_finite_hbar_ends_without_traceback(argv):
    # a NaN hbar once ended in numpy's LinAlgError traceback, and an infinite
    # one printed RuntimeWarnings and deviation: nan with exit 0
    proc = subprocess.run([sys.executable, "-m", "nambu_forge.cli", *argv], capture_output=True,
                          env=_child_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error[spectrum.invalid-argument]: ")


@pytest.mark.parametrize("argv, error", [
    (("evolve", "--state", "1e200,1,1", "--horizon", "1"),
     "integration-failure]: state became non-finite"),
    (("evolve", "--inertia", "1e-400,1,1", "--horizon", "1"),
     "integration-failure]: state became non-finite"),
    (("evolve", "--step", "inf", "--horizon", "inf"),
     "invalid-argument]: RK4 step must be positive and finite, got inf"),
], ids=["state-power", "inertia-float", "inf-over-inf"])
def test_evolve_overflow_ends_without_traceback(capsys, argv, error):
    # a float power of the state, a coefficient read as a float and the step
    # count inf / inf each ended in an OverflowError or ValueError traceback
    assert run(capsys, *argv) == (1, "", f"error[evolve.{error}\n")


@pytest.mark.parametrize(
    "argv, position",
    [
        (("factor", "x1^\u00b2"), 3),
        (("factor", "x1 + \u2460"), 5),
        (("factor", "\u0663*x1"), 0),
        (("zariski", "mul", "Z[x1*Z[x2]]", "Z[x1]"), 5),
    ],
    ids=["superscript-two", "circled-one", "arabic-indic-three", "zariski-inside-z"],
)
def test_bad_characters_end_without_traceback(argv, position):
    # only ASCII digits are numbers; each call once ended in a ValueError or
    # TypeError traceback, or read the Arabic-Indic digit as 3
    proc = subprocess.run([sys.executable, "-m", "nambu_forge.cli", *argv], capture_output=True,
                          env=_child_env(), text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error[{argv[0]}.syntax]: ")
    assert proc.stderr.endswith(f"(at position {position})\n")


def test_syntax_error_code(capsys):
    code, out, err = run(capsys, "factor", "x1 +")
    assert code == 1
    assert "factor.syntax" in err


def test_json_error_envelope(capsys):
    code, out, _ = run(capsys, "--json", "factor", "x1^20")
    assert code == 1
    doc = json.loads(out)
    validate(doc)
    assert doc["status"] == "error"
    assert doc["error"]["code"] == "factor.resource-limit"


def test_star_rejects_zariski_operand(capsys):
    code, _, err = run(capsys, "star", "Z[q]", "p")
    assert code == 1
    assert err == "error[star.invalid-argument]: cannot interpret ZElem as an operand\n"
    code, out, _ = run(capsys, "--json", "star", "Z[q]", "p")
    assert code == 1
    doc = json.loads(out)
    validate(doc)
    assert doc["error"]["code"] == "star.invalid-argument"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["star", "--product", "bogus", "q", "p"])
    assert err.value.code == 2


@pytest.mark.parametrize("key", ["SEED", "T_ORDER"])
def test_non_integer_env_value_is_usage_error(capsys, monkeypatch, key):
    monkeypatch.setenv("NAMBU_FORGE_" + key, "abc")
    with pytest.raises(SystemExit) as err:
        main(["check-fi", "--trials", "1"])
    assert err.value.code == 2
    assert f"NAMBU_FORGE_{key} must be an integer, got 'abc'" in capsys.readouterr().err


def test_non_integer_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "forge.conf"
    cfg.write_text("seed=1.5\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "check-fi", "--trials", "1"])
    assert err.value.code == 2
    assert f"seed in config file '{cfg}' must be an integer, got '1.5'" in capsys.readouterr().err


def test_unreadable_config_file_is_usage_error(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "absent.conf"
    with pytest.raises(SystemExit) as err:
        main(["--config", str(missing), "star", "--product", "su2", "L1", "L2"])
    assert err.value.code == 2
    assert f"cannot read config file '{missing}'" in capsys.readouterr().err
    monkeypatch.setenv("NAMBU_FORGE_CONFIG", str(missing))
    with pytest.raises(SystemExit) as err:
        main(["star", "--product", "su2", "L1", "L2"])
    assert err.value.code == 2
    assert str(missing) in capsys.readouterr().err
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"\xff\xfeseed=1\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(binary), "star", "--product", "su2", "L1", "L2"])
    assert err.value.code == 2
    assert f"cannot read config file '{binary}': not UTF-8 text" in capsys.readouterr().err


def test_zariski_qnambu(capsys):
    code, out, _ = run(capsys, "zariski", "qnambu", "J(Z[x1])", "J(Z[x2])", "J(Z[x3])")
    assert code == 0
    assert out.strip() == "Z[]"


def test_zariski_frobenius(capsys):
    code, out, _ = run(capsys, "zariski", "frobenius", "--max-degree", "3")
    assert code == 0
    assert "witness" in out


@pytest.mark.parametrize("dim", ["2", "3", "4"])
def test_zariski_frobenius_over_any_dimension(capsys, dim):
    # the candidates live in x1, x2, so every space finds the R^3 witness
    code, out, _ = run(capsys, "--json", "zariski", "frobenius", "--dim", dim, "--max-degree", "4")
    assert code == 0
    data = json.loads(out)["data"]
    assert (data["u"], data["axes"]) == ("x1^3 + x1^2*x2 - 3*x2^3", [1, 2])


def test_evolve_with_csv(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "evolve", "--system", "nahm", "--horizon", "0.01",
        "--step", "0.001", "--csv", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,H1,H2"
    assert len(lines) == 12
    assert "divergence identically zero: True" in out


def test_evolve_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "evolve", "--system", "nahm", "--horizon", "0.003",
                       "--step", "0.001", "--csv", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x1,x2,x3,H1,H2"
    assert [line.split(",")[0] for line in lines[1:5]] == ["0.0", "0.001", "0.002", "0.003"]
    assert lines[5:] == ["steps: 3", lines[6], "divergence identically zero: True"]
    assert lines[6].startswith("max relative drift: H1=")


def test_evolve_refuses_csv_to_stdout_with_json(capsys):
    # the CSV and the envelope on one stdout are not one JSON document
    code, out, err = run(capsys, "--json", "evolve", "--system", "nahm", "--horizon", "0.003",
                         "--step", "0.001", "--csv", "-")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    validate(doc)
    assert doc["error"] == {"code": "evolve.invalid-argument",
                            "message": "--csv - cannot share stdout with the JSON envelope"}


@pytest.mark.parametrize("argv, message", [
    (("mul", "nu^-1*Z[x1]", "Z[x2]"), "negative nu powers are not defined here (at position 5)"),
    (("mul", "x1 + Z[x2]", "Z[x1]"),
     "variable 'x1' is not allowed outside Z[...] here (at position 0)"),
    (("mul", "Z[x1 + nu]", "Z[x1]"), "nu is not allowed inside Z[...] (at position 0)"),
    (("jmap", "J(y1*Z[x1])"), "J(...) takes a plain Zariski element (at position 0)"),
    (("jmap", "J(nu*Z[x1])"), "J(...) takes a nu-free Zariski element (at position 0)"),
], ids=["negative-nu", "x-outside-z", "nu-inside-z", "j-of-y", "j-of-nu"])
def test_zariski_context_refusals(capsys, argv, message):
    code, out, err = run(capsys, "zariski", *argv)
    assert (code, out, err) == (1, "", f"error[zariski.syntax]: {message}\n")


def test_config_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "forge.conf"
    cfg.write_text("t-order=2\n# comment\n")
    # file value
    _, out, _ = run(capsys, "--config", str(cfg), "star", "--product", "moyal", "--exp", "q")
    assert out.strip().splitlines()[-1].startswith("t^2:")
    # env overrides file
    monkeypatch.setenv("NAMBU_FORGE_T_ORDER", "3")
    _, out, _ = run(capsys, "--config", str(cfg), "star", "--product", "moyal", "--exp", "q")
    assert out.strip().splitlines()[-1].startswith("t^3:")
    # flag overrides env
    _, out, _ = run(
        capsys, "--config", str(cfg), "star", "--product", "moyal", "--exp", "q", "--t-order", "1"
    )
    assert out.strip().splitlines()[-1].startswith("t^1:")


@pytest.mark.parametrize("argv", [
    ("star", "--product", "moyal", "--exp", "q^2 + p"),
    ("sun", "--exp", "L1^2 + L2"),
])
def test_exponential_renders_each_coefficient_once(capsys, monkeypatch, argv):
    # the text lines and the JSON coefficients are built from one rendering
    calls = []
    render = poly.NuObject.__str__
    monkeypatch.setattr(poly.NuObject, "__str__", lambda x: calls.append(x) or render(x))
    code, text, _ = run(capsys, *argv, "--t-order", "4")
    assert code == 0 and len(calls) == 5
    code, out, _ = run(capsys, *argv, "--t-order", "4", "--json")
    assert code == 0 and len(calls) == 10
    coeffs = json.loads(out)["data"]["coefficients"]
    assert text.splitlines() == [f"t^{r}: {c}" for r, c in enumerate(coeffs)]


@pytest.mark.parametrize("argv, message", [
    pytest.param(("sun", "--exp", "L1", "L2", "L3", "garbage@@"), "--exp takes no expressions",
                 id="sun-exprs"),
    pytest.param(("star", "--exp", "q", "p", "@@"), "--exp takes no expressions", id="star-exprs"),
    pytest.param(("star", "--exp", "q", "--commutator"), "--exp takes no --commutator",
                 id="star-commutator"),
])
def test_exponential_refuses_expressions_and_commutator(capsys, argv, message):
    # before, the exponential was printed and the rest of the call ignored
    assert run(capsys, *argv) == (1, "", f"error[{argv[0]}.invalid-argument]: {message}\n")


def test_vars_override(capsys):
    code, out, _ = run(capsys, "--vars", "a,b", "factor", "a^2 - b^2")
    assert code == 0
    assert out.strip() == "1 * (a - b) * (a + b)"


@pytest.mark.parametrize("argv, text", [
    (("star", "--vars", "y1,p", "y1", "p"), "y1*p + nu"),
    (("factor", "--vars", "y1,x", "y1*x"), "1 * (x) * (y1)"),
])
def test_declared_y_names_are_variables(capsys, argv, text):
    # a declared name is that variable, not a Taylor y-variable
    assert run(capsys, *argv) == (0, text + "\n", "")


@pytest.mark.parametrize("axis, expr", [("9", "Z[]"), ("0", "3"), ("0", "Z[x1]"), ("4", "Z[x1; x2]")])
def test_zariski_delta_refuses_axis_outside_the_space(capsys, axis, expr):
    # refused for every operand, also one with no factor to differentiate
    message = f"axis {axis} is out of range 1..3"
    assert run(capsys, "zariski", "delta", "--axis", axis, expr) == (
        1, "", f"error[zariski.invalid-argument]: {message}\n")
    code, out, err = run(capsys, "--json", "zariski", "delta", "--axis", axis, expr)
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == {"code": "zariski.invalid-argument", "message": message}


def test_equiv_weak_trivializer(capsys):
    code, out, _ = run(
        capsys, "equiv", "--mode", "B", "--left", "usual", "--right", "su2",
        "--s", "weak-trivializer", "L3^2", "L1*L2",
    )
    assert code == 0
    assert "residual: 0" in out


@pytest.mark.parametrize("side", ["--left", "--right"])
def test_equiv_refuses_ms_by_name(capsys, side):
    argv = ("equiv", "--mode", "B", side, "ms", "L3^2", "L1*L2")
    message = "equiv compares the usual and su2 products on su(2)*, not 'ms'"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error[equiv.invalid-argument]: {message}\n"
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (1, "")
    doc = json.loads(out)
    validate(doc)
    assert doc["error"] == {"code": "equiv.invalid-argument", "message": message}


def test_sun_products_by_name(capsys):
    code, out, _ = run(capsys, "sun", "--product", "ms", "q^2", "p^2")
    assert (code, out) == (0, "q^2*p^2 + 4*nu*q*p + 2*nu^2\n")
    code, out, err = run(capsys, "sun", "--product", "ms", "q^9", "q^8")
    assert (code, out) == (1, "")
    assert err == ("error[sun.resource-limit]: star operand of degree 17 is over the star "
                   "degree bound 16\n")
    code, out, _ = run(capsys, "--json", "sun", "L1^2", "L2^2")
    doc = json.loads(out)
    validate(doc)
    assert doc["data"] == {
        "product": "su2",
        "result": "L1^2*L2^2 + 10/3*nu^2*L1^2 + 10/3*nu^2*L2^2 + 16/3*nu^4",
    }
    with pytest.raises(SystemExit) as exc:
        main(["sun", "--closed-form", "L1", "L2"])
    assert exc.value.code == 2


def test_spectrum_deviation(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--dim", "30", "--deviation", "q", "p", "--band", "15"
    )
    assert code == 0
    assert "deviation" in out


def test_schema_file_loads():
    schema = load_schema()
    assert schema["title"].startswith("nambu-forge")
    assert schema["properties"]["tool"]["const"] == "nambu-forge"


def test_stdin_expression(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x1^2 - x2^2"))
    code, out, _ = run(capsys, "factor", "-")
    assert code == 0
    assert out.strip() == "1 * (x1 - x2) * (x1 + x2)"
