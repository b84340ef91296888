"""CLI contract: subcommands, exit codes, JSON envelope, config precedence."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import nambu_forge
from nambu_forge import cli, expr, nambu, poly, star, sun, weyl
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


def test_check_fi_degree_zero_runs(capsys):
    code, out, _ = run(capsys, "check-fi", "--degree", "0", "--trials", "1")
    assert code == 0
    assert out.strip() == "PASS residual=0 (1/1)"


def test_coeffs_agreement(capsys):
    code, out, _ = run(capsys, "coeffs", "--a", "6", "3")
    assert code == 0
    assert "recursion=17/45" in out and "closed-form=17/45" in out and "agree=True" in out


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


def test_cli_import_leaves_numpy_out():
    # numpy is loaded by the spectrum command only
    code = "import sys, nambu_forge.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True)
    assert out.stdout.strip() == "False"


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
        # each partial of x1*x2 + x2*x3 + x3*x1 has two terms and each of the
        # other two operands' one, so the 6 permutations form 12 products
        (poly, "JACOBIAN_TERM_BOUND",
         ("nambu", "--bracket", "canonical3", "x1*x2 + x2*x3 + x3*x1", "x1^2 + x2^2 + x3^2",
          "x1 + x2 + x3"), "nambu.resource-limit"),
        # L1^2 + L2 is three star monomials, acting on three terms
        (star, "SU2_WORD_BOUND", ("star", "--product", "su2", "L1*L2*L3 + L3^3 + L1", "L1^2 + L2"),
         "star.resource-limit"),
        # the square of a three-term operand forms 3 + 9 term products
        (expr, "PARSE_TERM_BOUND", ("factor", "(x1 + x2 + 1)^2"), "factor.resource-limit"),
    ],
)
def test_resource_bounds_exit_1(capsys, monkeypatch, module, bound, argv, code):
    monkeypatch.setattr(module, bound, 8)
    sun.a_recursion.cache_clear()  # a cached value would skip the check
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
         "Jacobian determinant of 233175 term products is over the Jacobian term bound 100000"),
    ],
    ids=["dim-3000", "vars-2400", "fi-degree", "fi-trials", "table-order", "table-steps",
         "fi-jacobian"],
)
def test_unpatched_bounds_end_without_traceback(capsys, argv, message):
    # without these bounds each call printed a RecursionError traceback or
    # ran from 12 s to minutes; the bounds are checked before any work
    command = argv[0]
    assert run(capsys, *argv) == (1, "", f"error[{command}.resource-limit]: {message}\n")


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


def test_closed_stdout_prints_no_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "nambu_forge.cli", "coeffs", "--table", "8", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), text=True)
    proc.stdout.close()  # before the child has started, let alone written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


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


def test_vars_override(capsys):
    code, out, _ = run(capsys, "--vars", "a,b", "factor", "a^2 - b^2")
    assert code == 0
    assert out.strip() == "1 * (a - b) * (a + b)"


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
