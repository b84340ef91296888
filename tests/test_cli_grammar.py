"""Property test of the command line over the README expression grammar.

Every call is drawn from a strategy over the grammar (variables of every
space, ``nu`` and its inverse, ``a/b`` literals, ``Z[...]``, ``J(...)``, the
Taylor variables ``y1``..``y4``, powers ``^0`` and ``^-k``, nesting) and over
the options of the subcommands that parse expressions, and of ``spectrum``,
``evolve`` and ``check-fi``, whose float options take ``nan``, ``inf``,
``-inf``, ``-1``, ``0``, ``1e-300``, ``1e300`` and small values.  Each call
runs in-process through ``cli.main``.  A call may succeed (0), be refused by
the engine (1) or by argparse (2); it never prints a traceback, and it ends
within ``CALL_SECONDS``.

Budget: 300 calls, derandomized so every run draws the same ones; the test
takes about 11 s on a 2-vCPU x86_64 host, most of it in the calls (the
slowest, ``check-fi`` calls refused at the check-fi work bound, 1.3-1.9 s).
"""

import contextlib
import io
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nambu_forge.cli import main

CALL_SECONDS = 5.0

# the variables of the space each subcommand reads by default; "other" mixes
# names of several spaces with an undeclared one
_X, _L = ("x1", "x2", "x3"), ("L1", "L2", "L3")
_SPACES = {"star": ("q", "p"), "sun": _L, "equiv": _L, "factor": _X, "nambu": _X,
           "zariski": _X + ("y1", "y2"), "other": ("x4", "y3", "y4", "q", "L1", "w")}
_RATIONALS = st.builds("{}/{}".format, st.integers(0, 12), st.integers(0, 6)) | st.integers(
    0, 10**6).map(str)
_EXPONENTS = st.sampled_from(["0", "1", "2", "3", "-1", "-2"])
# the expressions each zariski op takes
_ARITY = {"mul": 2, "cmul": 2, "power": 1, "delta": 1, "jmap": 1, "amul": 2, "qnambu": 3,
          "frobenius": 0}


def _extend(children):
    """One grammar production over smaller expressions."""
    return st.one_of(
        st.builds("({})".format, children),
        st.builds("{}^{}".format, children, _EXPONENTS),
        st.builds("{}*{}".format, children, children),
        st.builds("{} + {}".format, children, children),
        st.builds("{} - {}".format, children, children),
        st.builds("-{}".format, children),
        st.builds("J({})".format, children),
        st.builds(lambda fs: "Z[" + "; ".join(fs) + "]", st.lists(children, max_size=3)),
    )


def _expressions(names):
    """Expression text over the variables names, nu and the literals."""
    atoms = st.sampled_from([*names, "nu", "nu^-1", "Z[]"]) | _RATIONALS
    return st.recursive(atoms, _extend, max_leaves=8)


_EXPRESSIONS = {command: _expressions(names) for command, names in _SPACES.items()}
_SMALL = st.integers(-1, 5)


def _option(name, values):
    """[] or [name, value] for a value drawn from values."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _flag(name):
    return st.sampled_from([[], [name]])


# float option values: the non-finite ones, the edges of the float range, and
# small ones.  They are passed as name=value, so that argparse reads a leading
# minus sign as part of the value
_FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"]) | st.floats(
    0, 2).map(repr)


def _float_option(name, values=_FLOATS):
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


@st.composite
def calls(draw):
    """argv of one call: global options, a subcommand, its options and its
    expressions."""
    argv = draw(_flag("--json")) + draw(_option("--vars", st.sampled_from(
        ["q,p", "x1,x2,x3", "y1,y2", "L1,L2,L3", "a,a"])))
    argv += draw(_option("--nu-order", _SMALL)) + draw(_option("--t-order", _SMALL))
    argv += draw(_option("--degree-bound", st.integers(-1, 14)))
    command = draw(st.sampled_from(["star", "sun", "factor", "nambu", "zariski", "equiv",
                                    "coeffs", "spectrum", "evolve", "check-fi"]))
    argv.append(command)
    # half of the calls take expressions over the subcommand's own space
    expr = draw(st.sampled_from(list(_EXPRESSIONS.values()))
                | st.just(_EXPRESSIONS.get(command, _EXPRESSIONS["other"])))

    def exprs(n):
        """n expressions, or at times another count up to 4."""
        return st.lists(expr, min_size=n, max_size=n) | st.lists(expr, max_size=4)

    brackets = st.sampled_from(["canonical2", "canonical3", "canonical4", "canonical8",
                                "canonical9", "linear3", "linear4", "linear8", "spin9"])
    if command == "star":
        argv += draw(_option("--product", st.sampled_from(
            ["moyal", "partial", "standard", "su2", "weyl"])))
        argv += draw(_flag("--commutator")) + draw(_option("--exp", expr))
        argv += draw(exprs(2))
    elif command == "sun":
        argv += draw(_option("--product", st.sampled_from(["su2", "ms"])))
        argv += draw(_option("--exp", expr)) + draw(exprs(2))
    elif command == "factor":
        argv.append(draw(expr))
    elif command == "nambu":
        argv += draw(_option("--bracket", brackets)) + draw(exprs(3))
    elif command == "zariski":
        op = draw(st.sampled_from(list(_ARITY)))
        argv.append(op)
        argv += draw(_option("--dim", st.integers(0, 5))) + draw(_option("--axis", _SMALL))
        argv += draw(_option("--power", _SMALL)) + draw(_option("--max-degree", st.integers(-1, 3)))
        argv += draw(exprs(_ARITY[op]))
    elif command == "equiv":
        argv += ["--mode", draw(st.sampled_from(["A", "B"]))]
        argv += draw(_option("--left", st.sampled_from(["usual", "su2", "moyal"])))
        argv += draw(_option("--right", st.sampled_from(["usual", "su2"])))
        argv += draw(_option("--s", st.sampled_from(["identity", "weak-trivializer", "other"])))
        argv += draw(exprs(2))
    elif command == "spectrum":
        argv += draw(_option("--dim", st.sampled_from([-1, 0, 1, 2, 3, 10, 40, 512, 513])))
        argv += draw(_float_option("--hbar"))
        argv += draw(_option("--levels", st.sampled_from([-1, 0, 1, 2, 5, 255, 256])))
        argv += draw(_option("--band", st.sampled_from([-1, 0, 1, 2, 5, 39, 40, 511, 512])))
        if draw(st.booleans()):
            argv += ["--deviation", *draw(st.lists(_EXPRESSIONS["star"], min_size=2,
                                                   max_size=2))]
    elif command == "evolve":
        argv += draw(_option("--system", st.sampled_from(["euler", "nahm", "other"])))
        numbers = st.lists(_FLOATS, min_size=1, max_size=4).map(",".join)
        argv += draw(_float_option("--inertia", numbers))
        argv += draw(_float_option("--state", numbers))
        argv += draw(_float_option("--horizon")) + draw(_float_option("--step"))
    elif command == "check-fi":
        argv += draw(_option("--bracket", brackets))
        argv += draw(_option("--degree", st.sampled_from([-1, 0, 1, 2, 3, 100, 101])))
        argv += draw(_option("--trials", st.sampled_from([-1, 0, 1, 2, 1000, 1001])))
    else:
        pair = st.tuples(st.sampled_from([-1, 0, 1, 2, 7, 28, 316, 10**5, 10**7]),
                         st.integers(-1, 21))
        argv += [draw(st.sampled_from(["--a", "--table"])), *map(str, draw(pair))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(calls())
def test_cli_calls_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the call
            code = exc.code
    seconds = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert seconds < CALL_SECONDS, (argv, seconds)
