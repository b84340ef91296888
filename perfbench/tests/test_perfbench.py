"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cli_calls  # noqa: E402
import generate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def _child(tmp_path, inputs: Path, *args) -> dict:
    out = tmp_path / f"out-{len(list(tmp_path.iterdir()))}.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--inputs", str(inputs),
                    "--out", str(out), *args], check=True, timeout=170)
    return json.loads(out.read_text())


def _inputs(tmp_path, workload: str, seed: int, edit=None) -> Path:
    doc = json.loads(generate.generate(workload, seed))
    if edit:
        edit(doc)
    path = tmp_path / f"{workload}-{seed}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = generate.generate(workload, 7)
    assert a == generate.generate(workload, 7)
    assert a != generate.generate(workload, 8)


def test_generated_text_is_the_engines_canonical_text():
    sys.path.insert(0, str(ROOT / "src"))
    from nambu_forge.expr import parse_expr, render
    from nambu_forge.poly import su2_space

    doc = json.loads(generate.generate("sun-su2", 3))
    for check in doc["checks"][:40]:
        for text in check["operands"]:
            assert render(parse_expr(text, su2_space())) == text


@pytest.mark.parametrize("workload,checks", [
    ("star-assoc", 4), ("factor-roundtrip", 15), ("taylor-bracket", 6), ("sun-su2", 8),
    ("cli-mix", 11),
])
def test_traced_and_untraced_runs_give_the_same_results(tmp_path, workload, checks):
    inputs = _inputs(tmp_path, workload, 5)
    extra = ["--in-process-cli"] if workload == "cli-mix" else []
    plain = _child(tmp_path, inputs, "--checks", str(checks), "--digest", *extra)
    traced = _child(tmp_path, inputs, "--checks", str(checks), "--digest",
                    "--trace", str(tmp_path / "spans.tsv.gz"), *extra)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] > 0
    assert plain["digest"] == traced["digest"]
    assert traced["spans"] > traced["attempted"]
    assert sum(v for k, v in traced["trace"].items() if k.endswith(".calls")) > 0


def test_wrong_expected_factorization_raises_fail_ratio(tmp_path, monkeypatch):
    def corrupt(doc):
        doc["expected"][0]["unit"] += 1

    inputs = _inputs(tmp_path, "factor-roundtrip", 2, corrupt)
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)
    monkeypatch.setattr(run, "OUT", tmp_path)
    doc = json.loads(inputs.read_text())
    metrics, attempted, failed, failures, _ = run.untraced(
        "factor-roundtrip", inputs, doc, 1, run.Budget(170))
    assert failed >= 1 and failed / attempted > 0
    assert any("differs from the generated one" in f for f in failures)


def test_correct_factorizations_pass_both_oracles(tmp_path):
    inputs = _inputs(tmp_path, "factor-roundtrip", 2)
    res = _child(tmp_path, inputs, "--checks", "10")
    doc = json.loads(inputs.read_text())
    assert oracles.check_factorizations(res["results"], doc) == []
    res["results"][3]["factors"][0][1] += 1  # a wrong multiplicity
    assert len(oracles.check_by_construction(res["results"], doc)) == 1
    assert len(oracles.check_with_sympy(res["results"][3:4])) == 1


def test_wrong_expected_cli_output_counts_as_failure(tmp_path, monkeypatch):
    argv, check = cli_calls.CALLS[0]
    wrong = cli_calls._exact("L1*L2 - nu*L3\n", {"result": "L1*L2 - nu*L3"})
    monkeypatch.setattr(cli_calls, "CALLS", ((argv, wrong),) + cli_calls.CALLS[1:])
    assert not cli_calls.check_output(0, "text", "L1*L2 + nu*L3\n")
    assert cli_calls.check_output(1, "text", "t^0: 1\nt^1: 1/2*nu^-1*L3\nt^2: 1/8*nu^-2*L3^2 + 1/4\n")


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(1, 101))
    value, pct, n = run.tail(xs)
    assert (value, n) == (90, 100) and sum(x > value for x in xs) == 10
    assert pct == 90.0


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric_of_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sun-su2",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]}


def test_run_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sun-su2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
