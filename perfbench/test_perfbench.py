"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WHY)


@pytest.fixture(scope="module")
def oracle():
    return run.load_oracle()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, oracle):
    judge = workloads.Judge(oracle)
    first = workloads.build(workload, 7, judge, smoke=True)
    assert first == workloads.build(workload, 7, judge, smoke=True)
    if workload != "census":
        assert first != workloads.build(workload, 8, judge, smoke=True)


def test_algebra_files_match_the_catalog():
    from termalg import catalog, dumps_algebra

    for name, make in [
        ("bool2", catalog.bool2),
        ("boolean_ring", catalog.boolean_ring),
        ("chain3", catalog.chain3),
        ("semilattice2", catalog.two_element_semilattice),
        ("mod3", catalog.mod3),
    ]:
        assert (workloads.ALGEBRA_DIR / f"{name}.json").read_text() == dumps_algebra(make())


def test_term_text_round_trips(oracle):
    from termalg import catalog, parse, print_term

    for workload in ("term_analysis", "subterm"):
        for op in workloads.build(workload, 3, workloads.Judge(oracle), smoke=True):
            for key in ("term", "of", "lhs", "rhs"):
                if key in op:
                    alg = getattr(catalog, op["algebra"])()
                    assert print_term(parse(op[key], alg)) == op[key]
                    assert workloads.to_text(workloads.parse_text(op[key])) == op[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_its_checks(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    *_, record, summary = done.stdout.splitlines()
    record, summary = json.loads(record), json.loads(summary)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, record["failures"]
    assert summary["attempted"] >= len(record["inputs"])
    names = set(METRICS) if trace == "1" else set(run.END_TO_END)
    assert set(summary["metrics"]) == names
    assert record["lane"] == "python"
    assert record["env"]["nproc"] >= 1


def test_checker_rejects_wrong_outputs(oracle):
    checker = Checker(oracle)
    ops = workloads.build("term_analysis", 1, workloads.Judge(oracle), smoke=True)
    ops += workloads.build("subterm", 1, workloads.Judge(oracle), smoke=True)
    for op in ops:
        right = checker.expected(op)
        assert checker.check(op, right) is None
        assert checker.check(op, _corrupt(right)) is not None
    census = {"label": "census chain3 n=3", "cmd": "census", "algebra": "chain3", "n": 3}
    assert checker.check(census, "{}\n") is not None


def _corrupt(text):
    """The same output with its last answer changed."""
    doc = json.loads(text)
    if isinstance(doc, int):
        return repr(doc + 1)
    key = list(doc)[-1]
    value = doc[key]
    if isinstance(value, bool):
        doc[key] = not value
    elif isinstance(value, list):
        doc[key] = value[:-1] if value else [1]
    else:
        value["total"] += 1
    return json.dumps(doc, indent=2) + "\n"


def test_traced_outputs_equal_untraced(oracle):
    import termalg
    from termalg import cli

    ops = []
    for workload in WORKLOADS:
        ops += workloads.build(workload, 2, workloads.Judge(oracle), smoke=True)
    runner = run.Runner(termalg, cli, ops)
    runner.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        assert {
            ("termalg.semantics", "induced_operation"),
            ("termalg.complexity", "induced_operation"),
            ("termalg.cli", "induced_operation"),
            ("termalg.cli", "load_algebra"),
            ("termalg.complexity", "clone_level"),
            ("termalg.semantics", "ess"),
            ("termalg", "cp3_set"),
        } <= {(m.__name__, key) for m, key, _ in tracer.patched}
        runner.run_pass(traced=True)
    finally:
        tracer.uninstall()
    assert not hasattr(termalg.cli.induced_operation, "__wrapped__")
    untraced = [d for _, d, _, t in runner.runs if not t]
    traced = [d for _, d, _, t in runner.runs if t]
    assert traced == untraced
    layers = tracer.snapshot()
    assert all(layers[name] > 0 for name in ("cli.calls", "kernels.compose_calls",
                                             "semantics.subterm_tabulations",
                                             "complexity.clone_members"))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == ["census", "term_analysis", "subterm"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == METRICS


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 0.99
    assert run.tail(list(range(100)))[0] == 0.90
    assert run.tail(list(range(40))) == (0.75, 29)
    assert run.tail(list(range(39)))[0] == 0.5
