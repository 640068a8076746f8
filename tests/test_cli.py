"""End-to-end CLI behaviour: dispatch, output shape, exit codes."""

import json
import time

import pytest

from termalg import algebra, catalog, clone_level, dump_algebra, print_term
from termalg.cli import _witness_texts, main

T1 = "+(*(x1,x2),x3)"
T2 = "+(*(x1,x3),*(x2,neg(x3)))"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgCheck:
    def test_valid_file(self, capsys, bu_path):
        code, out, _ = run(capsys, "alg-check", bu_path)
        assert code == 0
        assert "OK: bool2" in out
        assert "+/2" in out and "neg/1" in out

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "bad", "carrier": 2, "operations":'
            ' [{"symbol": "+", "arity": 2, "table": [0, 1, 1]}]}'
        )
        code, _, err = run(capsys, "alg-check", str(bad))
        assert code == 1
        assert "length 3" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "alg-check", str(tmp_path / "nope.json"))
        assert code == 1
        assert err


class TestEval:
    def test_table_dump(self, capsys, bu_path):
        code, out, _ = run(capsys, "eval", bu_path, T1)
        assert code == 0
        assert "[0, 1, 0, 1, 0, 1, 1, 0]" in out

    def test_json(self, capsys, bu_path):
        code, out, _ = run(capsys, "eval", bu_path, T1, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [0, 1, 0, 1, 0, 1, 1, 0]
        assert doc["arity"] == 3

    def test_explicit_arity_extends(self, capsys, bu_path):
        code, out, _ = run(capsys, "eval", bu_path, "x1", "--arity", "2", "--json")
        assert code == 0
        assert json.loads(out)["values"] == [0, 0, 1, 1]

    def test_arity_below_variables_is_usage_error(self, capsys, bu_path):
        code, _, err = run(capsys, "eval", bu_path, T1, "--arity", "2")
        assert code == 2
        assert "below the largest variable index" in err

    def test_parse_error_is_domain_error(self, capsys, bu_path):
        code, _, err = run(capsys, "eval", bu_path, "+(x1)")
        assert code == 1
        assert "expects 2" in err


class TestEss:
    def test_human(self, capsys, bu_path):
        code, out, _ = run(capsys, "ess", bu_path, T1)
        assert code == 0
        assert "{x1,x2,x3}" in out

    def test_json(self, capsys, bu_path):
        code, out, _ = run(capsys, "ess", bu_path, T1, "--json")
        assert json.loads(out)["essential"] == [1, 2, 3]
        assert code == 0

    def test_semilattice_product(self, capsys, sl_path):
        code, out, _ = run(capsys, "ess", sl_path, "*(x1,x2)", "--arity", "2")
        assert code == 0
        assert "{x1,x2}" in out


class TestSep:
    def test_listing(self, capsys, bu_path):
        code, out, _ = run(capsys, "sep", bu_path, T2)
        assert code == 0
        assert "Sep sets (6):" in out
        assert "{x1,x2}" not in out
        assert "{x1,x3}" in out

    def test_single_set_verdicts(self, capsys, bu_path):
        code, out, _ = run(capsys, "sep", bu_path, T2, "--set", "x1,x2")
        assert code == 0
        assert "not separable" in out
        code, out, _ = run(capsys, "sep", bu_path, T2, "--set", "1,3")
        assert code == 0
        assert "is separable" in out

    def test_precondition_violation(self, capsys, bu_path):
        code, _, err = run(capsys, "sep", bu_path, "*(x1,x2)", "--arity", "3", "--set", "1,3")
        assert code == 1
        assert "not essential" in err

    def test_json_round_trip(self, capsys, bu_path):
        code, out, _ = run(capsys, "sep", bu_path, T2, "--json")
        doc = json.loads(out)
        assert doc["separable_sets"] == [[1], [1, 2, 3], [1, 3], [2], [2, 3], [3]]
        assert json.loads(json.dumps(doc)) == doc


class TestSubtermIdentity:
    def test_subterm_true(self, capsys, bu_path):
        code, out, _ = run(capsys, "subterm", bu_path, "*(x1,x2)", T1)
        assert code == 0
        assert "is a subterm" in out

    def test_subterm_false_json(self, capsys, bu_path):
        code, out, _ = run(
            capsys, "subterm", bu_path, "x3", "*(x1,x2)", "--arity", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["subterm"] is False

    def test_identity(self, capsys, bu_path):
        code, out, _ = run(capsys, "identity", bu_path, "+(x1,x2)", "+(x2,x1)")
        assert code == 0
        assert "holds" in out
        code, out, _ = run(capsys, "identity", bu_path, "x1", "x2", "--json")
        assert code == 0
        assert json.loads(out)["satisfied"] is False


class TestCp:
    def test_all_measures(self, capsys, bu_path):
        code, out, _ = run(capsys, "cp", bu_path, T1)
        assert code == 0
        assert "Cp1 = 3" in out
        assert "Cp2 = 2" in out
        assert "Cp3 total = 13" in out

    def test_measure_3_only(self, capsys, bu_path):
        code, out, _ = run(capsys, "cp", bu_path, T1, "--measures", "3", "--arity", "3")
        assert code == 0
        assert "Cp1" not in out
        assert "Cp3 total = 13" in out

    def test_json_per_set(self, capsys, bu_path):
        code, out, _ = run(capsys, "cp", bu_path, T2, "--json")
        doc = json.loads(out)
        assert doc["cp1"] == 4
        assert doc["cp2"] == 4
        assert doc["cp3"]["total"] == 11
        per = {tuple(entry["vars"]): entry["count"] for entry in doc["cp3"]["per_set"]}
        assert per[(1, 2)] == 0
        assert per[(1, 2, 3)] == 1

    def test_unknown_measure(self, capsys, bu_path):
        code, _, err = run(capsys, "cp", bu_path, T1, "--measures", "9")
        assert code == 2
        assert "unknown measure" in err


class TestCensusAndClone:
    def test_census_semilattice(self, capsys, sl_path):
        code, out, _ = run(capsys, "census", sl_path, "--arity", "2")
        assert code == 0
        assert "clone size: 3" in out
        assert "total: 7" in out

    def test_census_json_round_trip(self, capsys, bu_path):
        code, out, _ = run(capsys, "census", bu_path, "--arity", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "algebra": "bool2",
            "n": 2,
            "clone_size": 16,
            "total": 42,
            "histogram": {"5": 2, "3": 8, "2": 4, "0": 2},
        }

    def test_census_requires_arity(self, capsys, bu_path):
        code, _, _ = run(capsys, "census", bu_path)
        assert code == 2

    def test_census_full_ternary_run(self, capsys, bu_path):
        code, out, _ = run(capsys, "census", bu_path, "--arity", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["clone_size"] == 256
        assert doc["total"] == 2714
        assert doc["histogram"]["6"] == 24

    def test_census_budget(self, capsys, bu_path):
        code, _, err = run(
            capsys, "census", bu_path, "--arity", "3", "--max-clone-size", "10"
        )
        assert code == 1
        assert "budget" in err

    def test_clone_listing(self, capsys, sl_path):
        code, out, _ = run(capsys, "clone", sl_path, "--arity", "2", "--list")
        assert code == 0
        assert "3 members" in out
        assert "*(x1,x2)" in out

    def test_clone_json(self, capsys, sl_path):
        code, out, _ = run(capsys, "clone", sl_path, "--arity", "2", "--json", "--list")
        doc = json.loads(out)
        assert doc["size"] == 3
        assert {"values": [0, 0, 0, 1], "witness": "*(x1,x2)"} in doc["members"]

    def test_clone_listing_prints_witnesses_as_the_printer_does(self, capsys, tmp_path):
        for alg, n in ((catalog.bool2(), 3), (catalog.chain3(), 4)):
            path = tmp_path / f"{alg.name}.json"
            dump_algebra(alg, path)
            clone = clone_level(alg, n)
            texts = [print_term(w) for w in clone.witnesses]
            assert _witness_texts(clone.witnesses) == texts
            code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list", "--json")
            assert code == 0
            assert [m["witness"] for m in json.loads(out)["members"]] == texts
            code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list")
            assert code == 0
            assert [line.split("  <-  ")[1] for line in out.splitlines()[1:]] == texts

    def test_repeated_runs_identical(self, capsys, bu_path):
        _, first, _ = run(capsys, "census", bu_path, "--arity", "2", "--json")
        _, second, _ = run(capsys, "census", bu_path, "--arity", "2", "--json")
        assert first == second


class TestTableBudget:
    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (("eval", "bool2", "x1", "--arity", "26"), "2**26"),
            (("census", "bool2", "--arity", "26"), "2**26"),
            (("ess", "mod3", "x1", "--arity", "14"), "3**14"),
        ],
    )
    def test_over_budget_fails_fast(self, capsys, tmp_path, argv, estimate):
        path = tmp_path / f"{argv[1]}.json"
        dump_algebra({"bool2": catalog.bool2, "mod3": catalog.mod3}[argv[1]](), path)
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], str(path), *argv[2:])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert f"needs {estimate} entries, budget is 1000000" in err


# +(x1,+(x2,...+(x14,x15)...)); x1 is reached only by evaluating x2..x15
XOR_CHAIN_15 = "".join(f"+(x{i}," for i in range(1, 15)) + "x15" + ")" * 14


class TestWorkBudget:
    @pytest.mark.parametrize(
        "argv, estimate",
        [
            (("subterm", "x1", XOR_CHAIN_15), "needs up to 3**14 evaluations x 2**15"),
            (("cp", "x1", "--arity", "18", "--measures", "3"), "needs 2**18 sets x 2**18"),
            (("sep", "x1", "--arity", "18"), "needs 2**18 sets x 2**18"),
            (("census", "--arity", "14"), "needs 2**14 sets x 2**14"),
        ],
    )
    def test_over_budget_fails_fast(self, capsys, bu_path, argv, estimate):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], bu_path, *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert f"{estimate} entries, budget is 100000000" in err

    def test_closure_over_budget(self, capsys, monkeypatch, bu_path):
        # under the real budget `clone --arity 14` stops the same way, after
        # 6103 members of 2**14 entries and a few seconds
        monkeypatch.setattr(algebra, "WORK_BUDGET", 1000)
        code, out, err = run(capsys, "clone", bu_path, "--arity", "3")
        assert code == 1
        assert out == ""
        assert "the closure holds 126 members x 2**3 entries, budget is 1000" in err

    def test_census_total_over_budget(self, capsys, monkeypatch, bu_path):
        # with no per-set floor, one table's cp3 (2**3 x 8) and the closure
        # (256 x 8) fit; the census over all 256 members, 7 x 256 x 8
        # entries, does not
        budget = 7 * 256 * 8 - 1
        monkeypatch.setattr(algebra, "_CP3_SET_FLOOR", 1)
        monkeypatch.setattr(algebra, "WORK_BUDGET", budget)
        code, out, err = run(capsys, "census", bu_path, "--arity", "3", "--json")
        assert code == 1
        assert out == ""
        estimate = "the census's cp3 needs 2**3 - 1 sets x 256 members x 2**3 entries"
        assert f"{estimate}, budget is {budget}" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestMixedCarrier:
    def test_three_element_algebra(self, capsys, tmp_path):
        path = tmp_path / "mod3.json"
        dump_algebra(catalog.mod3(), path)
        code, out, _ = run(capsys, "ess", str(path), "min(x1,succ(x2))", "--json")
        assert code == 0
        assert json.loads(out)["essential"] == [1, 2]
