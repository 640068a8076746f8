"""End-to-end CLI behaviour: dispatch, output shape, exit codes."""

import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termalg import algebra, catalog, cli, clone_level, dump_algebra, parse, print_term
from termalg.cli import main

import oracle
from helpers import wide_lane_algebras

T1 = "+(*(x1,x2),x3)"
T2 = "+(*(x1,x3),*(x2,neg(x3)))"
NEG_DOC = {"symbol": "neg", "arity": 1, "table": [1, 0]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if "--json" in argv and code == 0:
        # every JSON answer is the document json.dumps(..., indent=2) writes
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
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

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"name": "a", "carrier": 2, "operations": 5}', "'operations'"),
            (
                '{"name": "a", "carrier": 2, "operations":'
                ' [{"symbol": "f", "arity": 1, "table": 5}]}',
                "'table'",
            ),
        ],
    )
    def test_malformed_file_is_one_error_line(self, capsys, tmp_path, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for argv in (["alg-check", str(bad)], ["alg-check", str(bad), "--json"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"field {field} must be a list" in err

    def test_huge_arity_is_a_length_error_at_once(self, capsys, tmp_path):
        # the length is compared before 3**10000000 is computed, which
        # took seconds and then failed to print
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "a", "carrier": 3, "operations":'
            ' [{"symbol": "f", "arity": 10000000, "table": [0]}]}'
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "alg-check", str(bad))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: operation 'f' (index 0): table length 1, expected k^10000000 = 3^10000000\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "alg-check", str(tmp_path / "nope.json"))
        assert code == 1
        assert err

    def test_names_that_do_not_print_are_quoted(self, capsys, tmp_path):
        # alg-check, census and clone print the name in their first line;
        # a line break or escape in it is written as JSON writes it, and
        # a printable name byte for byte
        path = tmp_path / "named.json"
        commands = {
            "alg-check": ([], "OK: {}, carrier 2, operations: neg/1", 1),
            "census": (["--arity", "1"], "algebra {}, n = 1", 5),
            "clone": (["--arity", "1", "--list"], "clone of {} at arity 1: 2 members", 3),
        }
        for name, shown in [
            ("a\nb", '"a\\nb"'),
            ("tab\tbell\x07", '"tab\\tbell\\u0007"'),
            (" ", '"\\u2028"'),
            ("pläin name", "pläin name"),
        ]:
            doc = {"name": name, "carrier": 2, "operations": [NEG_DOC]}
            path.write_text(json.dumps(doc))
            for command, (options, first, lines) in commands.items():
                code, out, _ = run(capsys, command, str(path), *options)
                assert code == 0
                assert out.split("\n")[0] == first.format(shown)
                assert out.count("\n") == lines


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

    # neg applied an even number of times is x1: the answers of each
    # command, by the JSON field that holds them
    _DEEP_ANSWERS = {
        "cp": {"cp1": 1, "cp3": {"total": 1, "per_set": [{"vars": [1], "count": 1}]}},
        "eval": {"values": [0, 1]},
        "subterm": {"subterm": True},
        "ess": {"essential": [1]},
        "identity": {"satisfied": True},
        "sep": {"separable_sets": [[1]]},
        "sep-set": {"separable": True},
    }

    @pytest.mark.parametrize(
        "command, depth",
        [
            # the name and ids are kept from when these depths were a domain
            # error; the cp cases keep their ids from before eval and subterm
            # joined
            pytest.param(command, depth, id=f"{command}-{depth}".removeprefix("cp-"))
            for command in _DEEP_ANSWERS
            for depth in (3000, 100_000)
        ],
    )
    def test_deep_nesting_is_domain_error(self, capsys, bu_path, command, depth):
        # no term walk recurses, so every command answers at any depth
        term = "neg(" * depth + "x1" + ")" * depth
        argv = {
            "subterm": ["subterm", bu_path, term, "x1"],
            "identity": ["identity", bu_path, term, "x1"],
            "sep-set": ["sep", bu_path, term, "--set", "1"],
        }.get(command, [command, bu_path, term])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--json")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc[next(iter(doc))] == term
        if command == "cp":
            assert doc["cp2"] == depth
        for field, value in self._DEEP_ANSWERS[command].items():
            assert doc[field] == value

    @pytest.mark.parametrize("command", ["cp", "eval", "subterm"])
    def test_nesting_that_tabulates_prints(self, capsys, bu_path, command):
        # 400 levels tabulate; printing them recursed too deeply before
        term = "neg(" * 400 + "x1" + ")" * 400
        terms = [term, term] if command == "subterm" else [term]
        code, out, err = run(capsys, command, bu_path, *terms)
        assert (code, err) == (0, "")
        assert term in out

    @pytest.mark.parametrize("command", ["eval", "subterm"])
    def test_deep_term_below_its_arity_is_a_usage_error(self, capsys, bu_path, command):
        # the largest variable index is found without recursion
        term = "neg(" * 3000 + "x5" + ")" * 3000
        terms = ["x1", term] if command == "subterm" else [term]
        code, out, err = run(capsys, command, bu_path, *terms, "--arity", "2")
        assert (code, out) == (2, "")
        assert err == "usage error: --arity 2 is below the largest variable index 5\n"

    def test_deep_nesting_with_a_syntax_error_is_a_parse_error(self, capsys, bu_path):
        term = "neg(" * 3000 + "x1" + ")" * 2999
        code, out, err = run(capsys, "eval", bu_path, term)
        assert (code, out) == (1, "")
        assert err == f"error: expected ')' (at position {len(term)})\n"

    @pytest.mark.parametrize(
        "term, position", [("x" + "9" * 5000, 0), ("+(x1,#" + "9" * 5000 + ")", 5)]
    )
    def test_huge_number_is_a_parse_error(self, capsys, bu_path, term, position):
        code, out, err = run(capsys, "eval", bu_path, term)
        assert (code, out) == (1, "")
        assert err == f"error: number of 5000 digits is too long (at position {position})\n"

    def test_deeply_nested_algebra_file_is_named(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "alg-check", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: JSON nested too deeply to read\n"


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

    @pytest.mark.parametrize("chunk", ["x\u00b2", "\u00b2", "1,\u2463", "xx1,x2"])
    def test_non_decimal_digit_is_usage_error(self, capsys, bu_path, chunk):
        # isdigit() accepts superscripts and circled digits, which int()
        # rejects; and an index takes one x at most, as in terms
        code, out, err = run(capsys, "sep", bu_path, "+(x1,x2)", "--set", chunk)
        assert (code, out) == (2, "")
        assert err == f"usage error: bad variable list {chunk!r}; expected e.g. 1,3 or x1,x3\n"

    def test_huge_index_is_outside_the_arity(self, capsys, bu_path):
        index = "9" * 5000
        code, out, err = run(capsys, "sep", bu_path, "+(x1,x2)", "--set", f"1,{index}")
        assert (code, out) == (1, "")
        assert err == f"error: variable index {index} outside 1..2\n"
        # the zeros in front of an index do not count
        code, out, _ = run(capsys, "sep", bu_path, "+(x1,x2)", "--set", "1," + "0" * 5000 + "2")
        assert (code, out) == (0, "{x1,x2} is separable\n")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--arity", "-1", "--json"),
            ("clone", "--arity", "-2", "--list"),
            # the term commands check the sign before the largest index
            ("eval", "--arity", "-1", "x1"),
            ("eval", "--arity", "-3", "#0", "--json"),
            ("ess", "--arity", "-1", "min(x1,x2)"),
            ("sep", "--arity", "-1", "min(x1,x2)", "--set", "1"),
            ("cp", "--arity", "-2", "max(x1,x2)"),
            ("subterm", "--arity", "-1", "x1", "min(x1,x2)"),
            ("identity", "--arity", "-1", "min(x1,x2)", "min(x2,x1)"),
        ],
    )
    def test_negative_arity_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "chain3.json"
        dump_algebra(catalog.chain3(), path)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"usage error: --arity {argv[2]} is negative\n")

    @pytest.mark.parametrize("command", ["census", "clone"])
    def test_negative_max_clone_size_is_usage_error(self, capsys, bu_path, command):
        argv = (command, bu_path, "--arity", "2", "--max-clone-size", "-5")
        assert run(capsys, *argv) == (2, "", "usage error: --max-clone-size -5 is negative\n")

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
            assert clone.witness_texts == texts
            code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list", "--json")
            assert code == 0
            assert [m["witness"] for m in json.loads(out)["members"]] == texts
            code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list")
            assert code == 0
            assert [line.split("  <-  ")[1] for line in out.splitlines()[1:]] == texts

    @pytest.mark.parametrize(
        "name, n",
        [("bool2", 0), ("bool2", 1), ("bool2", 3), ("chain3", 4), ("odd", 3), ("percent", 2), ("z17", 1)],
    )
    def test_clone_list_json_is_the_indented_document(self, capsys, tmp_path, name, n):
        bool2 = catalog.bool2().operations

        def renamed(name, symbols):
            ops = tuple(algebra.Operation(s, op.arity, op.table) for s, op in zip(symbols, bool2))
            return algebra.FiniteAlgebra(name, 2, ops)

        algebras = {
            "bool2": catalog.bool2(),
            "chain3": catalog.chain3(),
            # a name and symbols that json must escape: quote, backslash,
            # newline (in the name; no term names such a symbol), non-ASCII
            "odd": renamed('odd "\\ name\n\u00e9', ('"', "\\", "\u00ac")),
            # and ones that %-formatting would read
            "percent": renamed("%s %d %% name", ("%", "*", "neg")),
            # 17**2 operation-table indices: the closure's lanes are 2 bytes
            "z17": algebra.FiniteAlgebra(
                "z17",
                17,
                (algebra.Operation("f", 2, tuple((3 * a + b + 1) % 17 for a in range(17) for b in range(17))),),
            ),
        }
        alg = algebras[name]
        path = tmp_path / "alg.json"
        dump_algebra(alg, path)
        clone = clone_level(alg, n)
        if name == "z17":
            assert clone.width == 2 and clone.size == 17
        doc = {
            "algebra": alg.name,
            "n": n,
            "size": clone.size,
            "members": [
                {"values": list(m.values), "witness": print_term(w)}
                for m, w in zip(clone.members, clone.witnesses)
            ],
        }
        code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list", "--json")
        assert code == 0
        # compared line by line: a failing diff of the whole text is slow
        expected = json.dumps(doc, indent=2) + "\n"
        assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
        code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--list")
        assert code == 0
        # a name that does not print is quoted, as in the JSON
        shown = alg.name if alg.name.isprintable() else json.dumps(alg.name)
        head = f"clone of {shown} at arity {n}: {clone.size} members\n"
        assert out == head + "".join(
            f"  {i}: {list(m.values)}  <-  {print_term(w)}\n"
            for i, (m, w) in enumerate(zip(clone.members, clone.witnesses))
        )
        del doc["members"]
        code, out, _ = run(capsys, "clone", str(path), "--arity", str(n), "--json")
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name", ["bool2", "boolean_ring", "two_element_semilattice", "chain3", "mod3"])
    def test_clone_size_with_and_without_list(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        dump_algebra(getattr(catalog, name)(), path)
        for n in range(4):
            if (name, n) == ("mod3", 2):
                continue  # its closure takes about 20 s
            argv = ("clone", str(path), "--arity", str(n), "--json")
            code, out, err = run(capsys, *argv)
            listed = run(capsys, *argv, "--list")
            assert (listed[0], listed[2]) == (code, err)
            if code == 0:
                assert json.loads(listed[1])["size"] == json.loads(out)["size"]
            else:
                assert listed[1] == out == ""

    def test_repeated_runs_identical(self, capsys, bu_path):
        _, first, _ = run(capsys, "census", bu_path, "--arity", "2", "--json")
        _, second, _ = run(capsys, "census", bu_path, "--arity", "2", "--json")
        assert first == second


ODD = "\u00e9(x1,\u00ac(x2))"  # over an algebra whose symbols json escapes


class TestJsonOutput:
    """Every --json command writes json.dumps(doc, indent=2): run()
    checks it. The algebra's name and symbols here must be escaped."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["alg-check"],
            ["eval", ODD],
            ["eval", ODD, "--arity", "4"],
            ["ess", ODD],
            ["sep", ODD],
            ["sep", ODD, "--set", "1,2"],
            ["subterm", "\u00ac(x2)", ODD],
            ["identity", ODD, "\u00e9(\u00ac(x2),x1)"],
            ["cp", ODD],
            ["cp", ODD, "--measures", "3"],
            ["census", "--arity", "2"],
            ["clone", "--arity", "2"],
            ["clone", "--arity", "2", "--list"],
        ],
    )
    def test_indented_document(self, capsys, tmp_path, argv):
        plus, _, neg = catalog.bool2().operations
        odd = algebra.FiniteAlgebra(
            'odd "\\ name\n\u00e9',
            2,
            (
                algebra.Operation("\u00e9", 2, plus.table),
                algebra.Operation("\u00ac", 1, neg.table),
            ),
        )
        path = tmp_path / "odd.json"
        dump_algebra(odd, path)
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:], "--json")
        assert code == 0
        assert out.isascii() and "\\u00e9" in out


    @pytest.mark.parametrize(
        "name, term, n",
        [
            ("bool2", "neg(#0)", 0),
            ("bool2", "+(x1,*(x2,neg(x12)))", 12),
            ("mod3", "max(min(x1,succ(x4)),x3)", 4),
            # values reach 10, which no single digit writes
            ("z11", "max(succ(x1),x2)", 2),
            # values reach 256, which no lane byte holds
            ("succ257", "succ(succ(x1))", 1),
        ],
    )
    def test_eval_values(self, capsys, tmp_path, name, term, n):
        if name == "z11":
            alg = algebra.FiniteAlgebra(
                "z11",
                11,
                (
                    algebra.Operation("succ", 1, [(a + 1) % 11 for a in range(11)]),
                    algebra.Operation("max", 2, [max(a, b) for a in range(11) for b in range(11)]),
                ),
            )
        elif name == "succ257":
            alg = wide_lane_algebras()[1]
        else:
            alg = getattr(catalog, name)()
        path = tmp_path / f"{name}.json"
        dump_algebra(alg, path)
        code, out, _ = run(capsys, "eval", str(path), term, "--arity", str(n), "--json")
        assert code == 0
        want = list(oracle.table_of(parse(term, alg), oracle.ops_of(alg), alg.carrier_size, n))
        assert json.loads(out)["values"] == want


class TestHugeCarrier:
    """A carrier of 2**70 elements, whose lanes are 16 bytes wide, past
    struct's codes, answers at arity 0 as a 300-element carrier does."""

    @staticmethod
    def path(tmp_path, k):
        path = tmp_path / f"k{k}.json"
        path.write_text(json.dumps({"name": "big", "carrier": k, "operations": []}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "#5", "--arity", "0"],
            ["eval", "#5", "--arity", "0", "--json"],
            ["census", "--arity", "0"],
            ["census", "--arity", "0", "--json"],
            ["clone", "--arity", "0"],
            ["clone", "--arity", "0", "--json"],
            ["clone", "--arity", "0", "--list"],
            ["clone", "--arity", "0", "--list", "--json"],
        ],
    )
    def test_as_a_300_element_carrier(self, capsys, tmp_path, argv):
        outputs = []
        for k in (2**70, 300):
            code, out, err = run(capsys, argv[0], self.path(tmp_path, k), *argv[1:])
            assert (code, err) == (0, "")
            outputs.append(out.replace(str(k), "K"))
        assert outputs[0] == outputs[1]

    def test_documents(self, capsys, tmp_path):
        path = self.path(tmp_path, 2**70)
        answers = {
            "eval": ("#5",),
            "census": (),
            "clone": ("--list",),
        }
        docs = {}
        for command, extra in answers.items():
            code, out, _ = run(capsys, command, path, *extra, "--arity", "0", "--json")
            assert code == 0
            docs[command] = json.loads(out)
        assert docs["eval"]["values"] == [5]
        assert docs["eval"]["carrier"] == 2**70
        census = docs["census"]
        assert (census["clone_size"], census["total"], census["histogram"]) == (0, 0, {})
        assert (docs["clone"]["size"], docs["clone"]["members"]) == (0, [])


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

    def test_semilattice_census_fails_fast_past_the_dedekind_table(self, capsys, sl_path):
        # its 4095 meets are counted and built without a closure, which
        # ran on towards its fixpoint
        start = time.perf_counter()
        code, out, err = run(capsys, "census", sl_path, "--arity", "12")
        assert time.perf_counter() - start < 1.0
        estimate = "the census's cp3 needs 2**12 - 1 sets x 4095 members x 2**12 entries"
        assert (code, out, err) == (1, "", f"error: {estimate}, budget is 100000000\n")

    @pytest.mark.parametrize(
        "name, argv, message",
        [
            ("mod3", ("--arity", "3"), "clone budget exceeded: more than 1000000 members at arity 3"),
            ("bool2", ("--arity", "5"), "clone budget exceeded: more than 1000000 members at arity 5"),
            # M(6) - 2 = 7,828,352 members
            (
                "chain3",
                ("--arity", "6"),
                "the closure holds 137175 members x 3**6 entries, budget is 100000000",
            ),
            (
                "chain3",
                ("--arity", "4", "--max-clone-size", "100"),
                "clone budget exceeded: more than 100 members at arity 4",
            ),
        ],
    )
    def test_known_clone_size_fails_fast(self, capsys, tmp_path, name, argv, message):
        # the clone's size is known (primal; free spectrum), so the
        # closure's own error comes before any closing, listed or not
        path = tmp_path / f"{name}.json"
        dump_algebra(getattr(catalog, name)(), path)
        for listing in ((), ("--list",)):
            start = time.perf_counter()
            code, out, err = run(capsys, "clone", str(path), *argv, *listing)
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("name, n, size", [("bool2", 3, 256), ("chain3", 4, 166), ("mod3", 2, 3**9)])
    @pytest.mark.parametrize("option", ["--max-clone-size", "WORK_BUDGET"])
    @pytest.mark.parametrize("short", [1, 0])
    def test_cut_points_with_and_without_list(
        self, capsys, tmp_path, monkeypatch, name, n, size, option, short
    ):
        # one member short of the clone's size, the closure's own error,
        # with or without --list; at its size, the clone
        alg = getattr(catalog, name)()
        k = alg.carrier_size
        path = tmp_path / f"{name}.json"
        dump_algebra(alg, path)
        argv = ["clone", str(path), "--arity", str(n), "--json"]
        if option == "WORK_BUDGET":
            budget = size * k**n - short
            monkeypatch.setattr(algebra, "WORK_BUDGET", budget)
            message = f"the closure holds {size} members x {k}**{n} entries, budget is {budget}"
        else:
            argv += [option, str(size - short)]
            message = f"clone budget exceeded: more than {size - 1} members at arity {n}"
        start = time.perf_counter()
        alone = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        if short:
            assert alone == (1, "", f"error: {message}\n")
        else:
            assert alone == (0, json.dumps({"algebra": alg.name, "n": n, "size": size}, indent=2) + "\n", "")
        if name == "mod3" and not short:
            return  # listing all 3**9 members takes a closure of about 20 s
        code, out, err = run(capsys, *argv, "--list")
        if short:
            assert (code, out, err) == alone
        else:
            assert (code, json.loads(out)["size"], err) == (0, size, "")

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


class TestParserReuse:
    def test_built_once(self, capsys, monkeypatch, bu_path):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        # the first line is bound by the reader, whose table comes with the
        # parser; the second is argparse's error
        run(capsys, "ess", bu_path, T1)
        table = cli._parser.commands
        for argv in (["frobnicate"], ["cp", bu_path, T2, "--json"]):
            run(capsys, *argv)
        assert len(calls) == 1
        assert cli._parser.commands is table

    def test_same_as_a_fresh_parser(self, capsys, monkeypatch, bu_path):
        monkeypatch.setenv("COLUMNS", "80")
        sequence = [
            ["eval", bu_path, T1, "--arity", "x"],
            ["--help"],
            ["sep", "--help"],
            ["sep", bu_path, T2, "--set", "x1,x3"],
        ]
        monkeypatch.setattr(cli, "_parser", None)
        reused = [run(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]
        assert "invalid int value: 'x'" in reused[0][2]
        assert reused[1][1].startswith("usage: termalg")
        assert reused[3][1] == "{x1,x3} is separable\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ess", "{bu}", T1, "--json"],
            ["sep", "{bu}", T2, "--set", "1,3"],
            ["ess", "{bu}", T1, "--ar", "3"],
            ["sep", "--help"],
            ["frobnicate"],
            [],
        ],
    )
    def test_list_tuple_and_sys_argv_alike(self, capsys, monkeypatch, bu_path, argv):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [a.format(bu=bu_path) for a in argv]
        outcomes = [run(capsys, *argv)]
        outcomes.append((main(tuple(argv)), *capsys.readouterr()))
        monkeypatch.setattr(sys, "argv", ["termalg", *argv])
        outcomes.append((main(), *capsys.readouterr()))
        assert outcomes[1:] == outcomes[:1] * 2


# Each command's number of positionals and its options, each mapped to the
# type of its value or to None for a flag. Command lines are drawn in their
# canonical form from these, then mutated towards the forms the reader
# must leave to argparse.
_WORDS = ["bool2.json", "x1", T1, "1,2", "x1,x3", "1,2,3", "", "-", "--", "-x1", "--json", "é", "x²"]
_INTEGERS = ["0", "3", "12", "-3", "+3", " 3", "3_0", "\u0663", "\uff13", "x", "", "1e3"]
_INTEGER_OPTIONS = {"--arity", "--max-clone-size"}
_VALUE_OPTIONS = _INTEGER_OPTIONS | {"--set", "--measures"}
_COMMANDS = {
    "alg-check": (1, {"--json": None}),
    "eval": (2, {"--arity": int, "--json": None}),
    "ess": (2, {"--arity": int, "--json": None}),
    "sep": (2, {"--arity": int, "--json": None, "--set": str}),
    "subterm": (3, {"--arity": int, "--json": None}),
    "identity": (3, {"--arity": int, "--json": None}),
    "cp": (2, {"--arity": int, "--json": None, "--measures": str}),
    "census": (1, {"--arity": int, "--json": None, "--max-clone-size": int}),
    "clone": (1, {"--arity": int, "--json": None, "--list": None, "--max-clone-size": int}),
}


@st.composite
def _canonical(draw):
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    count, options = _COMMANDS[name]
    words = st.one_of(st.sampled_from(_WORDS), st.text(max_size=4)).filter(
        lambda word: not word.startswith("-")
    )
    argv = [name] + [draw(words) for _ in range(count)]
    for option, kind in options.items():
        if option == "--arity" and name in ("census", "clone") or draw(st.booleans()):
            argv.append(option)
            if kind is int:
                argv.append(draw(st.sampled_from(["0", "2", "3", "12"])))
            elif kind is str:
                argv.append(draw(st.sampled_from(["1,2", "x1,x3", "1,2,3"])))
    return argv


_MUTATIONS = [
    "abbreviate", "equals", "repeat", "help", "dashes", "value", "drop", "extra", "before",
    "command",
]


@st.composite
def _mutated(draw):
    argv = draw(_canonical())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(argv)))  # a place to insert at
        kind = draw(st.sampled_from(_MUTATIONS)) if argv else "extra"
        i = min(at, len(argv) - 1)  # a token to change
        token = argv[i] if argv else ""
        if kind == "abbreviate" and token.startswith("--") and len(token) > 3:
            argv[i] = token[: draw(st.integers(3, len(token) - 1))]
        elif kind == "equals" and token.startswith("--") and i + 1 < len(argv):
            argv[i : i + 2] = [f"{token}={argv[i + 1]}"]
        elif kind == "repeat":
            argv[i:i] = argv[i : i + 2]  # an option again, with its value
        elif kind == "help":
            argv.insert(at, draw(st.sampled_from(["-h", "--help"])))
        elif kind == "dashes":
            argv.insert(at, "--")
        elif kind == "value":
            # the value of an option, else any token
            after = [j + 1 for j, t in enumerate(argv[:-1]) if t in _VALUE_OPTIONS]
            j = draw(st.sampled_from(after)) if after else i
            integer = argv[j - 1] in _INTEGER_OPTIONS
            dashed = st.sampled_from([w for w in _WORDS + _INTEGERS if w.startswith("-")])
            others = st.sampled_from(_INTEGERS + _WORDS if integer else _WORDS)
            argv[j] = draw(st.one_of(dashed, others))
        elif kind == "drop":
            del argv[i]
        elif kind == "extra":
            argv.insert(at, draw(st.sampled_from(_WORDS)))
        elif kind == "before" and token.startswith("-"):
            argv.insert(0, argv.pop(i))
        elif kind == "command":
            argv[0] = draw(st.sampled_from(["es", "ESS", "clones", "", "--json", *_COMMANDS]))
    return argv


def _parsed(argv):
    """What argparse makes of the line: its Namespace, or its exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return f"exit {exc.code}"


class TestReader:
    @given(_mutated())
    @settings(max_examples=400, deadline=None)
    def test_none_or_what_argparse_returns(self, argv):
        bound = cli._read(argv)
        assert bound is None or bound == _parsed(argv)

    @given(_canonical())
    @settings(max_examples=100, deadline=None)
    def test_binds_every_canonical_line(self, argv):
        assert cli._read(argv) == _parsed(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["es", "f", T1],
            ["--json", "ess", "f", T1],
            ["ess", "f", T1, "--ar", "3"],
            ["ess", "f", T1, "--arity=3"],
            ["ess", "f", T1, "--json", "--json"],
            ["ess", "f", T1, "--arity", "3", "--arity", "3"],
            ["ess", "f", T1, "-h"],
            ["ess", "--help"],
            ["ess", "f", "--", T1],
            ["ess", "f", "--"],
            ["ess", "f", T1, "--arity", "-3"],
            ["ess", "f", T1, "--arity", "x"],
            ["ess", "f", T1, "--arity"],
            ["sep", "f", T1, "--set", "-x1"],
            ["sep", "f", T1, "--set", "--json"],
            ["sep", "f", T1, "--set", "-"],
            ["ess", "f"],
            ["ess", "f", T1, "x2"],
            ["ess", "f", "-", T1],
            ["census", "f", "--json"],
        ],
    )
    def test_leaves_to_argparse(self, argv):
        assert cli._read(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["alg-check", "{bu}"],
            ["alg-check", "{bu}", "--json"],
            ["eval", "{bu}", T1, "--arity", "4", "--json"],
            ["eval", "{bu}", "+(x1,", "--arity", "3"],
            ["ess", "--json", "{bu}", T1],
            ["ess", "{bu}", T1, "--arity", "2"],
            ["sep", "{bu}", T2],
            ["sep", "{bu}", T2, "--set", "x1,x3", "--json"],
            ["sep", "{bu}", T2, "--set", "x\u00b2"],
            ["subterm", "{bu}", "*(x1,x2)", T1, "--json"],
            ["identity", "{bu}", "+(x1,x2)", "+(x2,x1)", "--arity", "2"],
            ["cp", "{bu}", T2, "--measures", "3", "--json"],
            ["cp", "{bu}", T2, "--measures", "4"],
            ["census", "{bu}", "--arity", "2", "--json"],
            ["census", "{bu}", "--arity", "1", "--max-clone-size", "3"],
            ["clone", "{bu}", "--arity", "1", "--list", "--json"],
            ["clone", "{bu}", "--list", "--arity", "2"],
            ["ess", "{missing}", T1],
        ],
    )
    def test_same_output_as_argparse(self, capsys, monkeypatch, bu_path, tmp_path, argv):
        argv = [a.format(bu=bu_path, missing=tmp_path / "missing.json") for a in argv]
        assert cli._read(argv) is not None
        bound = run(capsys, *argv)
        monkeypatch.setattr(cli, "_read", lambda argv: None)
        assert run(capsys, *argv) == bound


class TestMixedCarrier:
    def test_three_element_algebra(self, capsys, tmp_path):
        path = tmp_path / "mod3.json"
        dump_algebra(catalog.mod3(), path)
        code, out, _ = run(capsys, "ess", str(path), "min(x1,succ(x2))", "--json")
        assert code == 0
        assert json.loads(out)["essential"] == [1, 2]


# The term commands at the command-line boundary: terms from a small
# grammar over bool2 and mod3, some mutated (nested 5,000 levels deep, an
# unknown symbol, x0, a 5,000-digit number, cut short), with context
# arities and index sets that are often out of range.
_FUZZ_ALGEBRAS = {"bool2": catalog.bool2(), "mod3": catalog.mod3()}
_FUZZ_COMMANDS = {"eval": 1, "ess": 1, "sep": 1, "subterm": 2, "identity": 2, "cp": 1}


@st.composite
def _fuzz_term(draw, alg):
    sig = alg.signature()
    leaf = st.one_of(
        st.integers(1, 4).map("x{}".format),
        st.integers(0, alg.carrier_size).map("#{}".format),  # the last is outside
    )

    def applications(sub):
        return st.one_of(
            st.lists(sub, min_size=r, max_size=r).map(lambda args, s=s: f"{s}({','.join(args)})")
            for s, r in sig.items()
        )

    text = draw(st.recursive(leaf, applications, max_leaves=6))
    unary = min(s for s, r in sig.items() if r == 1)
    binary = min(s for s, r in sig.items() if r == 2)
    mutation = draw(st.sampled_from(["none", "nest", "unknown", "x0", "digits", "cut"]))
    if mutation == "nest":
        depth = draw(st.sampled_from([2, 300, 5000]))
        text = f"{unary}(" * depth + text + ")" * depth
    elif mutation == "unknown":
        text = f"zz({text})"
    elif mutation == "x0":
        text = f"{binary}({text},x0)"
    elif mutation == "digits":
        text = f"{binary}({text},{draw(st.sampled_from('x#'))}{'9' * 5000})"
    elif mutation == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def _term_command(draw, paths):
    name = draw(st.sampled_from(sorted(_FUZZ_ALGEBRAS)))
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv = [command, paths[name]]
    argv += [draw(_fuzz_term(_FUZZ_ALGEBRAS[name])) for _ in range(_FUZZ_COMMANDS[command])]
    if draw(st.booleans()):
        arities = ["-7", "-1", "0", "1", "2", "3", "4", "5", "30", "1000000", "9" * 5000]
        argv += ["--arity", draw(st.sampled_from(arities))]
    if command == "sep" and draw(st.booleans()):
        sets = ["1", "2", "1,2", "x1,x3", "4", "0", "1,1", "x0", "a", "", "x²", "9" * 5000]
        argv += ["--set", draw(st.sampled_from(sets))]
    if command == "cp" and draw(st.booleans()):
        argv += ["--measures", draw(st.sampled_from(["1", "2,3", "3", "4", ""]))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestTermCommandBoundary:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("algebras")
        for name, alg in _FUZZ_ALGEBRAS.items():
            dump_algebra(alg, folder / f"{name}.json")
        return {name: str(folder / f"{name}.json") for name in _FUZZ_ALGEBRAS}

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_exit_0_1_or_2(self, paths, data):
        _assert_exit_0_1_or_2(data.draw(_term_command(paths)))


def _assert_exit_0_1_or_2(argv):
    """`main(argv)` ends within 5 s: exit 0 with output; exit 1 with one
    `error:` line, not Python's own message for a long number, and no
    output; or exit 2 with no output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and not err
    elif code == 1:
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "set_int_max_str_digits" not in err
    else:
        assert code == 2 and not out


# The algebra documents at the command-line boundary: a valid description
# over at most 3 elements, mostly mutated (a field or table entry of the
# wrong type, a bool, a float, a huge int, deep nesting; an empty,
# duplicate or variable-like symbol; a short or long table; a huge arity;
# a missing field; an empty document), under alg-check, eval, census and
# clone, with negative, huge and non-numeric --max-clone-size values. The
# clone arity is at most 2, and 1 over 3 elements, which keeps out
# closures known to be unbounded (ROADMAP item 5).
_RAW = "raw JSON"  # replaced by one of _RAW_TEXTS in the written text
_RAW_TEXTS = ["9" * 5000, "-" + "9" * 5000, "[" * 50 + "]" * 50, "[" * 3000 + "]" * 3000]
_WRONG = [
    None, "", "2", [], [2], {}, {"a": 1}, True, False, 2.0, 1.5, float("nan"),
    float("inf"), 0, -1, 10**7, 2**70, -(10**30), _RAW,
]
_SYMBOLS = ["", "x1", "x0", "x", "x01", "x\u00b2", "#0", "#", "f(", ",", " ", "f g", "\u00e9", "f"]
_EMPTY = ["", "{}", "[]", "null", '{"name": "", "carrier": 1, "operations": []}']
_MAX_CLONE_SIZES = [
    "-1", "-0", "0", "1", "2", "5", "1000000", "1" + "0" * 30, "9" * 5000,
    "abc", "1.5", "", "0x10",
]


@st.composite
def _algebra_text(draw):
    """(text, carrier size, term) of a description over at most 3
    elements, often mutated; the size and the term are the valid one's."""
    k = draw(st.integers(1, 3))
    ops = []
    for symbol in draw(st.lists(st.sampled_from(["f", "g", "+", "neg"]), max_size=2, unique=True)):
        arity = draw(st.integers(1, 3))
        table = draw(st.lists(st.integers(0, k - 1), min_size=k**arity, max_size=k**arity))
        ops.append({"symbol": symbol, "arity": arity, "table": table})
    doc = {"name": "fuzz", "carrier": k, "operations": ops}
    # a term in the first operation, as the valid description reads it
    term = f"{ops[0]['symbol']}({','.join(['x1'] * ops[0]['arity'])})" if ops else "x1"
    mutation = draw(st.sampled_from(["none", "value", "symbol", "length", "missing", "empty"]))
    if mutation == "value":
        fields = [(doc, key) for key in doc] + [(op, key) for op in ops for key in op]
        entries = [(op["table"], j) for op in ops for j in range(len(op["table"]))]
        holder, key = draw(st.sampled_from(fields + entries))
        holder[key] = draw(st.sampled_from(_WRONG))
    elif mutation == "symbol" and ops:
        ops[-1]["symbol"] = draw(st.sampled_from(_SYMBOLS + [ops[0]["symbol"]]))
    elif mutation == "length" and ops:
        op = draw(st.sampled_from(ops))
        if draw(st.booleans()):
            op["arity"] += draw(st.sampled_from([-1, 1, 10**7, 2**64]))
        else:
            op["table"] = op["table"][:-1] if draw(st.booleans()) else op["table"] + [0]
    elif mutation == "missing":
        holder = draw(st.sampled_from([doc] + ops))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif mutation == "empty":
        return draw(st.sampled_from(_EMPTY)), k, term
    text = json.dumps(doc).replace(json.dumps(_RAW), draw(st.sampled_from(_RAW_TEXTS)))
    return text, k, term


@st.composite
def _document_command(draw, path):
    """A description's text and a command line that reads it from `path`."""
    text, k, term = draw(_algebra_text())
    command = draw(st.sampled_from(["alg-check", "eval", "census", "clone"]))
    argv = [command, path]
    if command == "eval":
        argv.append(draw(st.sampled_from([term, "x1"])))
    elif command in ("census", "clone"):
        argv += ["--arity", str(draw(st.integers(0, 2 if k < 3 else 1)))]
        if draw(st.booleans()):
            argv += ["--max-clone-size", draw(st.sampled_from(_MAX_CLONE_SIZES))]
        if command == "clone" and draw(st.booleans()):
            argv.append("--list")
    if draw(st.booleans()):
        argv.append("--json")
    return text, argv


class TestDocumentBoundary:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("documents") / "algebra.json")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_exit_0_1_or_2(self, path, data):
        text, argv = data.draw(_document_command(path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_exit_0_1_or_2(argv)
