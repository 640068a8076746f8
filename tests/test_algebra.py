"""Algebra validation, induced operations, and algebra constructions."""

import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termalg import (
    AlgebraError,
    BudgetError,
    Evaluation,
    FiniteAlgebra,
    FunctionTable,
    Operation,
    TermError,
    catalog,
    constant_table,
    direct_power,
    dumps_algebra,
    induced_operation,
    load_algebra,
    parse,
    projection_table,
    restrict_table,
    subalgebra,
    transport_algebra,
    validate_algebra,
)
from termalg import algebra, kernels
from termalg.algebra import dump_algebra
from termalg.terms import Apply, Constant, Variable, apply_evaluation

import oracle
from helpers import random_term, wide_lane_algebras

T1 = "+(*(x1,x2),x3)"
T2 = "+(*(x1,x3),*(x2,neg(x3)))"


class TestValidation:
    def test_bool2_description_is_valid(self):
        alg = validate_algebra(
            {
                "name": "bool2",
                "carrier": 2,
                "operations": [
                    {"symbol": "+", "arity": 2, "table": [0, 1, 1, 0]},
                    {"symbol": "*", "arity": 2, "table": [0, 0, 0, 1]},
                    {"symbol": "neg", "arity": 1, "table": [1, 0]},
                ],
            }
        )
        assert alg == catalog.bool2()

    def test_table_length_mismatch_names_symbol(self):
        with pytest.raises(AlgebraError, match=r"'\+'.*length 3.*expected k\^2 = 4"):
            validate_algebra(
                {
                    "name": "bad",
                    "carrier": 2,
                    "operations": [{"symbol": "+", "arity": 2, "table": [0, 1, 1]}],
                }
            )

    def test_out_of_range_entry_reports_position(self):
        with pytest.raises(AlgebraError, match=r"'f'.*entry 2.*position 1"):
            FiniteAlgebra("bad", 2, (Operation("f", 1, (0, 2)),))

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(AlgebraError, match="duplicate"):
            FiniteAlgebra(
                "bad", 2, (Operation("f", 1, (0, 1)), Operation("f", 1, (1, 0)))
            )

    def test_degenerate_single_element_carrier_accepted(self):
        alg = FiniteAlgebra("one", 1, (Operation("f", 2, (0,)),))
        assert alg.carrier_size == 1

    def test_missing_field_rejected(self):
        with pytest.raises(AlgebraError, match="missing field"):
            validate_algebra({"name": "x", "carrier": 2})

    def test_zero_arity_rejected(self):
        with pytest.raises(AlgebraError, match="arity"):
            FiniteAlgebra("bad", 2, (Operation("c", 0, (0,)),))

    def test_operations_not_a_list_named(self):
        with pytest.raises(AlgebraError, match="field 'operations' must be a list"):
            validate_algebra({"name": "a", "carrier": 2, "operations": 5})

    def test_table_not_a_list_named(self):
        with pytest.raises(AlgebraError, match=r"'f' \(index 0\): field 'table' must be a list"):
            validate_algebra(
                {
                    "name": "a",
                    "carrier": 2,
                    "operations": [{"symbol": "f", "arity": 1, "table": 5}],
                }
            )

    @pytest.mark.parametrize(
        "table, shown, position", [([True, 0], "True", 0), ([1, False], "False", 1)]
    )
    def test_bool_entries_rejected(self, tmp_path, table, shown, position):
        # json reads true as True, which equals 1 but dumps back as true
        message = (
            f"operation 'neg' (index 1): entry {shown} at table position {position} "
            "must be an integer"
        )
        ops = [
            {"symbol": "f", "arity": 1, "table": [0, 1]},
            {"symbol": "neg", "arity": 1, "table": table},
        ]
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"name": "a", "carrier": 2, "operations": ops}))
        with pytest.raises(AlgebraError, match=re.escape(message) + "$"):
            load_algebra(path)
        with pytest.raises(AlgebraError, match=re.escape(message) + "$"):
            FiniteAlgebra("a", 2, [(op["symbol"], 1, op["table"]) for op in ops])

    @pytest.mark.parametrize(
        "symbol, token",
        [
            ("x1", "variable"),
            ("x0", "variable"),
            ("x12", "variable"),
            ("#", "constant"),
            ("#f", "constant"),
            # no term names these: terms.parse reads none of them as one symbol
            ("f(", None),
            (",", None),
            ("f g", None),
            ("->", None),
            (" ", None),
            ("a\nb", None),
            ("\x07", None),
            ("f#", None),
            ('"+"', None),
            ("*\\", None),
        ],
    )
    def test_symbol_read_as_variable_or_constant_rejected(self, symbol, token):
        reads = f"reads as a {token}" if token else "does not read as a symbol"
        message = f"operation entry 1: field 'symbol' {symbol!r} {reads} in terms"
        doc = {
            "name": "a",
            "carrier": 2,
            "operations": [
                {"symbol": "f", "arity": 1, "table": [0, 1]},
                {"symbol": symbol, "arity": 1, "table": [1, 0]},
            ],
        }
        with pytest.raises(AlgebraError, match=re.escape(message) + "$"):
            validate_algebra(doc)
        # an algebra built in code takes any symbol
        assert FiniteAlgebra("a", 2, [(op["symbol"], 1, op["table"]) for op in doc["operations"]])

    @pytest.mark.parametrize("symbol", ["x", "x1a", "xy", "y1", "_", "\u00ac"])
    def test_symbols_the_parser_reads_as_symbols_accepted(self, symbol):
        op = {"symbol": symbol, "arity": 1, "table": [1, 0]}
        alg = validate_algebra({"name": "a", "carrier": 2, "operations": [op]})
        assert alg.operations[0].symbol == symbol
        assert parse(f"{symbol}(x1)", alg) == Apply(symbol, (Variable(1),))


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path, bu, chain3):
        for alg in (bu, chain3):
            text = dumps_algebra(alg)
            path = tmp_path / f"{alg.name}.json"
            path.write_text(text)
            again = load_algebra(path)
            assert again == alg
            assert dumps_algebra(again) == text

    def test_dump_load_file(self, tmp_path, mod3):
        path = tmp_path / "mod3.json"
        dump_algebra(mod3, path)
        assert load_algebra(path) == mod3

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AlgebraError, match="invalid JSON"):
            load_algebra(path)

    def test_deep_nesting_is_an_algebra_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        message = re.escape(f"{path}: JSON nested too deeply to read") + "$"
        with pytest.raises(AlgebraError, match=message):
            load_algebra(path)

    @pytest.mark.parametrize("number", ["9" * 5000, "-" + "9" * 5000])
    def test_number_too_long_is_an_algebra_error(self, tmp_path, number):
        path = tmp_path / "long.json"
        path.write_text(f'{{"name": "a", "carrier": {number}, "operations": []}}')
        message = re.escape(f"{path}: JSON number too long to read") + "$"
        with pytest.raises(AlgebraError, match=message):
            load_algebra(path)

    def test_text_is_json_indented_document(self):
        algebras = [getattr(catalog, name)() for name in catalog.__all__]
        for alg in algebras + list(wide_lane_algebras()):
            doc = {
                "name": alg.name,
                "carrier": alg.carrier_size,
                "operations": [
                    {"symbol": op.symbol, "arity": op.arity, "table": list(op.table)}
                    for op in alg.operations
                ],
            }
            assert dumps_algebra(alg) == json.dumps(doc, indent=2) + "\n"


_TEXT = st.text(st.sampled_from('ab"\\/\ud800\x00\x1f\n\t\x7f\xe9\u2028\U0001f600'))
_SCALARS = (
    _TEXT
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False)
)
_DOCS = st.recursive(
    _SCALARS,
    lambda sub: st.lists(sub, max_size=4)
    | st.lists(sub, max_size=4).map(tuple)
    | st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=4)
    | st.dictionaries(_TEXT, sub, max_size=4),
    max_leaves=20,
)


# bytes, which _dumps writes as the list of their values, among int lists
# and dicts; json.dumps is given each bytes value as that list
_BYTES_DOCS = st.recursive(
    st.binary(max_size=6)
    | st.binary(max_size=6).map(lambda b: bytes(x % 10 for x in b))
    | st.lists(st.integers(-20, 20) | st.booleans(), max_size=4),
    lambda sub: st.dictionaries(_TEXT, sub, max_size=3),
    max_leaves=8,
)


def _as_lists(doc):
    if isinstance(doc, bytes):
        return list(doc)
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    return doc


class TestDumps:
    """algebra._dumps writes every indented JSON document of the package."""

    @settings(max_examples=300, deadline=None)
    @given(_BYTES_DOCS)
    def test_bytes_are_written_as_lists(self, doc):
        assert algebra._dumps(doc) == json.dumps(_as_lists(doc), indent=2)

    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_equals_json_dumps_indent_2(self, doc):
        assert algebra._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            (),
            [[], {}, ()],
            {"a": (1, (2,)), "b": [True, False, None, 1.5, float("inf")]},
            [1, True, 0, False],
            "\u00e9\x00\"\\",
            # the documents of cp and sep, with no set (arity 0), no
            # separable set, and sets
            {"term": "#1", "arity": 0, "cp1": 0, "cp2": 0, "cp3": {"total": 0, "per_set": []}},
            {"term": "#1", "arity": 0, "separable_sets": []},
            {"term": "+(x1,x1)", "arity": 1, "separable_sets": []},
            {
                "term": "*(x1,x2)",
                "arity": 2,
                "cp3": {
                    "total": 3,
                    "per_set": [
                        {"vars": [1], "count": 1},
                        {"vars": [1, 2], "count": 1},
                        {"vars": [2], "count": 1},
                    ],
                },
            },
            {"term": "*(x1,x2)", "arity": 2, "separable_sets": [[1], [1, 2], [2]]},
        ],
    )
    def test_edge_cases(self, doc):
        assert algebra._dumps(doc) == json.dumps(doc, indent=2)

    def test_unserializable_raises_as_json_does(self):
        doc = {"a": [1, {2}]}
        with pytest.raises(TypeError) as ours:
            algebra._dumps(doc)
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, indent=2)
        assert str(ours.value) == str(theirs.value)


class TestInducedOperation:
    def test_variable_is_projection(self, bu):
        table = induced_operation(parse("x1", bu), bu, 2)
        assert table.values == (0, 0, 1, 1)

    def test_t1_table(self, bu):
        table = induced_operation(parse(T1, bu), bu, 3)
        assert table.values == (0, 1, 0, 1, 0, 1, 1, 0)

    def test_t2_table(self, bu):
        table = induced_operation(parse(T2, bu), bu, 3)
        assert table.values == (0, 0, 1, 0, 0, 1, 1, 1)

    def test_constant_polynomial(self, bu):
        table = induced_operation(parse("#1", bu), bu, 2)
        assert table.values == (1, 1, 1, 1)

    def test_variable_beyond_arity_rejected(self, bu):
        with pytest.raises(TermError, match="x3 exceeds context arity 2"):
            induced_operation(parse("x3", bu), bu, 2)

    def test_unknown_symbol_rejected(self, bu, sl):
        term = parse("neg(x1)", bu)
        with pytest.raises(TermError, match="unknown operation symbol 'neg'"):
            induced_operation(term, sl, 1)

    def test_matches_direct_recursive_interpretation(self, bu, chain3, mod3):
        rng = random.Random(11)
        sum7, succ257 = wide_lane_algebras()
        unit = FiniteAlgebra("unit", 1, (Operation("f", 2, (0,)),))
        cases = [(bu, 3), (chain3, 3), (mod3, 3), (sum7, 3), (succ257, 1), (unit, 3)]
        cases += [(bu, 0), (mod3, 0)]
        for alg, n in cases:
            ops = oracle.ops_of(alg)
            for _ in range(60):
                # polynomials: a fifth of the leaves are constants, all at n=0
                term = random_term(rng, alg, max(n, 1), 3, p_const=0.2 if n else 1.0)
                got = induced_operation(term, alg, n)
                expected = oracle.table_of(term, ops, alg.carrier_size, n)
                assert got.values == expected
                # sum7 and succ257 tabulate in lanes wider than their values
                assert got == FunctionTable(n, alg.carrier_size, expected)
                assert hash(got) == hash(FunctionTable(n, alg.carrier_size, expected))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        arities=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        n=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
        polynomial=st.booleans(),
    )
    def test_two_element_algebras_match_oracle(self, data, arities, n, seed, polynomial):
        # over {0, 1} most operations of arity up to 3 compose by their
        # algebraic normal form, and most of arity 4 exceed the cutoff
        ops = tuple(
            Operation(
                f"f{i}",
                a,
                data.draw(st.tuples(*[st.integers(0, 1)] * 2**a), label=f"f{i}"),
            )
            for i, a in enumerate(arities)
        )
        alg = FiniteAlgebra("random2", 2, ops)
        rng = random.Random(seed)
        p_const = 1.0 if n == 0 else 0.3 if polynomial else 0.0
        for _ in range(5):
            term = random_term(rng, alg, max(n, 1), 4, p_const)
            expected = oracle.table_of(term, oracle.ops_of(alg), 2, n)
            assert induced_operation(term, alg, n).values == expected

    def test_mixed_normal_form_and_lookup(self):
        # xor composes by its form (two monomials), the 4-ary nor by the
        # lookup: its form (1 + a)(1 + b)(1 + c)(1 + d) has 16 monomials
        xor = Operation("+", 2, (0, 1, 1, 0))
        nor = Operation("nor", 4, (1,) + (0,) * 15)
        alg = FiniteAlgebra("mixed", 2, (xor, nor))
        assert xor.anf is not None and nor.anf is None
        ops = oracle.ops_of(alg)
        texts = ["#0", "#1", "+(#1,#1)", "nor(#0,#0,#0,#1)", "+(nor(#0,#0,#0,#0),#1)"]
        for n in (0, 1, 2, 3):
            if n:
                texts += [
                    f"x{n}",
                    "+(x1,#1)",
                    f"nor(x1,+(x{n},#1),#0,x1)",
                    f"+(nor(x{n},x1,+(x1,x{n}),#0),nor(#1,x1,x1,x1))",
                ]
            for text in texts:
                term = parse(text, alg)
                assert induced_operation(term, alg, n).values == oracle.table_of(term, ops, 2, n)

    def test_lookup_tables_built_once_per_operation(self, monkeypatch):
        # over three elements every application maps through its
        # operation's translate table, built on first use and kept by
        # the Operation; kernels.lookup, which builds one per call, is
        # left to the clone closure
        built = []
        translation, lookup = kernels.translation, kernels.lookup
        monkeypatch.setattr(kernels, "translation", lambda t: built.append(t) or translation(t))
        monkeypatch.setattr(kernels, "lookup", lambda *a: built.append(a) or lookup(*a))
        alg = catalog.mod3()
        term = parse("max(succ(min(x1,succ(x2))),min(succ(x3),max(x1,succ(succ(x2)))))", alg)
        expected = oracle.table_of(term, oracle.ops_of(alg), 3, 3)
        assert induced_operation(term, alg, 3).values == expected
        assert sorted(built) == sorted(op.table for op in alg.operations)
        assert induced_operation(term, alg, 3).values == expected
        assert len(built) == 3

    @pytest.mark.parametrize(
        "term, message",
        [
            # depth first, each node's own checks before its children's
            (Apply("q", (Variable(9), Constant(5))), "unknown operation symbol 'q'"),
            (Apply("+", (Variable(9),)), "'+' expects 2 argument(s), got 1"),
            (Apply("neg", (Apply("q", ()), Variable(9))), "'neg' expects 1 argument(s), got 2"),
            (Apply("+", (Variable(9), Constant(5))), "variable x9 exceeds context arity 2"),
            (Apply("+", (Constant(5), Variable(9))), "constant #5 outside carrier 0..1"),
            (
                Apply("*", (Apply("neg", (Variable(1),)), Apply("+", (Constant(2), Apply("q", ()))))),
                "constant #2 outside carrier 0..1",
            ),
            (Apply("*", (Variable(2), Apply("neg", (Apply("q", ()),)))), "unknown operation symbol 'q'"),
            (Apply("+", (Variable(9), Apply("neg", (Apply("q", ()),)))), "variable x9 exceeds context arity 2"),
            (Apply("+", (Variable(1), "x1")), "not a term node: 'x1'"),
        ],
    )
    def test_term_errors_in_walk_order(self, bu, term, message):
        with pytest.raises(TermError, match=re.escape(message) + "$"):
            induced_operation(term, bu, 2)

    def test_table_budget(self, bu, mod3, monkeypatch):
        x1 = parse("x1", bu)
        with pytest.raises(BudgetError, match=r"needs 2\*\*26 entries, budget is 1000000$"):
            induced_operation(x1, bu, 26)
        with pytest.raises(BudgetError, match=r"needs 3\*\*14 entries, budget is 1000000$"):
            induced_operation(x1, mod3, 14)
        with pytest.raises(BudgetError, match=r"2\*\*1000000000000 entries"):
            induced_operation(x1, bu, 10**12)
        monkeypatch.setattr(algebra, "TABLE_BUDGET", 9)
        assert len(induced_operation(x1, mod3, 2).values) == 9
        monkeypatch.setattr(algebra, "TABLE_BUDGET", 8)
        with pytest.raises(BudgetError, match=r"3\*\*2 entries, budget is 8$"):
            induced_operation(x1, mod3, 2)
        # one element: every arity has a single entry
        unit = FiniteAlgebra("unit", 1, (Operation("f", 1, (0,)),))
        assert induced_operation(x1, unit, 50).values == (0,)

    # `ones` and the projections of a table shape are kept across
    # tabulations, within algebra._SHAPE_BYTES lane bytes

    @pytest.fixture
    def cold(self, monkeypatch):
        monkeypatch.setattr(algebra, "_shapes", {})
        monkeypatch.setattr(algebra, "_shape_bytes", 0)

    @staticmethod
    def every_leaf(symbol, n):
        """symbol(#0,symbol(x1,...symbol(x(n-1),xn))): `ones` and every
        projection of the shape; #0 at n = 0."""
        leaves = ["#0"] + [f"x{i}" for i in range(1, n + 1)]
        text = leaves.pop()
        for leaf in reversed(leaves):
            text = f"{symbol}({leaf},{text})"
        return text

    def test_cold_and_warm_shapes_agree(self, cold, bu, mod3):
        # two-byte lanes: 17**2 operation-table indices; a unary
        # operation on 17 elements keeps one-byte lanes
        table = tuple((a + b) % 17 for a in range(17) for b in range(17))
        add17 = FiniteAlgebra("add17", 17, (Operation("+", 2, table),))
        inc17 = FiniteAlgebra("inc17", 17, (Operation("s", 1, (*range(1, 17), 0)),))
        rng = random.Random(27)
        # shapes interleaved; mod3 and add17 at n = 12 are beyond the
        # oracle's reach and the table budget, so they take n = 4 and 3
        shapes = [(bu, 12), (mod3, 0), (add17, 1), (bu, 0), (mod3, 4), (add17, 3), (bu, 1)]
        shapes += [(inc17, 3), (mod3, 1), (add17, 0), (inc17, 1)]
        cases = []
        for alg, n in shapes * 3:
            term = random_term(rng, alg, max(n, 1), 4, p_const=0.2 if n else 1.0)
            expected = oracle.table_of(term, oracle.ops_of(alg), alg.carrier_size, n)
            cases.append((alg, n, term, expected))
        for alg, n, term, expected in cases:
            algebra._shapes.clear()
            algebra._shape_bytes = 0
            assert induced_operation(term, alg, n).values == expected
        algebra._shapes.clear()
        algebra._shape_bytes = 0
        for alg, n, term, expected in cases * 2:
            assert induced_operation(term, alg, n).values == expected
        assert len(algebra._shapes) == len(shapes)
        assert {(2, 12, 1), (17, 3, 2), (17, 3, 1)} <= set(algebra._shapes)

    def test_errors_on_a_warm_shape(self, cold, bu):
        induced_operation(parse("+(x1,x2)", bu), bu, 2)
        assert list(algebra._shapes) == [(2, 2, 1)]
        with pytest.raises(TermError, match="^variable x3 exceeds context arity 2$"):
            induced_operation(parse("+(x1,x3)", bu), bu, 2)
        with pytest.raises(TermError, match="^unknown operation symbol 'q'$"):
            induced_operation(Apply("+", (Variable(1), Apply("q", (Variable(2),)))), bu, 2)
        assert induced_operation(parse("+(x2,x1)", bu), bu, 2).values == (0, 1, 1, 0)

    def test_shape_over_the_bound_is_not_kept(self, cold, bu):
        # the smallest two-element shape whose constants exceed the
        # bound; it is within the table budget
        n = next(n for n in range(30) if (n + 1) * 2**n > algebra._SHAPE_BYTES)
        assert 2**n <= algebra.TABLE_BUDGET
        induced_operation(parse("x1", bu), bu, 3)
        kept = {key: (ones, dict(proj)) for key, (ones, proj) in algebra._shapes.items()}
        table = induced_operation(parse(self.every_leaf("+", n), bu), bu, n)
        # the xor of every variable: 1 on the odd-weight half of the tuples
        assert table.values[:4] == (0, 1, 1, 0) and sum(table.values) == 2 ** (n - 1)
        assert algebra._shapes == kept and algebra._shape_bytes == 4 * 8

    def test_sweep_stays_within_the_bound(self, cold, bu, chain3):
        need = 0
        for alg, symbol in ((bu, "+"), (chain3, "max")):
            k = alg.carrier_size
            n = 0
            while (n + 1) * k**n <= algebra._SHAPE_BYTES:
                induced_operation(parse(self.every_leaf(symbol, n), alg), alg, n)
                need += (n + 1) * k**n
                assert algebra._shape_bytes <= algebra._SHAPE_BYTES
                # lane bytes held, each integer's top zero lanes aside
                held = [i for ones, proj in algebra._shapes.values() for i in (ones, *proj.values())]
                assert sum((i.bit_length() + 7) // 8 for i in held) <= algebra._shape_bytes
                n += 1
        # the sweep needed more than the bound, so the oldest shapes went
        assert need > algebra._SHAPE_BYTES
        assert (2, 0, 1) not in algebra._shapes and (3, 1, 1) in algebra._shapes
        assert algebra._shape_bytes == sum((n + 1) * k**n * w for k, n, w in algebra._shapes)



class TestRestrictTable:
    def test_example_t1_fixing_x3(self, bu):
        table = induced_operation(parse(T1, bu), bu, 3)
        restricted = restrict_table(table, Evaluation({3: 0}, 3))
        assert restricted.values == (0, 0, 0, 0, 0, 0, 1, 1)
        assert restricted.arity == 3

    def test_example_t2_fixing_x1(self, bu):
        table = induced_operation(parse(T2, bu), bu, 3)
        restricted = restrict_table(table, {1: 0})
        assert restricted.values == (0, 0, 1, 0, 0, 0, 1, 0)

    def test_empty_evaluation_is_identity(self, bu):
        table = induced_operation(parse(T1, bu), bu, 3)
        assert restrict_table(table, {}) == table

    def test_key_out_of_range_rejected(self, bu):
        table = induced_operation(parse("x1", bu), bu, 1)
        with pytest.raises(AlgebraError, match="x2 outside"):
            restrict_table(table, {2: 0})

    def test_value_out_of_range_rejected(self, bu):
        table = induced_operation(parse("x1", bu), bu, 1)
        with pytest.raises(AlgebraError, match="value 2"):
            restrict_table(table, {1: 2})

    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=3),
        arity=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, data, k, arity):
        values = data.draw(
            st.tuples(*([st.integers(0, k - 1)] * (k**arity))), label="values"
        )
        table = FunctionTable(arity, k, values)
        assigned = data.draw(
            st.dictionaries(st.integers(1, arity), st.integers(0, k - 1), max_size=arity),
            label="assigned",
        )
        once = restrict_table(table, assigned)
        assert restrict_table(once, assigned) == once

    def test_commutes_with_syntactic_substitution(self, bu, chain3):
        rng = random.Random(23)
        for alg in (bu, chain3):
            for _ in range(40):
                term = random_term(rng, alg, 3, 3, p_const=0.2)
                keys = sorted(rng.sample([1, 2, 3], rng.randrange(4)))
                assigned = {i: rng.randrange(alg.carrier_size) for i in keys}
                table = induced_operation(term, alg, 3)
                left = induced_operation(apply_evaluation(term, assigned), alg, 3)
                assert left == restrict_table(table, assigned)

    def test_restricted_positions_become_fictitious(self, bu):
        table = induced_operation(parse(T1, bu), bu, 3)
        restricted = restrict_table(table, {3: 1})
        from termalg import essential_vars

        assert 3 not in essential_vars(restricted)


class TestDirectPower:
    def test_power_one_keeps_tables(self, bu):
        power = direct_power(bu, 1)
        assert [op.table for op in power.operations] == [
            op.table for op in bu.operations
        ]
        assert power.carrier_size == 2

    def test_semilattice_square_is_coordinatewise_min(self, sl):
        power = direct_power(sl, 2)
        assert power.carrier_size == 4
        assert power.operations[0].table == (
            0, 0, 0, 0,
            0, 1, 0, 1,
            0, 0, 2, 2,
            0, 1, 2, 3,
        )

    def test_budget_exceeded(self, bu):
        with pytest.raises(BudgetError, match="budget"):
            direct_power(bu, 2, max_entries=10)

    def test_huge_exponent_is_refused_by_its_size(self):
        # the table would have 2**200000 entries, a number too long to print
        with pytest.raises(BudgetError) as err:
            direct_power(catalog.bool2(), 10**5)
        assert str(err.value) == (
            "direct power table for '+' needs 2**200000 entries, budget is 1000000"
        )
        # while exponent times k.bit_length() is at most 4096, the count is
        # written out
        with pytest.raises(BudgetError, match=f"needs {2**2048} entries"):
            direct_power(catalog.bool2(), 1024)
        with pytest.raises(BudgetError, match="needs 2\\*\\*2050 entries"):
            direct_power(catalog.bool2(), 1025)

    @pytest.mark.parametrize(
        "alg, m",
        [
            (FiniteAlgebra("bare", 2, ()), 64),
            (FiniteAlgebra("one", 1, (Operation("f", 2, (0,)),)), 10**7),
        ],
        ids=["no-operation", "one-element"],
    )
    def test_nothing_to_tabulate_returns_at_once(self, alg, m):
        start = time.perf_counter()
        power = direct_power(alg, m)
        assert time.perf_counter() - start < 1
        assert power.carrier_size == alg.carrier_size**m
        assert [op.table for op in power.operations] == [op.table for op in alg.operations]
        for small in (1, 2, 3):
            power = direct_power(alg, small)
            assert (
                power.carrier_size,
                [op.table for op in power.operations],
            ) == oracle.brute_direct_power(alg, small)

    def test_small_powers_against_the_definition(self, bu, sl, chain3):
        for alg, m in ((bu, 2), (bu, 3), (sl, 3), (chain3, 2)):
            power = direct_power(alg, m)
            assert (
                power.carrier_size,
                [op.table for op in power.operations],
            ) == oracle.brute_direct_power(alg, m)

    def test_diagonal_subalgebra_reproduces_the_algebra(self, bu, sl, chain3):
        for alg in (bu, sl, chain3):
            k = alg.carrier_size
            power = direct_power(alg, 2)
            diagonal = [a * k + a for a in range(k)]
            copy = subalgebra(power, diagonal)
            assert copy.carrier_size == k
            assert [op.table for op in copy.operations] == [
                op.table for op in alg.operations
            ]


class TestSubalgebra:
    def test_improper_subalgebra_is_identity(self, bu):
        sub = subalgebra(bu, {0, 1})
        assert [op.table for op in sub.operations] == [op.table for op in bu.operations]

    def test_chain_restriction_reindexes(self, chain3):
        sub = subalgebra(chain3, {0, 2})
        assert sub.carrier_size == 2
        assert sub.operations[0].table == (0, 0, 0, 1)
        assert sub.operations[1].table == (0, 1, 1, 1)

    def test_not_closed_reports_witness(self, bu):
        with pytest.raises(AlgebraError, match=r"not closed: \+\(1, 1\) = 0"):
            subalgebra(bu, {1})

    def test_empty_subset_rejected(self, bu):
        with pytest.raises(AlgebraError, match="nonempty"):
            subalgebra(bu, set())


class TestTransport:
    def test_identity_permutation(self, bu):
        moved = transport_algebra(bu, [0, 1])
        assert [op.table for op in moved.operations] == [
            op.table for op in bu.operations
        ]

    def test_swap_conjugates_tables(self, bu):
        moved = transport_algebra(bu, [1, 0])
        tables = {op.symbol: op.table for op in moved.operations}
        assert tables["+"] == (1, 0, 0, 1)
        assert tables["*"] == (0, 1, 1, 1)
        assert tables["neg"] == (1, 0)

    def test_transport_is_isomorphism(self, chain3):
        # phi(f(a,b)) == f~(phi(a), phi(b)) for every permutation and entry
        import itertools

        for phi in itertools.permutations(range(3)):
            moved = transport_algebra(chain3, list(phi))
            for op, moved_op in zip(chain3.operations, moved.operations):
                for args in itertools.product(range(3), repeat=op.arity):
                    image = tuple(phi[a] for a in args)
                    assert phi[op.apply(args, 3)] == moved_op.apply(image, 3)

    def test_non_permutation_rejected(self, bu):
        with pytest.raises(AlgebraError, match="not a permutation"):
            transport_algebra(bu, [0, 0])


class TestFunctionTableType:
    def test_call_evaluates(self, bu):
        table = induced_operation(parse(T1, bu), bu, 3)
        assert table(1, 1, 0) == 1
        assert table(1, 1, 1) == 0

    def test_projection_and_constant_builders(self):
        assert projection_table(1, 2, 2).values == (0, 0, 1, 1)
        assert projection_table(2, 2, 2).values == (0, 1, 0, 1)
        assert constant_table(1, 2, 2).values == (1, 1, 1, 1)

    def test_shape_validation(self):
        with pytest.raises(AlgebraError):
            FunctionTable(2, 2, (0, 1, 0))
        with pytest.raises(AlgebraError):
            FunctionTable(1, 2, (0, 2))
        # rejected before 3**(10**12) is computed
        with pytest.raises(AlgebraError, match=r"table length 0, expected 3\^1000000000000$"):
            FunctionTable(10**12, 3, ())

    def test_carrier_past_eight_byte_lanes(self):
        # 2**70 elements need 16-byte lanes, which no struct code packs
        table = FunctionTable(0, 2**70, (5,))
        assert (table.values, table()) == ((5,), 5)
        assert table == FunctionTable(0, 2**70, [5]) != FunctionTable(0, 2**70, [6])

    def test_builders_fail_fast(self):
        for build in (projection_table, constant_table):
            with pytest.raises(BudgetError, match=r"needs 2\*\*21 entries"):
                build(1, 21, 2)

    @pytest.mark.parametrize("arity", [2, 9])
    def test_entry_validation_names_the_first_bad_entry(self, arity):
        # 4 entries are only scanned; 512 meet the whole-table passes first
        for bad, shown in ((1.0, "1.0"), ("1", "'1'"), (-1, "-1"), (2, "2")):
            for later in (0, "x"):
                values = [0, 1] * 2 ** (arity - 1)
                values[2] = bad
                values[-1] = later
                message = re.escape(f"table entry {shown} at position 2 is outside 0..1")
                with pytest.raises(AlgebraError, match=message + "$"):
                    FunctionTable(arity, 2, values)

    @pytest.mark.parametrize("arity", [1, 9])
    def test_bool_entries_accepted(self, arity):
        values = (True, False) * 2 ** (arity - 1)
        assert FunctionTable(arity, 2, values).values == values

    def test_evaluation_validation(self):
        with pytest.raises(AlgebraError):
            Evaluation({4: 0}, 3)
        ev = Evaluation({2: 1, 1: 0}, 3)
        assert list(ev.assigned.items()) == [(1, 0), (2, 1)]
