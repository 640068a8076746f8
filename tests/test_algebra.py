"""Algebra validation, induced operations, and algebra constructions."""

import random
import re

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
from termalg import algebra
from termalg.algebra import dump_algebra
from termalg.terms import apply_evaluation

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
                assert got.values == oracle.table_of(term, ops, alg.carrier_size, n)

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
