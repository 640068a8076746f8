"""Complexity measures, clone enumeration, and the algebra census."""

import json
import random
import re
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termalg import (
    AlgebraCensus,
    dump_algebra,
    BudgetError,
    FunctionTable,
    algebra_n_complexity,
    clone_level,
    cp1,
    cp2,
    cp3_of_table,
    cp3_set,
    cp3_total,
    induced_operation,
    map_constants,
    parse,
    print_term,
    rename_variables,
    satisfies_identity,
    sep_sets,
    transport_algebra,
    value_set,
)
from termalg import algebra, catalog, cli, complexity, kernels
from termalg.algebra import FiniteAlgebra, Operation
from termalg.terms import Apply

import oracle
from helpers import equivalent_bool2_term, random_term, wide_lane_algebras

T1 = "+(*(x1,x2),x3)"
T2 = "+(*(x1,x3),*(x2,neg(x3)))"


class TestSyntacticMeasures:
    def test_variable_occurrences(self, bu):
        assert cp1(parse(T1, bu)) == 3
        assert cp1(parse(T2, bu)) == 4
        assert cp1(parse("x5", {"f": 1})) == 1
        assert cp1(parse("#1", bu)) == 0

    def test_operation_symbol_count(self, bu):
        assert cp2(parse(T1, bu)) == 2
        assert cp2(parse(T2, bu)) == 4
        assert cp2(parse("x1", bu)) == 0
        assert cp2(parse("neg(#0)", bu)) == 1


class TestCp3:
    def test_t2_reference_sets(self, bu):
        t2 = parse(T2, bu)
        assert cp3_set(t2, bu, 3, {3}) == 2
        assert cp3_set(t2, bu, 3, {1, 2, 3}) == 1
        assert cp3_set(t2, bu, 3, {1, 2}) == 0

    def test_constant_term_counts_nothing(self, bu):
        t = parse("+(x1,x1)", bu)
        for subset in ({1}, {2}, {1, 2}):
            assert cp3_set(t, bu, 2, subset) == 0

    def test_empty_set_rejected(self, bu):
        with pytest.raises(ValueError, match="nonempty"):
            cp3_set(parse(T1, bu), bu, 3, set())

    def test_t1_full_report(self, bu):
        report = cp3_total(parse(T1, bu), bu, 3)
        assert report.total == 13
        assert {tuple(sorted(m)): c for m, c in report.per_set.items()} == {
            (1,): 2,
            (2,): 2,
            (3,): 4,
            (1, 2): 2,
            (1, 3): 1,
            (2, 3): 1,
            (1, 2, 3): 1,
        }

    def test_t2_full_report(self, bu):
        report = cp3_total(parse(T2, bu), bu, 3)
        assert report.total == 11
        assert {tuple(sorted(m)): c for m, c in report.per_set.items()} == {
            (1,): 2,
            (2,): 2,
            (3,): 2,
            (1, 2): 0,
            (1, 3): 2,
            (2, 3): 2,
            (1, 2, 3): 1,
        }

    def test_single_variable(self, bu):
        assert cp3_total(parse("x1", bu), bu, 1).total == 1

    def test_report_covers_all_nonempty_subsets(self, bu):
        report = cp3_total(parse(T1, bu), bu, 3)
        assert len(report.per_set) == 7
        assert report.total == sum(report.per_set.values())

    def test_counts_bounded_by_evaluation_space(self, bu, mod3):
        rng = random.Random(7)
        for alg in (bu, mod3):
            k = alg.carrier_size
            for _ in range(20):
                term = random_term(rng, alg, 3, 3)
                report = cp3_total(term, alg, 3)
                for m, c in report.per_set.items():
                    assert 0 <= c <= k ** (3 - len(m))
                assert report.per_set[frozenset({1, 2, 3})] in (0, 1)


class TestCp3OfTable:
    def test_xor3(self):
        table = FunctionTable(3, 2, (0, 1, 1, 0, 1, 0, 0, 1))
        assert cp3_of_table(table).total == 19

    def test_constant(self):
        assert cp3_of_table(FunctionTable(3, 2, (1,) * 8)).total == 0

    def test_projection(self):
        table = FunctionTable(3, 2, (0, 0, 0, 0, 1, 1, 1, 1))
        report = cp3_of_table(table)
        assert report.total == 4
        assert report.per_set[frozenset({1})] == 4

    def test_agrees_with_term_route(self, bu, mod3):
        rng = random.Random(13)
        for alg in (bu, mod3):
            for _ in range(15):
                term = random_term(rng, alg, 3, 2)
                table = induced_operation(term, alg, 3)
                assert cp3_of_table(table) == cp3_total(term, alg, 3)

    def test_matches_oracle_on_random_tables(self):
        rng = random.Random(17)
        for k, n in ((2, 3), (3, 2)):
            for _ in range(15):
                values = tuple(rng.randrange(k) for _ in range(k**n))
                report = cp3_of_table(FunctionTable(n, k, values))
                per, total = oracle.brute_cp3_report(values, k, n)
                assert report.total == total
                assert dict(report.per_set) == per

    def test_work_budget(self, bu, sl, monkeypatch):
        # 2**n sets, each visiting the k**n entries, checked before counting
        x1 = parse("x1", bu)
        message = (
            r"cp3 over every variable set needs 2\*\*14 sets x 2\*\*14 entries, "
            r"budget is 100000000$"
        )
        with pytest.raises(BudgetError, match=message):
            cp3_total(x1, bu, 14)
        with pytest.raises(BudgetError, match=message):
            sep_sets(x1, bu, 14)
        # before the closure, which would not end within the clone budget
        with pytest.raises(BudgetError, match=message):
            algebra_n_complexity(bu, 14)
        # each set is charged at least the per-set floor, so a one-element
        # carrier runs up to the arity where 2**n sets of the floor exceed
        # the budget
        unit = FiniteAlgebra("unit", 1, (Operation("f", 1, (0,)),))
        floor = algebra._CP3_SET_FLOOR
        top = max(n for n in range(40) if 2**n * floor <= algebra.WORK_BUDGET)
        assert cp3_total(x1, unit, 3).total == 0
        monkeypatch.setattr(algebra, "WORK_BUDGET", 2**3 * floor)
        assert cp3_total(x1, unit, 3).total == 0
        for n in (top + 1, 10**12):
            with pytest.raises(BudgetError, match=rf"2\*\*{n} sets x {floor} entries"):
                cp3_total(x1, unit, n)
        monkeypatch.setattr(algebra, "WORK_BUDGET", 2**3 * floor - 1)
        with pytest.raises(BudgetError, match=rf"2\*\*3 sets x {floor} entries"):
            cp3_total(x1, unit, 3)
        # below the floor, the table's own entries decide
        monkeypatch.setattr(algebra, "_CP3_SET_FLOOR", 1)
        monkeypatch.setattr(algebra, "WORK_BUDGET", 8 * 8)
        assert cp3_total(x1, bu, 3).total == 4
        assert sep_sets(x1, bu, 3) == [frozenset({1})]
        # once the clone is known, the census is charged 2**n - 1 sets of
        # every member's entries: semilattice2's 7 members at arity 3 need
        # 7 x 7 x 8, and its closure 7 x 8, entries
        members, _ = oracle.brute_clone(sl, 3)
        total = sum(oracle.brute_cp3_report(t, 2, 3)[1] for t in members)
        boundary = (2**3 - 1) * len(members) * 2**3
        monkeypatch.setattr(algebra, "WORK_BUDGET", boundary)
        assert algebra_n_complexity(sl, 3).total == total
        monkeypatch.setattr(algebra, "WORK_BUDGET", boundary - 1)
        message = rf"2\*\*3 - 1 sets x 7 members x 2\*\*3 entries, budget is {boundary - 1}$"
        with pytest.raises(BudgetError, match=message):
            algebra_n_complexity(sl, 3)
        monkeypatch.setattr(algebra, "WORK_BUDGET", 8 * 8 - 1)
        message = r"2\*\*3 sets x 2\*\*3 entries, budget is 63$"
        for call in (cp3_total, sep_sets):
            with pytest.raises(BudgetError, match=message):
                call(x1, bu, 3)
        with pytest.raises(BudgetError, match=message):
            algebra_n_complexity(bu, 3)


class TestValueSet:
    def test_constant(self, bu):
        assert value_set(parse("#1", bu), bu, 2) == {1}

    def test_t1_hits_both_values(self, bu):
        assert value_set(parse(T1, bu), bu, 3) == {0, 1}

    def test_projection_is_surjective(self, mod3):
        assert value_set(parse("x1", mod3), mod3, 2) == {0, 1, 2}


def listing(clone):
    """(member tables, printed witnesses) in discovery order."""
    return [m.values for m in clone.members], [print_term(w) for w in clone.witnesses]


def _depth(term):
    """Height of a term: 0 for a variable."""
    if isinstance(term, Apply):
        return 1 + max(_depth(c) for c in term.children)
    return 0


@st.composite
def small_algebras(draw):
    """A random algebra with k <= 3, one to three operations of arity 1-3,
    and an arity n small enough for the oracle's per-tuple closure."""
    k = draw(st.integers(1, 3))
    # operations that all fix 0 keep {0} a subuniverse, so the closure
    # may stop at the subuniverse bound before its fixpoint
    fix0 = draw(st.booleans())
    ops = []
    for i, r in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))):
        table = draw(st.lists(st.integers(0, k - 1), min_size=k**r, max_size=k**r))
        if r == 2 and draw(st.booleans()):
            # symmetric, so the closure skips commuted argument tuples
            table = [table[max(a, b) * k + min(a, b)] for a in range(k) for b in range(k)]
        if fix0:
            table[0] = 0
        ops.append(Operation(f"f{i}", r, tuple(table)))
    n = draw(st.integers(0, {1: 3, 2: 2, 3: 1}[k]))
    return FiniteAlgebra("random", k, tuple(ops)), n


class TestCloneLevel:
    def test_semilattice_pairs(self, sl):
        clone = clone_level(sl, 2)
        assert clone.size == 3
        assert set(m.values for m in clone.members) == {
            (0, 0, 1, 1),
            (0, 1, 0, 1),
            (0, 0, 0, 1),
        }

    def test_projections_come_first(self, bu):
        clone = clone_level(bu, 3)
        assert [m.values for m in clone.members[:3]] == [
            (0, 0, 0, 0, 1, 1, 1, 1),
            (0, 0, 1, 1, 0, 0, 1, 1),
            (0, 1, 0, 1, 0, 1, 0, 1),
        ]

    def test_bool2_is_primal_at_arity_3(self, bu):
        assert clone_level(bu, 3).size == 256

    def test_identity_table_at_arity_1(self, bu, sl, chain3):
        for alg in (bu, sl, chain3):
            clone = clone_level(alg, 1)
            assert tuple(range(alg.carrier_size)) in {m.values for m in clone.members}

    def test_witnesses_reproduce_members(self, bu):
        clone = clone_level(bu, 3)
        for member, witness in zip(clone.members, clone.witnesses):
            assert induced_operation(witness, bu, 3) == member

    def test_closure_level_equals_eagerly_built_level(self, bu, br, chain3):
        for alg, n in ((bu, 3), (br, 3), (chain3, 3)):
            clone = clone_level(alg, n)
            # the witnesses read back from their printed form, before the
            # closure-built level has built its own
            texts = cli._witness_texts(clone._derivations)
            eager = complexity.CloneLevel(
                n, alg.carrier_size, clone.tables, clone.width, tuple(parse(t, alg) for t in texts)
            )
            assert "witnesses" not in vars(clone)
            assert clone == eager and hash(clone) == hash(eager)
            assert repr(clone) == repr(eager)
            assert clone.witnesses is clone.witnesses

    def test_census_certificate_and_listing_build_no_term(
        self, bu, br, bu_path, capsys, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("an Apply was built")

        expected = algebra_n_complexity(br, 3)
        monkeypatch.setattr(Apply, "__init__", refuse)
        with pytest.raises(AssertionError, match="an Apply was built"):
            Apply("+", ())
        # boolean_ring takes the closure; bool2 is primal, certified by a
        # closure at arity 2
        assert algebra_n_complexity(br, 3) == expected
        assert complexity._primal(bu, 3, complexity.CLONE_BUDGET)
        assert algebra_n_complexity(bu, 3).clone_size == 256
        assert cli.main(["clone", bu_path, "--arity", "3", "--list", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["members"]) == 256

    def test_budget_error(self, bu, chain3):
        # 2 stops among the projections; 5 at the third slot of the block
        # for +(x1, .), after two members from that same block
        for max_size in (2, 5, 10, 255):
            message = f"clone budget exceeded: more than {max_size} members at arity 3"
            with pytest.raises(BudgetError, match=re.escape(message)):
                clone_level(bu, 3, max_size=max_size)
        # chain3 at arity 4 has 166 members; 17 stops at the second of six
        # new tables in the block for min(x1, .), 90 at the seventh of 14
        # in a later block, 165 at the last member
        full = listing(clone_level(chain3, 4))
        for max_size in (17, 90, 165):
            message = f"clone budget exceeded: more than {max_size} members at arity 4"
            with pytest.raises(BudgetError, match=re.escape(message)):
                clone_level(chain3, 4, max_size=max_size)
        assert listing(clone_level(chain3, 4, max_size=166)) == full

    def test_budget_equal_to_clone_size_is_enough(self, bu):
        assert clone_level(bu, 3, max_size=256).size == 256

    def test_work_budget(self, bu, monkeypatch):
        # each new member is charged, before it is added, the entries of
        # every member so far and its own: (members + 1) x k**n
        monkeypatch.setattr(algebra, "WORK_BUDGET", 256 * 8)
        assert clone_level(bu, 3).size == 256
        for budget, members in ((256 * 8 - 1, 256), (10 * 8, 11), (11 * 8 - 1, 11)):
            monkeypatch.setattr(algebra, "WORK_BUDGET", budget)
            message = f"the closure holds {members} members x 2**3 entries, budget is {budget}"
            with pytest.raises(BudgetError, match=re.escape(message)):
                clone_level(bu, 3)

    def test_table_budget_checked_before_the_closure(self, bu, mod3, monkeypatch):
        with pytest.raises(BudgetError, match=r"needs 2\*\*26 entries, budget is 1000000"):
            clone_level(bu, 26)
        with pytest.raises(BudgetError, match=r"needs 2\*\*26 entries"):
            algebra_n_complexity(bu, 26)
        monkeypatch.setattr(algebra, "TABLE_BUDGET", 3)
        assert clone_level(mod3, 1).arity == 1
        with pytest.raises(BudgetError, match=r"3\*\*2 entries, budget is 3$"):
            clone_level(mod3, 2)

    @pytest.mark.parametrize(
        "name, n",
        [
            ("bool2", 3),
            ("boolean_ring", 3),
            ("chain3", 3),
            ("two_element_semilattice", 4),
            ("mod3", 1),
        ],
    )
    def test_matches_reference_order(self, name, n):
        alg = getattr(catalog, name)()
        assert listing(clone_level(alg, n)) == oracle.brute_clone(alg, n)

    @pytest.mark.parametrize(
        "alg, n",
        [
            (FiniteAlgebra("implication", 2, (Operation("imp", 2, (1, 1, 0, 1)),)), 3),
            (
                FiniteAlgebra(
                    "difference",
                    3,
                    (Operation("sub", 2, tuple((a - b) % 3 for a in range(3) for b in range(3))),),
                ),
                2,
            ),
        ],
    )
    def test_non_commutative_operations_match_reference_order(self, alg, n):
        # the commuted tuples of these operations give new members
        assert listing(clone_level(alg, n)) == oracle.brute_clone(alg, n)

    def test_commuted_tuples_are_skipped(self, chain3, monkeypatch):
        # min and max commute: prefix a takes last arguments from a on, so
        # a round with f members before its newest layer and d in it
        # composes f*d + d*(d+1)/2 pairs per operation instead of
        # (f+d)**2 - f**2
        composed = []
        lookup = kernels.lookup

        def counting(table, width):
            apply = lookup(table, width)
            return lambda data: composed.append(len(data)) or apply(data)

        monkeypatch.setattr(kernels, "lookup", counting)
        # without the free-spectrum stop at its 18 members, chain3 runs to
        # the fixpoint; no certificate closure is counted either
        monkeypatch.setattr(complexity, "_free_spectrum", lambda alg, n: None)
        _closure_route(monkeypatch)
        clone = clone_level(chain3, 3)
        # a member's round is the depth of its witness; one more round adds
        # nothing
        depths = [_depth(w) for w in clone.witnesses]
        skipped = unskipped = 0
        for r in range(1, max(depths) + 2):
            f = sum(1 for depth in depths if depth < r - 1)
            d = sum(1 for depth in depths if depth == r - 1)
            skipped += 2 * (f * d + d * (d + 1) // 2)
            unskipped += 2 * ((f + d) ** 2 - f**2)
        assert sum(composed) == skipped * 27
        assert skipped <= 0.55 * unskipped

    @given(small_algebras())
    @settings(max_examples=150, deadline=None)
    def test_random_algebras_match_reference_order(self, case):
        alg, n = case
        assert listing(clone_level(alg, n)) == oracle.brute_clone(alg, n)

    def test_wide_lanes(self):
        sum7, succ257 = wide_lane_algebras()
        for alg, size in ((sum7, 7), (succ257, 257)):
            clone = clone_level(alg, 1)
            assert clone.size == size
            assert listing(clone) == oracle.brute_clone(alg, 1)

    def test_arity_zero_is_empty(self, bu):
        clone = clone_level(bu, 0)
        assert clone.members == clone.witnesses == ()

    def test_negative_arity_rejected(self, bu, chain3):
        for alg in (bu, chain3):
            with pytest.raises(ValueError, match="clone arity must be >= 0, got -1"):
                clone_level(alg, -1)
            with pytest.raises(ValueError, match="clone arity must be >= 0, got -2"):
                algebra_n_complexity(alg, -2)

    def test_deterministic(self, bu):
        a = clone_level(bu, 3)
        b = clone_level(bu, 3)
        assert [m.values for m in a.members] == [m.values for m in b.members]
        assert [print_term(w) for w in a.witnesses] == [
            print_term(w) for w in b.witnesses
        ]

    def test_degenerate_carrier(self):
        # the three projections are one function
        one = FiniteAlgebra("one", 1, (Operation("f", 2, (0,)),))
        assert listing(clone_level(one, 3)) == ([(0,)], ["x1"])

    def test_no_operations(self):
        # the clone is the projections; no free-spectrum count applies
        bare = FiniteAlgebra("bare", 2, ())
        assert _count(bare, 2) is None
        assert listing(clone_level(bare, 2)) == ([(0, 0, 1, 1), (0, 1, 0, 1)], ["x1", "x2"])
        census = algebra_n_complexity(bare, 2)
        assert (census.clone_size, census.total) == (2, 4)


class TestCensus:
    def test_bool2_arity_1(self, bu):
        census = algebra_n_complexity(bu, 1)
        assert census.clone_size == 4
        assert census.total == 2
        assert dict(census.histogram) == {1: 2, 0: 2}

    def test_bool2_arity_2(self, bu):
        census = algebra_n_complexity(bu, 2)
        assert census.clone_size == 16
        assert census.total == 42
        assert dict(census.histogram) == {5: 2, 3: 8, 2: 4, 0: 2}

    def test_bool2_arity_3_matches_exhaustive_bruteforce(self, bu):
        census = algebra_n_complexity(bu, 3)
        total, hist = oracle.brute_census_all_functions(2, 3)
        assert census.clone_size == 256
        assert census.total == total == 2714
        assert dict(census.histogram) == hist == {
            19: 2,
            16: 16,
            13: 40,
            12: 72,
            11: 24,
            10: 6,
            9: 48,
            7: 16,
            6: 24,
            4: 6,
            0: 2,
        }

    def test_closed_form_matches_exhaustive_bruteforce(self):
        for k, n in ((2, 2), (2, 3)):
            total, _ = oracle.brute_census_all_functions(k, n)
            assert oracle.census_total_all_functions(k, n) == total

    def test_clone_of_every_function_matches_closed_form(self, bu, mod3):
        # bool2 and mod3 generate every function on their carrier
        for alg, n in ((bu, 2), (bu, 3), (mod3, 1)):
            census = algebra_n_complexity(alg, n)
            k = alg.carrier_size
            assert census.clone_size == k ** (k**n)
            assert census.total == oracle.census_total_all_functions(k, n)

    def test_semilattice_arity_2(self, sl):
        census = algebra_n_complexity(sl, 2)
        assert census.clone_size == 3
        assert census.total == 7
        assert dict(census.histogram) == {3: 1, 2: 2}

    def test_histogram_sums_to_clone_size(self, bu, sl, chain3):
        for alg, n in ((bu, 2), (sl, 3), (chain3, 1)):
            census = algebra_n_complexity(alg, n)
            assert sum(census.histogram.values()) == census.clone_size
            assert sum(c * v for c, v in census.histogram.items()) == census.total

    def test_wide_lanes_match_oracle(self):
        # the census counts cp3 straight from the closure's two-byte lanes
        sum7, _ = wide_lane_algebras()
        members, _ = oracle.brute_clone(sum7, 1)
        totals = [oracle.brute_cp3_report(t, 7, 1)[1] for t in members]
        census = algebra_n_complexity(sum7, 1)
        assert census.clone_size == len(members)
        assert census.total == sum(totals)
        assert dict(census.histogram) == dict(Counter(totals))

    def test_arity_zero_and_one_element_carrier(self, bu, mod3):
        # no nullary term operation exists, and a one-element carrier has
        # one function per arity, constant, with no essential variable
        for alg in (bu, mod3):
            census = algebra_n_complexity(alg, 0)
            assert (census.clone_size, census.total, dict(census.histogram)) == (0, 0, {})
            assert complexity._subuniverse_bound(alg, 0) == 0
        one = FiniteAlgebra("one", 1, (Operation("f", 2, (0,)), Operation("g", 1, (0,))))
        for n in (1, 2, 3):
            census = algebra_n_complexity(one, n)
            assert (census.clone_size, census.total, dict(census.histogram)) == (1, 0, {0: 1})
            assert complexity._subuniverse_bound(one, n) == 1
            assert not complexity._primal(one, n, complexity.CLONE_BUDGET)

    def test_json_round_trip(self, bu):
        census = algebra_n_complexity(bu, 2)
        text = census.to_json()
        again = AlgebraCensus.from_json(text)
        assert again == census
        assert again.to_json() == text

    def test_json_histogram_descending(self, bu):
        import json

        doc = json.loads(algebra_n_complexity(bu, 2).to_json())
        keys = [int(c) for c in doc["histogram"]]
        assert keys == sorted(keys, reverse=True)
        assert list(doc) == ["algebra", "n", "clone_size", "total", "histogram"]


def _random_algebra(rng, k, arities, keep=()):
    """Random operations of these arities on k elements that map every
    set in `keep` into itself: a tuple inside some of the sets takes a
    value in all of them."""
    ops = []
    for i, r in enumerate(arities):
        table = []
        for args in product(range(k), repeat=r):
            inside = [s for s in keep if set(args) <= s]
            table.append(rng.choice(sorted(set.intersection(*inside)) if inside else range(k)))
        ops.append(Operation(f"f{i}", r, tuple(table)))
    return FiniteAlgebra("random", k, tuple(ops))


def _closure_route(monkeypatch):
    """Treat no algebra as primal: the census takes the closure, and
    `clone_level` does not refuse a primal clone before closing."""
    monkeypatch.setattr(complexity, "_primal", lambda alg, n, max_size: False)


def _census_or_error(alg, n, **kwargs):
    try:
        return algebra_n_complexity(alg, n, **kwargs)
    except BudgetError as exc:
        return str(exc)


class TestSubuniverseBound:
    @pytest.mark.parametrize(
        "k, n, draws",
        [(1, 0, 3), (1, 2, 3), (2, 0, 6), (2, 1, 12), (2, 2, 12), (2, 3, 12), (3, 1, 12), (3, 2, 4)],
    )
    def test_product_form_matches_brute_count(self, k, n, draws):
        rng = random.Random(100 * k + n)
        keeps = [(), ({0},), ({0}, {k - 1}), (set(range(k - 1)),), ({0}, set(range(1, k)))]
        for _ in range(draws):
            keep = [s for s in rng.choice(keeps) if s]
            alg = _random_algebra(rng, k, rng.choice([(1,), (2,), (2, 1), (3,), (1, 1)]), keep)
            exact = complexity._subuniverse_bound(alg, n, lookups=10**9)
            assert exact == oracle.brute_pol_count(alg, n)
            # past its default lookups the bound takes factors of k
            assert complexity._subuniverse_bound(alg, n) >= exact

    def test_catalog_bounds(self, bu, br, sl):
        bound = complexity._subuniverse_bound
        assert [bound(bu, n) for n in range(5)] == [0, 4, 16, 256, 65536]
        # the functions that fix 0 (Post 1941)
        assert [bound(br, n) for n in range(5)] == [0, 2, 8, 128, 32768]
        assert [bound(sl, n) for n in range(3)] == [0, 1, 4]

    def test_boolean_ring_stops_at_the_bound(self, br, monkeypatch):
        composed = []
        lookup = kernels.lookup

        def counting(table, width):
            apply = lookup(table, width)
            return lambda data: composed.append(len(data)) or apply(data)

        monkeypatch.setattr(kernels, "lookup", counting)
        stopped = listing(clone_level(br, 3))
        at_bound = sum(composed)
        composed.clear()
        monkeypatch.setattr(complexity, "_subuniverse_bound", lambda alg, n: 2 ** 2**n)
        assert listing(clone_level(br, 3)) == stopped == oracle.brute_clone(br, 3)
        assert len(stopped[0]) == 128
        # the fixpoint round composes more than the whole stopped closure
        assert 2 * at_bound < sum(composed)

    def test_boolean_ring_at_arity_4(self, br):
        clone = clone_level(br, 4)
        assert clone.size == 32768
        assert all(m.values[0] == 0 for m in clone.members)
        for i in range(0, clone.size, 997):
            assert induced_operation(clone.witnesses[i], br, 4) == clone.members[i]

    def test_random_algebras_stop_at_the_bound(self):
        rng = random.Random(47)
        stops = 0
        for k, n in ((2, 2), (2, 3), (3, 1)) * 10:
            keep = rng.choice([[{0}], [{0}, {1}], [{0, 1}]] if k == 3 else [[{0}], [{1}]])
            arities = [(2,), (2, 1), (2, 2)] + [(3,)] * (n < 3)
            alg = _random_algebra(rng, k, rng.choice(arities), keep)
            clone = clone_level(alg, n)
            assert listing(clone) == oracle.brute_clone(alg, n)
            bound = complexity._subuniverse_bound(alg, n)
            assert clone.size <= bound
            stops += clone.size == bound < k ** k**n
        assert stops >= 5


def _lattice_algebra(rng, elements, meet, join, signature):
    """The lattice on `elements` with these meet and join, its elements
    numbered in random order, with the signature "min" (the meet alone),
    "max" (the join alone), "min/max" or "max/min" (both, in that order)."""
    k = len(elements)
    label = dict(zip(elements, rng.sample(range(k), k)))
    ops = []
    for symbol in signature.split("/"):
        fn = {"min": meet, "max": join}[symbol]
        table = [0] * (k * k)
        for a, b in product(elements, repeat=2):
            table[label[a] * k + label[b]] = label[fn(a, b)]
        ops.append(Operation(symbol, 2, tuple(table)))
    return FiniteAlgebra("lattice", k, tuple(ops))


def _random_distributive_lattice(rng, signature):
    """A relabelled chain, product of two chains, or sublattice of the
    subsets of {0, ..., m - 1}, with at least two elements."""
    kind = rng.choice(["chain", "product", "subsets"])
    if kind == "chain":
        elements = list(range(rng.randint(2, 6)))
        return _lattice_algebra(rng, elements, min, max, signature)
    if kind == "product":
        elements = list(product(range(rng.randint(2, 3)), range(rng.randint(1, 3))))
        meet = lambda a, b: tuple(map(min, a, b))
        join = lambda a, b: tuple(map(max, a, b))
        return _lattice_algebra(rng, elements, meet, join, signature)
    m = rng.randint(2, 3)
    family = {frozenset(s) for s in (rng.sample(range(m), rng.randint(0, m)) for _ in range(3))}
    family |= {frozenset(range(m))}
    while len(family) < 2 or any(
        a & b not in family or a | b not in family for a in family for b in family
    ):
        family |= {a & b for a in family for b in family} | {a | b for a in family for b in family}
        family |= {frozenset(rng.sample(range(m), rng.randint(0, m)))}
    elements = sorted(family, key=sorted)
    return _lattice_algebra(rng, elements, frozenset.__and__, frozenset.__or__, signature)


def _order_lattice(rng, elements, leq, signature):
    """`_lattice_algebra` of the lattice whose order is the set of pairs
    `leq`: a meet is the common lower bound above all others."""

    def meet(x, y):
        lower = [z for z in elements if (z, x) in leq and (z, y) in leq]
        return next(z for z in lower if all((w, z) in leq for w in lower))

    def join(x, y):
        upper = [z for z in elements if (x, z) in leq and (y, z) in leq]
        return next(z for z in upper if all((z, w) in leq for w in upper))

    return _lattice_algebra(rng, elements, meet, join, signature)


def _no_free_stop(monkeypatch):
    """Turn off the closure's stops, so that it runs to the fixpoint."""
    every = lambda alg, n: alg.carrier_size ** alg.carrier_size**n
    monkeypatch.setattr(complexity, "_free_spectrum", lambda alg, n: None)
    monkeypatch.setattr(complexity, "_subuniverse_bound", every)


_count = complexity._free_spectrum


class TestFreeSpectrum:
    def test_dedekind_table_counts_monotone_functions(self):
        assert [oracle.brute_monotone_count(n) for n in range(5)] == list(complexity._DEDEKIND[:5])

    def test_catalog_counts(self, bu, br, sl, chain3, mod3):
        assert [_count(sl, n) for n in range(6)] == [None, 1, 3, 7, 15, 31]
        assert [_count(chain3, n) for n in range(7)] == [None, 1, 4, 18, 166, 7579, 7828352]
        for alg in (bu, br, mod3):
            assert [_count(alg, n) for n in range(4)] == [None] * 4
        # past the table of Dedekind numbers only a semilattice has a count
        assert _count(chain3, len(complexity._DEDEKIND)) is None
        assert [_count(sl, n) for n in (9, 12)] == [511, 4095]

    def test_counted_at_the_smallest_arities(self, chain3, monkeypatch):
        # recognition reads the operation tables, not k**n entries, so a
        # lattice is counted at n = 1 and 2 too, and its census closes nothing
        lattice2 = FiniteAlgebra(
            "lattice2", 2, (Operation("min", 2, (0, 0, 0, 1)), Operation("max", 2, (0, 1, 1, 1)))
        )
        closed = []
        closure = complexity._closure
        monkeypatch.setattr(complexity, "_closure", lambda *a: closed.append(a) or closure(*a))
        for alg in (chain3, lattice2):
            for n, count in ((1, 1), (2, 4)):
                assert _count(alg, n) == count
                census = algebra_n_complexity(alg, n)
                assert not closed
                assert oracle.brute_census(alg, n) == (count, census.total, dict(census.histogram))

    @pytest.mark.parametrize("signature", ["min", "max", "min/max"])
    def test_random_lattices_match_the_fixpoint(self, signature, monkeypatch):
        rng = random.Random({"min": 71, "max": 73, "min/max": 79}[signature])
        for _ in range(15):
            alg = _random_distributive_lattice(rng, signature)
            n = rng.choice([1, 2, 3, 3])
            count = _count(alg, n)
            assert count == (2**n - 1 if signature != "min/max" else complexity._DEDEKIND[n] - 2)
            stopped = listing(clone_level(alg, n))
            with monkeypatch.context() as m:
                _no_free_stop(m)
                fixpoint = listing(clone_level(alg, n))
            assert len(fixpoint[0]) == count
            assert stopped == fixpoint == oracle.brute_clone(alg, n)

    def test_lattices_at_arity_4_reach_the_count_at_the_fixpoint(self, monkeypatch):
        rng = random.Random(61)
        algebras = [_random_distributive_lattice(rng, "min/max") for _ in range(3)]
        stopped = [clone_level(alg, 4).tables for alg in algebras]
        _no_free_stop(monkeypatch)
        for alg, tables in zip(algebras, stopped):
            assert clone_level(alg, 4).tables == tables
            assert len(tables) == 166

    def test_other_algebras_get_no_count(self, bu, br, mod3):
        rng = random.Random(67)
        # M3 and N5: lattices that are not distributive; in N5, a < c
        elements = ["0", "a", "b", "c", "1"]
        m3 = {(x, y) for x in elements for y in elements if x == y or x == "0" or y == "1"}
        for leq in (m3, m3 | {("a", "c")}):
            for n in (1, 2, 3):
                assert _count(_order_lattice(rng, elements, leq, "min/max"), n) is None
            # each half alone is a semilattice
            for half in ("min", "max"):
                assert _count(_order_lattice(rng, elements, leq, half), 3) == 7

        def algebra_of(name, k, *tables):
            ops = (Operation(f"f{i}", 2, tuple(t)) for i, t in enumerate(tables))
            return FiniteAlgebra(name, k, tuple(ops))

        pairs = list(product(range(3), repeat=2))
        left_zero = algebra_of("left-zero", 3, [x for x, y in pairs])
        doubled = algebra_of("min-min", 2, (0, 0, 0, 1), (0, 0, 0, 1))
        one = algebra_of("one", 1, (0,))
        # rock-paper-scissors: idempotent and commutative, not associative
        rps = algebra_of("rps", 3, [x if (x - y) % 3 == 1 else y for x, y in pairs])
        for alg in (left_zero, doubled, one, rps, bu, br, mod3):
            for n in (1, 2, 3):
                assert _count(alg, n) is None
        for _ in range(30):
            alg = _random_algebra(rng, 3, rng.choice([(2,), (2, 2)]))
            if all(alg.operations[0].table[x * 4] == x for x in range(3)):
                continue  # only operations that are not idempotent
            assert _count(alg, 2) is None

    def test_chain3_stops_after_its_last_member(self, chain3, monkeypatch):
        composed = []
        lookup = kernels.lookup

        def counting(table, width):
            apply = lookup(table, width)
            return lambda data: composed.append(len(data) // 81) or apply(data)

        monkeypatch.setattr(kernels, "lookup", counting)
        stopped = listing(clone_level(chain3, 4))
        assert len(stopped[0]) == 166
        assert sum(composed) == 5914
        composed.clear()
        _no_free_stop(monkeypatch)
        assert listing(clone_level(chain3, 4)) == stopped
        assert sum(composed) == 27722

    @pytest.mark.parametrize(
        "name, n, max_size, budget",
        [
            ("chain3", 4, 166, None),
            ("chain3", 4, 165, None),
            ("chain3", 4, 162, None),
            ("chain3", 4, 100, None),
            ("chain3", 4, None, 166 * 81),
            ("chain3", 4, None, 166 * 81 - 1),
            ("chain3", 4, None, 163 * 81 - 1),
            ("semilattice2", 4, 14, None),
            ("semilattice2", 4, 11, None),
            ("semilattice2", 4, None, 15 * 16 - 1),
        ],
    )
    def test_budget_errors_match_the_closure(self, name, n, max_size, budget, monkeypatch):
        # the last round adds members 163 to 166 of chain3 and 12 to 15 of
        # semilattice2; a known size refuses before any closing
        alg = {"chain3": catalog.chain3, "semilattice2": catalog.two_element_semilattice}[name]()
        kwargs = {} if max_size is None else {"max_size": max_size}
        if budget is not None:
            monkeypatch.setattr(algebra, "WORK_BUDGET", budget)
        closed = []
        closure = complexity._closure
        monkeypatch.setattr(complexity, "_closure", lambda *a: closed.append(a) or closure(*a))
        early = _clone_or_error(alg, n, **kwargs)
        if isinstance(early, str):
            assert not closed
        _no_free_stop(monkeypatch)
        assert _clone_or_error(alg, n, **kwargs) == early


class TestFreeCensus:
    """The census of a semilattice or distributive lattice from the
    free-spectrum tables, with no closure."""

    @pytest.mark.parametrize("signature", ["min", "max", "min/max", "max/min"])
    def test_equals_the_closure_and_the_oracle(self, signature, monkeypatch):
        rng = random.Random({"min": 83, "max": 89, "min/max": 97, "max/min": 101}[signature])
        catalog_cases = [(catalog.chain3(), 4), (catalog.two_element_semilattice(), 4)]
        # 17 elements: two-byte lanes hold the operation-table indices
        wide = (_lattice_algebra(rng, list(range(17)), min, max, signature), 3)
        arities = (1, 2, 3, 4)
        random_cases = [
            (_random_distributive_lattice(rng, signature), arities[i % len(arities)])
            for i in range(12)
        ]
        closed = []
        closure = complexity._closure
        monkeypatch.setattr(complexity, "_closure", lambda *a: closed.append(a) or closure(*a))
        judged = 0
        for alg, n in catalog_cases * (signature == "min/max") + [wide] + random_cases:
            census = algebra_n_complexity(alg, n)
            assert not closed
            assert complexity._free_spectrum(alg, n) == census.clone_size
            tables = complexity._free_tables(alg, n, kernels.lane_width(alg.carrier_size, (2,)))
            assert len(set(tables)) == len(tables) == _count(alg, n) == census.clone_size
            assert set(tables) == set(clone_level(alg, n).tables)
            # the oracle's cp3 takes seconds past 64 entries
            if n <= 3 and alg.carrier_size**n <= 64:
                assert oracle.brute_census(alg, n) == (
                    census.clone_size,
                    census.total,
                    dict(census.histogram),
                )
                judged += 1
            with monkeypatch.context() as m:
                _no_free_stop(m)
                assert algebra_n_complexity(alg, n).to_json() == census.to_json()
            closed.clear()
        assert judged >= 3

    def test_refused_before_any_table_is_built(self, chain3, monkeypatch):
        # at n = 6 the M(6) - 2 = 7,828,352 tables would take 5.7 GB
        built = []
        monkeypatch.setattr(complexity, "_free_tables", lambda *a: built.append(a))
        with pytest.raises(BudgetError, match=r"the closure holds 137175 members x 3\*\*6 entries"):
            algebra_n_complexity(chain3, 6)
        with pytest.raises(BudgetError, match="more than 100 members at arity 4"):
            algebra_n_complexity(chain3, 4, max_size=100)
        assert not built

    def test_semilattice_closed_form(self, sl, monkeypatch):
        # x_S of s variables has cp3 2**(n - s) at each nonempty set within
        # S, so the total is the sum over s of C(n, s) (2**s - 1) 2**(n - s)
        monkeypatch.setattr(algebra, "WORK_BUDGET", 10**9)
        for n in (1, 4, 9):
            census = algebra_n_complexity(sl, n)
            assert census.clone_size == 2**n - 1
            assert census.total == 4**n - 3**n
            histogram = Counter()
            for s in range(1, n + 1):
                histogram[(2**s - 1) * 2 ** (n - s)] += comb(n, s)
            assert dict(census.histogram) == histogram

    @pytest.mark.parametrize(
        "name, n, option, value",
        [("chain3", 4, "--max-clone-size", v) for v in (100, 162, 163, 165, 166)]
        + [("semilattice2", 4, "--max-clone-size", v) for v in (11, 12, 14, 15)]
        + [
            ("chain3", 4, "WORK_BUDGET", 166 * 81),
            ("chain3", 4, "WORK_BUDGET", 166 * 81 - 1),
            ("semilattice2", 4, "WORK_BUDGET", 15 * 16 - 1),
            # M(5) - 2 = 7579 members of 12**5 entries
            ("chain12", 5, "--max-clone-size", 100),
            # 12**6 entries are over TABLE_BUDGET
            ("chain12", 6, None, None),
        ],
    )
    def test_budget_errors_match_the_closure(
        self, tmp_path, monkeypatch, capsys, name, n, option, value
    ):
        # the last round of the closure adds members 163 to 166 of chain3
        # and 12 to 15 of semilattice2
        algebras = {
            "chain3": catalog.chain3,
            "semilattice2": catalog.two_element_semilattice,
            "chain12": lambda: _lattice_algebra(random.Random(7), list(range(12)), min, max, "min/max"),
        }
        path = tmp_path / f"{name}.json"
        dump_algebra(algebras[name](), path)
        argv = ["census", str(path), "--arity", str(n), "--json"]
        if option == "WORK_BUDGET":
            # with no per-set floor one table's cp3 comes in under these
            monkeypatch.setattr(algebra, "_CP3_SET_FLOOR", 1)
            monkeypatch.setattr(algebra, "WORK_BUDGET", value)
        elif option is not None:
            argv += [option, str(value)]
        free = cli.main(argv), capsys.readouterr()
        _no_free_stop(monkeypatch)
        assert (cli.main(argv), capsys.readouterr()) == free
        # only a clone size limit at the whole clone lets the census through
        assert free[0] == (0 if option == "--max-clone-size" and value in (166, 15) else 1)


def _clone_or_error(alg, n, **kwargs):
    try:
        return listing(clone_level(alg, n, **kwargs))
    except BudgetError as exc:
        return str(exc)

class TestPrimalCensus:
    def test_catalog_certificates(self, bu, br, sl, chain3, mod3):
        budget = complexity.CLONE_BUDGET
        primal = {
            alg.name: [complexity._primal(alg, n, budget) for n in range(4)]
            for alg in (bu, br, sl, chain3, mod3)
        }
        assert primal == {
            # k = 2 is certified from n = 2 on
            "bool2": [False, False, True, True],
            "boolean-ring": [False] * 4,
            "semilattice2": [False] * 4,
            "chain3": [False] * 4,
            "mod3": [False, True, True, True],
        }

    def test_two_element_certificate_matches_brute_clone(self):
        rng = random.Random(53)
        seen = Counter()
        for _ in range(40):
            alg = _random_algebra(rng, 2, rng.choice([(2,), (1, 2), (2, 2), (3,), (1, 1)]))
            full = len(oracle.brute_clone(alg, 2)[0]) == 16
            for n in (2, 3):
                assert complexity._primal(alg, n, complexity.CLONE_BUDGET) == full
            if full:
                assert clone_level(alg, 3).size == 256
            seen[full] += 1
        assert seen[True] >= 3 and seen[False] >= 3

    def test_post_criterion_matches_brute_clone(self):
        # every signature of one or two distinct operations of arity 1 or
        # 2 over {0, 1}, then seeded ones with a ternary operation, checked
        # against the closure that Post's criterion replaces
        ops = [
            Operation(f"f{i}", r, table)
            for i, (r, table) in enumerate(
                (r, t) for r in (1, 2) for t in product((0, 1), repeat=2**r)
            )
        ]
        signatures = [(op,) for op in ops] + [(f, g) for i, f in enumerate(ops) for g in ops[i + 1 :]]
        assert len(signatures) == 210
        # a monotone clone leaves T0 and T1 only by both constants, so it
        # takes three operations: both constants and each other operation
        zero, one = (Operation(f"c{v}", 1, (v, v)) for v in (0, 1))
        signatures += [(zero, one, op) for op in ops if len(set(op.table)) > 1]
        rng = random.Random(61)
        for _ in range(100):
            ternary = Operation("t", 3, tuple(rng.choice((0, 1)) for _ in range(8)))
            signatures.append((ternary,) + tuple(rng.sample(ops, rng.choice((0, 1)))))
        seen = Counter()
        for signature in signatures:
            alg = FiniteAlgebra("post", 2, signature)
            full = len(oracle.brute_clone(alg, 2)[0]) == 16
            assert complexity._primal(alg, 2, complexity.CLONE_BUDGET) == full, signature
            seen[full] += 1
        assert seen[True] >= 50 and seen[False] >= 50

    def test_three_element_certificate_matches_brute_clone(self):
        rng = random.Random(59)
        total, hist = oracle.brute_census_all_functions(3, 1)
        seen = Counter()
        for _ in range(40):
            alg = _random_algebra(rng, 3, rng.choice([(2,), (1, 2), (1, 1), (1, 1, 1), (3,)]))
            unary_full = len(oracle.brute_clone(alg, 1)[0]) == 27
            onto_binary = any(
                set(op.table) == {0, 1, 2} and len(oracle.brute_ess(op.table, 3, op.arity)) >= 2
                for op in alg.operations
            )
            certified = complexity._primal(alg, 1, complexity.CLONE_BUDGET)
            assert certified == (unary_full and onto_binary)
            assert complexity._primal(alg, 2, complexity.CLONE_BUDGET) == certified
            if certified:
                census = algebra_n_complexity(alg, 1)
                assert (census.total, dict(census.histogram)) == (total, hist)
            seen[unary_full, onto_binary] += 1
        assert seen[True, True] >= 3 and seen[False, True] >= 3
        # every unary map, from a 3-cycle, a transposition and a collapse,
        # but the binary operation is not onto: the certificate fails
        alg = FiniteAlgebra(
            "unary-full",
            3,
            (
                Operation("c", 1, (1, 2, 0)),
                Operation("t", 1, (1, 0, 2)),
                Operation("z", 1, (0, 0, 2)),
                Operation("m", 2, tuple(min(a, b, 1) for a in range(3) for b in range(3))),
            ),
        )
        assert len(oracle.brute_clone(alg, 1)[0]) == 27
        assert not complexity._primal(alg, 1, complexity.CLONE_BUDGET)

    def test_census_skips_the_closure(self, bu, mod3, monkeypatch):
        arities = []
        closure = complexity._closure

        def spy(alg, n, max_size, bound):
            arities.append(n)
            return closure(alg, n, max_size, bound)

        monkeypatch.setattr(complexity, "_closure", spy)
        for alg, n in ((bu, 2), (bu, 3), (mod3, 1), (mod3, 2)):
            census = algebra_n_complexity(alg, n)
            k = alg.carrier_size
            assert census.clone_size == sum(census.histogram.values()) == k ** k**n
            assert census.total == oracle.census_total_all_functions(k, n)
            if (k, n) != (3, 2):
                assert (census.total, dict(census.histogram)) == oracle.brute_census_all_functions(k, n)
        # only mod3's unary certificate closed: k = 2 takes Post's criterion
        assert arities == [1, 1]

    def test_certified_census_equals_the_closure_route(self, bu, mod3, monkeypatch):
        cases = ((bu, 2), (bu, 3), (mod3, 1))
        certified = [algebra_n_complexity(alg, n).to_json() for alg, n in cases]
        _closure_route(monkeypatch)
        assert [algebra_n_complexity(alg, n).to_json() for alg, n in cases] == certified

    def test_budget_parity_with_the_closure(self, bu, monkeypatch):
        sizes = (-1, 0, 1, 2, 3, 5, 15, 16, 17, 100, 254, 255, 256, 257)
        # with no per-set floor the closure's own budgets come before cp3's
        monkeypatch.setattr(algebra, "_CP3_SET_FLOOR", 1)
        budgets = {2: (15, 16, 20, 40, 63, 64, 191, 192), 3: (63, 64, 65, 100, 2047, 2048, 14335, 14336)}

        default = algebra.WORK_BUDGET

        def outcomes():
            out = [_census_or_error(bu, 3, max_size=m) for m in sizes]
            for n, values in budgets.items():
                for budget in values:
                    monkeypatch.setattr(algebra, "WORK_BUDGET", budget)
                    out.append(_census_or_error(bu, n))
            monkeypatch.setattr(algebra, "WORK_BUDGET", default)
            return out

        certified = outcomes()
        assert certified[sizes.index(255)] == (
            "clone budget exceeded: more than 255 members at arity 3"
        )
        assert certified[sizes.index(5)] == "clone budget exceeded: more than 5 members at arity 3"
        assert certified[-4:-1] == [
            "the closure holds 256 members x 2**3 entries, budget is 2047",
            "the census's cp3 needs 2**3 - 1 sets x 256 members x 2**3 entries, budget is 2048",
            "the census's cp3 needs 2**3 - 1 sets x 256 members x 2**3 entries, budget is 14335",
        ]
        assert certified[-1].total == 2714
        _closure_route(monkeypatch)
        assert outcomes() == certified

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-clone-size", 19682, "clone budget exceeded: more than 19682 members at arity 2"),
            # the certificate's unary closure stops first, at arity 1
            ("--max-clone-size", 5, "clone budget exceeded: more than 5 members at arity 2"),
            ("WORK_BUDGET", 177146, "the closure holds 19683 members x 3**2 entries, budget is 177146"),
            (
                "WORK_BUDGET",
                531440,
                "the census's cp3 needs 2**2 - 1 sets x 19683 members x 3**2 entries, "
                "budget is 531440",
            ),
        ],
    )
    def test_mod3_budget_errors(self, tmp_path, monkeypatch, capsys, option, value, message):
        path = tmp_path / "mod3.json"
        dump_algebra(catalog.mod3(), path)
        argv = ["census", str(path), "--arity", "2", "--json"]
        if option == "WORK_BUDGET":
            monkeypatch.setattr(algebra, "WORK_BUDGET", value)
        else:
            argv += [option, str(value)]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_census_asks_the_certificate_once(self, br, monkeypatch):
        # boolean_ring is not primal, and at max_size 100 its bound at
        # arity 3 would be refused, which is when clone_level asks
        calls = []
        primal = complexity._primal
        monkeypatch.setattr(
            complexity, "_primal", lambda *a: calls.append(a) or primal(*a)
        )
        with pytest.raises(BudgetError, match="more than 100 members"):
            algebra_n_complexity(br, 3, max_size=100)
        assert calls == [(br, 3, 100)]
        calls.clear()
        with pytest.raises(BudgetError, match="more than 100 members"):
            clone_level(br, 3, max_size=100)
        assert calls == [(br, 3, 100)]

    def test_mod3_at_the_budget_boundary(self, mod3, monkeypatch):
        monkeypatch.setattr(algebra, "WORK_BUDGET", 531441)
        assert algebra_n_complexity(mod3, 2, max_size=19683).total == 124608


class TestInvariances:
    def test_equal_operations_give_equal_reports(self, bu):
        rng = random.Random(19)
        for _ in range(30):
            s = random_term(rng, bu, 3, 3)
            t = equivalent_bool2_term(rng, s)
            assert satisfies_identity(bu, s, t, 3)
            assert cp3_total(s, bu, 3) == cp3_total(t, bu, 3)

    def test_variable_permutation(self, bu, mod3):
        rng = random.Random(23)
        for alg in (bu, mod3):
            for _ in range(25):
                term = random_term(rng, alg, 3, 3)
                sigma = [1, 2, 3]
                rng.shuffle(sigma)
                mapping = {i + 1: sigma[i] for i in range(3)}
                subset = frozenset(
                    rng.sample([1, 2, 3], rng.randint(1, 3))
                )
                image = frozenset(mapping[i] for i in subset)
                assert cp3_set(term, alg, 3, subset) == cp3_set(
                    rename_variables(term, mapping), alg, 3, image
                )

    def test_constant_maps_follow_the_induced_operation(self, bu, mod3):
        rng = random.Random(29)
        for alg in (bu, mod3):
            k = alg.carrier_size
            identity = {a: a for a in range(k)}
            for _ in range(25):
                p = random_term(rng, alg, 3, 3, p_const=0.4)
                assert cp3_total(map_constants(p, identity), alg, 3) == cp3_total(
                    p, alg, 3
                )
                g = {a: rng.randrange(k) for a in range(k)}
                q = map_constants(p, g)
                if satisfies_identity(alg, p, q, 3):
                    assert cp3_total(p, alg, 3) == cp3_total(q, alg, 3)

    def test_bijective_constant_map_can_change_the_report(self, bu):
        # injectivity of the constant map on the value set does not pin
        # the induced operation, so the report may change
        p = parse("+(x2,*(#1,x3))", bu)
        q = map_constants(p, {0: 1, 1: 0})
        assert value_set(p, bu, 3) == {0, 1}
        assert cp3_total(p, bu, 3).total == 10
        assert cp3_total(q, bu, 3).total == 4

    def test_carrier_transport(self, bu, mod3):
        rng = random.Random(31)
        for alg in (bu, mod3):
            k = alg.carrier_size
            for _ in range(25):
                term = random_term(rng, alg, 3, 3)
                phi = list(range(k))
                rng.shuffle(phi)
                moved = transport_algebra(alg, phi)
                assert cp3_total(term, alg, 3) == cp3_total(term, moved, 3)
