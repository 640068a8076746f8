"""Complexity measures, clone enumeration, and the algebra census."""

import random
import re
from collections import Counter
from itertools import product

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
    """Make the census take the closure even for a primal algebra."""
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


class TestPrimalCensus:
    def test_catalog_certificates(self, bu, br, sl, chain3, mod3):
        budget = complexity.CLONE_BUDGET
        primal = {
            alg.name: [complexity._primal(alg, n, budget) for n in range(4)]
            for alg in (bu, br, sl, chain3, mod3)
        }
        assert primal == {
            # at n = 1 the 16-member certificate would outgrow the closure
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
        closure = complexity.clone_level

        def spy(alg, n, max_size=complexity.CLONE_BUDGET):
            arities.append(n)
            return closure(alg, n, max_size)

        monkeypatch.setattr(complexity, "clone_level", spy)
        for alg, n in ((bu, 2), (bu, 3), (mod3, 1), (mod3, 2)):
            census = algebra_n_complexity(alg, n)
            k = alg.carrier_size
            assert census.clone_size == sum(census.histogram.values()) == k ** k**n
            assert census.total == oracle.census_total_all_functions(k, n)
            if (k, n) != (3, 2):
                assert (census.total, dict(census.histogram)) == oracle.brute_census_all_functions(k, n)
        # only the certificates' closures ran
        assert arities == [2, 2, 1, 1]

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
