"""Kernel-level checks: agreement with the oracle."""

import random
from itertools import product

import pytest

from termalg import catalog, cp3_total, kernels, sep_sets
from termalg.terms import Apply, Variable

import oracle


def random_cases(seed, count=10):
    rng = random.Random(seed)
    for k in (1, 2, 3, 4):
        for arity in (0, 1, 2, 3, 4):
            size = k**arity
            for _ in range(count):
                yield k, arity, tuple(rng.randrange(k) for _ in range(size))


def table_forms(values, k):
    """The table as lane bytes of every width that holds its values;
    width 4 is where a fold of lanes onto their low byte would leak the
    next lane's bytes."""
    for width in (1, 2, 4, 8):
        if width >= kernels.lane_width(k, ()):
            yield kernels.pack(values, width)


def wide_table(rng, arity, k=257):
    """A table over k = 257 elements, mostly 0 with a few entries of 256
    and above, so that some rows and columns stay constant."""
    return tuple(
        rng.choice((256, k - 1, 1)) if rng.random() < 0.01 else 0 for _ in range(k**arity)
    )


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_essential_mask_against_oracle():
    for k, arity, values in random_cases(202, count=8):
        expected = oracle.brute_ess(values, k, arity)
        for table in table_forms(values, k):
            mask = kernels.essential_mask(table, k, arity)
            assert kernels.indices_of_mask(mask) == expected


def test_essential_mask_wide_carrier():
    rng = random.Random(206)
    for _ in range(4):
        values = wide_table(rng, 1)
        expected = oracle.brute_ess(values, 257, 1)
        for table in table_forms(values, 257):
            assert kernels.indices_of_mask(kernels.essential_mask(table, 257, 1)) == expected
    # at arity 2 brute_ess visits 257**3 pairs, so the reference is its
    # definition read off the rows and columns
    for _ in range(2):
        values = wide_table(rng, 2)
        rows = [values[r * 257 : (r + 1) * 257] for r in range(257)]
        columns = [values[c::257] for c in range(257)]
        expected = {
            i
            for i, lines in ((1, columns), (2, rows))
            if any(len(set(line)) > 1 for line in lines)
        }
        for table in table_forms(values, 257):
            assert kernels.indices_of_mask(kernels.essential_mask(table, 257, 2)) == expected


def test_essential_mask_one_moving_position_at_arity_16():
    values = tuple(i >> 15 for i in range(2**16))
    for table in table_forms(values, 2):
        assert kernels.essential_mask(table, 2, 16) == 1


def test_essential_mask_moving_only_past_the_first_blocks():
    # one entry differs, at the end or in the middle: every position moves
    # there, and only there, so a test of the first block alone misses it
    for k, arity in ((2, 10), (3, 6)):
        size = k**arity
        for where in (size - 1, size // 2 + 1):
            values = tuple(int(i == where) for i in range(size))
            expected = oracle.brute_ess(values, k, arity)
            assert expected == set(range(1, arity + 1))
            for table in table_forms(values, k):
                assert kernels.indices_of_mask(kernels.essential_mask(table, k, arity)) == expected


def test_restrict_against_oracle():
    rng = random.Random(303)
    for k in (1, 2, 3, 4):
        for arity in (0, 1, 2, 3, 4):
            size = k**arity
            for _ in range(10):
                values = tuple(rng.randrange(k) for _ in range(size))
                npos = rng.randrange(arity + 1)
                positions = sorted(rng.sample(range(arity), npos))
                constants = [rng.randrange(k) for _ in positions]
                assigned = {p + 1: c for p, c in zip(positions, constants)}
                expected = oracle.brute_restrict(values, k, arity, assigned)
                for width in (1, 2):
                    lanes = kernels.pack(values, width)
                    got = kernels.restrict(lanes, k, arity, positions, constants)
                    assert isinstance(got, bytes)
                    assert kernels.unpack(got, width) == expected


def test_compose_against_pointwise():
    rng = random.Random(505)
    for k, arity, n in ((2, 1, 3), (2, 2, 3), (3, 3, 2), (4, 2, 2), (1, 2, 2)):
        size = k**n
        op = tuple(rng.randrange(k) for _ in range(k**arity))
        args = [tuple(rng.randrange(k) for _ in range(size)) for _ in range(arity)]
        expected = tuple(
            op[oracle.idx([a[i] for a in args], k)] for i in range(size)
        )
        # any lane at least as wide as the operation-table indices will do
        for width in (1, 2, 4, 8):
            lanes = [kernels.pack(a, width) for a in args]
            got = kernels.compose(op, arity, lanes, k, size)
            assert kernels.unpack(got, width) == expected


def test_compose_unary_maps_each_lane():
    # every unary operation on 2 and 3 elements, and a 300-element one,
    # whose lanes are at least 2 bytes wide
    ops = [op for k in (2, 3) for op in product(range(k), repeat=k)]
    ops.append(tuple((5 * a + 7) % 300 for a in range(300)))
    rng = random.Random(506)
    for op in ops:
        k = len(op)
        arg = tuple(rng.randrange(k) for _ in range(2 * k))
        for width in (1, 2, 4, 8):
            if k > 256**width:
                continue
            got = kernels.compose(op, 1, [kernels.pack(arg, width)], k, len(arg))
            assert kernels.unpack(got, width) == tuple(op[a] for a in arg)


def test_lane_width():
    assert kernels.lane_width(2, ()) == 1
    assert kernels.lane_width(256, (1,)) == 1
    assert kernels.lane_width(257, ()) == 2
    assert kernels.lane_width(7, (1, 3)) == 2
    assert kernels.lane_width(2, (16,)) == 2
    assert kernels.lane_width(2, (17,)) == 4


def test_lane_builders():
    # first argument most significant, as in every table
    for k, n in ((1, 0), (1, 3), (2, 0), (2, 3), (3, 2), (257, 2)):
        width = kernels.lane_width(k, ())
        for i in range(1, n + 1):
            expected = tuple(args[i - 1] for args in product(range(k), repeat=n))
            lanes = kernels.projection_lanes(i, n, k, width)
            assert kernels.unpack(lanes, width) == expected
        for value in {0, k - 1}:
            lanes = kernels.constant_lanes(value, k**n, width)
            assert kernels.unpack(lanes, width) == (value,) * k**n


def test_cp3_counts_against_oracle():
    rng = random.Random(404)
    shapes = [(k, arity) for k in (1, 2, 3, 4) for arity in (0, 1, 2, 3, 4)]
    for k, arity in shapes:
        # skewed tables leave some positions fictitious in many restrictions;
        # at k = 4, arity 4 the oracle takes over a second per table
        pools = ([0, 0, 0] + list(range(k)), list(range(k)))
        for pool in pools[: 1 if k**arity > 81 else 2]:
            for _ in range(1 if k**arity > 81 else 3):
                values = tuple(rng.choice(pool) for _ in range(k**arity))
                per, total = oracle.brute_cp3_report(values, k, arity)
                for table in table_forms(values, k):
                    check_cp3_counts(table, k, arity, per, total)


def test_cp3_counts_wide_carrier():
    rng = random.Random(408)
    for _ in range(4):
        values = wide_table(rng, 1)
        per, total = oracle.brute_cp3_report(values, 257, 1)
        for table in table_forms(values, 257):
            check_cp3_counts(table, 257, 1, per, total)
    # at arity 2 the oracle visits 257**4 entries; by definition {1} counts
    # the columns that move, {2} the rows, and {1, 2} is 1 when both do
    for _ in range(2):
        values = wide_table(rng, 2)
        rows = sum(len(set(values[r * 257 : (r + 1) * 257])) > 1 for r in range(257))
        columns = sum(len(set(values[c::257])) > 1 for c in range(257))
        per = {
            frozenset({1}): columns,
            frozenset({2}): rows,
            frozenset({1, 2}): int(rows > 0 and columns > 0),
        }
        for table in table_forms(values, 257):
            check_cp3_counts(table, 257, 2, per, sum(per.values()))


def check_cp3_counts(table, k, arity, per, total):
    counts = kernels.cp3_counts(table, k, arity)
    assert sum(counts) == total
    for subset, expected in per.items():
        mask = kernels.mask_of_indices(subset)
        assert counts[mask] == expected
        assert kernels.cp3_count(table, k, arity, mask) == expected
    assert counts[0] == kernels.cp3_count(table, k, arity, 0) == 0


def lanes(values, k):
    """Lane bytes of a table at the value width."""
    return kernels.pack(values, kernels.lane_width(k, ()))


def joined(tables, width):
    """Tables of lane bytes joined into one integer, the first lowest."""
    return int.from_bytes(b"".join(kernels.pack(t, width) for t in tables), "little")


def boundary_neighbours(values, k):
    """The table, then copies that differ from it only in the last entry
    and only in the first: adjacent in a blob, they differ only where one
    table ends and the next begins, so borrows across tables meet there."""
    return [
        values,
        values[:-1] + ((values[-1] + 1) % k,),
        ((values[0] + 1) % k,) + values[1:],
        values,
    ]


def test_cp3_totals_against_oracle():
    rng = random.Random(409)
    for k in (1, 2, 3, 4):
        for arity in (0, 1, 2, 3):
            pool = [0, 0, 0] + list(range(k))
            tables = [tuple(rng.choice(pool) for _ in range(k**arity)) for _ in range(3)]
            tables += boundary_neighbours(tables[0], k)
            expected = [oracle.brute_cp3_report(t, k, arity)[1] for t in tables]
            assert expected == [sum(kernels.cp3_counts(lanes(t, k), k, arity)) for t in tables]
            for width in (1, 2, 4, 8):
                for blob in (tables[:1], tables):
                    got = kernels.cp3_totals(joined(blob, width), len(blob), k, arity, width)
                    assert got == expected[: len(blob)]


def test_cp3_totals_wide_carrier():
    rng = random.Random(410)
    tables = [wide_table(rng, 1) for _ in range(3)]
    tables += boundary_neighbours(tables[0], 257)
    expected = [oracle.brute_cp3_report(t, 257, 1)[1] for t in tables]
    for width in (2, 4, 8):
        assert kernels.cp3_totals(joined(tables, width), len(tables), 257, 1, width) == expected
    # at arity 2 the reference is the per-table kernel, checked against
    # the definition in test_cp3_counts_wide_carrier
    tables = [wide_table(rng, 2) for _ in range(2)]
    expected = [sum(kernels.cp3_counts(lanes(t, 257), 257, 2)) for t in tables]
    for width in (2, 4, 8):
        assert kernels.cp3_totals(joined(tables, width), 2, 257, 2, width) == expected


def test_cp3_totals_flush_past_255_masks():
    # parity of 9 variables leaves every set essential under every
    # assignment, so index 0 is kept by all 511 masks: its count has
    # nine binary digits, and a byte holding all nine would pass 255, so
    # they are spread and flushed in two groups, of eight and of one
    n = 9
    parity = tuple(bin(i).count("1") % 2 for i in range(2**n))
    tables = [parity, tuple(1 - v for v in parity), (0,) * 2**n, parity]
    expected = [sum(kernels.cp3_counts(lanes(t, 2), 2, n)) for t in tables]
    for width in (1, 2):
        assert kernels.cp3_totals(joined(tables, width), len(tables), 2, n, width) == expected


def test_cp3_totals_two_full_digit_groups():
    # at 12 variables index 0 of parity is kept by all 4095 masks, twelve
    # binary digits: a group of eight and a second group of four
    n = 12
    parity = tuple(bin(i).count("1") % 2 for i in range(2**n))
    # each nonempty set M is essential under all 2**(n - |M|) assignments
    # of the others: 3**n in all, less 2**n for the empty set
    expected = [3**n - 2**n, 0, 3**n - 2**n]
    tables = [parity, (1,) * 2**n, tuple(1 - v for v in parity)]
    assert kernels.cp3_totals(joined(tables, 1), len(tables), 2, n, 1) == expected


def test_cp3_totals_of_no_tables():
    assert kernels.cp3_totals(0, 0, 2, 3, 1) == []


def test_cp3_counts_walk_against_each_mask():
    # every mask of the walk against `_kept` for that mask alone, on random
    # and skewed tables; skewed ones leave positions fictitious in many
    # restrictions, so that kept bits die at some masks and not others
    rng = random.Random(411)
    shapes = [(2, n) for n in range(5, 10)] + [(3, 5), (4, 4)]
    for k, arity in shapes:
        for pool in ([0] * 6 + list(range(k)), list(range(k))):
            values = tuple(rng.choice(pool) for _ in range(k**arity))
            for table in table_forms(values, k):
                counts = kernels.cp3_counts(table, k, arity)
                assert counts == [kernels.cp3_count(table, k, arity, m) for m in range(1 << arity)]


def test_cp3_walk_at_the_smallest_shapes():
    for table, k, arity, counts in (
        (bytes((1,)), 2, 0, [0]),
        (bytes((0,)), 1, 0, [0]),
        (bytes((0, 1)), 2, 1, [0, 1]),
        (bytes((1, 1)), 2, 1, [0, 0]),
        (bytes((0, 2, 1)), 3, 1, [0, 1]),
        (bytes((0,)), 1, 1, [0, 0]),
        (bytes((0,)), 1, 3, [0] * 8),
    ):
        assert kernels.cp3_counts(table, k, arity) == counts
        total = sum(counts)
        assert kernels.cp3_totals(int.from_bytes(table * 2, "little"), 2, k, arity, 1) == [total] * 2


def test_cp3_totals_walk_on_boundary_neighbours():
    rng = random.Random(412)
    for k, arity in ((2, 5), (2, 6), (3, 5)):
        for pool in ([0] * 6 + list(range(k)), list(range(k))):
            first = tuple(rng.choice(pool) for _ in range(k**arity))
            tables = boundary_neighbours(first, k)
            expected = [sum(kernels.cp3_counts(lanes(t, k), k, arity)) for t in tables]
            for width in (1, 2, 4, 8):
                assert kernels.cp3_totals(joined(tables, width), len(tables), k, arity, width) == expected


def in_sorted_order(sets):
    return sorted(sets, key=lambda s: tuple(sorted(s)))


def test_preorder_is_the_order_of_sorted_indices():
    for n in range(11):
        masks = list(kernels.preorder(n))
        assert sorted(masks) == list(range(1, 1 << n))
        sets = [kernels.indices_of_mask(m) for m in masks]
        assert sets == in_sorted_order(sets)


def test_sep_sets_and_cp_per_set_in_sorted_order():
    rng = random.Random(413)
    alg = catalog.bool2()
    for n in range(1, 9):
        # the sum of all variables leaves every set separable; a random
        # chain of + and * leaves some
        parity, chain = Variable(1), Variable(1)
        for i in range(2, n + 1):
            parity = Apply("+", (parity, Variable(i)))
            chain = Apply(rng.choice("+*"), (chain, Variable(i)))
        assert len(sep_sets(parity, alg, n)) == 2**n - 1
        for term in (parity, chain):
            found = sep_sets(term, alg, n)
            assert found == in_sorted_order(found)
            items = cp3_total(term, alg, n).sorted_items()
            assert [s for s, _ in items] == in_sorted_order(s for s, _ in items)
            assert len(items) == 2**n - 1


def test_cp3_count_rejects_positions_beyond_arity():
    with pytest.raises(ValueError, match="beyond arity 2"):
        kernels.cp3_count(bytes((0, 1, 1, 0)), 2, 2, 0b100)


def test_mask_round_trip():
    assert kernels.mask_of_indices(frozenset()) == 0
    assert kernels.mask_of_indices({1, 3}) == 0b101
    assert kernels.indices_of_mask(0b101) == frozenset({1, 3})
    for mask in range(64):
        assert kernels.mask_of_indices(kernels.indices_of_mask(mask)) == mask
