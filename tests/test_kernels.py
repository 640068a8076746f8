"""Kernel-level checks: agreement with the oracle."""

import random
from itertools import product

import pytest

from termalg import kernels

import oracle


def random_cases(seed, count=10):
    rng = random.Random(seed)
    for k in (1, 2, 3, 4):
        for arity in (0, 1, 2, 3):
            size = k**arity
            for _ in range(count):
                yield k, arity, tuple(rng.randrange(k) for _ in range(size))


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_essential_mask_against_oracle():
    for k, arity, values in random_cases(202, count=8):
        mask = kernels.essential_mask(values, k, arity)
        assert kernels.indices_of_mask(mask) == oracle.brute_ess(values, k, arity)


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
                assert kernels.restrict(values, k, arity, positions, constants) == expected
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
    shapes = [(k, arity) for k in (1, 2, 3, 4) for arity in (0, 1, 2, 3)] + [(2, 4)]
    for k, arity in shapes:
        # skewed tables leave some positions fictitious in many restrictions
        for pool in (list(range(k)), [0, 0, 0] + list(range(k))):
            for _ in range(3):
                values = tuple(rng.choice(pool) for _ in range(k**arity))
                counts = kernels.cp3_counts(values, k, arity)
                per, total = oracle.brute_cp3_report(values, k, arity)
                assert sum(counts) == total
                for subset, expected in per.items():
                    mask = kernels.mask_of_indices(subset)
                    assert counts[mask] == expected
                    assert kernels.cp3_count(values, k, arity, mask) == expected
                assert counts[0] == kernels.cp3_count(values, k, arity, 0) == 0


def test_cp3_count_rejects_positions_beyond_arity():
    with pytest.raises(ValueError, match="beyond arity 2"):
        kernels.cp3_count((0, 1, 1, 0), 2, 2, 0b100)


def test_mask_round_trip():
    assert kernels.mask_of_indices(frozenset()) == 0
    assert kernels.mask_of_indices({1, 3}) == 0b101
    assert kernels.indices_of_mask(0b101) == frozenset({1, 3})
    for mask in range(64):
        assert kernels.mask_of_indices(kernels.indices_of_mask(mask)) == mask
