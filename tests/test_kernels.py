"""Kernel-level checks: agreement with the oracle."""

import random

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
    for k in (2, 3):
        for arity in (1, 2, 3):
            size = k**arity
            for _ in range(10):
                values = tuple(rng.randrange(k) for _ in range(size))
                npos = rng.randrange(arity + 1)
                positions = sorted(rng.sample(range(arity), npos))
                constants = [rng.randrange(k) for _ in positions]
                got = kernels.restrict(values, k, arity, positions, constants)
                assigned = {p + 1: c for p, c in zip(positions, constants)}
                assert got == oracle.brute_restrict(values, k, arity, assigned)


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
