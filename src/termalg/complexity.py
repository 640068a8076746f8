"""Complexity measures for terms and algebras.

Three measures: variable occurrences (cp1), operation-symbol count (cp2),
and the semantic count cp3, which for each nonempty variable set M counts
the assignments to the remaining variables that leave exactly M essential.
Summing cp3 over every member of the n-ary clone gives the n-complexity
of an algebra.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress
from math import comb
from typing import Iterable, Mapping, Optional

from . import algebra, kernels
from .algebra import (
    FiniteAlgebra,
    FunctionTable,
    induced_operation,
    _check_cp3_work,
    _check_work,
    _table_size,
)
from .errors import BudgetError
from .semantics import _check_subset, _context
from .terms import Apply, Constant, Term, Variable

CLONE_BUDGET = 1_000_000

__all__ = [
    "CLONE_BUDGET",
    "ComplexityReport",
    "CloneLevel",
    "AlgebraCensus",
    "cp1",
    "cp2",
    "cp3_set",
    "cp3_total",
    "cp3_of_table",
    "value_set",
    "clone_level",
    "algebra_n_complexity",
]


def cp1(term: Term) -> int:
    """Number of variable occurrences."""
    if isinstance(term, Variable):
        return 1
    if isinstance(term, Constant):
        return 0
    return sum(cp1(c) for c in term.children)


def cp2(term: Term) -> int:
    """Number of operation symbols; constants count like variables: zero."""
    if isinstance(term, (Variable, Constant)):
        return 0
    return 1 + sum(cp2(c) for c in term.children)


@dataclass(frozen=True)
class ComplexityReport:
    """cp3 counts of one function: per nonempty variable set, plus total."""

    arity: int
    per_set: Mapping[frozenset, int]
    total: int

    @classmethod
    def from_counts(cls, counts, arity: int) -> "ComplexityReport":
        per = {
            kernels.indices_of_mask(m): counts[m] for m in range(1, 1 << arity)
        }
        return cls(arity, per, sum(counts))

    def sorted_items(self):
        return sorted(self.per_set.items(), key=lambda kv: tuple(sorted(kv[0])))


def cp3_set(term: Term, alg: FiniteAlgebra, n: int, subset: Iterable[int]) -> int:
    """Evaluations of the variables outside the set that leave exactly it
    essential; the set must be nonempty."""
    m = _check_subset(subset, n)
    if not m:
        raise ValueError("cp3 is defined for nonempty variable sets")
    table = induced_operation(term, alg, n)
    return kernels.cp3_count(table.values, alg.carrier_size, n, kernels.mask_of_indices(m))


def cp3_total(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> ComplexityReport:
    """Full cp3 report over all nonempty subsets of x1..xn."""
    n = _context(n, term)
    return cp3_of_table(induced_operation(term, alg, n))


def cp3_of_table(table: FunctionTable) -> ComplexityReport:
    """cp3 report computed directly from a tabulated function."""
    _check_cp3_work(table.carrier_size, table.arity)
    counts = kernels.cp3_counts(table.values, table.carrier_size, table.arity)
    return ComplexityReport.from_counts(counts, table.arity)


def value_set(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> frozenset:
    """Distinct values the induced operation takes."""
    n = _context(n, term)
    return frozenset(induced_operation(term, alg, n).values)


# ---------------------------------------------------------------------------
# clone enumeration


@dataclass(frozen=True)
class CloneLevel:
    """The n-ary term operations of an algebra, with generating terms.

    `members` lists distinct tables in discovery order: the projections
    first, then breadth-first by composition depth with ties broken by
    operation order and then by the lexicographic argument tuple.
    `witnesses[i]` is a term inducing `members[i]`. The order is the same
    whether the closure ran to its fixpoint or stopped early because it
    held every function that preserves the algebra's subuniverses.

    `tables` holds the members as the closure built them, lane bytes of
    `width` bytes per entry; `members` unpacks them on first use.
    """

    arity: int
    carrier_size: int
    tables: tuple
    width: int
    witnesses: tuple

    @cached_property
    def members(self) -> tuple:
        k, n, width = self.carrier_size, self.arity, self.width
        return tuple(FunctionTable(n, k, kernels.unpack(t, width)) for t in self.tables)

    @property
    def size(self) -> int:
        return len(self.tables)


def clone_level(alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET) -> CloneLevel:
    """Close the n projections under the basic operations.

    Fixpoint rounds: each round composes every basic operation with all
    argument tuples of already-known members that touch the newest layer
    (the members added in the previous round), deduplicating by table.
    A commutative binary operation skips each (a, b) with b < a: it
    equals (b, a), which touches the newest layer through a and came
    earlier in the same round, so it is never new.
    Raises BudgetError once more than `max_size` distinct members appear
    or their tables would hold more than WORK_BUDGET entries. Stops as
    soon as the clone holds as many members as there are n-ary functions
    preserving every subuniverse (`_subuniverse_bound`): every term
    operation is one of them, so the clone is then complete. With no
    proper nonempty subuniverse that is all k**(k**n) functions.
    """
    width = kernels.lane_width(alg.carrier_size, [op.arity for op in alg.operations])
    tables, witnesses = _closure(alg, n, width, max_size)
    return CloneLevel(n, alg.carrier_size, tuple(tables), width, tuple(witnesses))


def _closure(alg, n, width, max_size):
    """(tables, witnesses) of the n-ary clone in discovery order, the
    tables as lane bytes of `width` bytes per entry.

    For each prefix of all but the last argument, the last argument runs
    over a whole block of members at once. One little-endian integer
    holds the block's tables; adding the prefix's lanes scaled by k,
    their bytes repeated once per table, puts the operation-table index
    of every entry of every candidate in its own lane, which is below
    256**width so no lane carries. One table lookup over the bytes then
    yields all the composed tables, in the order the argument tuples
    come in. A block is split into its tables at C speed and deduplicated
    by one set difference against the known tables; when some are new,
    one pass over the block picks them out in block order.
    """
    k = alg.carrier_size
    size = _table_size(k, n)
    step = size * width
    bound = _subuniverse_bound(alg, n)
    tables: list[bytes] = []
    witnesses: list[Term] = []
    seen: set[bytes] = set()

    def add(values: bytes, witness: Term) -> bool:
        """Record a new member; True once the clone reaches the bound."""
        _admit(len(tables) + 1, max_size, k, n)
        seen.add(values)
        tables.append(values)
        witnesses.append(witness)
        return len(tables) == bound

    for i in range(1, n + 1):
        values = kernels.projection_lanes(i, n, k, width)
        if values not in seen and add(values, Variable(i)):
            return tables, witnesses
    frontier = 0
    while frontier < len(tables):
        known = len(tables)
        # the tables of all members, and of the newest layer, as integers
        every = int.from_bytes(b"".join(tables), "little")
        fresh = every >> 8 * step * frontier
        for op in alg.operations:
            lookup = kernels.lookup(op.table, width)
            # its table equals its transpose
            commutes = op.arity == 2 and op.table == tuple(
                chain.from_iterable(op.table[b::k] for b in range(k))
            )
            for prefix, prefix_lanes in _prefixes(tables, op.arity - 1, k, known):
                # tuples made only of older members were composed before,
                # and for a commutative operation (a, b) with b < a is (b, a)
                last = max(prefix, default=-1)
                first = frontier if last < frontier else last if commutes else 0
                blob = fresh if first == frontier else every >> 8 * step * first
                count = known - first
                # each whole-block copy is dropped once the next one exists
                data = (prefix_lanes * k).to_bytes(step, "little") * count
                data = int.from_bytes(data, "little")
                data += blob
                data = lookup(data.to_bytes(count * step, "little"))
                # a fresh Struct: struct.unpack would cache one compiled
                # format, 32 bytes per table, for each block size it sees
                chunks = struct.Struct(f"{step}s" * count).unpack(data)
                del data
                novel = set(chunks).difference(seen)
                if not novel:
                    continue
                for j in compress(range(count), map(novel.__contains__, chunks)):
                    if chunks[j] in seen:
                        continue  # a new table repeated within the block
                    args = prefix + (first + j,)
                    witness = Apply(op.symbol, tuple(witnesses[a] for a in args))
                    if add(chunks[j], witness):
                        return tables, witnesses
        frontier = known
    return tables, witnesses


def _admit(members, max_size, k, n):
    """Raise the closure's BudgetError for holding `members` members:
    more than `max_size` of them, or more than WORK_BUDGET entries."""
    if members > max_size:
        raise BudgetError(f"clone budget exceeded: more than {max_size} members at arity {n}")
    _check_work(members * k**n, f"the closure holds {members} members x {k}**{n}")


def _subuniverse_bound(alg, n, lookups=None):
    """Number of n-ary operations that preserve every subuniverse: the
    product over a in A**n of |Sg({a1, ..., an})|, the subuniverse the
    entries of a generate. Every term operation preserves every
    subuniverse, so the n-ary clone has at most this many members; with
    no proper nonempty subuniverse it is k**(k**n).

    The tuples whose entries form a set X of j elements are the
    surjections of the n positions onto X, so each X is closed once and
    its factor raised to their number. A set's closure starts from the
    union of its points' subuniverses, and each round applies every
    operation to all of S**arity. The rounds of all sets together visit
    at most `lookups` operation-table entries, by default k**n, one
    table's worth; once that is spent, every remaining factor is taken
    as k, which only enlarges the bound.
    """
    k = alg.carrier_size
    budget = k**n if lookups is None else lookups
    left = k**n  # tuples whose factor is not yet known
    bound = 1
    points: dict[int, frozenset] = {}

    def generated(s):
        nonlocal budget
        while len(s) < k:
            cost = sum(len(s) ** op.arity for op in alg.operations)
            if cost > budget:
                return None
            budget -= cost
            grown = set(s)
            for op in alg.operations:
                indices = [0]
                for _ in range(op.arity):
                    indices = [i * k + a for i in indices for a in s]
                grown.update(map(op.table.__getitem__, indices))
            if len(grown) == len(s):
                break
            s = grown
        return frozenset(s)

    for j in range(min(n, k) + 1):
        tuples = sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))
        for subset in combinations(range(k), j):
            closed = generated(set(subset).union(*(points.get(x, ()) for x in subset)))
            if closed is None:
                return bound * k**left
            if j == 1:
                points[subset[0]] = closed
            bound *= len(closed) ** tuples
            left -= tuples
    return bound


def _prefixes(tables, depth, k, known):
    """(indices, lanes) of every depth-tuple over range(known), in
    lexicographic order; lane j holds a1[j]*k**(depth-1) + ... + a_depth[j]."""
    if depth == 0:
        yield (), 0
        return
    for head, head_lanes in _prefixes(tables, depth - 1, k, known):
        for a in range(known):
            yield head + (a,), head_lanes * k + int.from_bytes(tables[a], "little")


@dataclass(frozen=True)
class AlgebraCensus:
    """n-complexity of an algebra with its distribution histogram."""

    algebra: str
    n: int
    clone_size: int
    total: int
    histogram: Mapping[int, int]

    def to_json(self) -> str:
        doc = {
            "algebra": self.algebra,
            "n": self.n,
            "clone_size": self.clone_size,
            "total": self.total,
            "histogram": {
                str(c): self.histogram[c] for c in sorted(self.histogram, reverse=True)
            },
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AlgebraCensus":
        doc = json.loads(text)
        hist = {int(c): int(v) for c, v in doc["histogram"].items()}
        return cls(doc["algebra"], doc["n"], doc["clone_size"], doc["total"], hist)


def algebra_n_complexity(
    alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET
) -> AlgebraCensus:
    """Sum cp3 over every n-ary clone member, grouping members by total.

    One table's count is checked before the closure; once the clone is
    known, the count over all its members is charged in full. A primal
    algebra (`_primal`) skips the closure: its clone is every function,
    counted straight from their tables, with the budget errors the
    closure would raise on the way to k**(k**n) members.
    """
    k = alg.carrier_size
    _check_cp3_work(k, n)
    if _primal(alg, n, max_size):
        size = k**n
        count = k**size
        # the closure refuses its first member over max_size or WORK_BUDGET
        _admit(min(count, max_size + 1, algebra.WORK_BUDGET // size + 1), max_size, k, n)
        width = kernels.lane_width(k, ())
        tables = _all_tables(k, size, width)
    else:
        clone = clone_level(alg, n, max_size)
        count, width, tables = clone.size, clone.width, b"".join(clone.tables)
    _check_work(
        (2**n - 1) * count * k**n,
        f"the census's cp3 needs 2**{n} - 1 sets x {count} members x {k}**{n}",
    )
    blob = int.from_bytes(tables, "little")
    buckets: dict[int, int] = {}
    total = 0
    for t in kernels.cp3_totals(blob, count, k, n, width):
        total += t
        buckets[t] = buckets.get(t, 0) + 1
    histogram = {c: buckets[c] for c in sorted(buckets, reverse=True)}
    return AlgebraCensus(alg.name, n, count, total, histogram)


def _primal(alg, n, max_size):
    """True when a cheap certificate shows that the clone holds every
    operation on the carrier, so that its n-ary members need no closure.

    k = 2: the binary clone holds all 16 functions, since every function
    on a finite set composes from binary ones (Sierpinski 1945). At n = 1
    that clone is larger than the one it would spare, so it is not tried.
    k >= 3: the unary clone holds all k**k functions and some basic
    operation is onto and depends on at least two variables (Slupecki
    1939). The closure behind the certificate is never larger than the
    n-ary one it spares; if a budget stops it, the certificate fails and
    the census takes the closure, which raises the budget's own error.
    """
    k = alg.carrier_size
    if k == 2 and n >= 2:
        arity = 2
    elif k >= 3 and n >= 1 and any(
        set(op.table) == set(range(k))
        and kernels.essential_mask(op.table, k, op.arity).bit_count() >= 2
        for op in alg.operations
    ):
        arity = 1
    else:
        return False
    try:
        return clone_level(alg, arity, max_size).size == k ** (k**arity)
    except BudgetError:
        return False


def _all_tables(k, size, width):
    """Lane bytes of every function with `size` entries over k elements,
    joined: the tables in lexicographic order, the first entry most
    significant. Entry i of all tables together is the runs of each
    value, k**(size - 1 - i) long, repeated; it is written into every
    table at once by one strided slice per lane byte."""
    count = k**size
    step = size * width
    out = bytearray(count * step)
    for i in range(size):
        run = k ** (size - 1 - i)
        column = b"".join(kernels.constant_lanes(v, run, width) for v in range(k))
        column *= count // (run * k)
        for b in range(width):
            out[i * width + b :: step] = column[b::width]
    return out
