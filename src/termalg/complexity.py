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
from functools import cached_property, reduce
from itertools import chain, combinations, compress, product
from math import comb
from operator import not_, or_
from typing import Iterable, Mapping, Optional

from . import algebra, kernels
from ._record import record
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
from .terms import Apply, Term, Variable, nodes

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
    "clone_size",
    "algebra_n_complexity",
]


def cp1(term: Term) -> int:
    """Number of variable occurrences."""
    return [*map(type, nodes(term))].count(Variable)


def cp2(term: Term) -> int:
    """Number of operation symbols; constants count like variables: zero."""
    return [*map(type, nodes(term))].count(Apply)


@record
class ComplexityReport:
    """cp3 counts of one function: per nonempty variable set, plus total.

    A report built from the counts by mask (`from_counts`) keeps them in
    `_counts` and makes `per_set` from them on first use; `sorted_items`
    and `set_texts` read the counts by mask either way.
    """

    arity: int
    per_set: Mapping[frozenset, int]
    total: int

    @classmethod
    def from_counts(cls, counts, arity: int) -> "ComplexityReport":
        """The report of `kernels.cp3_counts`, a list indexed by mask."""
        report = cls.__new__(cls)
        report.__dict__.update(arity=arity, total=sum(counts), _counts=counts)
        return report

    @cached_property
    def per_set(self) -> Mapping[frozenset, int]:
        counts = self._counts
        return {kernels.indices_of_mask(m): counts[m] for m in range(1, 1 << self.arity)}

    @cached_property
    def _counts(self) -> list:
        """The counts indexed by mask, of a report built with `per_set`."""
        counts = [0] * (1 << self.arity)
        for s, c in self.per_set.items():
            counts[kernels.mask_of_indices(s)] = c
        return counts

    def sorted_items(self):
        """(set, count) pairs of every nonempty set of x1..x_arity,
        ordered lexicographically by sorted indices (`kernels.preorder`)."""
        counts = self._counts
        return [(kernels.indices_of_mask(m), counts[m]) for m in kernels.preorder(self.arity)]

    def set_texts(self, sep: str = ",", prefix: str = ""):
        """Yield (text, count) for every nonempty set of x1..x_arity, in
        the order of `sorted_items`; the text is the set's indices in
        increasing order, each after `prefix`, joined by `sep`. Each text
        is its parent's, the last set visited with one index fewer, plus
        one index; no set is built."""
        counts = self._counts
        items = [f"{sep}{prefix}{i}" for i in range(1, self.arity + 1)]
        path = [""] * (self.arity + 1)  # the text at each depth
        cut = len(sep)
        for m in kernels.preorder(self.arity):
            depth = m.bit_count()
            path[depth] = text = path[depth - 1] + items[m.bit_length() - 1]
            yield text[cut:], counts[m]


def cp3_set(term: Term, alg: FiniteAlgebra, n: int, subset: Iterable[int]) -> int:
    """Evaluations of the variables outside the set that leave exactly it
    essential; the set must be nonempty."""
    m = _check_subset(subset, n)
    if not m:
        raise ValueError("cp3 is defined for nonempty variable sets")
    table = induced_operation(term, alg, n)
    return kernels.cp3_count(table.lanes, alg.carrier_size, n, kernels.mask_of_indices(m))


def cp3_total(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> ComplexityReport:
    """Full cp3 report over all nonempty subsets of x1..xn; its work is
    checked before the term is tabulated."""
    n = _context(n, term)
    _check_cp3_work(alg.carrier_size, n)
    return cp3_of_table(induced_operation(term, alg, n))


def cp3_of_table(table: FunctionTable) -> ComplexityReport:
    """cp3 report computed directly from a tabulated function."""
    _check_cp3_work(table.carrier_size, table.arity)
    counts = kernels.cp3_counts(table.lanes, table.carrier_size, table.arity)
    return ComplexityReport.from_counts(counts, table.arity)


def value_set(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> frozenset:
    """Distinct values the induced operation takes."""
    n = _context(n, term)
    return frozenset(induced_operation(term, alg, n).values)


# ---------------------------------------------------------------------------
# clone enumeration


@record
class CloneLevel:
    """The n-ary term operations of an algebra, with generating terms.

    `members` lists distinct tables in discovery order: the projections
    first, then breadth-first by composition depth with ties broken by
    operation order and then by the lexicographic argument tuple.
    `witnesses[i]` is a term inducing `members[i]`. The order is the same
    whether the closure ran to its fixpoint or stopped early because it
    held as many members as the clone can have (`clone_level`).

    `tables` holds the members as the closure built them, lane bytes of
    `width` bytes per entry; `members` makes them FunctionTables on first
    use. The closure records each member's derivation in `_derivations`:
    the index i of the projection x_i, or (symbol, argument member
    indices). `witnesses` builds the terms from them on first use, and
    `witness_texts` their printed forms.
    """

    arity: int
    carrier_size: int
    tables: tuple
    width: int
    witnesses: tuple

    @classmethod
    def _derived(cls, arity, k, tables, width, derivations) -> "CloneLevel":
        """The level the closure built, its witnesses not yet built."""
        level = cls.__new__(cls)
        level.__dict__.update(
            arity=arity, carrier_size=k, tables=tables, width=width, _derivations=derivations
        )
        return level

    @cached_property
    def witnesses(self) -> tuple:
        built: list[Term] = []
        for d in self._derivations:
            if type(d) is int:
                built.append(Variable(d))
            else:
                symbol, args = d
                built.append(Apply(symbol, tuple(map(built.__getitem__, args))))
        return tuple(built)

    @property
    def witness_texts(self) -> list:
        """The witnesses as `terms.print_term` prints them, from the
        derivations. The arguments of each composed member are earlier
        members, so its text joins theirs; no term is built."""
        texts: list[str] = []
        for d in self._derivations:
            if type(d) is int:
                texts.append(f"x{d}")
            else:
                symbol, args = d
                texts.append(f"{symbol}({','.join(map(texts.__getitem__, args))})")
        return texts

    @cached_property
    def members(self) -> tuple:
        return tuple(FunctionTable._from_lanes(self.arity, self.carrier_size, t) for t in self.tables)

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
    or their tables would hold more than WORK_BUDGET entries, before any
    closing when the clone's size is known (`_known`). Stops once it
    holds as many members as the clone can have: its known size, else
    the subuniverse bound. Raises ValueError for n < 0.
    """
    known = _known(alg, n, max_size)
    return _closure(alg, n, max_size, known[0] if known else _subuniverse_bound(alg, n))


def clone_size(alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET) -> int:
    """Number of n-ary term operations: the known size (`_known`) with
    no closing, else that of `clone_level`, with its errors."""
    known = _known(alg, n, max_size)
    return known[0] if known else _closure(alg, n, max_size, _subuniverse_bound(alg, n)).size


def _known(alg, n, max_size, check=_table_size):
    """(size, width, build) when the n-ary clone's size is known without
    closing it, else None. The routes, in order: a semilattice or
    distributive lattice (`_free_spectrum`); from n = 2 on a primal
    algebra (`_primal`; at n = 1 the certificate's closure would be the
    clone itself); an algebra with a majority term whose k**(k**n)
    functions fit WORK_BUDGET (`_baker_pixley`). `build()` joins the
    members' lane bytes, `width` bytes per entry. A known size first
    raises the BudgetError the closure would raise on its way there.
    Raises ValueError for n < 0, then what `check` raises: the table
    size check, or the census's cp3 check.
    """
    if n < 0:
        raise ValueError(f"clone arity must be >= 0, got {n}")
    k = alg.carrier_size
    check(k, n)
    size = _free_spectrum(alg, n)
    if size is not None:
        width = kernels.lane_width(k, (2,))
        build = lambda: b"".join(_free_tables(alg, n, width))
    elif n > 1 and _primal(alg, n, max_size):
        size, width = k ** k**n, kernels.lane_width(k, ())
        build = lambda: _all_tables(k, k**n, width)
    elif (chosen := _baker_pixley(alg, n)) is not None:
        size, width = chosen.bit_count(), kernels.lane_width(k, ())
        build = lambda: _chosen_tables(k, k**n, width, chosen)
    else:
        return None
    _refuse(size, max_size, k, n)
    return size, width, build


def _closure(alg, n, max_size, bound):
    """The n-ary clone in discovery order, closed until it holds `bound`
    members or reaches its fixpoint; the tables are lane bytes.

    For each prefix of all but the last argument, the last argument runs
    over a whole block of members at once. One little-endian integer
    holds the block's tables; adding the prefix's lanes scaled by k,
    their bytes repeated once per table, puts the operation-table index
    of every entry of every candidate in its own lane, which is below
    256**width so no lane carries. One table lookup over the bytes then
    yields all the composed tables, in the order the argument tuples
    come in. A block is split into its tables at C speed; one superset
    test against the known tables skips it when none is new, and
    otherwise one lazy pass picks out the tables not yet seen, in block
    order, each added before the next is tested.
    """
    k = alg.carrier_size
    width = kernels.lane_width(k, [op.arity for op in alg.operations])
    size = _table_size(k, n)
    step = size * width
    tables: list[bytes] = []
    derivations: list = []  # as CloneLevel._derivations
    seen: set[bytes] = set()
    # the Struct that splits the last block; it is compiled again only
    # when the block size changes, and struct.unpack would cache one
    # compiled format, 32 bytes per table, for each block size it sees
    split = struct.Struct("")
    # the most members that pass _admit; it raises for the next one
    cap = min(max_size, algebra.WORK_BUDGET // size)

    def add(values: bytes, derivation) -> bool:
        """Record a new member; True once the clone reaches the bound."""
        if len(tables) >= cap:
            _admit(len(tables) + 1, max_size, k, n)
        seen.add(values)
        tables.append(values)
        derivations.append(derivation)
        return len(tables) == bound

    def level():
        return CloneLevel._derived(n, k, tuple(tables), width, tuple(derivations))

    for i in range(1, n + 1):
        values = kernels.projection_lanes(i, n, k, width)
        if values not in seen and add(values, i):
            return level()
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
                if split.size != count * step:
                    split = struct.Struct(f"{step}s" * count)
                chunks = split.unpack(data)
                del data
                if seen.issuperset(chunks):
                    continue
                # lazy: a table added earlier in this block is seen by then
                for j in compress(range(count), map(not_, map(seen.__contains__, chunks))):
                    if add(chunks[j], (op.symbol, prefix + (first + j,))):
                        return level()
        frontier = known
    return level()


def _admit(members, max_size, k, n):
    """Raise the closure's BudgetError for holding `members` members:
    more than `max_size` of them, or more than WORK_BUDGET entries."""
    if members > max_size:
        raise BudgetError(f"clone budget exceeded: more than {max_size} members at arity {n}")
    _check_work(members * k**n, f"the closure holds {members} members x {k}**{n}")


def _refuse(count, max_size, k, n):
    """Raise the BudgetError a closure to `count` members raises on the
    way: at its first member over `max_size` or WORK_BUDGET, if any."""
    _admit(min(count, max_size + 1, algebra.WORK_BUDGET // k**n + 1), max_size, k, n)


# Dedekind numbers M(n) = the monotone Boolean functions of n variables
# (Dedekind 1897; OEIS A000372)
_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354, 2414682040998, 56130437228687557907788)


def _free_spectrum(alg, n):
    """The number of n-ary term operations of a nontrivial semilattice
    (one binary operation) or distributive lattice (two); for any other
    algebra, for n < 1 and for a lattice past the table of Dedekind
    numbers the count is None.

    The n-ary clone of A is the free algebra on n generators of the
    variety A generates (Birkhoff 1935). A nontrivial semilattice
    generates every semilattice; their free algebra is the 2**n - 1 joins
    of nonempty sets of generators. A nontrivial distributive lattice
    generates every distributive lattice; their free algebra is the
    M(n) - 2 monotone Boolean functions that are not constant.

    A binary operation * is a semilattice operation exactly when it is
    idempotent, the sets below(x) = {z : z * x = z} are distinct and
    below(x * y) = below(x) & below(y) (`_below`). Two of them form a
    lattice exactly when each one's order is the other's reversed, and
    the lattice is distributive exactly when for every a no y != y' have
    a ^ y = a ^ y' and a v y = a v y' (Birkhoff's cancellation: a lattice
    that is not distributive has M3 or N5 as a sublattice, which both
    break it).

    The checks read each entry of the binary tables a bounded number of
    times, so they cost no more than loading the algebra, which visited
    every entry: they need no budget, at any n.
    """
    k, ops = alg.carrier_size, alg.operations
    most = 2 if n < len(_DEDEKIND) else 1  # operations that can have a count
    if k < 2 or n < 1 or not 1 <= len(ops) <= most or any(op.arity != 2 for op in ops):
        return None
    if any(op.table[x * (k + 1)] != x for op in ops for x in range(k)):
        return None
    below = [_below(op.table, k) for op in ops]
    if None in below:
        return None
    if len(ops) == 1:
        return 2**n - 1
    meet, join = below
    f, g = (op.table for op in ops)
    if any((meet[x] >> z & 1) != (join[z] >> x & 1) for x in range(k) for z in range(k)):
        return None
    if any(len(set(zip(f[a * k : a * k + k], g[a * k : a * k + k]))) < k for a in range(k)):
        return None
    return _DEDEKIND[n] - 2


def _below(table, k):
    """below(x) = {z : z * x = z} as a bitset for each x, when the
    idempotent binary operation with this table is a semilattice
    operation; else None.

    With the below sets distinct and below(x * y) = below(x) & below(y),
    z <= x iff z is in below(x) is a partial order: reflexive by
    idempotence; transitive, since y <= x gives y * x = y and so
    below(y) = below(y) & below(x); antisymmetric, since x <= y <= x
    would make their below sets equal. In it x * y is the greatest lower
    bound of x and y: it lies below both, and every common lower bound
    lies below it. A semilattice operation passes, its below sets being
    the principal ideals.
    """
    below = [0] * k
    for z in range(k):
        for x, v in enumerate(table[z * k : z * k + k]):
            if v == z:
                below[x] |= 1 << z
    if len(set(below)) < k:
        return None
    if any(below[table[x * k + y]] != below[x] & below[y] for x in range(k) for y in range(k)):
        return None
    return below


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
    for j in range(min(n, k) + 1):
        tuples = sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))
        # combinations copies its pool first, and range(k) may not fit
        for subset in combinations(range(k), j) if j else [()]:
            start = set(subset).union(*(points.get(x, ()) for x in subset))
            found = _generated(alg, start, budget)
            if found is None:
                return bound * k**left
            closed, budget = found
            if j == 1:
                points[subset[0]] = closed
            bound *= len(closed) ** tuples
            left -= tuples
    return bound


def _generated(alg, s, budget, m=1):
    """(Sg(s), the budget left) for a set s of elements of A**m, each
    element e standing for its m base-k digits, the first coordinate
    most significant: each round applies every operation, coordinatewise,
    to all of S**arity, until nothing new appears or S is all of A**m.
    None once the rounds would visit more than `budget` operation-table
    entries."""
    k = alg.carrier_size
    # every operation has an argument, so the empty set is closed; over
    # one element an arity is not bounded by its table's length
    while s and len(s) < k**m:
        budget -= m * sum(len(s) ** op.arity for op in alg.operations)
        if budget < 0:
            return None
        grown = set(s)
        digits = [[e // k ** (m - 1 - j) % k for e in s] for j in range(m)]
        for op in alg.operations:
            # per coordinate, the table index of each argument tuple
            cols = digits if op.arity else [[0]] * m
            for _ in range(op.arity - 1):
                cols = [[i * k + a for i in col for a in row] for col, row in zip(cols, digits)]
            values = map(op.table.__getitem__, cols[0])
            for col in cols[1:]:
                values = [v * k + op.table[i] for v, i in zip(values, col)]
            grown.update(values)
        if len(grown) == len(s):
            break
        s = grown
    return frozenset(s), budget


def _prefixes(tables, depth, k, known):
    """(indices, lanes) of every depth-tuple over range(known), in
    lexicographic order; lane j holds a1[j]*k**(depth-1) + ... + a_depth[j]."""
    if depth == 0:
        yield (), 0
        return
    for head, head_lanes in _prefixes(tables, depth - 1, k, known):
        for a in range(known):
            yield head + (a,), head_lanes * k + int.from_bytes(tables[a], "little")


@record
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
        return algebra._dumps(doc) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AlgebraCensus":
        doc = json.loads(text)
        hist = {int(c): int(v) for c, v in doc["histogram"].items()}
        return cls(doc["algebra"], doc["n"], doc["clone_size"], doc["total"], hist)


def algebra_n_complexity(
    alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET
) -> AlgebraCensus:
    """Sum cp3 over every n-ary clone member, grouping members by total.

    One table's count is checked before the clone is built; once the
    clone is known, the count over all its members is charged in full.
    A clone of known size (`_known`) is built directly, with no
    closure; any other is closed. Raises ValueError for n < 0.
    """
    known = _known(alg, n, max_size, _check_cp3_work)
    if not known:
        clone = _closure(alg, n, max_size, _subuniverse_bound(alg, n))
        known = clone.size, clone.width, lambda: b"".join(clone.tables)
    count, width, build = known
    k = alg.carrier_size
    _check_work(
        (2**n - 1) * count * k**n,
        f"the census's cp3 needs 2**{n} - 1 sets x {count} members x {k}**{n}",
    )
    blob = int.from_bytes(build(), "little")
    buckets: dict[int, int] = {}
    total = 0
    for t in kernels.cp3_totals(blob, count, k, n, width):
        total += t
        buckets[t] = buckets.get(t, 0) + 1
    histogram = {c: buckets[c] for c in sorted(buckets, reverse=True)}
    return AlgebraCensus(alg.name, n, count, total, histogram)


def _free_tables(alg, n, width):
    """Lane bytes of each n-ary term operation, once, of an algebra that
    `_free_spectrum` counts, with operations * and then +.

    Every term of a semilattice is a meet x_S = *(x_i : i in S) over a
    nonempty set S of variables. In a lattice, distributivity and then
    absorption make every term the join over a nonempty antichain of
    such sets (dually when * is the join). A depth-first walk extends
    each antichain by later incomparable sets only, so it reaches each
    once. A meet is one lookup of a smaller meet and a projection, a
    join one of its parent antichain's join and a meet. No two are
    equal: take a two-element chain a < b in the algebra, ordered so
    that a * b = a. At the point that is b on a set U of variables and
    a elsewhere, the join over an antichain is b exactly when U holds
    one of its sets, so the antichain is the family of minimal such U.
    """
    k = alg.carrier_size
    step = k**n * width
    meet, *joins = [kernels.lookup(op.table, width) for op in alg.operations]
    tables = []
    meets = [0] * (1 << n)  # as integers; bit p of s stands for x_(p+1)
    for s in range(1, 1 << n):
        rest = s & (s - 1)
        table = kernels.projection_lanes((s ^ rest).bit_length(), n, k, width)
        if rest:
            table = meet((meets[rest] * k + int.from_bytes(table, "little")).to_bytes(step, "little"))
        meets[s] = int.from_bytes(table, "little")
        tables.append(table)
    if not joins:
        return tables
    (join,) = joins
    # the sets incomparable with s, as a bitset over the sets
    apart = [sum(1 << t for t in range(1 << n) if t & s not in (s, t)) for s in range(1 << n)]
    # (table, the later sets incomparable with all of its antichain)
    stack = [(meets[s], apart[s] >> s + 1 << s + 1) for s in range(1, 1 << n)]
    while stack:
        x, later = stack.pop()
        x *= k
        while later:
            t = (later & -later).bit_length() - 1
            later ^= 1 << t
            table = join((x + meets[t]).to_bytes(step, "little"))
            tables.append(table)
            if later & apart[t]:
                stack.append((int.from_bytes(table, "little"), later & apart[t]))
    return tables


def _primal(alg, n, max_size):
    """True when a cheap certificate shows that the clone holds every
    operation on the carrier, so that its n-ary members need no closure.

    k = 2: Post's criterion (Post 1941), tried from n = 2 on: the clone
    holds every operation exactly when, for each of the five maximal
    clones (`_post_clones`), some basic operation lies outside it. At
    n = 1 the closure of at most four members costs no more.
    k >= 3: the unary clone holds all k**k functions and some basic
    operation is onto and depends on at least two variables (Slupecki
    1939), asked by `_known` from n = 2 on, where its unary closure (not
    `clone_level`, which would ask `_known` again) is smaller than the
    n-ary one it spares; if a budget stops that, the certificate fails
    and the n-ary closure raises the budget's error.
    """
    k = alg.carrier_size
    if k == 2 and n >= 2:
        rows = [_post_clones(op.table, op.arity) for op in alg.operations]
        return not any(all(row[c] for row in rows) for c in range(5))
    width = kernels.lane_width(k, ())
    if k < 3 or n < 1 or not any(
        set(op.table) == set(range(k))
        and kernels.essential_mask(kernels.pack(op.table, width), k, op.arity).bit_count() >= 2
        for op in alg.operations
    ):
        return False
    try:
        return _closure(alg, 1, max_size, _subuniverse_bound(alg, 1)).size == k**k
    except BudgetError:
        return False


def _post_clones(t, r):
    """Whether the r-ary operation on {0, 1} with table t lies in each of
    Post's five maximal clones: the functions that fix 0, those that fix
    1, the self-dual, the monotone and the affine ones. Together they
    read the table O(r) times. None depends on the order of the
    arguments, so bit p of an entry's index stands for one argument."""
    return (
        t[0] == 0,
        t[-1] == 1,
        all(t[i] != t[-1 - i] for i in range(len(t))),
        all(t[i] <= t[i | 1 << p] for p in range(r) for i in range(len(t))),
        _affine(t, r),
    )


def _majority_free(t, r):
    """Whether the r-ary operation on {0, 1} with table t lies in each of
    the five largest clones without the majority function (Post 1941):
    the affine functions; the meet-homomorphisms, f(x & y) = f(x) &
    f(y), which are the meets of some arguments and the constant 0; the
    join-homomorphisms, dually; T0^3, where any three tuples f maps to 0
    share an argument that is 0 in all three; and T1^3, dually. Together
    they read the table at most 3r + 12 times, bit p of an entry's index
    standing for one argument as in `_post_clones`."""
    entries = range(len(t))
    full = len(t) - 1
    # the arguments of the one meet, and of the one join, that t can be
    meet = sum(1 << p for p in range(r) if not t[full ^ 1 << p])
    join = sum(1 << p for p in range(r) if t[1 << p])
    return (
        _affine(t, r),
        all(t[i] == (t[full] and i & meet == meet) for i in entries),
        all(t[i] == (t[0] or i & join != 0) for i in entries),
        _meet_in_threes([full ^ i for i in entries if not t[i]], r),
        _meet_in_threes([i for i in entries if t[i]], r),
    )


def _affine(t, r):
    """Whether t equals the affine function that agrees with it at 0 and
    at each unit."""
    affine = [t[0]]
    for p in range(r):
        affine += [v ^ t[1 << p] ^ t[0] for v in affine]
    return affine == list(t)


def _meet_in_threes(sets, r):
    """Whether every three of these subsets of r points, repeats allowed,
    have a point in common, in r + 2 passes over the 2**r subsets: with
    g[m] the number of sets that contain m, g[m]**3 counts the triples
    whose common part contains m, and by inclusion and exclusion the sum
    of (-1)**|m| * g[m]**3 counts those with nothing in common."""
    g = [0] * (1 << r)
    for s in sets:
        g[s] += 1
    for p in range(r):
        bit = 1 << p
        for m in range(1 << r):
            if not m & bit:
                g[m] += g[m | bit]
    return not sum((-1) ** m.bit_count() * c**3 for m, c in enumerate(g))


def _majority(alg, budget):
    """The budget left once a certificate shows that the algebra has a
    majority term, a ternary m with m(x, x, y) = m(x, y, x) = m(y, x, x)
    = x; None when it shows none within `budget` table reads.

    k = 2: the clone holds the majority function exactly when, for each
    of the five largest clones without it (`_majority_free`), some basic
    operation lies outside it.
    k >= 3: some basic operation is itself a majority operation. No
    arity-3 closure runs, so other algebras with a majority term fail.
    """
    k, ops = alg.carrier_size, alg.operations
    if k == 2:
        budget -= sum((3 * op.arity + 12) * len(op.table) for op in ops)
        if budget < 0:
            return None
        rows = [_majority_free(op.table, op.arity) for op in ops]
        found = not any(all(row[c] for row in rows) for c in range(5))
    else:
        tables = [op.table for op in ops if op.arity == 3]
        budget -= 3 * k * k * len(tables)
        found = budget >= 0 and any(
            all(
                t[(x * k + x) * k + y] == t[(x * k + y) * k + x] == t[(y * k + x) * k + x] == x
                for x in range(k)
                for y in range(k)
            )
            for t in tables
        )
    return budget if found else None


def _baker_pixley(alg, n):
    """The n-ary clone as a bitset over all k**(k**n) functions, bit t
    standing for the t-th in `_all_tables` order, when `_majority`
    certifies a majority term. None for n < 1 or k other than 2 and 3;
    when a table of A**2, k**(2 * arity) entries, would exceed
    TABLE_BUDGET; or once the filter, charged k**(k**n) x k**n, and then
    the certificate and the subuniverses exceed WORK_BUDGET. That leaves
    k = 2 at n <= 4 and k = 3 at n <= 2. From k = 4 on the route could
    only run at n = 1, filtering up to 7**7 functions where the closure
    of a small unary clone meets a few, so that is left to the closure.

    With a majority term, an n-ary f is a term operation exactly when,
    for all points a and b of A**n, (f(a), f(b)) lies in the subuniverse
    of A**2 that the pairs (a_p, b_p) generate (Baker and Pixley 1975).
    `_generated` closes each set of pairs once, in A**2, whose element
    x*k + y is the pair (x, y); a round's index lists, |S|**arity long,
    are shorter than the tables of A**2. For each entry and value a
    bitset marks the functions that take the value there. The i-th and
    j-th points, i < j, keep the OR over (x, y) in their subuniverse of
    the AND of entry i's bitset for x and entry j's for y; the clone is
    the AND of all these. The pairs with i = j add nothing: the first
    coordinates of the pairs in Sg{(a_p, b_p)} are Sg{a_p}, so every
    point's pairs with the others already keep f(a) in Sg{a_p}.
    """
    k = alg.carrier_size
    size = k**n
    # from this size on k**size * size exceeds the budget for every k >= 2
    if k not in (2, 3) or n < 1 or size >= algebra.WORK_BUDGET.bit_length():
        return None
    if any(len(op.table) ** 2 > algebra.TABLE_BUDGET for op in alg.operations):
        return None
    count = k**size
    budget = _majority(alg, algebra.WORK_BUDGET - count * size)
    if budget is None:
        return None
    # the function t takes the value (t // run) % k at the entry whose run
    # is k**(size - 1 - i): its bitset for v is a run of ones at v * run
    # in each period of k runs, the runs doubled up to the top
    column = []
    for i in range(size):
        run = k ** (size - 1 - i)
        ones, width = (1 << run) - 1, k * run
        while width < count:
            ones |= ones << width
            width *= 2
        ones &= (1 << count) - 1
        column.append([ones << v * run for v in range(k)])
    points = list(product(range(k), repeat=n))
    chosen = (1 << count) - 1
    closed: dict[frozenset, frozenset] = {}
    for i, a in enumerate(points):
        for j in range(i + 1, size):
            pairs = frozenset(x * k + y for x, y in zip(a, points[j]))
            if pairs not in closed:
                found = _generated(alg, pairs, budget, 2)
                if found is None:
                    return None
                closed[pairs], budget = found
            # all of A**2 keeps every function
            if len(closed[pairs]) < k * k:
                left, right = column[i], column[j]
                chosen &= reduce(or_, [left[e // k] & right[e % k] for e in closed[pairs]])
    return chosen


def _chosen_tables(k, size, width, chosen):
    """Lane bytes of the functions whose bits are set in `chosen`, joined
    in `_all_tables` order. Below one in 100 of the k**size functions,
    each is written from the base-k digits of its index, found from the
    binary digits of `chosen`, lowest first; written so, a table costs
    about as much as 200 do in `_all_tables`. Otherwise their offsets in
    `_all_tables` are picked at C speed by those digits, as bytes 0 and
    1, then one slice each."""
    digits = bin(chosen)[:1:-1]
    if chosen.bit_count() * 100 < k**size:
        tables = []
        t = digits.find("1")
        while t >= 0:
            tables.append(kernels.pack([t // k ** (size - 1 - i) % k for i in range(size)], width))
            t = digits.find("1", t + 1)
        return b"".join(tables)
    tables = _all_tables(k, size, width)
    step = size * width
    flags = digits.encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return b"".join([tables[i : i + step] for i in compress(range(0, len(tables), step), flags)])


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
