"""Table kernels: restriction, pointwise composition, and one axis
builder that answers both essential variables and cp3 counting. They
are pure Python, the only lane; `BACKEND` names it.

A table is a flat sequence of carrier values with the first argument
most significant: the tuple (a1, ..., an) sits at index
sum(ai * k**(n - i)).

Tables being built (term tabulation and the clone closure) are lane
bytes: one little-endian lane of `width` bytes per entry, wide enough
for every operation-table index the composition forms, so a whole table
is one integer and composing is one multiply-add and one lookup. The
axis builder compares such an integer with its own shifts instead of
looping over table entries. It does the same for many tables joined
into one integer, the table index acting as one more digit above the
others, so `cp3_totals` counts a whole clone in one pass per mask along
the path that `cp3_count` and `cp3_counts` take for one table.

Positions are 0-based here; masks carry position p in bit p. The helpers
at the bottom translate between masks and the public 1-based
variable-index sets.
"""

import struct
from itertools import chain
from operator import add

BACKEND = "python"


def essential_mask(values, k, arity):
    """Bitmask of the positions the tabulated function depends on: those
    whose axis flags are nonzero."""
    axes = _axes(*_lanes(values, k, arity), k, arity, range(arity))
    return sum(1 << p for p, (_, flags) in enumerate(axes) if flags)


def restrict(values, k, arity, positions, constants):
    """Overwrite the given positions with constants; arity is kept.

    Returns the table of the function obtained by plugging constants[j]
    into argument positions[j]; those positions become fictitious.
    `values` is a tuple or lane bytes, and the result is of the same
    kind. For each position, every block of k segments (one per digit
    there) becomes the constant's segment repeated k times, joined
    slice by slice.
    """
    lanes = isinstance(values, bytes)
    out = values if lanes else tuple(values)
    unit = len(out) // k**arity
    for p, c in zip(positions, constants):
        segment = k ** (arity - 1 - p) * unit
        block = segment * k
        parts = (out[i : i + segment] * k for i in range(c * segment, len(out), block))
        out = b"".join(parts) if lanes else tuple(chain.from_iterable(parts))
    return out


def cp3_count(values, k, arity, mask):
    """Assignments to the positions outside the mask for which the
    restricted function depends on exactly the positions in the mask.

    The count is 0 for the empty mask, which no public measure admits.
    """
    if mask >> arity:
        raise ValueError(f"mask {mask:#b} has positions beyond arity {arity}")
    free = [p for p in range(arity) if (mask >> p) & 1]
    return _kept(_moving(*_lanes(values, k, arity), k, arity, free), k).bit_count()


def cp3_counts(values, k, arity):
    """cp3_count for every mask, as a list indexed by mask; counts[0] is 0.

    The per-position axes are shared by all masks.
    """
    axes = _moving(*_lanes(values, k, arity), k, arity, range(arity))
    counts = [0] * (1 << arity)
    for m in range(1, 1 << arity):
        counts[m] = _kept([axes[p] for p in range(arity) if (m >> p) & 1], k).bit_count()
    return counts


def cp3_totals(blob, count, k, arity, width):
    """The cp3 total of each of `count` tables joined into one integer,
    lane bytes of `width` bytes per entry with the first table lowest.

    The table index acts as one more fixed digit above the others, so
    one pass per mask counts every table. Each mask's kept bits are
    added into an accumulator of one byte per index; since a byte holds
    at most 255, it is flushed into the totals every 255 masks, each
    table summing its k**arity bytes.
    """
    size = k**arity
    totals = [0] * count
    if not count:
        return totals
    axes = _moving(blob, width, k, arity, range(arity), count)
    acc = 0
    for m in range(1, 1 << arity):
        kept = _kept([axes[p] for p in range(arity) if (m >> p) & 1], k)
        acc += int.from_bytes(format(kept, "b")[::-1].encode().translate(_BIT_BYTES), "little")
        if m % 255 == 0 or m == (1 << arity) - 1:
            data = acc.to_bytes(count * size, "little")
            sums = map(sum, (data[i : i + size] for i in range(0, len(data), size)))
            totals = list(map(add, totals, sums))
            acc = 0
    return totals


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _lanes(values, k, arity):
    """(integer, lane width) of a table given as a value tuple or as
    lane bytes."""
    if not isinstance(values, bytes):
        values = pack(values, lane_width(k, ()))
    return int.from_bytes(values, "little"), len(values) // k**arity


def _axes(x, width, k, arity, positions, count=1):
    """Yield (stride, flags) for each position p given, over `count`
    tables of lane bytes joined into the integer x. In the low byte of
    each lane i whose digit at p is 0, `flags` is nonzero exactly when
    the table moves along p through i: lane i differs from lane
    i + d * stride for some 0 < d < k, which lies in the same table.
    Every other byte is zero. Each lane is ORed onto its low byte by
    shifts of the unfolded difference, so that no byte of the next lane
    leaks in."""
    for p in positions:
        stride = k ** (arity - 1 - p)
        diff = 0
        for d in range(1, k):
            diff |= x ^ (x >> 8 * width * d * stride)
        folded = diff
        for j in range(1, width):
            folded |= diff >> 8 * j
        low = (b"\xff" + bytes(width - 1)) * stride + bytes(width * stride * (k - 1))
        yield stride, folded & int.from_bytes(low * (k**p * count), "little")


def _moving(x, width, k, arity, positions, count=1):
    """(stride, moving) of each position given: `moving` is the bitset of
    the indices whose low byte `_axes` flags."""
    axes = []
    for stride, flags in _axes(x, width, k, arity, positions, count):
        low = flags.to_bytes(k**arity * count * width, "little")[::width]
        axes.append((stride, int(low.translate(b"0" + b"1" * 255)[::-1], 2)))
    return axes


def _kept(axes, k):
    """The indices that count for the mask whose free positions have
    these axes, as a bitset: the cp3 count is its size.

    A free position is essential in the restriction to an assignment q
    of the fixed positions when its `moving` bitset meets the indices
    that agree with q. OR-ing the shifts of `moving` down by d * stride,
    0 <= d < k, for each other free position moves such a bit to the
    index of q with all free digits 0. The kept bits are those that
    every free position sets.

    Shifts that borrow across digits set other bits too, but none
    survives the AND. At such an index j, let a be the lowest free
    position with a nonzero digit. Every free digit of j below a is 0,
    so reaching j from an index with digit 0 at a needs a borrow into a
    that those digits rule out: the folded bitset of a lacks j.
    """
    if not axes:
        return 0
    kept = -1
    for p, (_, bits) in enumerate(axes):
        for a, (stride, _) in enumerate(axes):
            if a != p:
                for _ in range(k - 1):
                    bits |= bits >> stride
        kept &= bits
    return kept


def compose(op_values, op_arity, args, k, size):
    """Pointwise composition of lane bytes: lane i of the result is
    op(args[0][i], ..., args[op_arity - 1][i]).

    The argument lanes are combined by one multiply-add into the
    operation-table index of every entry, which the lane width holds
    without carries, and one lookup maps the indices to values.
    """
    width = len(args[0]) // size
    combined = 0
    for a in args:
        combined = combined * k + int.from_bytes(a, "little")
    return lookup(op_values, width)(combined.to_bytes(size * width, "little"))


_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def lane_width(k, arities):
    """Bytes per lane for tables over k elements composed by operations
    of these arities: every value and every operation-table index,
    below k**arity, fits."""
    top = max([k] + [k**a for a in arities])
    width = 1
    while top > 256**width:
        width *= 2
    return width


def pack(values, width):
    """Lane bytes of a value sequence."""
    return struct.pack(f"<{len(values)}{_LANE_CODES[width]}", *values)


def unpack(data, width):
    """The value tuple held in lane bytes."""
    return struct.unpack(f"<{len(data) // width}{_LANE_CODES[width]}", data)


def projection_lanes(i, n, k, width):
    """Lane bytes of the n-ary projection onto the i-th coordinate (1-based)."""
    block = b"".join(v.to_bytes(width, "little") * k ** (n - i) for v in range(k))
    return block * k ** (i - 1)


def constant_lanes(value, size, width):
    """Lane bytes of a constant table of `size` entries."""
    return value.to_bytes(width, "little") * size


def lookup(table, width):
    """Map every lane of a byte string through an operation table."""
    if width == 1:
        padded = bytes(table) + bytes(256 - len(table))
        return lambda data: data.translate(padded)
    return lambda data: pack(tuple(map(table.__getitem__, unpack(data, width))), width)


def mask_of_indices(indices):
    """Bitmask for a set of 1-based variable indices."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def indices_of_mask(mask):
    """1-based variable indices packed in a bitmask, as a frozenset."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)
