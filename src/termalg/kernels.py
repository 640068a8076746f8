"""Table kernels: restriction, pointwise composition, a masked XOR test
for essential variables, and one axis builder for cp3 counting. They
are pure Python, the only lane; `BACKEND` names it.

A table is lane bytes: one little-endian lane of `width` bytes per
entry, with the first argument most significant, so the tuple
(a1, ..., an) sits at lane sum(ai * k**(n - i)). A finished table
(`algebra.FunctionTable`) has the value width `lane_width(k, ())`.
Tables being built (term tabulation and the clone closure) have lanes
wide enough for every operation-table index the composition forms, so a
whole table is one integer and composing is one multiply-add and one
lookup. The kernels take lanes of any width that holds the values. The
essential-variable test and the axis builder compare such an integer
with its own shifts instead of looping over table entries. The axis
builder does the same for many tables joined into one integer, the
table index acting as one more digit above the others, so `cp3_totals`
counts a whole clone along the path that `cp3_counts` takes for one
table.

`cp3_count` counts one mask (`_kept`). `cp3_counts` and `cp3_totals`
count every mask in one depth-first walk (`_walk`), shared as in the
fast zeta transform over the subset lattice: a mask's smeared bitsets
come from its parent's by one smear each, so n positions take
n * 2**(n-1) - n smears in all instead of n * (n-1) * 2**(n-2). The walk
visits the masks in `preorder`, the order of their sorted index tuples,
in which `cp` and `sep` print them. `cp3_totals` adds each mask's kept
bitset into bit-sliced counters, one bitset per binary digit of the
counts, so that only those at most n digits, not the 2**n - 1 masks,
are spread into one byte per index and summed per table.

Positions are 0-based here; masks carry position p in bit p. The helpers
at the bottom translate between masks and the public 1-based
variable-index sets.
"""

import struct
from operator import add

BACKEND = "python"


def essential_mask(lanes, k, arity):
    """Bitmask of the positions the tabulated function depends on.

    Position p is essential when some lane whose digit at p is 0 differs
    from the lane d * stride above it, 0 < d < k: the XOR of the table's
    integer with its shift by d * stride lanes, under a mask of those
    whole lanes, is nonzero.
    """
    x, width = _lanes(lanes, k, arity)
    mask = 0
    for p in range(arity):
        segment = width * k ** (arity - 1 - p)  # bytes of the lanes of one digit at p
        lanes = int.from_bytes((b"\xff" * segment + bytes(segment * (k - 1))) * k**p, "little")
        if any((x ^ x >> 8 * segment * d) & lanes for d in range(1, k)):
            mask |= 1 << p
    return mask


def restrict(lanes, k, arity, positions, constants):
    """Overwrite the given positions with constants; arity is kept.

    Returns the lane bytes, of the same width, of the function obtained
    by plugging constants[j] into argument positions[j]; those positions
    become fictitious. For each position, every block of k segments (one
    per digit there) becomes the constant's segment repeated k times,
    joined slice by slice.
    """
    width = len(lanes) // k**arity
    for p, c in zip(positions, constants):
        segment = k ** (arity - 1 - p) * width
        block = segment * k
        lanes = b"".join(lanes[i : i + segment] * k for i in range(c * segment, len(lanes), block))
    return lanes


def cp3_count(lanes, k, arity, mask):
    """Assignments to the positions outside the mask for which the
    restricted function depends on exactly the positions in the mask.

    The count is 0 for the empty mask, which no public measure admits.
    """
    if mask >> arity:
        raise ValueError(f"mask {mask:#b} has positions beyond arity {arity}")
    free = [p for p in range(arity) if (mask >> p) & 1]
    return _kept(_moving(*_lanes(lanes, k, arity), k, arity, free), k).bit_count()


def cp3_counts(lanes, k, arity):
    """cp3_count for every mask, as a list indexed by mask; counts[0] is 0.

    One walk over the masks (`_walk`) counts them all, sharing each
    smear between a mask and the masks below it in the walk.
    """
    counts = [0] * (1 << arity)
    for m, kept in _walk(_moving(*_lanes(lanes, k, arity), k, arity, range(arity)), k):
        counts[m] = kept.bit_count()
    return counts


def cp3_totals(blob, count, k, arity, width):
    """The cp3 total of each of `count` tables joined into one integer,
    lane bytes of `width` bytes per entry with the first table lowest.

    The table index acts as one more fixed digit above the others, so
    the walk over the masks that `cp3_counts` takes for one table counts
    every table at once. Each mask's kept bits are added into bit-sliced
    counters: `digits[j]` holds binary digit j of every index's count,
    and adding a bitset ripples a carry up the digits until it is 0.
    Only the at most `arity` digits are then spread into an accumulator
    of one byte per index, digit j weighted 2**(j % 8). A byte holds at
    most 255, so each group of eight digits is flushed on its own: each
    table sums its k**arity bytes, and a group from digit g on adds its
    sums times 2**g to the totals.
    """
    size = k**arity
    totals = [0] * count
    if not count:
        return totals
    axes = _moving(blob, width, k, arity, range(arity), count)
    digits = []
    for _, carry in _walk(axes, k):  # add the mask's kept bits
        j = 0
        while carry:
            if j == len(digits):
                digits.append(carry)
                break
            digits[j], carry = digits[j] ^ carry, digits[j] & carry
            j += 1
    for group in range(0, len(digits), 8):
        acc = 0
        for j, bits in enumerate(digits[group : group + 8]):
            spread = format(bits, "b")[::-1].encode().translate(_BIT_BYTES)
            acc += int.from_bytes(spread, "little") << j
        data = acc.to_bytes(count * size, "little")
        sums = map(sum, (data[i : i + size] for i in range(0, len(data), size)))
        if group:
            sums = map(add, totals, map((1 << group).__mul__, sums))
        totals = list(sums)
    return totals


def preorder(arity):
    """Yield the nonempty masks below 2**arity depth first, each mask
    followed by the masks that add positions above its highest one, in
    increasing order. This is the order of their sorted index tuples:
    {1}, {1, 2}, {1, 2, 3}, ..., {1, 3}, ..., {2}, ...
    """
    mask = 1 if arity else 0
    while mask:
        yield mask
        top = mask.bit_length()
        if top < arity:
            mask |= 1 << top  # descend: add the next position
        else:
            # the last position is in: drop it, then move the new highest
            # position up by one, if any is left
            mask ^= 1 << top - 1
            if mask:
                mask += 1 << mask.bit_length() - 1


def index_sets(arity):
    """Yield (mask, indices_of_mask(mask)) for every nonempty mask below
    2**arity, in `preorder`. A mask's parent, the mask without its
    highest position, is the last one visited with one position fewer,
    so each set is one union: its parent's plus the highest index."""
    path = [frozenset()] * (arity + 1)  # the set at each depth
    for m in preorder(arity):
        depth = m.bit_count()
        path[depth] = indices = path[depth - 1].union((m.bit_length(),))
        yield m, indices


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # bit characters to bytes
_NONZERO_ONE = b"0" + b"1" * 255  # a byte to the bit character of its truth


def _lanes(lanes, k, arity):
    """(integer, lane width) of a table's lane bytes."""
    return int.from_bytes(lanes, "little"), len(lanes) // k**arity


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
        axes.append((stride, int(low.translate(_NONZERO_ONE)[::-1], 2)))
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


def _walk(axes, k):
    """Yield (mask, kept) for every nonempty mask over the positions of
    these axes, in `preorder`; `kept` is what `_kept` gives the mask.

    Smearing a bitset by a position ORs in its shifts down by d * stride,
    0 < d < k, as `_kept` does, and smears by different positions
    commute. At a mask m with highest position c the walk holds one list:
    for each position r > c, r's `moving` smeared over all of m, in
    increasing r, then for each position p of m, p's `moving` smeared
    over the other positions of m. Its child m + {q}, q > c, smears the
    entries past q's own by q's stride alone and appends q's entry as it
    is: that is the child's list, and the AND of its last |m| + 1
    entries, the child's chosen positions, is the child's kept bits. The
    walk keeps one list per depth, O(n**2) bitsets for n positions.

    A mask costs a smear per entry past q's, so all masks together cost
    n * 2**(n-1) - n smears of k - 1 shift-ORs each, where `_kept` for
    each mask would make n * (n-1) * 2**(n-2).
    """
    n = len(axes)
    strides = [stride for stride, _ in axes]
    smears = range(k - 1)
    levels = [[bits for _, bits in axes]] * (n + 1)  # the list at each depth
    for m in preorder(n):
        q = m.bit_length() - 1
        depth = m.bit_count()
        bits = levels[depth - 1]
        # the parent's list starts with its later entries, c + 1 .. n - 1
        at = q - n + len(bits) - depth + 1
        stride = strides[q]
        child = bits[at + 1 :]
        for _ in smears:
            child = [b | b >> stride for b in child]
        kept = bits[at]
        for b in child[n - 1 - q :]:
            kept &= b
        child.append(bits[at])
        levels[depth] = child
        yield m, kept


def compose(op_values, op_arity, args, k, size):
    """Pointwise composition of lane bytes: lane i of the result is
    op(args[0][i], ..., args[op_arity - 1][i]).

    The argument lanes are combined by one multiply-add into the
    operation-table index of every entry, which the lane width holds
    without carries, and one lookup maps the indices to values. A unary
    operation's index is its argument's own lane.
    """
    width = len(args[0]) // size
    if op_arity == 1:
        return lookup(op_values, width)(args[0])
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
    if width not in _LANE_CODES:  # a carrier of more than 2**64 elements
        return b"".join(v.to_bytes(width, "little") for v in values)
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
