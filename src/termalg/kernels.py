"""Table kernels: essential-variable scan, restriction, cp3 counting and
pointwise composition. They are pure Python, the only lane; `BACKEND`
names it.

A table is a flat sequence of carrier values with the first argument
most significant: the tuple (a1, ..., an) sits at index
sum(ai * k**(n - i)).

Positions are 0-based here; masks carry position p in bit p. The helpers
at the bottom translate between masks and the public 1-based
variable-index sets.
"""

BACKEND = "python"


def essential_mask(values, k, arity):
    """Bitmask of the positions the tabulated function depends on."""
    if k <= 1 or arity == 0:
        return 0
    size = k**arity
    mask = 0
    stride = 1
    for p in range(arity - 1, -1, -1):
        block = stride * k
        found = False
        for outer in range(size // k):
            base = (outer // stride) * block + (outer % stride)
            v0 = values[base]
            for d in range(1, k):
                if values[base + d * stride] != v0:
                    found = True
                    break
            if found:
                break
        if found:
            mask |= 1 << p
        stride = block
    return mask


def restrict(values, k, arity, positions, constants):
    """Overwrite the given positions with constants; arity is kept.

    Returns the table of the function obtained by plugging constants[j]
    into argument positions[j]; those positions become fictitious.
    """
    size = k**arity
    if not positions:
        return tuple(values)
    strides = [k ** (arity - 1 - p) for p in positions]
    out = [0] * size
    for idx in range(size):
        j = idx
        for s, c in zip(strides, constants):
            j += (c - (j // s) % k) * s
        out[idx] = values[j]
    return tuple(out)


def cp3_count(values, k, arity, mask):
    """Assignments to the positions outside the mask for which the
    restricted function depends on exactly the positions in the mask.

    The count is 0 for the empty mask, which no public measure admits.
    """
    if mask >> arity:
        raise ValueError(f"mask {mask:#b} has positions beyond arity {arity}")
    free = [p for p in range(arity) if (mask >> p) & 1]
    return _count([_axis(values, k, arity, p) for p in free], k)


def cp3_counts(values, k, arity):
    """cp3_count for every mask, as a list indexed by mask; counts[0] is 0.

    The per-position scans are shared by all masks.
    """
    axes = [_axis(values, k, arity, p) for p in range(arity)]
    counts = [0] * (1 << arity)
    for m in range(1, 1 << arity):
        counts[m] = _count([axes[p] for p in range(arity) if (m >> p) & 1], k)
    return counts


def _axis(values, k, arity, p):
    """(stride, moving) of position p: `moving` is a bitset over table
    indices with bit i set when the digit of i at p is 0 and the table is
    not constant along p through i."""
    stride = k ** (arity - 1 - p)
    block = stride * k
    moving = 0
    for start in range(0, k**arity, block):
        for i in range(start, start + stride):
            v0 = values[i]
            for j in range(i + stride, start + block, stride):
                if values[j] != v0:
                    moving |= 1 << i
                    break
    return stride, moving


def _count(axes, k):
    """The cp3 count of the mask whose free positions have these axes.

    A free position is essential in the restriction to an assignment q
    of the fixed positions when its `moving` bitset meets the indices
    that agree with q. OR-ing the shifts of `moving` down by d * stride,
    0 <= d < k, for each other free position moves such a bit to the
    index of q with all free digits 0. The count is the number of those
    bits that every free position sets.

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
    return kept.bit_count()


def compose(op_values, op_arity, args, k, size):
    """Pointwise composition: out[i] = op(args[0][i], ..., args[m-1][i])."""
    if op_arity == 1:
        a0 = args[0]
        return tuple(op_values[a0[i]] for i in range(size))
    if op_arity == 2:
        a0, a1 = args
        return tuple(op_values[a0[i] * k + a1[i]] for i in range(size))
    out = [0] * size
    for i in range(size):
        j = 0
        for a in args:
            j = j * k + a[i]
        out[i] = op_values[j]
    return tuple(out)


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
