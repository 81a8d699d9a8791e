"""Integer partitions and their basic combinatorics.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty partition is ().  Parts beyond the last stored one are 0, which
the accessor `part` makes explicit.  Nodes of the Young diagram are
(row, column) pairs with 1-based indices; for multipartitions a node is
(row, column, component) with the component also 1-based.
"""

from .errors import InputError


def check_partition(parts):
    """Normalize `parts` to a partition tuple, dropping trailing zeros.

    Accepts any iterable of integers that is weakly decreasing once zeros
    are removed; raises InputError otherwise.
    """
    seq = tuple(int(p) for p in parts)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    for a, b in zip(seq, seq[1:]):
        if a < b:
            raise InputError(f"parts must be weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise InputError(f"parts must be nonnegative: {seq}")
    return seq


def check_multipartition(mp):
    """Normalize an iterable of part-iterables to a multipartition tuple."""
    comps = tuple(check_partition(c) for c in mp)
    if not comps:
        raise InputError("a multipartition needs at least one component")
    return comps


def part(lam, i):
    """The i-th part (1-based), 0 when i exceeds the number of parts."""
    if i < 1:
        raise InputError(f"part index must be >= 1, got {i}")
    return lam[i - 1] if i <= len(lam) else 0


def rank(lam):
    """Sum of the parts."""
    return sum(lam)


def multirank(mp):
    """Total number of nodes of a multipartition."""
    return sum(sum(c) for c in mp)


def is_e_regular(lam, e):
    """True when no part value occurs e or more times."""
    if e < 2:
        raise InputError(f"e must be >= 2, got {e}")
    run = 0
    prev = None
    for p in lam:
        run = run + 1 if p == prev else 1
        if run >= e:
            return False
        prev = p
    return True


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def max_hook_length(lam):
    """Hook length of the node (1, 1): first part plus number of parts minus 1."""
    if not lam:
        return 0
    return lam[0] + len(lam) - 1


def is_strict_e_core(lam, e):
    """True when every hook length is < e, i.e. max_hook_length(lam) < e.

    This is strictly stronger than having no hook of length exactly e.
    The empty partition is a strict core for every e.
    """
    return max_hook_length(lam) < e


def concat(*partitions):
    """Merge several partitions into one by sorting all parts decreasingly."""
    merged = []
    for lam in partitions:
        merged.extend(lam)
    return tuple(sorted(merged, reverse=True))


def node_residue(node, charge, e):
    """Residue (b - a + s_c) mod e of a node (a, b, c).

    `node` is (row, column) with an implied component 1, or (row, column,
    component).  `charge` is the multicharge tuple; for a plain partition
    pass a 1-tuple.
    """
    if len(node) == 2:
        a, b = node
        c = 1
    else:
        a, b, c = node
    if not 1 <= c <= len(charge):
        raise InputError(f"component {c} outside multicharge of length {len(charge)}")
    return (b - a + charge[c - 1]) % e


def first_column_length(lam):
    """Number of nonzero parts."""
    return len(lam)


def remove_first_column(lam):
    """Delete the first column: subtract 1 from every part, drop zeros."""
    return tuple(p - 1 for p in lam if p > 1)


def enumerate_partitions(n, max_part=None):
    """Yield all partitions of n in decreasing lexicographic order."""
    if n < 0:
        raise InputError(f"rank must be nonnegative, got {n}")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


def enumerate_e_regular(n, e):
    """Yield the e-regular partitions of rank exactly n, decreasing lex order."""
    for lam in enumerate_partitions(n):
        if is_e_regular(lam, e):
            yield lam


def enumerate_multipartitions(n, levels):
    """Yield all `levels`-component multipartitions of total rank n."""
    if levels < 1:
        raise InputError(f"need at least one component, got {levels}")
    if n < 0:
        raise InputError(f"rank must be nonnegative, got {n}")
    if levels == 1:
        for lam in enumerate_partitions(n):
            yield (lam,)
        return
    for k in range(n + 1):
        for first in enumerate_partitions(k):
            for rest in enumerate_multipartitions(n - k, levels - 1):
                yield (first,) + rest
