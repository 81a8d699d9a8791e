"""Integer partitions and their basic combinatorics.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty partition is ().  Parts beyond the last stored one are 0, which
the accessor `part` makes explicit.  Nodes of the Young diagram are
(row, column) pairs with 1-based indices.

The public functions of the package check `e`, split charges, residues,
ranks, partition parts and charge entries with `_int_arg` and `_int_seq`,
once, at the boundary; internal kernels take the checked values.
"""

import operator

from .errors import InputError


def _int_arg(name, x, lo=None, hi=None):
    """x read with operator.index; InputError unless it is an int in lo..hi.

    Both bounds are inclusive; `lo` alone is a lower bound, and no bound
    checks the type only.
    """
    try:
        x = operator.index(x)
    except TypeError as exc:
        raise InputError(f"{name} must be an int, got {x!r}") from exc
    if (lo is not None and x < lo) or (hi is not None and x > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise InputError(f"{name} must be {bound}, got {x}")
    return x


def _int_seq(what, xs):
    """The entries of xs as a tuple of ints, each read with operator.index."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError as exc:
        raise InputError(f"{what} must be ints: {xs!r}") from exc


def _iter_arg(what, xs):
    """iter(xs); InputError when xs is not iterable."""
    try:
        return iter(xs)
    except TypeError as exc:
        raise InputError(f"{what} must be iterable, got {xs!r}") from exc


def check_partition(parts):
    """Normalize `parts` to a partition tuple, dropping trailing zeros.

    Accepts any iterable of integers that is weakly decreasing once zeros
    are removed; raises InputError otherwise.
    """
    seq = _int_seq("parts", parts)
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
    comps = tuple(check_partition(c) for c in _iter_arg("a multipartition", mp))
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
    try:
        return sum(lam)
    except TypeError as exc:
        raise InputError(f"rank needs a partition, got {lam!r}") from exc


def multirank(mp):
    """Total number of nodes of a multipartition."""
    try:
        return sum(sum(c) for c in mp)
    except TypeError as exc:
        raise InputError(f"multirank needs a multipartition, got {mp!r}") from exc


def is_e_regular(lam, e):
    """True when no part value occurs e or more times."""
    e = _int_arg("e", e, 2)
    run = 0
    prev = None
    try:
        for p in lam:
            run = run + 1 if p == prev else 1
            if run >= e:
                return False
            prev = p
    except TypeError as exc:
        raise InputError(f"is_e_regular needs a partition, got {lam!r}") from exc
    return True


def _regular_input(lam, e, who):
    """The checked (lam, e); InputError unless e is an int >= 2 and lam is e-regular."""
    lam, e = check_partition(lam), _int_arg("e", e, 2)
    if not is_e_regular(lam, e):
        raise InputError(f"{who} needs an e-regular partition, got {lam} with e={e}")
    return lam, e


def conjugate(lam):
    """Transpose of the Young diagram."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def max_hook_length(lam):
    """Hook length of the node (1, 1): first part plus number of parts minus 1."""
    try:
        if not lam:
            return 0
        return lam[0] + len(lam) - 1
    except TypeError as exc:
        raise InputError(f"max_hook_length needs a partition, got {lam!r}") from exc


def is_strict_e_core(lam, e):
    """True when every hook length is < e, i.e. max_hook_length(lam) < e.

    This is strictly stronger than having no hook of length exactly e.
    The empty partition is a strict core for every e.
    """
    return max_hook_length(check_partition(lam)) < _int_arg("e", e, 2)


def concat(*partitions):
    """Merge several partitions into one by sorting all parts decreasingly."""
    merged = []
    try:
        for lam in partitions:
            merged.extend(lam)
        return tuple(sorted(merged, reverse=True))
    except TypeError as exc:
        raise InputError(f"concat needs partitions, got {partitions!r}") from exc


def remove_first_column(lam):
    """Delete the first column: subtract 1 from every part, drop zeros."""
    return tuple(p - 1 for p in check_partition(lam) if p > 1)


def enumerate_partitions(n, max_part=None):
    """Yield all partitions of n in decreasing lexicographic order."""
    n = _rank_arg(n)
    yield from _partitions(n, n if max_part is None else _int_arg("max_part", max_part))


def _rank_arg(n):
    """A rank argument read with _int_arg; InputError when negative."""
    n = _int_arg("rank", n)
    if n < 0:
        raise InputError(f"rank must be nonnegative, got {n}")
    return n


def _partitions(n, max_part):
    """enumerate_partitions with a checked n and max_part."""
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_e_regular(n, e):
    """Yield the e-regular partitions of rank exactly n, decreasing lex order."""
    for lam in enumerate_partitions(n):
        if is_e_regular(lam, e):
            yield lam


def enumerate_multipartitions(n, levels):
    """Yield all `levels`-component multipartitions of total rank n."""
    levels = _int_arg("levels", levels)
    if levels < 1:
        raise InputError(f"need at least one component, got {levels}")
    yield from _multipartitions(_rank_arg(n), levels)


def _multipartitions(n, levels):
    """enumerate_multipartitions with a checked n and levels."""
    if levels == 1:
        for lam in _partitions(n, n):
            yield (lam,)
        return
    for k in range(n + 1):
        for first in _partitions(k, k):
            for rest in _multipartitions(n - k, levels - 1):
                yield (first,) + rest
