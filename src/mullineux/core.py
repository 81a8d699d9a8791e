"""Integer partitions and their basic combinatorics.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty partition is ().  A multipartition is a tuple of them, checked
here but not enumerated: the members of a charged set grow along the
crystal (`crystal.enumerate_phi`).

The public functions of the package check `e`, split charges, residues,
ranks, partition parts and charge entries with `_int_arg` and
`_int_seq`, once, at the boundary; internal kernels take the checked
values.  Each bad argument is reported by the one checker that reads it.
"""

import operator
import sys
from itertools import chain

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
    end = len(seq)
    while end and seq[end - 1] == 0:
        end -= 1
    seq = seq[:end]
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


def rank(lam):
    """Sum of the parts."""
    return sum(check_partition(lam))


def is_e_regular(lam, e):
    """True when no part value occurs e or more times."""
    e = _int_arg("e", e, 2)
    return _is_e_regular(check_partition(lam), e)


def _is_e_regular(lam, e):
    """is_e_regular of a checked lam: each part differs from the one e - 1 rows below."""
    return all(map(operator.ne, lam, lam[e - 1 :]))


def _regular_input(lam, e, who):
    """The checked (lam, e); InputError unless e is an int >= 2 and lam is e-regular."""
    lam, e = check_partition(lam), _int_arg("e", e, 2)
    if not _is_e_regular(lam, e):
        raise InputError(f"{who} needs an e-regular partition, got {lam} with e={e}")
    return lam, e


def conjugate(lam):
    """Transpose of the Young diagram."""
    return _conjugate(check_partition(lam))


def _conjugate(lam):
    """conjugate of a checked lam, in one pass from the bottom row up.

    Column j has i rows for every j in lam[i] + 1..lam[i - 1] (lam[len] = 0),
    so the columns are runs of len(lam), ..., 1 of those lengths.
    """
    out = []
    below = 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple(out)


def is_strict_e_core(lam, e):
    """True when every hook length is < e, i.e. the hook of (1, 1) is shorter than e.

    This is strictly stronger than having no hook of length exactly e.
    The empty partition is a strict core for every e.
    """
    return _is_strict_core(check_partition(lam), _int_arg("e", e, 2))


def _is_strict_core(lam, e):
    """is_strict_e_core of a checked lam and e."""
    return not lam or lam[0] + len(lam) <= e


def _concat(*partitions):
    """Merge checked partitions, given as tuples, by sorting all parts decreasingly."""
    return tuple(sorted(chain.from_iterable(partitions), reverse=True))


def remove_first_column(lam):
    """Delete the first column: subtract 1 from every part, drop zeros."""
    return tuple(p - 1 for p in check_partition(lam) if p > 1)


def enumerate_partitions(n):
    """Yield all partitions of n in decreasing lexicographic order."""
    yield from _partitions(_int_arg("rank", n, 0))


def _rank_bound(n):
    """InputError when a checked rank n is sys.maxsize or more: no
    enumeration of that size could run to its end."""
    if n >= sys.maxsize:
        raise InputError(f"rank must be < {sys.maxsize} to enumerate partitions, got {n}")


def _partitions(n):
    """Partitions of a checked n in decreasing lexicographic order, built in one list.

    ZS1 (Zoghbi and Stojmenović, 1998): the successor of a partition other
    than (1, ..., 1) pops its trailing 1s, lowers its last part k + 1 to k,
    and refills with ks and the remainder; h counts the parts above 1, so
    the 1s are found without a search.  `_rank_bound` refuses a rank of
    sys.maxsize or more at the first item.
    """
    _rank_bound(n)
    lam, h = [n] if n else [], int(n > 1)
    while True:
        yield tuple(lam)
        if not h:
            return
        k = lam[h - 1] - 1
        q, r = divmod(len(lam) - h + k + 1, k)
        del lam[h - 1 :]
        lam += [k] * q
        if r:
            lam.append(r)
        h = h - 1 if k == 1 else len(lam) - (r == 1)


def enumerate_e_regular(n, e):
    """Yield the e-regular partitions of rank exactly n, decreasing lex order."""
    n, e = _int_arg("rank", n, 0), _int_arg("e", e, 2)
    yield from (lam for lam in _partitions(n) if _is_e_regular(lam, e))
