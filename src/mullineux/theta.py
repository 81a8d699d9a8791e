"""The splitting embedding theta from e-regular partitions to multipartitions.

At a fundamental multicharge s of level l, theta cuts the parts of an
e-regular partition into blocks and distributes them over the components so
that the image satisfies the membership conditions at s.  The recursion
consumes the first e + s_1 - s_l parts, recurses on the rest at a rotated
charge, and stitches the results together; theta_inverse simply merges all
components back into one partition.

For level 2 and charge (0, s) the recursion collapses to a block rule:
the first e - s parts go to component 1, then blocks of e parts alternate
between component 2 and component 1.
"""

from .charges import check_charge, is_fundamental
from .core import _concat, _int_arg, _regular_input, check_multipartition
from .errors import InputError


def theta(lam, e, charge):
    """Split an e-regular partition over the components of a fundamental charge."""
    lam, e = _regular_input(lam, e, "theta")
    s = check_charge(charge)
    if not is_fundamental(s, e):
        raise InputError(f"theta needs a fundamental multicharge, got {s}")
    return _theta(lam, e, s)


def _theta(lam, e, s):
    l = len(s)
    if not lam:
        return ((),) * l
    # 1-based index of the first entry equal to s_l
    lp = next(j for j in range(1, l + 1) if s[j - 1] == s[-1])
    count = e + s[0] - s[-1]
    head = lam[:count]
    tail = lam[count:]
    if lp == 1:
        nu = _theta(tail, e, s)
        out = [None] * l
        out[0] = _concat(head, nu[l - 1])
        for j in range(2, l + 1):
            out[j - 1] = nu[j - 2]
        return tuple(out)
    s2 = (s[-1],) * (l - lp + 2) + tuple(s[j - 1] + e for j in range(2, lp))
    nu = _theta(tail, e, s2)
    out = [None] * l
    out[0] = _concat(head, nu[_wrap(2 + l - lp, l) - 1])
    for j in range(2, l + 1):
        out[j - 1] = nu[_wrap(j + 1 - lp, l) - 1]
    return tuple(out)


def _wrap(x, l):
    """Reduce a component index into 1..l."""
    return (x - 1) % l + 1


def theta_l2(lam, e, s):
    """Level-2 block rule for charge (0, s): alternate blocks of e parts."""
    lam, e = _regular_input(lam, e, "theta")
    s = _int_arg("s", s, 0, e - 1)
    comp1 = list(lam[: e - s])
    rest = lam[e - s :]
    comp2 = []
    to_second = True
    while rest:
        block, rest = rest[:e], rest[e:]
        (comp2 if to_second else comp1).extend(block)
        to_second = not to_second
    return tuple(comp1), tuple(comp2)


def theta_inverse(mp):
    """Merge the components back into a single partition."""
    return _concat(*check_multipartition(mp))
