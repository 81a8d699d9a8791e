"""The splitting embedding theta from e-regular partitions to multipartitions.

At a fundamental multicharge s of level l, theta deals the parts of an
e-regular partition over the components so that the image satisfies the
membership conditions at s.  Group g = 0, 1, ... of e consecutive rows is
cut into blocks of e + s_1 - s_l, s_l - s_{l-1}, ..., s_2 - s_1 rows, and
those blocks go, in that order, to components g, g - 1, ..., g - l + 1
(mod l); a block of size 0 takes nothing.  At level 1 theta is the
identity; at level 2 and charge (0, s) the first e - s rows go to
component 1, then blocks of e rows alternate between the components.
theta_inverse simply merges all components back into one partition.
"""

from .charges import _is_fundamental, check_charge
from .core import _concat, _int_arg, _regular_input, check_multipartition
from .errors import InputError


def theta(lam, e, charge):
    """Split an e-regular partition over the components of a fundamental charge."""
    lam, e = _regular_input(lam, e, "theta")
    s = check_charge(charge)
    if not _is_fundamental(s, e):
        raise InputError(f"theta needs a fundamental multicharge, got {s}")
    return _theta(lam, e, s)


def _theta(lam, e, s):
    """theta of a checked lam at a checked fundamental charge s."""
    l = len(s)
    sizes = [e + s[0] - s[-1]] + [s[j] - s[j - 1] for j in range(l - 1, 0, -1)]
    out = [[] for _ in s]
    for g, start in enumerate(range(0, len(lam), e)):
        for k, size in enumerate(sizes):
            out[(g - k) % l].extend(lam[start : start + size])
            start += size
    return tuple(map(tuple, out))


def theta_l2(lam, e, s):
    """theta at the level-2 charge (0, s)."""
    lam, e = _regular_input(lam, e, "theta")
    return _theta(lam, e, (0, _int_arg("s", s, 0, e - 1)))


def theta_inverse(mp):
    """Merge the components back into a single partition."""
    return _concat(*check_multipartition(mp))
