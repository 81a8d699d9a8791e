"""Multicharges and the extended affine symmetric group acting on them.

A multicharge is a tuple s = (s_1, ..., s_l) of integers.  For a fixed
modulus e the group acting on charges is generated by

* sigma_c, 1 <= c <= l-1: swap entries c and c+1;
* z_i, 1 <= i <= l: add e to entry i;
* tau = z_l sigma_{l-1} ... sigma_1: rotate left and add e to the entry
  that wraps around, tau.s = (s_2, ..., s_l, s_1 + e).

The fundamental domain consists of the charges with
s_1 <= s_2 <= ... <= s_l < s_1 + e.

Orbits are residue multisets mod e, and every representative takes each
entry by one rule, `_least_in_class`: the least value at or above a floor
in the entry's class.  Residues are read only where they occur, so nothing
here grows with e.

Inside the package a path is built as a run-length word of three tokens:
("sigma", c); ("wrap", k, r), the block tau_inv sigma_1 ... sigma_k repeated
r times; and its inverse ("unwrap", k, r), the block sigma_k ... sigma_1 tau
repeated r times.  A wrap or unwrap moves one entry across the k entries
below it while the charge stays sorted; at k = 0 there are none, so
("unwrap", 0, j) is tau^j and ("wrap", 0, j) is tau^-j.
`_normalization_word` lowers a descending cluster, the entries above
position k, in one token computed in closed form, so after its sort a
normalization word has at most one wrap per position: at level 3,
(0, 30001, 60002) normalizes in two tokens, and the length of a word does
not grow with the distance between its charges.
"""

from bisect import bisect_left

from .core import _int_arg, _int_seq
from .errors import InputError


def check_charge(s):
    """Normalize to a tuple of ints; must be nonempty."""
    t = _int_seq("charge entries", s)
    if not t:
        raise InputError("a multicharge needs at least one entry")
    return t


def is_fundamental(s, e):
    """True when s_1 <= ... <= s_l < s_1 + e."""
    return _is_fundamental(check_charge(s), _int_arg("e", e, 2))


def _is_fundamental(s, e):
    """is_fundamental of a checked charge for a checked e."""
    return all(a <= b for a, b in zip(s, s[1:])) and s[-1] < s[0] + e


def _least_in_class(floor, r, e):
    """The least value >= floor that is == r mod e: the one residue rule of the charge layer."""
    return floor + (r - floor) % e


def same_orbit(s, t, e):
    """Two charges lie in one orbit iff their residue multisets mod e agree."""
    return _same_orbit(check_charge(s), check_charge(t), _int_arg("e", e, 2))


def _same_orbit(s, t, e):
    """same_orbit of two checked charges for a checked e."""
    return sorted(x % e for x in s) == sorted(x % e for x in t)


def fundamental_representative(s, e):
    """The fundamental charge with the same residues, anchored at min(s).

    Each entry is the least value >= min(s) in its class (`_least_in_class`).
    """
    return _fundamental_representative(check_charge(s), _int_arg("e", e, 2))


def _fundamental_representative(s, e):
    """fundamental_representative of a checked charge for a checked e."""
    m = min(s)
    return tuple(sorted(_least_in_class(m, x, e) for x in s))


def _normalization_word(s, e):
    """(run-length word from s to F, F) for F = fundamental_representative(s, e), s and e checked.

    Sorts s by stable adjacent swaps (strict swaps only), then applies
    tau_inv while the sorted charge still spans e or more.  The minimum entry
    is invariant and the sum drops by e at each tau_inv, so this terminates.

    After the first sort the charge stays sorted: tau_inv puts the top
    entry, lowered to x, in front of a sorted row, and the adjacent-swap
    sort would carry it past exactly the k entries below it, as sigma_1,
    ..., sigma_k, with k the bisect_left position of x among the others.
    So each lowering is one block ("wrap", k, 1), and the lowerings that
    share one k form a phase, emitted as one token ("wrap", k, r) in closed
    form.

    The phase.  Let b = t[k-1] (or x - 1 when k = 0, where x = t[0]) and
    let C be the cluster t[k:] once x has taken its place, so every c in C
    has b < c and C spans at most e: x <= t[k], and x + e, the old top, is
    at least every other entry.  Each later lowering pops the largest entry
    M of the cluster, and M - e is at most the cluster's least entry, so
    the span stays at most e.  If M - e > b, bisect_left puts M - e at k,
    the bottom of the cluster, and the phase goes on.  Otherwise the phase
    is over: M - e lands below k, or the loop stops (with k = 0 the least
    entry t[0] = b + 1 stays put, and M - e <= b means M < t[0] + e).  The
    popped values do not increase, since each pop takes the largest entry
    and puts back one at most every other; so every value above b + e is
    popped before the first one at most b + e, which ends the phase.  An
    entry c is popped as c, c - e, ... while it stays above b + e, that is
    (c - b - 1) // e times, and ends at b + 1 + (c - b - 1) % e, in
    (b, b + e].  So the phase has r = 1 + sum((c - b - 1) // e for c in C)
    lowerings, and the next one, if any, has a smaller k: its entry drops
    to b or below.  Each k is used at most once and the word has at most l
    wrap tokens.  The code emits that r and puts the sorted ends in C's place.
    """
    t = list(s)
    word = []
    swapped = True
    while swapped:
        swapped = False
        for c in range(len(t) - 1):
            if t[c] > t[c + 1]:
                word.append(("sigma", c + 1))
                t[c], t[c + 1] = t[c + 1], t[c]
                swapped = True
    while t[-1] >= t[0] + e:
        x = t.pop() - e
        k = bisect_left(t, x)
        t.insert(k, x)
        b = t[k - 1] if k else x - 1
        word.append(("wrap", k, 1 + sum((c - b - 1) // e for c in t[k:])))
        t[k:] = sorted(b + 1 + (c - b - 1) % e for c in t[k:])
    return word, tuple(t)


def _path_word(s, t, e):
    """Run-length path word for checked charges of one orbit, built without checking it.

    The normalization of s, the bridge tau^j as ("unwrap", 0, j) or
    ("wrap", 0, -j) unless j is 0, and the normalization of t reversed,
    each wrap read as its unwrap.
    """
    ws, fs = _normalization_word(s, e)
    wt, ft = _normalization_word(t, e)
    j = (sum(ft) - sum(fs)) // e
    bridge = [("unwrap", 0, j)] if j > 0 else [("wrap", 0, -j)] if j else []
    back = [("unwrap", gen[1], gen[2]) if gen[0] == "wrap" else gen for gen in reversed(wt)]
    return ws + bridge + back


def transpose_charge(s):
    """(-s_l, ..., -s_1); fundamental whenever s is."""
    return _transpose(check_charge(s))


def _transpose(s):
    """transpose_charge of a checked charge."""
    return tuple(-x for x in reversed(s))


def sharp_very_dominant(s, n, e):
    """The canonical very dominant charge with entries == -s_i mod e.

    Entry 1 is the least value >= 0 in the class of -s_1; each later entry
    is the least value >= previous + n in the class of -s_{i+1}
    (`_least_in_class`).
    """
    return _sharp_very_dominant(check_charge(s), _int_arg("n", n, 0), _int_arg("e", e, 2))


def _sharp_very_dominant(s, n, e):
    """sharp_very_dominant of a checked charge for checked n and e."""
    out = [_least_in_class(0, -s[0], e)]
    for x in s[1:]:
        out.append(_least_in_class(out[-1] + n, -x, e))
    return tuple(out)


def very_dominant_representative(s, n, e):
    """A very dominant charge in the orbit of s, built above F(s).

    Keeps entry 1 of the fundamental representative; each later entry is
    the least value >= previous + n in the class of its entry there
    (`_least_in_class`).
    """
    return _very_dominant_representative(check_charge(s), _int_arg("n", n, 0), _int_arg("e", e, 2))


def _very_dominant_representative(s, n, e):
    """very_dominant_representative of a checked charge for checked n and e."""
    f = _fundamental_representative(s, e)
    out = [f[0]]
    for x in f[1:]:
        out.append(_least_in_class(out[-1] + n, x, e))
    return tuple(out)
