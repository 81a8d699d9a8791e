"""Shared hypothesis strategies, settings and enumerators for the test suite,
and the node-by-node crystal reference `branching_image`."""

import itertools

from collections import Counter

from hypothesis import settings

import hypothesis.strategies as st

from mullineux.charges import transpose_charge

from mullineux.core import enumerate_partitions, part, rank

from mullineux.multisegments import canonical, is_aperiodic

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def partitions(max_part=8, max_len=6):
    """Strategy producing valid partitions as weakly decreasing tuples."""
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def bipartitions(max_part=6, max_len=4):
    """Strategy producing pairs of partitions."""
    return st.tuples(partitions(max_part, max_len), partitions(max_part, max_len))


def charge_tuples(level, low=-6, high=8):
    """Strategy producing integer charges of a fixed level."""
    return st.tuples(*(st.integers(low, high) for _ in range(level)))


@st.composite
def partitions_up_to(draw, max_rank, max_part, regular):
    """(lam, e): a partition of rank at most max_rank, e-regular if `regular`."""
    e = draw(st.integers(2, 6))
    most = e - 1 if regular else 2 * e + 1
    mults = draw(st.dictionaries(st.integers(1, max_part), st.integers(1, most), max_size=30))
    lam = []
    for value in sorted(mults, reverse=True):
        for _ in range(mults[value]):
            if rank(lam) + value <= max_rank:
                lam.append(value)
    return tuple(lam), e


def fundamental_charges(e, level):
    """The fundamental charges (0, s_2, ..., s_level), 0 <= s_2 <= ... <= s_level < e, sorted."""
    return [(0, *rest) for rest in itertools.combinations_with_replacement(range(e), level - 1)]


def aperiodic_multisegments(n, e):
    """Every aperiodic multisegment of rank n mod e, in canonical form."""
    for lengths in enumerate_partitions(n):
        groups = [
            [tuple((h, length) for h in heads) for heads in itertools.combinations_with_replacement(range(e), k)]
            for length, k in Counter(lengths).items()
        ]
        for combo in itertools.product(*groups):
            ms = canonical(seg for group in combo for seg in group)
            if is_aperiodic(ms, e):
                yield ms


def signature(mp, s, e, i):
    """The addable and removable i-nodes of a charged multipartition, row by row.

    A node (a, b) of component c has key b - a + s_c, and its residue is the
    key mod e.  Returns ("A" or "R", c, row) triples by decreasing key, ties
    broken by increasing c.
    """
    entries = []
    for c, (lam, sc) in enumerate(zip(mp, s)):
        for r in range(1, len(lam) + 2):
            cur = part(lam, r)
            if (r == 1 or cur < part(lam, r - 1)) and (cur + 1 - r + sc) % e == i:
                entries.append((cur + 1 - r + sc, c, "A", r))
            if r <= len(lam) and cur > part(lam, r + 1) and (cur - r + sc) % e == i:
                entries.append((cur - r + sc, c, "R", r))
    entries.sort(key=lambda entry: (-entry[0], entry[1]))
    return [(kind, c, r) for _, c, kind, r in entries]


def reduced_signature(mp, s, e, i):
    """The signature with each R cancelling the nearest uncancelled A before it: R^a A^b."""
    stack = []
    for entry in signature(mp, s, e, i):
        if entry[0] == "R" and stack and stack[-1][0] == "A":
            stack.pop()
        else:
            stack.append(entry)
    return stack


def good_nodes(mp, s, e, i):
    """(good removable, good addable) i-node as (component, row), or None.

    The good removable node is the last R of the reduced signature, the good
    addable node its first A.
    """
    reduced = reduced_signature(mp, s, e, i)
    removable = [(c, r) for kind, c, r in reduced if kind == "R"]
    addable = [(c, r) for kind, c, r in reduced if kind == "A"]
    return removable[-1] if removable else None, addable[0] if addable else None


def moved(mp, node, step):
    """mp with `step` (1 or -1) added to the given row of the given component."""
    c, r = node
    lam = [*mp[c], 0]
    lam[r - 1] += step
    return mp[:c] + (tuple(p for p in lam if p),) + mp[c + 1 :]


def branching_image(mp, s, e, peel_order=None):
    """Image of a member at a fundamental charge s in the set at transpose_charge(s).

    The crystal reference: the map sends the empty multipartition to itself
    and f_i x to f_{-i} of the image of x.  Peel good removable nodes, least
    residue first (or first in `peel_order`), down to the empty
    multipartition, then regrow at the transposed charge by the good addable
    (-i mod e)-nodes, last peel first.  One node per step; it shares no code
    with the library's routes.
    """
    peel_order = range(e) if peel_order is None else peel_order
    mp = tuple(tuple(lam) for lam in mp)
    peeled = []
    while any(mp):
        found = next(((i, node) for i in peel_order if (node := good_nodes(mp, s, e, i)[0])), None)
        assert found is not None, (mp, s, e)
        i, node = found
        mp = moved(mp, node, -1)
        peeled.append(i)
    t = transpose_charge(s)
    for i in reversed(peeled):
        node = good_nodes(mp, t, e, -i % e)[1]
        assert node is not None, (mp, t, e, i)
        mp = moved(mp, node, 1)
    return mp
