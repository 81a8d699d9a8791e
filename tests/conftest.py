"""Shared hypothesis strategies, settings and enumerators for the test suite,
the recursive partition enumerator `recursive_partitions`, the
multipartition enumerator `itertools_multipartitions`, the unchecked
part accessor `part`, `im_sharp`'s preimage `im_preimage`, the plain
action of the charge group `expand` and `apply_word`, the node-by-node
crystal reference `branching_image`, the two-row symbol references
`build_symbol`, `decode_symbol` and `match_step`, and the rim lists `e_rim`
and `truncated_e_rim`."""

import itertools

from collections import Counter

from hypothesis import settings

import hypothesis.strategies as st

from mullineux.charges import transpose_charge

from mullineux.core import enumerate_partitions, rank

from mullineux.multisegments import canonical, is_aperiodic

from mullineux.symbols import _match

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def recursive_partitions(n, max_part):
    """Partitions of n with parts at most max_part, decreasing lex order, one frame per part.

    The reference for `core._partitions`: the first part runs down from
    min(max_part, n), and the rest are the partitions of what is left with
    parts at most the first.
    """
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def itertools_multipartitions(n, levels):
    """All `levels`-component multipartitions of rank n: their rank cuts
    drawn by combinations_with_replacement over range(n + 1), then the
    first component slowest and each in decreasing lexicographic order."""
    for cuts in itertools.combinations_with_replacement(range(n + 1), levels - 1):
        bounds = (0, *cuts, n)
        yield from itertools.product(*(enumerate_partitions(b - a) for a, b in zip(bounds, bounds[1:])))


def part(lam, i):
    """The i-th part (1-based) of a partition tuple, 0 past its end; checks nothing."""
    return lam[i - 1] if i <= len(lam) else 0


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


def im_preimage(ms):
    """(preimage, s): the one-row components of a canonical multisegment's
    segments, sorted by (head, -length), at the charge s of their heads, as
    im_sharp reads them."""
    segs = sorted(ms, key=lambda seg: (seg[0], -seg[1]))
    return tuple((length,) for _, length in segs), tuple(head for head, _ in segs)


def expand(word):
    """The run-length word as plain generators ("sigma", c) and ("tau", 1 or -1), one per step.

    ("wrap", k, r) is (tau^-1, sigma_1, ..., sigma_k) repeated r times and
    ("unwrap", k, r) its inverse (sigma_k, ..., sigma_1, tau) repeated r
    times; plain generators pass through.  The package's walk reads no tau
    token: `walkable` writes a plain word in its tokens.
    """
    out = []
    for gen in word:
        kind = gen[0]
        if kind == "wrap":
            out += ([("tau", -1)] + [("sigma", c) for c in range(1, gen[1] + 1)]) * gen[2]
        elif kind == "unwrap":
            out += ([("sigma", c) for c in range(gen[1], 0, -1)] + [("tau", 1)]) * gen[2]
        else:
            out.append(gen)
    return out


def walkable(word):
    """A plain word in the walk's tokens: tau as ("unwrap", 0, 1), tau^-1 as ("wrap", 0, 1)."""
    tokens = {("tau", 1): ("unwrap", 0, 1), ("tau", -1): ("wrap", 0, 1)}
    return [tokens.get(gen, gen) for gen in word]


def apply_word(s, word, e):
    """The charge s moved along a word, one plain generator at a time, left to right; unchecked.

    sigma_c swaps entries c and c+1, tau.s = (s_2, ..., s_l, s_1 + e) and
    tau^-1 is its inverse.
    """
    t = tuple(s)
    for gen in expand(word):
        if gen[0] == "sigma":
            c = gen[1]
            t = t[: c - 1] + (t[c], t[c - 1]) + t[c + 1 :]
        elif gen[1] == 1:
            t = t[1:] + (t[0] + e,)
        else:
            t = (t[-1] - e,) + t[:-1]
    return t


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


def build_symbol(bp, charge):
    """The minimal-depth symbol (charge, rows) of a bipartition charged (s1, s2).

    At depth d, row c has length d + s_c - max(s1, s2) and holds the values
    lam^c_j - j + s_c, ascending, so its j-th part is its j-th entry from the
    right.  The minimal depth makes both rows just long enough to see every
    nonzero part.
    """
    (lam1, lam2), (s1, s2) = bp, charge
    top = max(s1, s2)
    d = max(abs(s1 - s2), len(lam1) + top - s1, len(lam2) + top - s2)
    rows = tuple(tuple(part(lam, j) - j + s for j in range(d + s - top, 0, -1)) for lam, s in zip(bp, charge))
    return charge, rows


def decode_symbol(symbol):
    """The bipartition a symbol (charge, rows) encodes.

    A row that is not strictly increasing, or that decodes to a negative
    part, lies outside the β-sets: a ValueError.
    """
    charge, rows = symbol
    out = []
    for c, (row, s) in enumerate(zip(rows, charge), 1):
        if any(a >= b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {c} not strictly increasing: {row}")
        parts = [x + j - s for j, x in enumerate(reversed(row), 1)]
        if any(p < 0 for p in parts):
            raise ValueError(f"row {c} decodes to a negative part")
        out.append(tuple(p for p in parts if p))
    return tuple(out)


def match_step(symbol):
    """One matching step of a symbol charged (s1, s2): the symbol of the
    image at (s2, s1), by the pairing `mullineux.symbols._match`."""
    (s1, s2), rows = symbol
    return (s2, s1), _match(s1, s2, *rows)


def e_rim(lam, e):
    """Nodes (row, column) of the e-rim of a nonempty partition, in walk order.

    The rim is walked rightmost-first within each row from the top row down;
    after every e-th node the walk jumps to the next row, skipping the rest
    of the current one.
    """
    nodes = []
    for i in range(1, len(lam) + 1):
        for j in range(lam[i - 1], max(part(lam, i + 1), 1) - 1, -1):
            nodes.append((i, j))
            if len(nodes) % e == 0:
                break
    return tuple(nodes)


def truncated_e_rim(lam, e):
    """Nodes of the truncated e-rim, in e-rim walk order: the node-level
    reference for `xu_strip`.

    These are the e-rim nodes whose left neighbour is also in the e-rim,
    plus, when the e-rim size is not a multiple of e, the seed: the leftmost
    e-rim node of the last row, which is the walk's last node.
    """
    rim = e_rim(lam, e)
    members = set(rim)
    chosen = [(i, j) for (i, j) in rim if (i, j - 1) in members]
    if len(rim) % e != 0:
        last_row = rim[-1][0]
        extra = [(i, j) for (i, j) in rim if i == last_row and (i, j - 1) not in members]
        assert len(extra) == 1, f"expected one seed node in row {last_row}, got {extra}"
        chosen += extra
    return tuple(chosen)
