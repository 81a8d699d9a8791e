"""Charged multipartitions, membership, and crystal isomorphisms.

Membership (the FLOTW conditions) is defined at fundamental multicharges and
transported elsewhere along the isomorphisms.  The isomorphism psi follows a
run-length word in the charge group (`charges._path_word`), with each
component carried as the partition it is, at a charge the walk keeps
alongside (`_walk`).  The word's tokens are sigma_c and runs of wrap and
unwrap blocks; at k = 0 those are tau^-r and tau^r, which change no row,
only the order of the rows and their charges.  sigma_c only swaps components
c, c+1 when the charged β-set of one lies below the other's floor, which
it reads from a first part and a length; otherwise it builds the two β-sets
and runs the two-row symbol matching on them (`_sigma`).  In a wrap or
unwrap a row passes rows whose charges lie below its own, sorted; those n
or more below it, n the multirank, are swapped without a look, and a run's
whole cycles whose reps pass only such rows are one charge update.  A
row is encoded as a β-set, and decoded, only in a matching.  The word is
not replayed on the charge: `_psi` compares the charge the walk ends at
with its target and raises InternalError on a miss.

Every public function here that takes a charged multipartition, and
`multisegments.chi` and `involution.ak_mullineux`, checks it with
`_charged_input`.  psi, membership and flotw_check then call unchecked
bodies (`_psi`, `_membership`, `_flotw`), as blockwise_lift and
blockwise_lower call `_lift` and `_lower`; the other modules call those
bodies on values they have checked or built themselves.
`_flotw` runs `_flotw_rows`, which tests FLOTW (1) and (2) on the rows, and
then FLOTW (3): the aperiodicity of the rows read as chi's segments
(`_segments`).  So `_flotw` and `multisegments.is_aperiodic` share
`_is_aperiodic`.

`blockwise_lift` and `blockwise_lower` are direct box-moving versions of the
level-2 isomorphisms between a fundamental charge and a very dominant one;
the crystal route runs `_lift` and `_lower`, with psi as their reference.

`_string_image` is the level-k string kernel: it peels a member down to the
empty multipartition one whole crystal string at a time and regrows the
strings at another charge with negated residues, reading the signatures
only at the corners of the multipartition.  It works in place on the
caller's list of row lists, in two loops that each move their own nodes.
`_corners` sorts the corners once, by residue and each residue's run in
signature order.  `_strings(rows, s, e)` peels whole strings, one pass
each up to the least residue with a good removable node, and stops at a
highest-weight vertex; `_regrow(rows, strings, t, e)` regrows (j, a)
pairs, last first, as f_j^a, one pass over residue j's corners each.
`_addables` keeps each residue's uncancelled addable nodes as a stack, for
every residue or for one: `_regrow` adds the first a of residue j's, and
`enumerate_phi` the first of each, rebuilding only its component.  Only
`_string_image` negates residues.  `involution.im_sharp` runs the kernel
in place of a transport, and `enumerate_phi` grows the members from the
empty multipartition with it.
"""

import operator

from .charges import (
    _fundamental_representative,
    _is_fundamental,
    _least_in_class,
    _path_word,
    _same_orbit,
    check_charge,
)
from .core import (
    _concat,
    _int_arg,
    _rank_bound,
    check_multipartition,
    check_partition,
)
from .errors import InputError, InternalError, NoPathError
from .symbols import _match


def _charged_input(mp, charges, e):
    """The checked (mp, *charges, e), read in that order.

    InputError unless mp has one component per entry of the first charge.
    """
    mp = check_multipartition(mp)
    charges = [check_charge(charge) for charge in charges]
    e = _int_arg("e", e, 2)
    if len(mp) != len(charges[0]):
        raise InputError(f"{len(mp)} components vs {len(charges[0])} charges")
    return (mp, *charges, e)


def flotw_check(mp, charge, e):
    """FLOTW conditions at a fundamental multicharge.

    (1) lam^j_i >= lam^{j+1}_{i + s_{j+1} - s_j} for j < l;
    (2) lam^l_i >= lam^1_{i + e + s_1 - s_l};
    (3) for every part value k, the residues of the row ends of length-k rows
        do not exhaust Z/eZ.
    """
    mp, s, e = _charged_input(mp, (charge,), e)
    if not _is_fundamental(s, e):
        raise InputError(f"flotw_check needs a fundamental multicharge, got {s}")
    return _flotw(mp, s, e)


def _flotw(mp, s, e):
    """flotw_check of a checked multipartition at a checked fundamental charge."""
    return _flotw_rows(mp, s, e) and _is_aperiodic(_segments(mp, s, e), e)


def _flotw_rows(mp, s, e):
    """FLOTW (1) and (2) of a checked multipartition at a checked fundamental charge."""
    l = len(mp)
    for j in range(l):
        if j + 1 < l:
            nxt, gap = mp[j + 1], s[j + 1] - s[j]
        else:
            nxt, gap = mp[0], e + s[0] - s[-1]
        # Parts past the end of mp[j] are 0, below every part of nxt.
        if len(mp[j]) < len(nxt) - gap or any(map(operator.lt, mp[j], nxt[gap:])):
            return False
    return True


def _segments(mp, s, e):
    """Row i, part p, of component c of a checked mp at s as chi's segment ((1 - i + s_c) % e, p)."""
    return (((1 - i + sc) % e, p) for lam, sc in zip(mp, s) for i, p in enumerate(lam, 1))


def _is_aperiodic(ms, e):
    """is_aperiodic of a checked multisegment: no length has segments at every tail residue mod e."""
    tails = {}
    for head, length in ms:
        tails.setdefault(length, set()).add((head + length - 1) % e)
    return all(len(seen) < e for seen in tails.values())


def _walk(mp, s, word, e):
    """Transport a checked multipartition along a word: (image, end charge).

    The word is a run-length word as `charges._path_word` builds it, of
    tokens ("sigma", c), ("wrap", k, r) and ("unwrap", k, r); unwrap is
    the last branch, so any other token fails at its unpacking.  Each
    component travels as the partition it is, at a charge that the walk
    carries along.  At k = 0 a wrap or unwrap passes no row:
    ("unwrap", 0, r) is tau^r and ("wrap", 0, r) is tau^-r, which only
    rotate the rows and shift their charges.

    sigma_c is `_sigma` on the rows of components c, c+1.  A plain swap
    returns the two rows it was given, so a row that no matching touched
    comes back as the very object that went in.

    A wrap or unwrap moves one row at charge a past rows at charges b < a,
    sorted ascending; `_path_word` emits them only where the charge is
    sorted, and the walk relies on it.  When a - b >= n, the multirank,
    sigma is a plain swap, since lam_1 + len(mu) <= |lam| + |mu| <= n for
    the two rows' partitions lam (at b) and mu (at a).  As the charges are
    sorted, the far rows lie below the near ones: the walk scans down from
    the nearest row to the first far one and steps over the rest without
    looking at them.  The near rows run `_sigma`.

    Whole cycles.  A wrap takes the top row to position k and an unwrap
    takes row k to the top, so the m = l - k rows from k up cycle: m reps
    move each of them once, by e, and put them back in their order.  When
    every one of those reps passes only far rows, the cycle changes no row,
    only the m charges.  In `_path_word`'s words those m charges are
    sorted and lie above the k below, so the least of them, s[k], is the
    one to test against s[k-1], the nearest row below, in O(1).  For a wrap
    the charges fall and the far cycles come first: the first q are far
    while s[k] - q*e - s[k-1] >= n.  For an unwrap they rise and the far
    cycles come last, from the first rep at which s[k] - s[k-1] >= n.
    With k = 0 nothing lies below and every cycle is far, so tau^r costs
    one charge update and fewer than l reps.  Either way the q
    cycles are one charge update, and the rest of the run goes rep by rep,
    its far reps cheap and its near reps at most about m*(n/e + 1), so the
    cost does not grow with r.
    """
    rows = list(mp)
    s = list(s)
    l = len(s)
    n = sum(map(sum, mp))
    for gen in word:
        kind = gen[0]
        if kind == "sigma":
            c = gen[1]
            a, b = s[c - 1], s[c]
            rows[c - 1], rows[c] = _sigma(rows[c - 1], rows[c], a, b, s, c - 1, c + 1)
            s[c - 1], s[c] = b, a
        elif kind == "wrap":
            _, k, r = gen
            m = l - k
            q = r // m if not k else min(r // m, max(0, (s[k] - s[k - 1] - n) // e))
            if q:
                s[k:] = [x - q * e for x in s[k:]]
                r -= q * m
            for _ in range(r):
                row = rows.pop()
                a = s.pop() - e
                i = k
                while i and a - s[i - 1] < n:
                    i -= 1
                while i < k:
                    rows[i], row = _sigma(row, rows[i], a, s[i], s, i, i + 1)
                    i += 1
                rows.insert(k, row)
                s.insert(k, a)
        else:
            _, k, r = gen
            m = l - k
            while r:
                if r >= m and (not k or s[k] - s[k - 1] >= n):
                    q = r // m
                    s[k:] = [x + q * e for x in s[k:]]
                    r -= q * m
                    continue
                row = rows.pop(k)
                a = s.pop(k)
                i = k - 1
                while i >= 0 and a - s[i] < n:
                    row, rows[i] = _sigma(rows[i], row, s[i], a, s, i, i + 1)
                    i -= 1
                rows.append(row)
                s.append(a + e)
                r -= 1
    return tuple(rows), tuple(s)


def _sigma(lam, mu, a, b, s, lo, hi):
    """sigma_{lo + 1} on partitions lam at charge a and mu at b: the new pair, at b and at a.

    The β-set of lam relative to its charge is {lam_j - j : j >= 1}; adding
    a gives its charged β-set.  When the largest element of one charged
    β-set lies below the floor of the other, the first set lies inside the
    second; the symbol matching then pairs every entry of the smaller set
    with itself, so the step only swaps the two partitions, and returns the
    objects it was given.  In charge terms that is b - a >= lam_1 + len(mu),
    or the mirror inequality a - b >= mu_1 + len(lam).

    Otherwise it builds the two β-rows, ascending and padded down to their
    common floor, which makes them the minimal-depth symbol of the pair,
    and runs the matching.  The matching runs in the frame of charge a,
    which it does not change, since it only compares entries: mu's row is
    shifted by b - a on the way in.  Each new row has as many entries as
    the padded row at its charge had, so its entry i, counted from 0, reads
    as the part row[i] - floor - i of the new partition at that charge: the
    run of entries up from the floor reads as zeros, which are dropped.  A
    new row that repeats an entry or reaches below its floor would mean the
    matching left the β-sets and raises InternalError, naming the charge
    (*s[:lo], a, b, *s[hi:]) at that step.
    """
    d = b - a
    if (lam[0] if lam else 0) + len(mu) <= d or (mu[0] if mu else 0) + len(lam) <= -d:
        return mu, lam
    m, n = len(lam), len(mu)
    floor = -m if -m < d - n else d - n
    row1 = [*range(floor, -m), *map(operator.sub, reversed(lam), range(m, 0, -1))]
    row2 = [*range(floor, d - n), *map(operator.sub, reversed(mu), range(n - d, -d, -1))]
    new = _match(a, b, row1, row2)
    out = []
    for row in new:
        if len(set(row)) != len(row) or row and row[0] < floor:
            new = tuple(tuple([x + a for x in row]) for row in new)
            raise InternalError(f"sigma_{lo + 1} at {(*s[:lo], a, b, *s[hi:])} left the β-sets: {new}")
        out.append(tuple([x - j for j, x in enumerate(row, floor) if x != j][::-1]))
    return tuple(out)


def psi(mp, charge, to, e):
    """Crystal isomorphism from `charge` to `to` along a charge-group word.

    Raises NoPathError when the charges are not in one orbit.  The word is
    not replayed on the charge: the walk carries the charge along, and a
    walk that ends anywhere but `to` raises InternalError.
    """
    mp, s, t, e = _charged_input(mp, (charge, to), e)
    if not _same_orbit(s, t, e):
        raise NoPathError(f"{s} and {t} have different residue multisets mod {e}")
    return _psi(mp, s, t, e)


def _psi(mp, s, t, e, words=None):
    """psi of a checked multipartition between checked tuple charges of one orbit.

    `words`, when given, is the caller's table of run-length words keyed
    (s, t), for this e only: a missing word is built and kept there.
    """
    if s == t:
        return mp
    if words is None:
        word = _path_word(s, t, e)
    else:
        word = words.get((s, t))
        if word is None:
            word = words[s, t] = _path_word(s, t, e)
    mp, end = _walk(mp, s, word, e)
    if end != t:
        raise InternalError(f"isomorphism walk ended at {end}, wanted {t}")
    return mp


def membership(mp, charge, e):
    """Whether a charged multipartition belongs to the set labelled by charge.

    At a fundamental charge this is flotw_check; elsewhere the multipartition
    is transported to the fundamental representative first.
    """
    mp, s, e = _charged_input(mp, (charge,), e)
    return _membership(mp, s, e)


def _membership(mp, s, e):
    """membership of a checked multipartition at a checked charge of its level."""
    f = _fundamental_representative(s, e)
    return _flotw(_psi(mp, s, f, e), f, e)


def enumerate_phi(n, charge, e):
    """All members of rank n at the given charge, sorted, as a tuple.

    The members are the crystal component of the empty multipartition, at
    any charge: rank k + 1 is every f_i x, x of rank k and i a residue whose
    reduced signature has an addable node, the first of which f_i adds.  So
    no transport runs, and each member's corners are read in one pass
    (`_addables`).  f_i adds one node, so only its component is rebuilt.
    """
    n, s, e = _int_arg("rank", n, 0), check_charge(charge), _int_arg("e", e, 2)
    _rank_bound(n)
    members = {((),) * len(s)}
    for _ in range(n):
        grown = set()
        for mp in members:
            for stack in _addables(mp, s, e).values():
                if stack:
                    c, r = stack[0]
                    lam = mp[c]
                    lam = lam + (1,) if r > len(lam) else lam[: r - 1] + (lam[r - 1] + 1,) + lam[r:]
                    grown.add(mp[:c] + (lam,) + mp[c + 1 :])
        members = grown
    return tuple(sorted(members))


def _corners(mp, s, e, j=None):
    """The addable and removable nodes of a checked mp at a charge s of its
    level, sorted by residue and each residue's run in signature order; only
    residue j's when j is given.

    A node (a, b) of component c has key b - a + s_c, and its residue is the
    key mod e.  A block of parts p in rows r + 1 to q has its addable node
    at the end of row r + 1, key p - r + s_c, and its removable node at the
    end of row q, key p - q + s_c; the block of zeros below the partition
    has only its addable node.  A node is (residue, -key, c, row, kind),
    kind 1 for an addable node and 0 for a removable one, so that one sort
    puts each residue's nodes in one run in signature order: keys
    decreasing, ties broken by increasing c.  No two corners of one
    component share a key, so the sort never compares rows or kinds.  One
    pass over the blocks, and only the corners are sorted, so nothing grows
    with e.  The last block and the block of zeros are read after the loop,
    not from a copy of lam padded with a 0: on the `im` inputs the copy
    cost about a tenth of the kernel.
    """
    nodes = []
    for c, (lam, sc) in enumerate(zip(mp, s)):
        prev, r = None, 0
        for p in lam:
            if p != prev:  # a block of parts p starts in row r + 1
                if r:  # the block of parts prev ends in row r
                    key = prev - r + sc
                    i = key % e
                    if j is None or i == j:
                        nodes.append((i, -key, c, r, 0))
                key = p - r + sc
                i = key % e
                if j is None or i == j:
                    nodes.append((i, -key, c, r + 1, 1))
                prev = p
            r += 1
        if r:  # the last block ends in row r, and the block of zeros starts below it
            key = prev - r + sc
            i = key % e
            if j is None or i == j:
                nodes.append((i, -key, c, r, 0))
        key = sc - r
        i = key % e
        if j is None or i == j:
            nodes.append((i, -key, c, r + 1, 1))
    nodes.sort()
    return nodes


def _addables(mp, s, e, j=None):
    """{residue: the addable nodes of its reduced signature R^a A^b, as
    (component, row) in signature order}, from one pass over `_corners`;
    only residue j's entry when j is given.

    Read in signature order, a removable node cancels the nearest
    uncancelled addable node before it, so the uncancelled addables are a
    stack that each later removable pops.  A residue with no corner has no
    entry.  `_strings` keeps its own pass, which stops early: one pass
    shared by both cost the kernel about a tenth.
    """
    out, cur = {}, None
    for i, _, c, r, kind in _corners(mp, s, e, j):
        if i != cur:
            cur = i
            stack = out[i] = []
        if kind:
            stack.append((c, r))
        elif stack:
            stack.pop()
    return out


def _strings(rows, s, e):
    """Peel rows, a list of row lists checked at s, in place down to a
    highest-weight vertex, one whole string at a time; returns the strings
    (i, a) in peel order.

    Each string is e_i^a for the least residue i with a = epsilon_i > 0.
    e_i removes the last R of the reduced i-signature R^a A^b; that node
    becomes an A of the same key, and no other node of residue i changes,
    so e_i^a removes all a of them at once.  One pass over `_corners` reads
    the residues in increasing order, each keeping only the count b of
    uncancelled addables that a later removable cancels.  A removable that
    finds b = 0 is uncancelled for good, since only a removable cancels,
    and only an addable before it: it is taken off as it is read, and the
    pass stops at the end of the first residue that took one.  The nodes
    lie in distinct rows, and a removable node can empty only its
    component's last row, which is popped.  The rank is counted down, so
    no pass runs at the empty multipartition; a pass that takes no node
    leaves rows at a nonempty highest-weight vertex, a non-member's.
    """
    strings = []
    n = sum(map(sum, rows))
    while n:
        cur, a = None, 0
        for i, _, c, r, kind in _corners(rows, s, e):
            if i != cur:
                if a:
                    break
                cur, b = i, 0
            if kind:
                b += 1
            elif b:
                b -= 1
            else:
                lam = rows[c]
                p = lam[r - 1]
                if p > 1:
                    lam[r - 1] = p - 1
                else:
                    lam.pop()
                a += 1
        if not a:
            break
        strings.append((cur, a))
        n -= a
    return strings


def _regrow(rows, strings, t, e):
    """Regrow `strings`, (j, a) pairs in peel order, in place on rows, a list
    of row lists checked at t: last string first, each as f_j^a.

    f_j turns the first A of the reduced j-signature R^b A^c into an R and
    changes no other node of residue j, so f_j^a adds the first a addable
    nodes of residue j's stack (`_addables`) at once.  The residue is the
    one given: `_string_image` negates it.  The nodes lie in distinct rows,
    and a node one row past its component's end starts a new row.
    """
    for j, a in reversed(strings):
        stack = _addables(rows, t, e, j).get(j, [])
        if len(stack) < a:
            raise InternalError(
                f"a {j}-string of length {a} does not regrow on {tuple(map(tuple, rows))} at {t} mod {e}: "
                f"{len(stack)} good addable nodes"
            )
        for c, r in stack[:a]:
            lam = rows[c]
            if r > len(lam):
                lam.append(1)
            else:
                lam[r - 1] += 1


def _string_image(rows, s, t, e):
    """Replace rows, a member at s as a list of row lists, in place by its
    crystal image at t with negated residues.

    The map fixes the empty multipartition and sends f_i x to f_{-i} of the
    image of x (Ford–Kleshchev's rule at level k, on the Fock space crystal
    of Jimbo–Misra–Miwa–Okado and Uglov).  So rows is peeled down to the
    empty multipartition one whole i-string at a time, least residue first
    (`_strings`), and the strings are regrown at t with residue -i mod e,
    last string first (`_regrow`).  Each peel is one sorted pass over the
    corners and each regrowth one over residue -i's: the work does not grow
    with e, and shares nothing with `_walk` or `_sigma`.  A member peels to
    the empty multipartition; a stop anywhere else raises InternalError.
    """
    strings = _strings(rows, s, e)
    if any(rows):
        raise InternalError(f"no residue has a good removable node in {tuple(map(tuple, rows))} at {s} mod {e}")
    _regrow(rows, [(-i % e, a) for i, a in strings], t, e)


def blockwise_lift(lam, e, s):
    """Box-moving lift of the two-block split of lam to a very dominant charge.

    State: lam1 = first e - s parts at charge 0, lam2 = the remaining parts
    at a charge that starts at s and grows as rows of lam2 are set aside.
    Each round scans lam1 top-down; a row with rightmost content c moves its
    boxes above content c' to the lam2 row whose rightmost content c' is the
    greatest one below c, counting the addable row below lam2.  The move
    must keep lam2 a partition at every moment, and lam2 never holds a zero,
    so its contents lam2[j-1] - j + t, followed by the addable row's,
    strictly decrease in j: one scan from the top stops at the target, the
    first row whose content is below c.  lam1 may pass through non-partition
    shapes inside a round.  After a round with moves, the rows of lam2 down
    to the lowest one touched are appended to the output mu and the charge
    of lam2 grows by e minus the number of rows collected, and a round
    without moves grows it by e.  A round at charge t runs only while lam1
    has boxes and t - len(lam2) < lam1[0]: a move needs a target content
    below its source's, and past that bound the lowest target content, the
    addable row's t - len(lam2) - 1, is at least the highest source
    content, row 1's lam1[0] - 1.  The remaining rows of lam2 are then
    appended to mu.  Returns (lam1, mu).  It raises no InternalError: no
    round can leave lam1, lam2 or mu out of shape (`_lift` has the proof).
    """
    lam, e = check_partition(lam), _int_arg("e", e, 2)
    return _lift(lam, e, _int_arg("s", s, 0, e - 1))


def _lift(lam, e, s):
    """blockwise_lift of a checked lam, e and s.

    Write C_a = lam1[a-1] - a for the contents of lam1's rows and
    D_j = lam2[j-1] - j + t for lam2's, a row past lam2's end counting as
    0, so that D falls by at least 1 a row.  A move of row a to row j swaps
    C_a and D_j.  No round can leave lam1, lam2 or mu out of shape, so the
    lift checks none of them:

    lam2 stays a partition at every move.  The target j is the first row
    whose content is below c = C_a, and the skip rule rules out a row j - 1
    at content c, so row j ends at content c, below row j - 1's; and it only
    grows, so it stays at least row j + 1.  A later source of the round has
    a content below c, as lam1 is a partition when the round starts, so its
    target lies below row j: the targets of a round fall, and the last one
    is the cut.  So a target is untouched until its move, and a mover takes
    its target's D from the round's start.

    (J): at every round start, D_{t+a} <= C_a for each row a of lam1.  At
    the first, t = s and D_{s+a} = lam_{e+a} - a <= lam_a - a.  (K): the row
    j that row a finds is at most t + a, or the skip rule stops row a; so a
    row the skip rule lets through has the boxes, as D_j >= D_{t+a} >= -a,
    and the lift tests no k > lam1[a-1]: it holds only where the skip rule
    stops row a.
    A target is at most lam2's addable row, so take row t + a inside lam2;
    it is no earlier target of the round, by (K) for the rows of lam1 above
    a, so its content is still D_{t+a} <= C_a.  If below C_a, it bounds j;
    if equal, the skip rule stops row a.  (J) carries over: a round cuts
    `cut` rows (0 if idle) and adds e - cut to t, so the new D_{t+a} is the
    old D_{t+e+a} + e <= D_{t+a}, and C_a becomes D_{j_a} >= D_{t+a} by (K),
    or stays.

    lam1 stays a partition.  Take rows a and a + 1 after a round.  Two
    movers keep their order, as their targets fall; so do two non-movers;
    and a mover a + 1 ends below C_{a+1} < C_a.  A mover a ends at
    D_{j_a} >= -a.  If a non-mover a + 1 had C_{a+1} >= D_{j_a}, it would be
    nonempty, and row j_a + 1 would be its target: the first row below
    C_{a+1}, as row j_a now holds C_a; skipped by no rule; and within its
    reach by (K).

    mu stays a partition.  Each block is a run of lam2, a partition after
    every move, and row cut + 1, untouched, was at most row cut, now mu's
    last.  So mu can break only where a round moves boxes to lam2's row 1
    while mu is nonempty.  Let W = min(C_1, D_1).  Row 1 ends at the content
    of the first lam2 row at or below C_1: its target, or the row at C_1
    that the skip rule stops it at, as the stop rule leaves it a row below
    C_1 and (K) the boxes.  So it ends at most W.  (R): at every round start,
    each nonempty row a of lam1 has C_a > W - e.  At the first, lam_a - a >
    lam_{e-s+1} - (e - s + 1) = D_1 - e, a row past lam's end counting as
    0.  An idle round stops row 1 at some D_i = C_1, so W = C_1 before it and
    after it.  After a round with moves, the new D_1 is the old
    D_{cut+1} + e, and a mover's new content D_{j_a} is above D_{cut+1}; a
    non-mover keeps C_a > W - e, and the new C_1 is at most W.  So every
    nonempty row stays above the new W - e.  Now write E = mu[-1] + t, mu's
    last content were it row 0 of lam2.  A round with moves leaves E = X + e,
    X the old content of its last mover, which by (R) is above W - e, so E
    is above the new C_1; an idle round adds e to E.  So every content of
    lam1 stays below E, and so does lam2's new row 1, which never outgrows
    mu[-1].

    lam2 never holds a zero: its rows start positive and only gain boxes,
    and a new row gets k > 0 of them.  So mu is returned as it is, and only
    lam1, whose emptied rows lie at its end, is trimmed.

    The loop condition is blockwise_lift's stop rule, checked before every
    round, where lam1 is a partition and row 1 holds the highest source
    content.  So no round runs once the bound rules out every move, and an
    idle round is only a charge step.
    """
    lam1 = list(lam[: e - s])
    lam2 = list(lam[e - s :])
    t = s
    mu = []
    while lam1 and lam1[0] and t - len(lam2) < lam1[0]:
        cut = 0
        for a in range(1, len(lam1) + 1):
            if lam1[a - 1] == 0:
                continue
            c = lam1[a - 1] - a
            n2 = len(lam2)
            j = 1
            while j <= n2 and lam2[j - 1] - j + t >= c:
                j += 1
            k = c - (lam2[j - 1] if j <= n2 else 0) + j - t
            if k <= 0:
                continue  # no content is below c
            if j >= 2 and lam2[j - 2] - (j - 1) + t == c:
                continue  # row j would outgrow row j - 1; by (K), also any row without k boxes
            lam1[a - 1] -= k
            if j > n2:
                lam2.append(k)
            else:
                lam2[j - 1] += k
            cut = j
        if not cut:
            t += e
            continue
        mu += lam2[:cut]
        del lam2[:cut]
        t += e - cut
    mu += lam2
    while lam1 and not lam1[-1]:
        lam1.pop()
    return tuple(lam1), tuple(mu)


def blockwise_lower(pair, e, s):
    """Merged partition from the box-moving descent of a very dominant pair.

    Places the pair at the canonical very dominant charge for its rank n,
    (0, t) with t the least value >= n that is == -s mod e (the charge
    `ak_mullineux` lands at), runs the box-moving descent toward (0, e - s)
    until no row of the second component is above the first's last content
    (later rounds only lower the second's), and merges them (`_lower`).
    """
    pair = check_multipartition(pair)
    if len(pair) != 2:
        raise InputError(f"blockwise_lower needs two components, got {len(pair)}")
    e = _int_arg("e", e, 2)
    return _lower(pair, e, _int_arg("s", s, 1, e - 1))


def _lower(pair, e, s):
    """blockwise_lower of a checked pair, e and s.

    The box-moving descent of (nu1 at 0, nu2 at t), t the canonical start,
    toward the fundamental charge (0, e - s), merged into one partition.
    Rounds run at charges t, t - e, ..., down to -s mod e at most, one per
    charge, from the highest at which a box can move.  Each round scans nu2
    bottom-up; a row with rightmost content r donates its boxes above
    content c to the lowest nu1 row not yet used as a target this round
    whose rightmost content c is below r, falling back to the next row up
    whenever the donation would break nu2's shape.  nu1 never gains rows,
    and its rows only gain boxes, so it never holds a zero.  The move must
    keep nu2 a partition at every moment; nu1 may pass through
    non-partition shapes inside a round, and a round that leaves it out of
    shape raises InternalError.

    The start: at t, row a of nu2 (part p, next part b) gives a nu1 row of
    content c its r - c = p - a + t - c boxes above c and keeps c + a - t,
    which must be at least b, so a move needs t <= c + a - b.  A nu1 row is
    a target at most once a round, with the content it started the round
    with, at most nu1[0] - 1; and a <= len(nu2), b >= 0.  So a round at a
    charge above nu1[0] - 1 + len(nu2) moves no box and changes nothing.
    The canonical start, the least value >= n in the class of -s for the
    rank n, lies above that bound, as n >= nu1[0] + len(nu2); so the rounds
    start instead at the greatest value <= the bound in the class, the
    least one >= nu1[0] + len(nu2) - e (`charges._least_in_class`), which
    sums no rows.  An empty nu1 takes no boxes, and nu2 comes back as it is.

    nu2 needs no shape check.  A donation leaves row a at p - k =
    a - t + c, which is at least nu2[a], the row below as it stands, by
    the bound lo = t - a + nu2[a] that the target's content c meets; the
    rows above are scanned later and only lose boxes.  So nu2 is a
    partition after every donation, with its zeros at its end.

    nu1 keeps its check, since public inputs reach it:
    `blockwise_lower(((2, 2), (1,)), 2, 1)` leaves nu1 at [2, 3].  Rows of
    nu1 only gain boxes inside a round, and an unused row keeps its own, so
    nu1 can break only where a used row outgrows the row above it, and the
    check compares each used row with that row alone.

    A round starts at the lowest row of nu2 whose content is above
    c0, nu1's last: the contents fall with a, and the rows below come first,
    before any target is used, so each stops at its first inner step,
    against c0.  Row a's donation to a row of content c keeps nu2's shape
    when c >= t - a + b, a bound that grows going up, and unused rows of nu1
    keep their contents, which rise going up.  So one pointer walks nu1 up
    through the round, past rows used or too far for every later donor; the
    round ends when it passes row 1.  With no row of nu2 above c0, the
    descent ends: an idle round keeps c0, and each later one lowers nu2's.

    The final pair is in general *not* the image of the input under the
    symbol-route isomorphism (which lands inside the member set); only the
    merged partition is guaranteed to agree, which is what is returned.
    """
    nu1, nu2 = pair
    if not nu1:
        return nu2
    nu1, nu2, n1 = list(nu1), list(nu2), len(nu1)
    start = _least_in_class(nu1[0] + len(nu2) - e, -s, e)
    for t in range(start, -s % e - 1, -e):
        c0 = nu1[-1] - n1
        low = n2 = len(nu2)
        while low and nu2[low - 1] - low + t <= c0:
            low -= 1
        if not low:
            break
        j, used = n1, []
        for a in range(low, 0, -1):
            p = nu2[a - 1]
            lo = t - a + (nu2[a] if a < n2 else 0)
            while j and nu1[j - 1] - j < lo:
                j -= 1
            if not j:
                break
            k = p - a + t - (nu1[j - 1] - j)  # content r of row a minus c
            if k > 0:
                nu2[a - 1] = p - k
                nu1[j - 1] += k
                used.append(j)
                j -= 1
        while nu2 and nu2[-1] == 0:
            nu2.pop()
        for j in used:
            if j > 1 and nu1[j - 2] < nu1[j - 1]:
                raise InternalError(f"first component left a round malformed: {nu1}")
    return _concat(nu1, nu2)
