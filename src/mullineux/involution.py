"""Three independent routes to the Mullineux involution, and its multisegment lift.

* mullineux_crystal: recursion through the splitting embedding and the
  crystal isomorphisms (split, lift to a very dominant charge, recurse on
  the two components, descend, merge), run on the box-moving engines.
* xu: the truncated-rim peeling algorithm (strip truncated e-rims down to
  the empty partition, then put their sizes back as columns).  `xu_strip`
  counts each strip off the parts; the node lists of the e-rim and the
  truncated e-rim, its reference, live in the tests' conftest.
* kleshchev_oracle: the branching-rule recursion, one i-string at a time
  (peel every uncancelled removable node of the least residue i carrying
  one, recurse, add that many of the highest uncancelled addable nodes of
  residue -i).  `_kleshchev_peel` (e_i^max) and `_kleshchev_grow` (f_j^k,
  given j = -i) each make one pass over the corners of the partition, the
  top and bottom rows of its blocks of equal parts: the peel keeps the
  uncancelled removable rows of every residue and only counts the addables
  that cancel them, the regrow keeps the addable rows of residue j alone.
  The recursion goes one call deeper per string, not per node.
mullineux_crystal checks its input once; `_crystal` then runs the unchecked
bodies `crystal._lift`, `crystal._lower`, `core._is_strict_core` and
`core._conjugate`, and its trace builds the split and descend states with
`theta._theta` and reads the lift and image charges, the very dominant pair
ak_mullineux lifts to and lands at, with `charges._least_in_class`: the
split charge (0, s) is fundamental already.
All three routes keep the images they find in a table their caller owns,
so nothing outlives the caller's table.  The public `mullineux_crystal` and
`kleshchev_oracle` pass a new one on every call.  The public `xu` and
`xu_trace` pass none, since every partition a single call strips is new;
`difftest` passes one table per route, shared across ranks.

ak_mullineux transports the componentwise involution between charged
multipartition sets along the crystal isomorphisms: it lifts its member to
a very dominant charge with `crystal._psi`, takes `_xu` of each component,
which `core._is_e_regular` vouches for, and transports the image from the
sharp very dominant charge to its target.  It checks its multipartition and
both charges with `crystal._charged_input`, as psi does, so a target at
another level fails the orbit check with NoPathError.

im_sharp gives the same involution on every aperiodic multisegment, read
through the labelling chi, with no transport.  Its preimage is read off
the segments directly, one row per segment at the fundamental charge s of
the sorted heads.  ak_mullineux fixes the empty multipartition and sends
f_i x to f_{-i} of the image, so `crystal._string_image` peels the preimage
one whole i-string at a time and regrows the strings, residues negated, at
t = transpose_charge(s), where ak_mullineux's image lands; t is
fundamental, so chi is the image's rows read as segments at t
(`crystal._segments`), with no transport.  im_sharp checks e once and
reads its segments with `multisegments._segment_list`, check_multisegment's
body.  Its body `_im_sharp`, which `cli im` runs on the multisegment it has
checked already, then runs the unchecked bodies `_is_aperiodic` (crystal's,
which is also FLOTW (3)), `charges._transpose`, `_string_image` and
`_segments` on values it built itself: one list of row lists, one row per
segment, which the kernel peels and regrows in place and which is read back
as segments.  Its reference is chi(ak_mullineux(pre, s, t, e), t, e).
"""

from .charges import (
    _least_in_class,
    _same_orbit,
    _sharp_very_dominant,
    _transpose,
    _very_dominant_representative,
)
from .core import (
    _conjugate,
    _int_arg,
    _is_e_regular,
    _is_strict_core,
    _regular_input,
    check_partition,
)
from .crystal import _charged_input, _lift, _lower, _membership, _psi, _segments, _string_image
from .errors import InputError, InternalError, NoPathError
from .multisegments import _head, _is_aperiodic, _length, _segment_list, canonical
from .theta import _theta


# ---------------------------------------------------------------------------
# Rim truncation route
# ---------------------------------------------------------------------------

def xu_strip(lam, e):
    """Remove the truncated e-rim; returns (smaller partition, nodes removed).

    The e-rim walk takes k_i >= 1 adjacent nodes from the right end of row
    i, k_i = min(lam_i - max(lam_{i+1}, 1) + 1, e - (rim size so far mod e)).
    Only the leftmost of them has no rim node to its left, so the truncated
    rim takes k_i - 1 nodes from row i, plus the seed from the last row when
    the rim size is not a multiple of e.  One pass over the parts counts
    them; `truncated_e_rim` in the tests' conftest lists the same nodes.
    By that k_i, row i keeps lam_{i+1} <= q_i = lam_i - k_i + 1 <= lam_i <=
    q_{i-1}, and the last row keeps q >= 1 before the seed takes at most 1:
    a partition is left.
    """
    lam, e = check_partition(lam), _int_arg("e", e, 2)
    if not lam:
        raise InputError("the e-rim of the empty partition is undefined")
    out = []
    size = 0
    n = len(lam)
    for r, p in enumerate(lam, 1):
        k = p - lam[r] + 1 if r < n else p  # max(lam_{r+1}, 1) is 1 only in the last row
        m = e - size % e
        if k > m:
            k = m
        size += k
        out.append(p - k + 1)
    seed = 1 if size % e else 0
    out[-1] -= seed
    if not out[-1]:
        out.pop()
    return tuple(out), size - n + seed


def xu(lam, e):
    """Mullineux image by repeated truncated-rim stripping."""
    return _xu(*_regular_input(lam, e, "xu"), None)


def xu_trace(lam, e):
    """(image, steps) where steps record each strip and each column put back."""
    steps = []
    return _xu(*_regular_input(lam, e, "xu"), steps), steps


def _xu(lam, e, steps, images=None):
    """Strip truncated e-rims off a checked e-regular lam down to the empty
    partition, then put their sizes back as columns, last strip first; a
    `steps` list receives each stage.

    With an `images` table, owned by the caller and keyed on (lam, e), the
    strips stop at the first partition already in it, and each partition
    stripped on the way down has its image filed on the way up.
    """
    cur = lam
    chain = []
    stripped = []  # filled only with a table: without one, each partition is dropped once stripped
    while cur and (images is None or (cur, e) not in images):
        if images is not None:
            stripped.append(cur)
        cur, removed = xu_strip(cur, e)
        chain.append(removed)
        if steps is not None:
            steps.append((f"strip {removed} nodes", (0,), (cur,)))
    img = images[cur, e] if cur else ()
    for removed in reversed(chain):
        img = tuple(p + 1 for p in img[:removed]) + (1,) * (removed - len(img)) + img[removed:]
        if images is not None:
            images[stripped.pop(), e] = img
        if steps is not None:
            steps.append((f"add column of length {removed}", (0,), (img,)))
    return img


# ---------------------------------------------------------------------------
# Branching-rule route
# ---------------------------------------------------------------------------

def kleshchev_oracle(lam, e):
    """Mullineux image by the branching recursion, one i-string at a time.

    m_e commutes with the crystal operators up to the sign of the residue,
    m_e(f_i lam) = f_{-i} m_e(lam), so m_e(lam) = f_{-i}^k m_e(e_i^k lam)
    with k = epsilon_i(lam).  Peel every uncancelled removable node of the
    smallest residue i carrying one, recurse, then add the k highest
    uncancelled addable nodes of residue -i mod e.  The recursion goes one
    call deeper per string; a row has one node per string.
    """
    return _kleshchev(*_regular_input(lam, e, "kleshchev_oracle"), {})


def _kleshchev_peel(lam, e):
    """(i, k, e_i^k lam) for the least residue i with k = epsilon_i(lam) > 0.

    One pass over the corners of a checked lam: a block of equal parts has
    its addable node at its top row and its removable node at its bottom
    row.  Read top to bottom, a removable i-node cancels the nearest
    uncancelled addable i-node above it, so `free` counts only those
    addables; the addable node in the row below lam has no removable below
    it to cancel.  `removable` keeps the rows of what is left, the R^a of
    each reduced i-signature R^a A^b, whose last R is the good removable
    i-node, and only for the residues that have one, so i is its least key.
    Both dicts are keyed by the residues of lam's corners, so neither grows
    with e.  e_i removes the lowest R, which becomes an A, and changes no
    other i-node's status, so e_i^max removes all a of them.  They lie in a
    distinct rows, one in each; only the last row can reach 0.
    """
    removable, free, prev = {}, {}, None
    for r, p in enumerate(lam):
        if p != prev:
            if r:  # the block of parts prev ends in row r
                i = (prev - r) % e
                if free.get(i):
                    free[i] -= 1
                else:
                    removable.setdefault(i, []).append(r)
            i = (p - r) % e  # a block of parts p starts in row r + 1
            free[i] = free.get(i, 0) + 1
            prev = p
    if lam:  # the last block ends in the last row
        r = len(lam)
        i = (prev - r) % e
        if not free.get(i):
            removable.setdefault(i, []).append(r)
    if not removable:
        raise InternalError(f"{lam} has no good removable node mod {e}")
    i = min(removable)
    rows = removable[i]
    out = list(lam)
    for r in rows:
        out[r - 1] -= 1
    if not out[-1]:
        out.pop()
    return i, len(rows), tuple(out)


def _kleshchev_grow(lam, e, j, k):
    """f_j^k lam: a checked lam with its k highest uncancelled addable j-nodes added.

    The residue is the one given: the callers, which regrow along
    Ford–Kleshchev's rule, negate it themselves.  The pass of
    `_kleshchev_peel` for the one residue j: the addable j-nodes are a stack
    that each removable j-node below them pops, and the row below lam is the
    top of a block of zeros, after the bottom row of lam's last block.  What
    is left is the A^b of the reduced j-signature R^a A^b.  f_j turns its
    first A, the good addable j-node, into an R and changes no other
    j-node's status, so f_j^k adds the k highest.  They lie in distinct
    rows; only the row below lam can be new.
    """
    rows, prev = [], None
    for r, p in enumerate(lam):
        if p != prev:
            if r and rows and (prev - r) % e == j:  # the block of parts prev ends in row r
                rows.pop()
            if (p - r) % e == j:  # a block of parts p starts in row r + 1
                rows.append(r + 1)
            prev = p
    r = len(lam)
    if r and rows and (prev - r) % e == j:
        rows.pop()
    if -r % e == j:
        rows.append(r + 1)
    if len(rows) < k:
        raise InternalError(f"{lam} has {len(rows)} good addable nodes of residue {j}, not {k}")
    out = [*lam, 0]
    for r in rows[:k]:
        out[r - 1] += 1
    if not out[-1]:
        out.pop()
    return tuple(out)


def _kleshchev(lam, e, images):
    """Image of a checked lam, read from or added to `images`, keyed on (lam, e)."""
    if not lam:
        return ()
    img = images.get((lam, e))
    if img is None:
        i, k, peeled = _kleshchev_peel(lam, e)
        img = images[lam, e] = _kleshchev_grow(_kleshchev(peeled, e, images), e, -i % e, k)
    return img


def _string_label(verb, i, k):
    """The trace label of a string of k nodes of residue i."""
    return f"{verb} residue {i}" if k == 1 else f"{verb} {k} nodes of residue {i}"


def kleshchev_trace(lam, e):
    """(image, steps) where steps record each i-string peeled and regrown."""
    cur, e = _regular_input(lam, e, "kleshchev_oracle")
    peels = []
    while cur:
        i, k, cur = _kleshchev_peel(cur, e)
        peels.append((i, k, cur))
    steps = [(_string_label("peel", i, k), (0,), (state,)) for i, k, state in peels]
    img = ()
    for i, k, _ in reversed(peels):
        j = -i % e
        img = _kleshchev_grow(img, e, j, k)
        steps.append((_string_label("grow", j, k), (0,), (img,)))
    return img, steps


# ---------------------------------------------------------------------------
# Crystal route
# ---------------------------------------------------------------------------

def mullineux_crystal(lam, e, s=None):
    """Mullineux image through the splitting embedding and the isomorphisms.

    Lifts and descents run on the box-moving engines (`difftest` checks them
    against `psi`).  `s` in 1..e-1 picks the split charge (0, s) at every
    depth; it defaults to e - 1, and every choice gives the same answer.
    """
    lam, e, s = _crystal_input(lam, e, s)
    return _crystal(lam, e, s, {})


def mullineux_crystal_trace(lam, e, s=None):
    """(image, steps) recording the top-level unfolding of the recursion."""
    lam, e, s = _crystal_input(lam, e, s)
    steps = []
    return _crystal(lam, e, s, {}, steps), steps


def _crystal_input(lam, e, s):
    lam, e = _regular_input(lam, e, "mullineux_crystal")
    return lam, e, e - 1 if s is None else _int_arg("s", s, 1, e - 1)


def _crystal(lam, e, s, images, steps=None):
    """Image of a checked lam, unfolded on an explicit work stack.

    Images go to `images`, the caller's table keyed on (partition, e, s).
    A stack entry is a frame (partition, lift or None).  A partition with
    no image is lifted when popped, and its frame goes back under its two
    components, of smaller rank, the first on top (a row's is the core (s,)):
    popped again, it is lowered and its lift dropped.  A `steps` list gets
    the stages of the top level, whose lift is the first the loop makes.
    """
    top, todo = None, [(lam, None)]
    while todo:
        cur, mu = todo.pop()
        if mu:
            images[cur, e, s] = _lower((images[mu[0], e, s], images[mu[1], e, s]), e, s)
        elif (cur, e, s) in images:
            continue
        elif _is_strict_core(cur, e):
            images[cur, e, s] = _conjugate(cur)
        else:
            mu = _lift(cur, e, s)
            if not mu[0]:
                raise InternalError(f"lift of {cur} lost its first component")
            if not mu[1]:
                raise InternalError(f"lift of non-core {cur} has an empty second component")
            top = top or mu
            todo += [(cur, mu), (mu[1], None), (mu[0], None)]
    img = images[lam, e, s]
    if steps is None:
        return img
    if _is_strict_core(lam, e):
        steps.append(("conjugate strict core" if lam else "empty", (0,), (img,)))
        return img
    # (0, s) is fundamental, so each level-2 charge is one `_least_in_class`.
    n = sum(lam)
    up = (0, _least_in_class(n, s, e))
    start = (0, _least_in_class(n, -s, e))
    mu = top or _lift(lam, e, s)  # lam was in the caller's table already
    steps += [
        ("split", (0, s), _theta(lam, e, (0, s))),
        ("lift", up, mu),
        ("componentwise image", start, (images[mu[0], e, s], images[mu[1], e, s])),
        # psi's descent lands on the member at (0, e - s) that merges to img.
        ("descend", (0, e - s), _theta(img, e, (0, e - s))),
        ("merge", (0,), (img,)),
    ]
    return img


# ---------------------------------------------------------------------------
# Transported involutions
# ---------------------------------------------------------------------------

def ak_mullineux(mp, charge, to, e):
    """Componentwise Mullineux transported between charged sets.

    Lifts the member to a very dominant charge, applies the involution to
    each component, lands at the matching (sharp) very dominant charge with
    negated residues, and transports from there to `to` (which must lie in
    that orbit).  The lift of a member is a member at a very dominant
    charge, whose components are e-regular; one that is not is an
    InternalError.
    """
    mp, s, t, e = _charged_input(mp, (charge, to), e)
    if not _membership(mp, s, e):
        raise InputError(f"{mp} is not a member at charge {s} mod {e}")
    n = sum(map(sum, mp))
    vd = _very_dominant_representative(s, n, e)
    sharp = _sharp_very_dominant(vd, n, e)
    if not _same_orbit(sharp, t, e):
        raise NoPathError(f"target {t} is not in the orbit of the image charge {sharp}")
    lifted = _psi(mp, s, vd, e)
    for comp in lifted:
        if not _is_e_regular(comp, e):
            raise InternalError(f"the lift of {mp} to {vd} has a component that is not {e}-regular: {comp}")
    return _psi(tuple(_xu(comp, e, None) for comp in lifted), sharp, t, e)


def im_sharp(ms, e):
    """Involution on aperiodic multisegments.

    The preimage is read off the multisegment: at the fundamental charge s
    of its sorted heads, each segment is a one-row component, and segments
    with equal heads are ordered by decreasing length.  FLOTW (1) and (2)
    then hold at once and (3) is aperiodicity, so every aperiodic
    multisegment has this preimage.  `crystal._string_image` peels it
    string by string and regrows the strings at t = transpose_charge(s),
    which gives ak_mullineux(pre, s, t, e), its reference: both fix the
    empty multipartition and send f_i x to f_{-i} of the image.  t is
    fundamental, so chi of the image is its rows read as segments at t,
    with no transport.  The preimage order is two stable sorts on one
    field each, like `canonical`'s, so no sort key is built per segment.
    """
    e = _int_arg("e", e, 2)
    return _im_sharp(_segment_list(ms, e), e)


def _im_sharp(segs, e):
    """im_sharp of a list of checked segments at a checked e; the list is
    sorted in place."""
    if not segs:
        return ()
    if not _is_aperiodic(segs, e):
        raise InputError(f"{canonical(segs)} is not aperiodic mod {e}")
    segs.sort(key=_length, reverse=True)
    segs.sort(key=_head)
    s = tuple(map(_head, segs))
    t = _transpose(s)
    rows = [[length] for _, length in segs]
    _string_image(rows, s, t, e)
    return canonical(_segments(rows, t, e))
