"""Three independent routes to the Mullineux involution, and its multisegment lift.

* mullineux_crystal: recursion through the splitting embedding and the
  crystal isomorphisms (split, lift to a very dominant charge, recurse on
  the two components, descend, merge), run on the box-moving engines.
* xu: the truncated-rim peeling algorithm (strip truncated e-rims down to
  the empty partition, then put their sizes back as columns).
* kleshchev_oracle: the branching-rule recursion (peel a good removable
  node of residue i, recurse, add a good addable node of residue -i).  Each
  step reads the good nodes of every residue off one pass over the corners
  of the partition, the top and bottom rows of its blocks of equal parts.

ak_mullineux transports the componentwise involution between charged
multipartition sets along the crystal isomorphisms, and im_sharp conjugates
it through the multisegment labelling, giving the involution on aperiodic
multisegments.
"""

from functools import lru_cache

from .charges import (
    check_charge,
    same_orbit,
    sharp_very_dominant,
    transpose_charge,
    very_dominant_representative,
)
from .core import (
    check_multipartition,
    check_partition,
    conjugate,
    is_e_regular,
    is_strict_e_core,
    multirank,
    part,
    rank,
)
from .crystal import (
    _check_e,
    _int_arg,
    _very_dominant_multiple,
    blockwise_lift,
    blockwise_lower,
    membership,
    psi,
)
from .errors import InputError, InternalError, NoPathError, NotAdmissibleError
from .multisegments import canonical, check_multisegment, chi, chi_inverse, is_aperiodic
from .theta import theta_l2


# ---------------------------------------------------------------------------
# Rim truncation route
# ---------------------------------------------------------------------------

def e_rim(lam, e):
    """Nodes of the e-rim in traversal order.

    The rim is walked rightmost-first within each row from the top row down;
    after every e-th node the walk jumps to the next row, skipping the rest
    of the current one.
    """
    return _e_rim(check_partition(lam), _check_e(e))


def _e_rim(lam, e):
    """e_rim of a checked partition and e."""
    if not lam:
        raise InputError("the e-rim of the empty partition is undefined")
    nodes = []
    count = 0
    depth = len(lam)
    for i in range(1, depth + 1):
        lo = max(part(lam, i + 1), 1)
        for j in range(lam[i - 1], lo - 1, -1):
            nodes.append((i, j))
            count += 1
            if count % e == 0:
                break
    return tuple(nodes)


def truncated_e_rim(lam, e):
    """Nodes of the truncated e-rim, in e-rim traversal order.

    These are the e-rim nodes whose left neighbour is also in the e-rim,
    plus, when the e-rim size is not a multiple of e, the leftmost e-rim
    node of the last row.
    """
    return _truncated_e_rim(check_partition(lam), _check_e(e))


def _truncated_e_rim(lam, e):
    """truncated_e_rim of a checked partition and e."""
    rim = _e_rim(lam, e)
    members = set(rim)
    chosen = [(i, j) for (i, j) in rim if (i, j - 1) in members]
    if len(rim) % e != 0:
        last_row = rim[-1][0]  # the walk always ends in the last row
        extra = [(i, j) for (i, j) in rim if i == last_row and (i, j - 1) not in members]
        if len(extra) != 1:
            raise InternalError(f"expected one seed node in row {last_row}, got {extra}")
        chosen.append(extra[0])
    order = {node: pos for pos, node in enumerate(rim)}
    return tuple(sorted(chosen, key=order.get))


def xu_strip(lam, e):
    """Remove the truncated e-rim; returns (smaller partition, nodes removed)."""
    lam, e = check_partition(lam), _check_e(e)
    removed = _truncated_e_rim(lam, e)
    counts = {}
    for i, _ in removed:
        counts[i] = counts.get(i, 0) + 1
    out = [p - counts.get(i, 0) for i, p in enumerate(lam, start=1)]
    if any(x < y for x, y in zip(out, out[1:])) or (out and out[-1] < 0):
        raise InternalError(f"stripping the truncated e-rim broke the shape: {out}")
    return tuple(p for p in out if p > 0), len(removed)


def _regular_input(lam, e, who):
    """The checked (lam, e); InputError unless e is an int >= 2 and lam is e-regular."""
    lam, e = check_partition(lam), _check_e(e)
    if not is_e_regular(lam, e):
        raise InputError(f"{who} needs an e-regular partition, got {lam} with e={e}")
    return lam, e


def xu(lam, e):
    """Mullineux image by repeated truncated-rim stripping."""
    return _xu(lam, e, None)


def xu_trace(lam, e):
    """(image, steps) where steps record each strip and each column put back."""
    steps = []
    return _xu(lam, e, steps), steps


def _xu(lam, e, steps):
    """Strip truncated e-rims down to the empty partition, then put their sizes
    back as columns, last strip first; a `steps` list receives each stage.
    """
    cur, e = _regular_input(lam, e, "xu")
    chain = []
    while cur:
        cur, removed = xu_strip(cur, e)
        chain.append(removed)
        if steps is not None:
            steps.append((f"strip {removed} nodes", (0,), (cur,)))
    img = ()
    for removed in reversed(chain):
        width = max(len(img), removed)
        img = tuple(part(img, i) + (1 if i <= removed else 0) for i in range(1, width + 1))
        if steps is not None:
            steps.append((f"add column of length {removed}", (0,), (img,)))
    return img


# ---------------------------------------------------------------------------
# Branching-rule route
# ---------------------------------------------------------------------------

def _good_nodes(lam, e):
    """Rows of the good removable and good addable i-nodes of a checked lam,
    as two lists indexed by the residue i, with 0 where there is none.

    One pass over the corners: a block of equal parts has its addable node at
    its top row and its removable node at its bottom row, and the row below
    the last part is the top of a block of zeros.  Read top to bottom, a
    removable i-node cancels the nearest addable i-node above it not yet
    cancelled.  The good removable i-node is the lowest one that cancelled
    nothing; the good addable i-node is the highest addable i-node left, the
    first one read since the count of those left was last 0.
    """
    adds = [0] * e
    first_add = [0] * e
    removable = [0] * e
    prev = None
    for r, p in enumerate(lam + (0,)):
        if p == prev:
            continue
        if r:  # the block of parts prev ends in row r
            i = (prev - r) % e
            if adds[i]:
                adds[i] -= 1
            else:
                removable[i] = r
        i = (p - r) % e  # a block of parts p starts in row r + 1
        if not adds[i]:
            first_add[i] = r + 1
        adds[i] += 1
        prev = p
    return removable, [row if n else 0 for row, n in zip(first_add, adds)]


def _good_node_input(lam, e, i):
    """The checked (lam, e, i); InputError unless e >= 2 and i is in 0..e-1."""
    lam, e, i = check_partition(lam), _check_e(e), _int_arg("i", i)
    if not 0 <= i < e:
        raise InputError(f"i must be in 0..{e - 1}, got {i}")
    return lam, e, i


def good_removable_node(lam, e, i):
    """Good removable i-node as (row, column), or None.

    It is the lowest removable node of the reduced signature.
    """
    lam, e, i = _good_node_input(lam, e, i)
    row = _good_nodes(lam, e)[0][i]
    return (row, lam[row - 1]) if row else None


def good_addable_node(lam, e, i):
    """Good addable i-node as (row, column), or None.

    It is the highest addable node of the reduced signature.
    """
    lam, e, i = _good_node_input(lam, e, i)
    row = _good_nodes(lam, e)[1][i]
    return (row, part(lam, row) + 1) if row else None


def kleshchev_oracle(lam, e):
    """Mullineux image by the branching recursion.

    Peel the good removable node of the smallest residue i carrying one,
    recurse, then add the good addable node of residue -i mod e.
    """
    return _kleshchev(*_regular_input(lam, e, "kleshchev_oracle"))


def _kleshchev_peel(lam, e):
    """(i, lam without its good removable i-node) for the least i carrying one."""
    for i, row in enumerate(_good_nodes(lam, e)[0]):
        if row:
            break
    else:
        raise InternalError(f"{lam} has no good removable node mod {e}")
    p = lam[row - 1] - 1
    return i, lam[: row - 1] + ((p,) if p else ()) + lam[row:]


def _kleshchev_grow(lam, e, i):
    """lam with its good addable node of residue -i mod e added."""
    row = _good_nodes(lam, e)[1][-i % e]
    if not row:
        raise InternalError(f"{lam} has no good addable node of residue {(-i) % e}")
    return lam[: row - 1] + (part(lam, row) + 1,) + lam[row:]


@lru_cache(maxsize=None)
def _kleshchev(lam, e):
    if not lam:
        return ()
    i, peeled = _kleshchev_peel(lam, e)
    return _kleshchev_grow(_kleshchev(peeled, e), e, i)


def kleshchev_trace(lam, e):
    """(image, steps) where steps record each peel and regrow."""
    cur, e = _regular_input(lam, e, "kleshchev_oracle")
    peels = []
    while cur:
        i, cur = _kleshchev_peel(cur, e)
        peels.append((i, cur))
    steps = [(f"peel residue {i}", (0,), (state,)) for i, state in peels]
    img = ()
    for i, _ in reversed(peels):
        img = _kleshchev_grow(img, e, i)
        steps.append((f"grow residue {(-i) % e}", (0,), (img,)))
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
    return _crystal(lam, e, s)


def mullineux_crystal_trace(lam, e, s=None):
    """(image, steps) recording the top-level unfolding of the recursion."""
    lam, e, s = _crystal_input(lam, e, s)
    steps = []
    return _crystal(lam, e, s, steps), steps


def _crystal_input(lam, e, s):
    lam, e = _regular_input(lam, e, "mullineux_crystal")
    if s is None:
        s = e - 1
    if not 1 <= s <= e - 1:
        raise InputError(f"s must be in 1..e-1, got {s}")
    return lam, e, s


# Images of the crystal route, keyed on (lam, e, s); `_crystal.cache_clear`
# empties it, as `_kleshchev.cache_clear` empties that route's lru_cache.
_crystal_images = {}


def _crystal(lam, e, s, steps=None):
    """Image of a checked lam, unfolded on an explicit work stack.

    A partition is done once both components of its lift have images.  When
    `steps` is a list, the stages of the top level are appended to it.
    """
    lifts = {}
    todo = [lam]
    while todo:
        cur = todo[-1]
        if (cur, e, s) in _crystal_images:
            todo.pop()
        elif not cur or is_strict_e_core(cur, e):
            _crystal_images[cur, e, s] = conjugate(cur)
        elif cur in lifts:
            nu = tuple(_crystal_images[c, e, s] for c in lifts[cur])
            _crystal_images[cur, e, s] = blockwise_lower(nu, e, s)
        else:
            lifts[cur] = mu = blockwise_lift(cur, e, s)
            if not mu[0]:
                raise InternalError(f"lift of {cur} lost its first component")
            if not mu[1]:
                raise InternalError(f"lift of non-core {cur} has an empty second component")
            todo += mu
    img = _crystal_images[lam, e, s]
    if steps is None:
        return img
    if not lam or is_strict_e_core(lam, e):
        steps.append(("conjugate strict core" if lam else "empty", (0,), (img,)))
        return img
    up = (0, s + _very_dominant_multiple(s, rank(lam), e) * e)
    start = (0, -s + _very_dominant_multiple(-s, rank(lam), e) * e)
    mu = lifts.get(lam) or blockwise_lift(lam, e, s)  # lam was memoized before this call
    steps += [
        ("split", (0, s), theta_l2(lam, e, s)),
        ("lift", up, mu),
        ("componentwise image", start, tuple(_crystal_images[c, e, s] for c in mu)),
        # psi's descent lands on the member at (0, e - s) that merges to img.
        ("descend", (0, e - s), theta_l2(img, e, e - s)),
        ("merge", (0,), (img,)),
    ]
    return img


_crystal.cache_clear = _crystal_images.clear


# ---------------------------------------------------------------------------
# Transported involutions
# ---------------------------------------------------------------------------

def ak_mullineux(mp, charge, to, e):
    """Componentwise Mullineux transported between charged sets.

    Lifts the member to a very dominant charge, applies the involution to
    each component, lands at the matching very dominant charge with negated
    residues, and transports to `to` (which must lie in that orbit).
    """
    mp = check_multipartition(mp)
    s = check_charge(charge)
    t = check_charge(to)
    if len(mp) != len(s) or len(s) != len(t):
        raise InputError("multipartition, charge and target must share one level")
    if not membership(mp, s, e):
        raise InputError(f"{mp} is not a member at charge {s} mod {e}")
    n = multirank(mp)
    vd = very_dominant_representative(s, n, e)
    lifted = psi(mp, s, vd, e)
    image = tuple(xu(comp, e) for comp in lifted)
    sharp = sharp_very_dominant(vd, n, e)
    if not same_orbit(sharp, t, e):
        raise NoPathError(f"target {t} is not in the orbit of the image charge {sharp}")
    return psi(image, sharp, t, e)


def im_sharp(ms, e):
    """Involution on aperiodic multisegments.

    Finds the first fundamental multicharge of level <= 3 (level 1 charges
    (0)..(e-1), then level 2, then level 3, lexicographically) where the
    multisegment has a preimage, applies ak_mullineux towards the transposed
    charge, and reads the result back as a multisegment.
    """
    ms = check_multisegment(ms, e)
    if not ms:
        return ()
    if not is_aperiodic(ms, e):
        raise InputError(f"{ms} is not aperiodic mod {e}")
    for s in _charge_candidates(e):
        try:
            mp = chi_inverse(ms, s, e)
        except NotAdmissibleError:
            continue
        st = transpose_charge(s)
        image = ak_mullineux(mp, s, st, e)
        return canonical(chi(image, st, e))
    raise InputError(
        f"{ms} has no preimage at any fundamental multicharge of level <= 3 mod {e}"
    )


def _charge_candidates(e):
    for a in range(e):
        yield (a,)
    for a in range(e):
        for b in range(a, a + e):
            yield (a, b)
    for a in range(e):
        for b in range(a, a + e):
            for c in range(b, a + e):
                yield (a, b, c)
