"""Multisegments, aperiodicity, and the labelling map chi.

A segment is a pair (head, length) with head in Z/eZ and length >= 1; it
stands for the residue word head, head+1, ..., head+length-1 (mod e) and its
tail is head + length - 1 mod e.  A multisegment is a multiset of segments,
stored canonically as a tuple sorted by (length descending, head ascending).

chi reads the rows of a charged multipartition as segments: row i of
component c with part p contributes the segment with head (1 - i + s_c) mod e
and length p.  At fundamental charges this labelling is a bijection onto the
aperiodic multisegments of the given rank (across all fundamental charges it
is surjective); at other charges it is defined by transporting the
multipartition to the fundamental representative first.
"""

from .charges import check_charge, fundamental_representative
from .core import check_multipartition
from .crystal import _check_e, _int_arg, flotw_check, psi
from .errors import InputError, InternalError, NotAdmissibleError


def check_multisegment(ms, e):
    """Normalize to the canonical tuple of (head, length) pairs."""
    e = _check_e(e)
    segs = []
    for seg in ms:
        head, length = _int_arg("segment head", seg[0]), _int_arg("segment length", seg[1])
        if length < 1:
            raise InputError(f"segment length must be >= 1, got {length}")
        segs.append((head % e, length))
    return canonical(segs)


def canonical(segments):
    """Canonical order: length descending, then head ascending."""
    return tuple(sorted(segments, key=lambda seg: (-seg[1], seg[0])))


def segment_tail(seg, e):
    """Residue of the last entry of the segment."""
    head, length = seg
    return (head + length - 1) % e


def multisegment_length(ms):
    """Total number of residue entries over all segments."""
    return sum(length for _, length in ms)


def is_aperiodic(ms, e):
    """No length L has segments of that length realizing every tail residue."""
    tails = {}
    for seg in ms:
        tails.setdefault(seg[1], set()).add(segment_tail(seg, e))
    return all(len(seen) < e for seen in tails.values())


def chi(mp, charge, e):
    """Multisegment of a charged multipartition (rows read as segments)."""
    mp = check_multipartition(mp)
    s = check_charge(charge)
    if len(mp) != len(s):
        raise InputError(f"{len(mp)} components vs {len(s)} charges")
    f = fundamental_representative(s, e)
    if s != f:
        mp = psi(mp, s, f, e)
        s = f
    segs = []
    for c, comp in enumerate(mp):
        for i, p in enumerate(comp, start=1):
            segs.append(((1 - i + s[c]) % e, p))
    return canonical(segs)


def chi_inverse(ms, charge, e):
    """The member at `charge` whose chi is the given multisegment.

    Raises NotAdmissibleError when none exists.  Two distinct solutions
    would contradict injectivity of the labelling and raise InternalError.
    """
    s = check_charge(charge)
    ms = check_multisegment(ms, e)
    f = fundamental_representative(s, e)
    l = len(s)
    # Group by length, longest first.  All rows of one length are placed
    # before any shorter row, but within a length group the segments may
    # enter the components in any interleaving: equal-length rows of one
    # component carry different head residues, so the order matters and
    # cannot be fixed up front.
    groups = []
    for head, length in ms:
        if groups and groups[-1][0] == length:
            groups[-1][1].append(head)
        else:
            groups.append((length, [head]))
    solutions = set()
    seen_states = set()

    def place_group(gi, rows):
        if gi == len(groups):
            solutions.add(tuple(tuple(r) for r in rows))
            return
        length, heads = groups[gi]
        place_heads(gi, length, tuple(sorted(heads)), rows)

    def place_heads(gi, length, remaining, rows):
        if not remaining:
            place_group(gi + 1, rows)
            return
        key = (gi, remaining, tuple(tuple(r) for r in rows))
        if key in seen_states:
            return
        seen_states.add(key)
        tried = set()
        for idx, head in enumerate(remaining):
            if head in tried:
                continue
            tried.add(head)
            rest = remaining[:idx] + remaining[idx + 1 :]
            for c in range(l):
                nxt = len(rows[c]) + 1
                if (1 - nxt + f[c]) % e != head:
                    continue
                if rows[c] and rows[c][-1] < length:
                    continue
                rows[c].append(length)
                place_heads(gi, length, rest, rows)
                rows[c].pop()

    place_group(0, [[] for _ in range(l)])
    members = [mp for mp in solutions if flotw_check(mp, f, e)]
    if not members:
        raise NotAdmissibleError(f"{ms} has no preimage at charge {tuple(s)} mod {e}")
    if len(members) > 1:
        raise InternalError(f"{ms} has several preimages at {f}: {sorted(members)}")
    found = members[0]
    if chi(found, f, e) != ms:
        raise InternalError(f"preimage of {ms} failed its round trip")
    if s == f:
        return found
    return psi(found, f, s, e)


def is_admissible(ms, charge, e):
    """Whether the multisegment has a preimage at `charge` (chi_inverse succeeds)."""
    s = check_charge(charge)
    ms = check_multisegment(ms, e)
    try:
        chi_inverse(ms, s, e)
    except NotAdmissibleError:
        return False
    return True
