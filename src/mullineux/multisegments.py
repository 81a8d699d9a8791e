"""Multisegments, aperiodicity, and the labelling map chi.

A segment is a pair (head, length) with head in Z/eZ and length >= 1; it
stands for the residue word head, head+1, ..., head+length-1 (mod e) and its
tail is head + length - 1 mod e.  A multisegment is a multiset of segments,
stored canonically as a tuple sorted by (length descending, head ascending).

chi reads the rows of a charged multipartition as segments: row i of
component c with part p contributes the segment with head (1 - i + s_c) mod e
and length p.  At a fundamental charge this labelling is injective on the
members of each rank and lands on aperiodic multisegments of that rank, and
every aperiodic multisegment is reached at some fundamental charge
(`involution.im_sharp` reads its preimage off the segments, and reads its
image back at the transposed charge, which is fundamental too); at other
charges it is defined by transporting the multipartition to the fundamental
representative first.
"""

from operator import itemgetter

from .charges import _fundamental_representative
from .core import _int_arg, _iter_arg
from .crystal import _charged_input, _is_aperiodic, _psi, _segments
from .errors import InputError

_head, _length = itemgetter(0), itemgetter(1)


def check_multisegment(ms, e):
    """Normalize to the canonical tuple of (head, length) pairs."""
    return canonical(_segment_list(ms, _int_arg("e", e, 2)))


def _segment_list(ms, e):
    """check_multisegment at a checked e, before the sort: the checked
    (head mod e, length) pairs as a list, in the order ms gives them."""
    segs = []
    for seg in _iter_arg("a multisegment", ms):
        try:
            head, length = seg
        except (TypeError, ValueError) as exc:
            raise InputError(f"a segment must be a (head, length) pair, got {seg!r}") from exc
        segs.append((_int_arg("segment head", head) % e, _int_arg("segment length", length, 1)))
    return segs


def canonical(segments):
    """Canonical order: length descending, then head ascending.

    Two stable sorts on one field each, the minor field first, so no sort
    key is built per segment.
    """
    try:
        out = sorted(segments, key=_head)
        out.sort(key=_length, reverse=True)
        return tuple(out)
    except (IndexError, TypeError) as exc:
        raise InputError(f"canonical needs (head, length) segments, got {segments!r}") from exc


def is_aperiodic(ms, e):
    """No length L has segments of that length realizing every tail residue."""
    e = _int_arg("e", e, 2)
    return _is_aperiodic(_segment_list(ms, e), e)


def chi(mp, charge, e):
    """Multisegment of a charged multipartition (rows read as segments)."""
    mp, s, e = _charged_input(mp, (charge,), e)
    f = _fundamental_representative(s, e)
    return canonical(_segments(_psi(mp, s, f, e), f, e))

