"""The row pairing of the two-row symbol matching.

`crystal._sigma` runs `_match` at every sigma step that does not reduce to
a plain swap: it builds the β-rows of the two components, padded to a
common floor (the minimal-depth symbol of the charged pair), calls `_match`
on them and reads two partitions back.  The symbol definition of the
matching, with building and decoding, lives in the tests as its slow
reference.
"""

from bisect import bisect_left, bisect_right


def _match(s1, s2, row1, row2):
    """Pair two ascending rows charged (s1, s2) and swap the unpaired entries.

    For s2 >= s1, each entry x of row 1 (taken in increasing order) grabs
    the largest entry of row 2 that is <= x, or the largest remaining entry
    when none is; the grabbed entries become the new row 2 and everything
    else the new row 1.  For s2 < s1 the mirror rule runs with the roles of
    the rows exchanged.  The two new rows are those of the image at the
    swapped charge (s2, s1).
    """
    if s2 >= s1:
        pool = list(row2)
        grabbed = []
        for x in row1:
            idx = bisect_right(pool, x) - 1
            grabbed.append(pool.pop(idx))
        pool += row1
        return tuple(sorted(pool)), tuple(sorted(grabbed))
    pool = list(row1)
    grabbed = []
    for x in row2:
        idx = bisect_left(pool, x)
        grabbed.append(pool.pop(idx if idx < len(pool) else 0))
    pool += row2
    return tuple(sorted(grabbed)), tuple(sorted(pool))
