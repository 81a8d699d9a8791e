"""Two-row symbols of charged bipartitions and the matching step.

The symbol of a bipartition (lam1, lam2) charged by (s1, s2) at depth d has
row c of length d + s_c - max(s1, s2), holding the first-column style values
lam^c_j - j + s_c.  Rows are stored in ascending order, so the j-th part
corresponds to the j-th entry from the right.  The minimal admissible depth
makes both rows just long enough to see every nonzero part.

`match_step` pairs entries of the two rows and exchanges the unpaired ones,
producing the symbol of the image bipartition at the swapped charge
(s2, s1).  Decoding a symbol back to a bipartition fails with
MalformedSymbolError when a row is not strictly increasing or would decode
to a negative part.

The pairing itself is `_match`, on two bare rows.  `crystal.psi` carries
each component as a partition for its whole walk.  Only at a sigma step
that matches does it build the two β-rows, padded to a common floor, which
is exactly the minimal-depth symbol, call `_match` on them and read two
partitions back, so it builds, matches and decodes no `Symbol`.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple

from .charges import check_charge
from .core import _int_arg, _int_seq, _iter_arg, check_multipartition, part
from .errors import InputError, MalformedSymbolError


class Symbol(namedtuple("Symbol", "charge rows")):
    """Charged two-row symbol; rows are ascending tuples."""

    __slots__ = ()

    def __new__(cls, charge, rows):
        charge = _int_seq("symbol charges", charge)
        rows = tuple(_int_seq("symbol rows", row) for row in _iter_arg("symbol rows", rows))
        if len(charge) != 2 or len(rows) != 2:
            raise InputError("a symbol has exactly two rows and two charges")
        return super().__new__(cls, charge, rows)

    @classmethod
    def _make(cls, iterable):
        """Build through __new__, so that _replace runs the same check."""
        return cls(*iterable)


def _bipartition_input(bipartition, charge):
    """The checked components and charge of a charged bipartition."""
    lam = check_multipartition(bipartition)
    s = check_charge(charge)
    if len(lam) != 2 or len(s) != 2:
        raise InputError(f"a symbol needs two components and two charges, got {len(lam)} and {len(s)}")
    return lam, s


def _depth(lam, charge):
    """Minimal depth at which both checked components are fully visible."""
    (lam1, lam2), (s1, s2) = lam, charge
    top = max(s1, s2)
    return max(abs(s1 - s2), len(lam1) + top - s1, len(lam2) + top - s2)


def build_symbol(bipartition, charge, depth=None):
    """Symbol of a charged bipartition at the given (or minimal) depth."""
    lam, s = _bipartition_input(bipartition, charge)
    d = _depth(lam, s)
    if depth is not None:
        depth = _int_arg("depth", depth)
        if depth < d:
            raise InputError(f"depth {depth} below minimal depth {d}")
        d = depth
    top = max(s)
    rows = tuple(
        tuple(part(p, j) - j + s_c for j in range(d + s_c - top, 0, -1)) for p, s_c in zip(lam, s)
    )
    return Symbol(s, rows)


def _symbol_arg(symbol):
    """symbol itself; InputError unless it is a Symbol."""
    if not isinstance(symbol, Symbol):
        raise InputError(f"a symbol must be a Symbol, got {symbol!r}")
    return symbol


def decode_symbol(symbol):
    """Bipartition encoded by a symbol; raises MalformedSymbolError."""
    _symbol_arg(symbol)
    out = []
    for c in (0, 1):
        row = symbol.rows[c]
        s_c = symbol.charge[c]
        if any(a >= b for a, b in zip(row, row[1:])):
            raise MalformedSymbolError(f"row {c + 1} not strictly increasing: {row}")
        length = len(row)
        parts = [row[length - j] + j - s_c for j in range(1, length + 1)]
        if any(p < 0 for p in parts):
            raise MalformedSymbolError(f"row {c + 1} decodes to a negative part")
        out.append(tuple(p for p in parts if p > 0))
    return tuple(out)


def match_step(symbol):
    """One matching step: pair the rows and swap the unpaired entries.

    For charge (s1, s2) with s2 >= s1, each entry x of row 1 (taken in
    increasing order) grabs the largest entry of row 2 that is <= x, or the
    largest remaining entry when none is; the grabbed entries become the new
    row 2 and everything else the new row 1.  For s2 < s1 the mirror rule
    runs with the roles of the rows exchanged.  The result is the symbol of
    the image at the swapped charge (s2, s1).
    """
    s1, s2 = _symbol_arg(symbol).charge
    return Symbol((s2, s1), _match(s1, s2, *symbol.rows))


def _match(s1, s2, row1, row2):
    """match_step on bare ascending rows charged (s1, s2): the two new rows."""
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
