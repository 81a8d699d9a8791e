"""Tests for the two-row symbol references in conftest: building,
decoding, and the matching step over the package's row pairing."""

import itertools

import pytest

from hypothesis import given

import hypothesis.strategies as st

from conftest import bipartitions, build_symbol, decode_symbol, itertools_multipartitions, match_step


def minimal_depth(bp, charge):
    """The depth of the minimal symbol: the length of its row at the larger charge."""
    _, rows = build_symbol(bp, charge)
    return len(rows[charge.index(max(charge))])


def test_symbol_depth_table():
    for bp, charge, expected in (
        ((((3,), (3, 1))), (0, 1), 2),
        ((((2,), (1,))), (0, 1), 2),
        # Empty bipartition still carries one entry on the wider row.
        ((((), ())), (0, 1), 1),
        ((((), ())), (0, 0), 0),
        ((((1, 1, 1), ())), (0, 5), 8),
        ((((2, 1), ())), (0, 1), 3),
    ):
        assert minimal_depth(bp, charge) == expected, (bp, charge)


def test_build_symbol_table():
    for bp, charge, rows in (
        (((3,), (3, 1)), (0, 1), ((2,), (0, 3))),
        (((2,), (1,)), (0, 1), ((1,), (-1, 1))),
        (((), ()), (0, 1), ((), (0,))),
        (((2, 1), ()), (0, 1), ((-1, 1), (-2, -1, 0))),
    ):
        assert build_symbol(bp, charge) == (charge, rows), bp


def test_decode_symbol_table():
    for charge, rows, expected in (
        ((1, 0), ((-1, 1), (1,)), ((1,), (2,))),
        ((0, 1), ((2,), (0, 3)), ((3,), (3, 1))),
        ((0, 0), ((-2, -1), (0, 1)), ((), (2, 2))),
    ):
        assert decode_symbol((charge, rows)) == expected, (charge, rows)


def test_decode_symbol_malformed():
    for charge, rows, message in (
        ((0, 1), ((2, 2), (0, 3)), r"^row 1 not strictly increasing: \(2, 2\)$"),
        ((0, 1), ((3, 2), (0, 3)), r"^row 1 not strictly increasing: \(3, 2\)$"),
        ((0, 0), ((-2,), (0,)), "^row 1 decodes to a negative part$"),
    ):
        with pytest.raises(ValueError, match=message):
            decode_symbol((charge, rows))


def test_match_step_table():
    # Matching swaps the two charges and redistributes the entries.
    sym = build_symbol(((3,), (3, 1)), (0, 1))
    matched = match_step(sym)
    assert matched == ((1, 0), ((2, 3), (0,)))
    assert decode_symbol(matched) == ((3, 3), (1,))

    sym = build_symbol(((2, 1), ()), (0, 1))
    matched = match_step(sym)
    assert matched[0] == (1, 0)
    assert decode_symbol(matched) == ((1,), (1, 1))


def small_charges():
    return itertools.product(range(-4, 5), repeat=2)


def all_bipartitions(max_rank):
    for n in range(max_rank + 1):
        yield from itertools_multipartitions(n, 2)


def padded(symbol, extra):
    """The symbol with `extra` more entries below the common floor of its rows."""
    charge, rows = symbol
    top = max(charge)
    floor = top - len(rows[charge.index(top)])
    below = tuple(range(floor - extra, floor))
    return charge, tuple(below + row for row in rows)


def test_padding_is_invisible():
    # crystal._sigma matches the minimal-depth rows; any deeper symbol
    # decodes to the same bipartition and matches to the same image.
    for bp in all_bipartitions(4):
        for charge in small_charges():
            sym = build_symbol(bp, charge)
            for extra in (1, 2, 5):
                deep = padded(sym, extra)
                assert decode_symbol(deep) == bp, (bp, charge, extra)
                assert match_step(deep) == padded(match_step(sym), extra), (bp, charge, extra)


def test_build_decode_round_trip_exhaustive():
    for bp in all_bipartitions(6):
        for charge in small_charges():
            sym = build_symbol(bp, charge)
            assert decode_symbol(sym) == bp, (bp, charge)


@given(bipartitions(), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_build_decode_round_trip_random(bp, charge):
    assert decode_symbol(build_symbol(bp, charge)) == bp


@given(bipartitions(), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_match_step_preserves_entry_multiset(bp, charge):
    _, rows = build_symbol(bp, charge)
    new_charge, new_rows = match_step((charge, rows))
    assert new_charge == (charge[1], charge[0])
    assert sorted(rows[0] + rows[1]) == sorted(new_rows[0] + new_rows[1])


def test_match_step_twice_is_identity_on_members():
    # Double matching returns to the original bipartition for charged-set
    # members; checked for e = 3 over all fundamental 2-row charges.
    from mullineux.crystal import flotw_check

    e = 3
    count = 0
    for s in range(e):
        charge = (0, s)
        for bp in all_bipartitions(10):
            if not flotw_check(bp, charge, e):
                continue
            sym = build_symbol(bp, charge)
            back = match_step(match_step(sym))
            assert decode_symbol(back) == bp, (bp, charge)
            count += 1
    assert count > 400
