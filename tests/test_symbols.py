"""Tests for two-row symbols: building, decoding, and the matching step."""

import itertools

import pytest

from hypothesis import given

import hypothesis.strategies as st

from conftest import bipartitions

from mullineux.errors import InputError

from mullineux.symbols import (
    MalformedSymbolError,
    Symbol,
    build_symbol,
    decode_symbol,
    match_step,
)


def minimal_depth(bp, charge):
    """The depth of the minimal symbol: the length of its row at the larger charge."""
    return len(build_symbol(bp, charge).rows[charge.index(max(charge))])


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
        sym = build_symbol(bp, charge)
        assert sym.charge == charge, bp
        assert sym.rows == rows, bp


def test_symbol_is_frozen_and_validated():
    sym = Symbol((0, 1), ((2,), (0, 3)))
    with pytest.raises(Exception):
        sym.charge = (1, 1)
    with pytest.raises(InputError):
        Symbol((0,), ((2,),))
    with pytest.raises(InputError):
        Symbol((0, 1, 2), ((), (), ()))
    with pytest.raises(InputError):
        sym._replace(rows=((2,),))
    with pytest.raises(InputError):
        Symbol._make(((0, 1), ((2,),)))
    assert sym._replace(charge=(1, 0)) == Symbol((1, 0), ((2,), (0, 3)))


def test_symbol_functions_reject_non_partitions():
    for bp in (((1, 2), ()), ((), (1, 2))):
        with pytest.raises(InputError):
            build_symbol(bp, (0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_symbol(((1,), ()), (0.5, 1)),
        lambda: build_symbol(((1,), ()), (0, 1.5)),
        lambda: build_symbol(((1,), ()), (0, 1, 2)),
        lambda: build_symbol(((1,), ()), (0,)),
        lambda: build_symbol(((1,), (), ()), (0, 1)),
        lambda: build_symbol(((1,), ()), (0, 1), depth=2.5),
        lambda: build_symbol(((1,), ()), (0, 1), depth="3"),
    ],
)
def test_symbol_functions_check_charge_components_and_depth(call):
    with pytest.raises(InputError):
        call()


def test_symbol_repr_names_its_fields():
    assert repr(Symbol((0, 1), ((2,), (0, 3)))) == "Symbol(charge=(0, 1), rows=((2,), (0, 3)))"


def test_decode_symbol_table():
    for charge, rows, expected in (
        ((1, 0), ((-1, 1), (1,)), ((1,), (2,))),
        ((0, 1), ((2,), (0, 3)), ((3,), (3, 1))),
        ((0, 0), ((-2, -1), (0, 1)), ((), (2, 2))),
    ):
        assert decode_symbol(Symbol(charge, rows)) == expected, (charge, rows)


def test_decode_symbol_malformed():
    for charge, rows in (
        ((0, 1), ((2, 2), (0, 3))),
        ((0, 1), ((3, 2), (0, 3))),
        ((0, 0), ((-2,), (0,))),
    ):
        with pytest.raises(MalformedSymbolError):
            decode_symbol(Symbol(charge, rows))


def test_padding_is_invisible():
    for bp, charge in (
        (((3,), (3, 1)), (0, 1)),
        (((2,), (1,)), (2, -1)),
        (((), ()), (0, 0)),
    ):
        d = minimal_depth(bp, charge)
        for extra in (1, 2, 5):
            padded = build_symbol(bp, charge, depth=d + extra)
            assert decode_symbol(padded) == bp, (bp, charge, extra)


def test_match_step_table():
    # Matching swaps the two charges and redistributes the entries.
    sym = build_symbol(((3,), (3, 1)), (0, 1))
    matched = match_step(sym)
    assert matched.charge == (1, 0)
    assert matched.rows == ((2, 3), (0,))
    assert decode_symbol(matched) == ((3, 3), (1,))

    sym = build_symbol(((2, 1), ()), (0, 1))
    matched = match_step(sym)
    assert matched.charge == (1, 0)
    assert decode_symbol(matched) == ((1,), (1, 1))


def small_charges():
    return itertools.product(range(-4, 5), repeat=2)


def all_bipartitions(max_rank):
    from mullineux.core import enumerate_multipartitions

    for n in range(max_rank + 1):
        yield from enumerate_multipartitions(n, 2)


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
    sym = build_symbol(bp, charge)
    matched = match_step(sym)
    assert matched.charge == (charge[1], charge[0])
    assert sorted(sym.rows[0] + sym.rows[1]) == sorted(
        matched.rows[0] + matched.rows[1]
    )


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
