"""Tests for multisegments: canonical form, aperiodicity and chi."""

import pytest

from conftest import walkable

from mullineux.core import enumerate_e_regular

from mullineux.crystal import _walk, enumerate_phi

from mullineux.multisegments import (
    InputError,
    canonical,
    check_multisegment,
    chi,
    is_aperiodic,
)

# chi(((3),(3,1)), (0,1), e=3): rows become residue segments.
MS_334 = ((0, 3), (1, 3), (0, 1))


def test_canonical_ordering():
    # Longest first; equal lengths ordered by head.
    assert canonical(((0, 1), (2, 6), (1, 1))) == ((2, 6), (0, 1), (1, 1))
    assert canonical(()) == ()
    # Duplicate segments are kept: a multisegment is a multiset.
    assert canonical(((0, 1), (0, 1))) == ((0, 1), (0, 1))


def test_check_multisegment():
    assert check_multisegment(((0, 3), (1, 3), (0, 1)), 3) == MS_334
    assert check_multisegment((), 3) == ()
    # Heads are residues and normalize mod e.
    assert check_multisegment(((3, 1), (-1, 2)), 3) == ((2, 2), (0, 1))
    for bad in (((0, 0),), ((0, -1),)):
        with pytest.raises(InputError):
            check_multisegment(bad, 3)


@pytest.mark.parametrize(
    "ms, e",
    [
        (((0, 1.5), (2.7, 1)), 3),
        (((0, 1), (2.7, 1)), 3),
        (((0, 1), (1, 1)), 3.0),
        (((0, 1),), 2.5),
        ((("0", 1),), 3),
        (((0, None),), 3),
    ],
)
def test_check_multisegment_rejects_non_integers(ms, e):
    with pytest.raises(InputError, match="must be an int"):
        check_multisegment(ms, e)


def test_is_aperiodic_table():
    # Segments written as (head residue, length).
    for ms, e, expected in (
        # [0,1,2,0] + [0] + [1] + [1,2] + [2,0]
        ((((0, 4), (0, 1), (1, 1), (1, 2), (2, 2))), 3, True),
        # [0,1,2,0] + [0] + [0,1] + [1,2] + [2,0]: lengths 2 and 1 both
        # realize every possible tail, so a period exists.
        ((((0, 4), (0, 1), (0, 2), (1, 2), (2, 2))), 3, False),
        ((), 3, True),
        ((((0, 1),)), 2, True),
        ((((0, 1), (1, 1))), 2, False),
    ):
        assert is_aperiodic(ms, e) is expected, ms


def test_chi_table():
    for mp, charge, e, expected in (
        (((3,), (3, 1)), (0, 1), 3, MS_334),
        (((2, 1), ()), (0, 1), 3, ((0, 2), (2, 1))),
        (((), ()), (0, 1), 3, ()),
    ):
        assert chi(mp, charge, e) == expected, (mp, charge)


def test_chi_of_a_splitting():
    # Rows read as segments on the two-component splitting of a 4-regular partition.
    from mullineux.theta import theta_l2

    lam = (8, 8, 6, 6, 4, 3, 3, 2, 1, 1)
    pair = theta_l2(lam, 4, 2)
    assert pair == ((8, 8, 3, 2, 1, 1), (6, 6, 4, 3))
    assert chi(pair, (0, 2), 4) == ((0, 8), (3, 8), (1, 6), (2, 6), (0, 4), (2, 3), (3, 3), (1, 2), (0, 1), (3, 1))


def test_chi_misses_a_label_at_another_charge():
    # MS_334 labels a member at (0, 1) and no member at (0, 0).
    assert MS_334 not in {chi(mp, (0, 0), 3) for mp in enumerate_phi(7, (0, 0), 3)}


def assert_chi_is_injective(members, charge, e, n):
    """chi labels the members by distinct aperiodic multisegments of rank n."""
    labels = {chi(mp, charge, e) for mp in members}
    assert len(labels) == len(members), (charge, e, n)
    for ms in labels:
        assert is_aperiodic(ms, e) and sum(length for _, length in ms) == n, (ms, charge, e)


def test_chi_is_injective_on_members():
    for e in (2, 3, 4, 5):
        for s in range(e):
            for n in range(9):
                assert_chi_is_injective(enumerate_phi(n, (0, s), e), (0, s), e, n)


def test_chi_is_injective_at_level_one():
    for e in (2, 3, 4):
        for n in range(10):
            assert_chi_is_injective([(lam,) for lam in enumerate_e_regular(n, e)], (0,), e, n)


def test_chi_outputs_are_canonical_aperiodic_and_graded():
    for e in (2, 3):
        for s in range(e):
            charge = (0, s)
            for n in range(8):
                for mp in enumerate_phi(n, charge, e):
                    ms = chi(mp, charge, e)
                    assert ms == canonical(ms), (mp, charge)
                    assert is_aperiodic(ms, e), (mp, charge)
                    assert sum(length for _, length in ms) == n, (mp, charge)


def test_chi_invariant_under_rotation():
    # Rotating the charged bipartition does not change its multisegment.
    e = 3
    for n in range(8):
        for mp in enumerate_phi(n, (0, 1), e):
            moved, charge = _walk(mp, (0, 1), walkable([("tau", 1)]), e)
            assert chi(moved, charge, e) == chi(mp, (0, 1), e), mp


def test_chi_constant_along_transport():
    # Transporting a member to another charge keeps the same multisegment.
    from mullineux.crystal import psi

    e = 3
    for n in range(7):
        for mp in enumerate_phi(n, (0, 1), e):
            out = psi(mp, (0, 1), (0, 4), e)
            assert chi(out, (0, 4), e) == chi(mp, (0, 1), e), mp
