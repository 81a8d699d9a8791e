"""Tests for multisegments: canonical form, aperiodicity, chi and its inverse."""

import pytest

from mullineux.core import enumerate_e_regular

from mullineux.crystal import enumerate_phi, psi_tau

from mullineux.multisegments import (
    InputError,
    NotAdmissibleError,
    canonical,
    check_multisegment,
    chi,
    chi_inverse,
    is_admissible,
    is_aperiodic,
    multisegment_length,
    segment_tail,
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


def test_segment_tail():
    # The tail residue is head + length - 1 mod e.
    for seg, e, expected in (((2, 6), 3, 1), ((0, 1), 3, 0), ((1, 2), 3, 2)):
        assert segment_tail(seg, e) == expected, seg


def test_multisegment_length():
    assert multisegment_length(MS_334) == 7
    assert multisegment_length(()) == 0


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


def test_chi_inverse_examples():
    assert chi_inverse(MS_334, (0, 1), 3) == ((3,), (3, 1))
    assert chi_inverse((), (0, 1), 3) == ((), ())


def test_chi_inverse_after_splitting():
    # Invert chi on the two-component splitting of a 4-regular partition.
    from mullineux.theta import theta_l2

    lam = (8, 8, 6, 6, 4, 3, 3, 2, 1, 1)
    pair = theta_l2(lam, 4, 2)
    assert pair == ((8, 8, 3, 2, 1, 1), (6, 6, 4, 3))
    ms = chi(pair, (0, 2), 4)
    assert chi_inverse(ms, (0, 2), 4) == pair


def test_chi_inverse_not_admissible():
    with pytest.raises(NotAdmissibleError):
        chi_inverse(MS_334, (0, 0), 3)


def test_is_admissible_table():
    for ms, charge, e, expected in (
        (MS_334, (0, 1), 3, True),
        (MS_334, (0, 0), 3, False),
        ((), (0, 1), 3, True),
    ):
        assert is_admissible(ms, charge, e) is expected, (ms, charge)


def test_chi_round_trip_members():
    for e in (2, 3, 4, 5):
        for s in range(e):
            charge = (0, s)
            for n in range(9):
                for mp in enumerate_phi(n, charge, e):
                    ms = chi(mp, charge, e)
                    assert chi_inverse(ms, charge, e) == mp, (mp, charge, e)


def test_chi_level_one_round_trip():
    for e in (2, 3, 4):
        for n in range(10):
            for lam in enumerate_e_regular(n, e):
                ms = chi((lam,), (0,), e)
                assert chi_inverse(ms, (0,), e) == (lam,), (lam, e)


def test_chi_outputs_are_canonical_aperiodic_and_graded():
    for e in (2, 3):
        for s in range(e):
            charge = (0, s)
            for n in range(8):
                for mp in enumerate_phi(n, charge, e):
                    ms = chi(mp, charge, e)
                    assert ms == canonical(ms), (mp, charge)
                    assert is_aperiodic(ms, e), (mp, charge)
                    assert multisegment_length(ms) == n, (mp, charge)


def test_chi_invariant_under_rotation():
    # Rotating the charged bipartition does not change its multisegment.
    e = 3
    for n in range(8):
        for mp in enumerate_phi(n, (0, 1), e):
            moved, charge = psi_tau(mp, (0, 1), e)
            assert chi(moved, charge, e) == chi(mp, (0, 1), e), mp


def test_chi_constant_along_transport():
    # Transporting a member to another charge keeps the same multisegment.
    from mullineux.crystal import psi

    e = 3
    for n in range(7):
        for mp in enumerate_phi(n, (0, 1), e):
            out = psi(mp, (0, 1), (0, 4), e)
            assert chi(out, (0, 4), e) == chi(mp, (0, 1), e), mp
