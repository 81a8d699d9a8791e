"""Tests for the splitting map theta and its inverse."""

import time

import pytest
from hypothesis import given

from conftest import fundamental_charges, partitions

from mullineux.core import _concat, enumerate_e_regular, rank

from mullineux.crystal import flotw_check

from mullineux.errors import InputError

from mullineux.multisegments import chi

from mullineux.theta import theta, theta_inverse, theta_l2

LAM10 = (8, 8, 6, 6, 4, 3, 3, 2, 1, 1)


def test_theta_worked_examples():
    for charge, expected in (
        ((0, 2, 2), ((8, 8), (6, 6, 4, 3), (3, 2, 1, 1))),
        ((0, 1), ((8, 8, 6, 2, 1, 1), (6, 4, 3, 3))),
        ((0, 3), ((8, 3, 3, 2, 1), (8, 6, 6, 4, 1))),
        ((0, 0), ((8, 8, 6, 6, 1, 1), (4, 3, 3, 2))),
        ((0, 2), ((8, 8, 3, 2, 1, 1), (6, 6, 4, 3))),
    ):
        assert theta(LAM10, 4, charge) == expected, charge


def test_theta_small_cases():
    assert theta((), 3, (0, 1)) == ((), ())
    assert theta((1,), 3, (0, 1)) == ((1,), ())
    assert theta((1,), 3, (0, 0)) == ((1,), ())
    assert theta((3,), 3, (0, 2)) == ((3,), ())
    assert theta((2, 1), 3, (0, 2)) == ((2,), (1,))


def test_theta_rejects_bad_input():
    with pytest.raises(InputError):
        theta((3, 3, 3), 3, (0, 1))
    with pytest.raises(InputError):
        theta((3,), 3, (1, 0))
    with pytest.raises(InputError):
        theta((3,), 3, (0, 5))


def test_theta_l2_matches_theta():
    for e in (3, 4):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                for s in range(e):
                    assert theta_l2(lam, e, s) == theta(lam, e, (0, s)), (lam, e, s)


def test_theta_inverse():
    for mp, expected in (
        (((8, 8), (6, 6, 4, 3), (3, 2, 1, 1)), LAM10),
        (((), ()), ()),
        (((17,), (9, 7, 6, 3, 3)), (17, 9, 7, 6, 3, 3)),
        (((8, 8), ()), (8, 8)),
        (((8, 8, 3, 2, 1, 1), (6, 6, 4, 3)), LAM10),
    ):
        assert theta_inverse(mp) == expected, mp


@given(partitions(), partitions())
def test_theta_inverse_is_sorted_union(lam, mu):
    out = theta_inverse((lam, mu))
    assert out == tuple(sorted(lam + mu, reverse=True))
    assert rank(out) == rank(lam) + rank(mu)


def test_theta_inverse_joins_a_hundred_thousand_components_at_once():
    rows = ((1,),) * 10**5
    start = time.perf_counter()
    assert theta_inverse(rows) == (1,) * 10**5
    assert time.perf_counter() - start < 2


def test_theta_round_trip_and_membership():
    for e in (3, 4, 5):
        for level in (1, 2, 3):
            for charge in fundamental_charges(e, level):
                for n in range(13):
                    for lam in enumerate_e_regular(n, e):
                        mp = theta(lam, e, charge)
                        assert sum(map(sum, mp)) == n, (lam, charge)
                        assert theta_inverse(mp) == lam, (lam, charge)
                        assert flotw_check(mp, charge, e), (lam, charge)


def test_theta_preserves_chi():
    # The splitting relabels rows without changing the multisegment.
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_e_regular(n, e):
                segments = chi((lam,), (0,), e)
                for level in range(1, 5):
                    for charge in fundamental_charges(e, level):
                        mp = theta(lam, e, charge)
                        assert chi(mp, charge, e) == segments, (lam, charge)


def reference_theta(lam, e, s):
    """theta by recursion: the first e + s_1 - s_l parts go to component 1,
    the rest is split at a rotated charge, and the results are stitched
    together.  It uses one stack frame per block, so it serves small inputs.
    """
    l = len(s)
    if not lam:
        return ((),) * l
    # 1-based index of the first entry equal to s_l
    lp = next(j for j in range(1, l + 1) if s[j - 1] == s[-1])
    count = e + s[0] - s[-1]
    head = lam[:count]
    tail = lam[count:]
    if lp == 1:
        nu = reference_theta(tail, e, s)
        out = [None] * l
        out[0] = _concat(head, nu[l - 1])
        for j in range(2, l + 1):
            out[j - 1] = nu[j - 2]
        return tuple(out)
    s2 = (s[-1],) * (l - lp + 2) + tuple(s[j - 1] + e for j in range(2, lp))
    nu = reference_theta(tail, e, s2)
    out = [None] * l
    out[0] = _concat(head, nu[(1 - lp) % l])
    for j in range(2, l + 1):
        out[j - 1] = nu[(j - lp) % l]
    return tuple(out)


def test_theta_matches_the_recursive_reference():
    for e in range(2, 7):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                for level in range(1, 5):
                    for charge in fundamental_charges(e, level):
                        for shift in (0, 5, -3):
                            s = tuple(x + shift for x in charge)
                            assert theta(lam, e, s) == reference_theta(lam, e, s), (lam, e, s)


def staircase(n):
    return tuple(range(n, 0, -1))


@pytest.mark.parametrize(
    "lam, e, charge",
    [
        (staircase(2100), 2, (0,)),
        (staircase(2100), 2, (0, 0)),
        (staircase(2100), 2, (0, 1)),
        (staircase(1500), 3, (0, 1, 2)),
    ],
    ids=["e2-level1", "e2-00", "e2-01", "e3-012"],
)
def test_theta_answers_long_partitions(lam, e, charge):
    # One block per e rows: a recursion would need a stack frame per block.
    mp = theta(lam, e, charge)
    assert theta_inverse(mp) == lam
    assert flotw_check(mp, charge, e)
    assert chi(mp, charge, e) == chi((lam,), (0,), e)
    if len(charge) == 1:
        assert mp == (lam,)
    if len(charge) == 2:
        assert theta_l2(lam, e, charge[1]) == mp


def test_theta_components_interleave():
    # Every part of the source appears in exactly one component.
    for e in (3,):
        for n in range(11):
            for lam in enumerate_e_regular(n, e):
                for s in range(e):
                    pair = theta_l2(lam, e, s)
                    merged = theta_inverse(pair)
                    assert merged == lam, (lam, s)
