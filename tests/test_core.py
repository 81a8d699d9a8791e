"""Tests for partition primitives: validation, conjugation, cores, enumeration."""

import sys
import time

import pytest

from hypothesis import given

from conftest import itertools_multipartitions, partitions, recursive_partitions

from mullineux.core import (
    InputError,
    check_multipartition,
    check_partition,
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_regular,
    is_strict_e_core,
    rank,
    remove_first_column,
)

# Number of partitions of n for n = 0..14 (OEIS A000041).
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135)


def brute_conjugate(lam):
    """Column-count oracle for the conjugate partition."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def brute_max_hook(lam):
    """Largest hook length computed node by node."""
    mu = brute_conjugate(lam)
    best = 0
    for a, row in enumerate(lam, start=1):
        for b in range(1, row + 1):
            arm = row - b
            leg = mu[b - 1] - a
            best = max(best, arm + leg + 1)
    return best


def test_check_partition_normalizes():
    for raw, expected in (
        ((3, 2), (3, 2)),
        ((3, 2, 0, 0), (3, 2)),
        ([4, 1], (4, 1)),
        ((), ()),
        ((0, 0), ()),
        ((5,), (5,)),
    ):
        assert check_partition(raw) == expected, raw


def test_check_partition_drops_a_million_trailing_zeros_at_once():
    start = time.perf_counter()
    assert check_partition((3,) + (0,) * 10**6) == (3,)
    assert time.perf_counter() - start < 1


def test_check_partition_rejects():
    for raw in ((1, 2), (2, -1), (-1,), (2, 3, 1), (1, 0, 1), (2.5, 1), "31", (3, None), 3):
        with pytest.raises(InputError):
            check_partition(raw)


def test_rank():
    assert rank(()) == 0
    assert rank((17, 9, 7, 6, 3, 3)) == 45


def test_is_e_regular_table():
    for lam, e, expected in (
        ((3, 3, 3), 3, False),
        ((2, 1), 3, True),
        ((3,), 3, True),
        ((1, 1), 2, False),
        ((1,), 2, True),
        ((), 2, True),
        ((10, 8, 7, 5, 4, 4, 3, 2, 1, 1), 4, True),
        ((4, 4, 4, 4), 4, False),
        ((4, 4, 4), 4, True),
    ):
        assert is_e_regular(lam, e) is expected, (lam, e)


def test_conjugate_table():
    for lam, expected in (
        ((3,), (1, 1, 1)),
        ((1, 1, 1), (3,)),
        ((2, 1), (2, 1)),
        ((4, 2, 1), (3, 2, 1, 1)),
        ((), ()),
    ):
        assert conjugate(lam) == expected, lam


@given(partitions())
def test_conjugate_involution_and_oracle(lam):
    assert conjugate(lam) == brute_conjugate(lam)
    assert conjugate(conjugate(lam)) == lam
    assert rank(conjugate(lam)) == rank(lam)


def test_conjugate_involution_rank_20():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert conjugate(lam) == brute_conjugate(lam), lam
            assert conjugate(conjugate(lam)) == lam, lam


def test_conjugate_is_linear_on_long_inputs():
    """Applied twice, conjugate gives back the staircase 2000..1 and the row
    100000.  The column-count oracle, one pass over the rows per column,
    takes about 0.2 s on these two alone; one pass takes a few ms."""
    staircase = tuple(range(2000, 0, -1))
    start = time.perf_counter()
    assert conjugate(conjugate(staircase)) == staircase
    column = conjugate((100000,))
    assert column == (1,) * 100000
    assert conjugate(column) == (100000,)
    assert time.perf_counter() - start < 0.1


def test_is_strict_e_core_hook_table():
    # A strict e-core is a partition whose longest hook is shorter than e.
    for lam, hook in (
        ((2,), 2),
        ((3,), 3),
        ((2, 1), 3),
        ((), 0),
        ((17, 9, 7, 6, 3, 3), 22),
    ):
        assert brute_max_hook(lam) == hook, lam
        for e in range(2, 9):
            assert is_strict_e_core(lam, e) == (hook < e), (lam, e)


def test_is_strict_e_core_matches_nodewise_hook_oracle():
    for n in range(11):
        for lam in enumerate_partitions(n):
            for e in range(2, 9):
                assert is_strict_e_core(lam, e) == (brute_max_hook(lam) < e), (lam, e)


def test_is_strict_e_core_table():
    for lam, e, expected in (
        ((2,), 3, True),
        ((3,), 3, False),
        ((2, 1), 3, False),
        ((), 2, True),
        ((1,), 2, True),
        ((1, 1), 2, False),
        ((2, 1), 4, True),
    ):
        assert is_strict_e_core(lam, e) is expected, (lam, e)


def test_strict_core_implies_regular():
    for e in range(2, 7):
        for n in range(15):
            for lam in enumerate_partitions(n):
                if is_strict_e_core(lam, e):
                    assert is_e_regular(lam, e), (lam, e)


def test_remove_first_column():
    for lam, expected in (
        ((3, 3, 1), (2, 2)),
        ((1, 1, 1), ()),
        ((), ()),
        ((5,), (4,)),
    ):
        assert remove_first_column(lam) == expected, lam


@given(partitions())
def test_remove_first_column_is_conjugate_row_drop(lam):
    mu = conjugate(lam)
    assert remove_first_column(lam) == conjugate(mu[1:])


def test_enumerate_partitions_counts_and_validity():
    for n, expected in enumerate(PARTITION_COUNTS):
        seen = list(enumerate_partitions(n))
        assert len(seen) == expected, n
        assert len(set(seen)) == expected, n
        for lam in seen:
            assert check_partition(lam) == lam
            assert rank(lam) == n, lam


def test_enumerate_partitions_order():
    assert list(enumerate_partitions(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumerate_e_regular_table():
    assert set(enumerate_e_regular(3, 3)) == {(3,), (2, 1)}
    assert set(enumerate_e_regular(0, 2)) == {()}
    assert set(enumerate_e_regular(2, 2)) == {(2,)}


def test_enumerate_e_regular_is_filter():
    for e in (2, 3, 4):
        for n in range(11):
            expected = [lam for lam in enumerate_partitions(n) if is_e_regular(lam, e)]
            assert list(enumerate_e_regular(n, e)) == expected, (e, n)


def test_enumerate_partitions_matches_the_recursive_reference():
    for n in range(26):
        expected = list(recursive_partitions(n, n))
        assert list(enumerate_partitions(n)) == expected, n
        for e in range(2, 7):
            regular = [lam for lam in expected if is_e_regular(lam, e)]
            assert list(enumerate_e_regular(n, e)) == regular, (n, e)


# Every test that draws multipartitions draws them from the conftest
# reference itertools_multipartitions; these pin its set and its order.
def test_reference_multipartitions():
    assert sorted(itertools_multipartitions(2, 2)) == [
        ((), (1, 1)),
        ((), (2,)),
        ((1,), (1,)),
        ((1, 1), ()),
        ((2,), ()),
    ]
    # Level-2 count is the convolution of the partition numbers.
    for n in range(9):
        expected = sum(
            PARTITION_COUNTS[k] * PARTITION_COUNTS[n - k] for k in range(n + 1)
        )
        seen = list(itertools_multipartitions(n, 2))
        assert len(seen) == expected, n
        assert len(set(seen)) == expected, n
        for mp in seen:
            assert check_multipartition(mp) == mp
            assert sum(map(sum, mp)) == n


def test_reference_multipartitions_levels():
    assert list(itertools_multipartitions(0, 3)) == [((), (), ())]
    assert len(list(itertools_multipartitions(3, 1))) == PARTITION_COUNTS[3]


def recursive_multipartitions(n, levels):
    """Multipartitions by one recursion per level: the reference for the set
    and, at levels 1 and 2, for the order."""
    if levels == 1:
        for lam in enumerate_partitions(n):
            yield (lam,)
        return
    for k in range(n + 1):
        for first in enumerate_partitions(k):
            for rest in recursive_multipartitions(n - k, levels - 1):
                yield (first,) + rest


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_reference_multipartitions_match_the_recursive_reference(levels):
    # Same set at every level; same order at levels 1 and 2, where the
    # first component's rank is the composition's first entry.
    for n in range(9):
        flat = list(itertools_multipartitions(n, levels))
        reference = list(recursive_multipartitions(n, levels))
        assert sorted(flat) == sorted(reference), (n, levels)
        if levels <= 2:
            assert flat == reference, (n, levels)


def test_reference_multipartitions_order_by_composition():
    ranks = [tuple(map(sum, mp)) for mp in itertools_multipartitions(4, 3)]
    assert ranks == sorted(ranks)
    assert list(itertools_multipartitions(3, 3))[:4] == [
        ((), (), (3,)), ((), (), (2, 1)), ((), (), (1, 1, 1)), ((), (1,), (2,))
    ]


@pytest.mark.parametrize("n", [sys.maxsize, 10**20, 2**200])
@pytest.mark.parametrize("levels", [1, 2])
def test_enumerate_past_the_largest_sequence_is_an_input_error(levels, n):
    # Ranks from sys.maxsize up are refused; the partition enumerations say
    # so at the first item and enumerate_phi at its call, from one rank bound.
    from mullineux.crystal import enumerate_phi

    message = f"^rank must be < {sys.maxsize} to enumerate partitions, got {n}$"
    for first in (
        lambda: next(enumerate_partitions(n)),
        lambda: next(enumerate_e_regular(n, levels + 1)),
        lambda: enumerate_phi(n, (0,) * levels, 3),
    ):
        with pytest.raises(InputError, match=message):
            first()


def test_check_multipartition_rejects():
    for mp in (((1, 2), ()), ((3,), (1, 2)), ((), (0, 1))):
        with pytest.raises(InputError):
            check_multipartition(mp)
