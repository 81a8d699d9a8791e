"""Shared hypothesis strategies, settings and enumerators for the test suite."""

import itertools

from collections import Counter

from hypothesis import settings

import hypothesis.strategies as st

from mullineux.core import enumerate_partitions, rank

from mullineux.multisegments import canonical, is_aperiodic

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def partitions(max_part=8, max_len=6):
    """Strategy producing valid partitions as weakly decreasing tuples."""
    return st.lists(st.integers(1, max_part), max_size=max_len).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def bipartitions(max_part=6, max_len=4):
    """Strategy producing pairs of partitions."""
    return st.tuples(partitions(max_part, max_len), partitions(max_part, max_len))


def charge_tuples(level, low=-6, high=8):
    """Strategy producing integer charges of a fixed level."""
    return st.tuples(*(st.integers(low, high) for _ in range(level)))


@st.composite
def partitions_up_to(draw, max_rank, max_part, regular):
    """(lam, e): a partition of rank at most max_rank, e-regular if `regular`."""
    e = draw(st.integers(2, 6))
    most = e - 1 if regular else 2 * e + 1
    mults = draw(st.dictionaries(st.integers(1, max_part), st.integers(1, most), max_size=30))
    lam = []
    for value in sorted(mults, reverse=True):
        for _ in range(mults[value]):
            if rank(lam) + value <= max_rank:
                lam.append(value)
    return tuple(lam), e


def aperiodic_multisegments(n, e):
    """Every aperiodic multisegment of rank n mod e, in canonical form."""
    for lengths in enumerate_partitions(n):
        groups = [
            [tuple((h, length) for h in heads) for heads in itertools.combinations_with_replacement(range(e), k)]
            for length, k in Counter(lengths).items()
        ]
        for combo in itertools.product(*groups):
            ms = canonical(seg for group in combo for seg in group)
            if is_aperiodic(ms, e):
                yield ms
