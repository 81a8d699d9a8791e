"""Tests for the three routes to the involution and the multisegment lift."""

import random
import sys

import pytest
from hypothesis import given

import hypothesis.strategies as st

from mullineux.core import (
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_regular,
    part,
    rank,
)

from mullineux.errors import InputError, NoPathError

from mullineux.involution import (
    ak_mullineux,
    e_rim,
    good_addable_node,
    good_removable_node,
    im_sharp,
    kleshchev_oracle,
    kleshchev_trace,
    mullineux_crystal,
    mullineux_crystal_trace,
    truncated_e_rim,
    xu,
    xu_strip,
    xu_trace,
)

from mullineux.multisegments import chi, multisegment_length

FLAGSHIP = (10, 8, 7, 5, 4, 4, 3, 2, 1, 1)
FLAGSHIP_IMAGE = (17, 9, 7, 6, 3, 3)

# Values of the involution recorded from independent hand computation.
KNOWN_IMAGES = (
    ((3,), 3, (2, 1)),
    ((2, 1), 3, (3,)),
    ((1, 1), 3, (2,)),
    ((2,), 3, (1, 1)),
    ((3, 3), 3, (6,)),
    ((6,), 3, (3, 3)),
    ((1,), 2, (1,)),
    ((2, 1), 2, (2, 1)),
    ((9, 7, 6, 4, 3, 3, 2, 1), 4, (14, 7, 7, 3, 3, 1)),
    ((8, 6, 5, 4, 4, 3, 1, 1, 1), 4, (15, 7, 5, 4, 1, 1)),
    ((4, 3, 3), 4, (10,)),
    ((6, 6), 4, (6, 6)),
)


def test_e_rim_examples():
    assert e_rim((8, 5, 3, 3), 3) == (
        (1, 8),
        (1, 7),
        (1, 6),
        (2, 5),
        (2, 4),
        (2, 3),
        (3, 3),
        (4, 3),
        (4, 2),
    )
    assert e_rim((6, 3, 3, 2), 3) == (
        (1, 6),
        (1, 5),
        (1, 4),
        (2, 3),
        (3, 3),
        (3, 2),
        (4, 2),
        (4, 1),
    )
    assert e_rim((1,), 2) == ((1, 1),)
    assert e_rim((7, 4, 2, 2), 3) == (
        (1, 7),
        (1, 6),
        (1, 5),
        (2, 4),
        (2, 3),
        (2, 2),
        (3, 2),
        (4, 2),
        (4, 1),
    )
    with pytest.raises(InputError):
        e_rim((), 3)


def test_truncated_e_rim_and_strip():
    # Stripping removes the truncated rim; the node count comes with it.
    for lam, e, rest, removed in (
        ((8, 5, 3, 3), 3, (6, 3, 3, 2), 5),
        ((6, 3, 3, 2), 3, (4, 3, 2), 5),
        ((1,), 2, (), 1),
        ((4, 3, 2), 3, (3, 3), 3),
    ):
        assert xu_strip(lam, e) == (rest, removed), (lam, e)
        assert len(truncated_e_rim(lam, e)) == removed, (lam, e)
        assert rank(lam) - rank(rest) == removed, (lam, e)


def test_xu_chain():
    assert xu((6, 3, 3, 2), 3) == (8, 2, 2, 1, 1)
    assert xu((8, 5, 3, 3), 3) == (9, 3, 3, 2, 2)
    assert xu((1,), 2) == (1,)
    assert xu((), 3) == ()


def test_xu_known_images():
    for lam, e, expected in KNOWN_IMAGES:
        assert xu(lam, e) == expected, (lam, e)


def test_xu_trace_is_consistent():
    result, steps = xu_trace((8, 5, 3, 3), 3)
    assert result == (9, 3, 3, 2, 2)
    assert steps[0] == ("strip 5 nodes", (0,), ((6, 3, 3, 2),))
    assert steps[-1][2] == ((9, 3, 3, 2, 2),)


def test_xu_long_inputs_at_default_recursion_limit():
    staircase = tuple(range(100, 0, -1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for lam, e in (((1000,), 3), ((5000,), 3), (staircase, 3), (staircase, 5)):
            image = xu(lam, e)
            assert xu(image, e) == lam, (lam[:3], e)
            assert xu_trace(lam, e)[0] == image, (lam[:3], e)
    finally:
        sys.setrecursionlimit(limit)


def seeded_regular_partition(n, e, seed):
    """A random e-regular partition of rank exactly n, fixed by the seed."""
    rng = random.Random(seed)
    lam = []
    for p in sorted((rng.randint(1, 60) for _ in range(n // 25)), reverse=True):
        if lam.count(p) < e - 1 and rank(lam) + p <= n:
            lam.append(p)
    lam[0] += n - rank(lam)
    return tuple(lam)


def test_crystal_long_inputs_at_default_recursion_limit():
    staircase = tuple(range(60, 0, -1))
    random_4_regular = seeded_regular_partition(2000, 4, seed=6)
    assert rank(random_4_regular) == 2000 and is_e_regular(random_4_regular, 4)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        cases = (((1200,), 3), ((5000,), 3), (staircase, 3), (staircase, 5), (random_4_regular, 4))
        for lam, e in cases:
            assert mullineux_crystal(lam, e) == xu(lam, e), (lam[:3], e)
    finally:
        sys.setrecursionlimit(limit)


def test_crystal_memo_has_cache_clear():
    # Memo-clearing callers (a cold benchmark call, say) look for `cache_clear`.
    from mullineux import involution

    mullineux_crystal((5, 3, 1), 3)
    assert involution._crystal_images
    involution._crystal.cache_clear()
    assert not involution._crystal_images


def test_traces_validate_their_input():
    for trace in (xu_trace, kleshchev_trace, mullineux_crystal_trace):
        with pytest.raises(InputError):
            trace((3, 3, 3), 3)
        with pytest.raises(InputError):
            trace((2,), 1)
    for s in (0, 3):
        with pytest.raises(InputError):
            mullineux_crystal_trace((3,), 3, s)


def test_kleshchev_known_images():
    for lam, e, expected in KNOWN_IMAGES:
        assert kleshchev_oracle(lam, e) == expected, (lam, e)
    assert kleshchev_oracle(FLAGSHIP, 4) == FLAGSHIP_IMAGE


def test_kleshchev_trace_round_trip():
    result, steps = kleshchev_trace((3, 3), 3)
    assert result == (6,)
    peel = [step for step in steps if step[0].startswith("peel")]
    grow = [step for step in steps if step[0].startswith("grow")]
    assert len(peel) == len(grow) == 6
    # The peeled residues are replayed in reverse on the conjugate side.
    assert peel[0][0] == "peel residue 1"
    assert grow[0][0] == "grow residue 0"


def test_good_nodes_cancelation():
    # The highest addable and lowest removable survive the pairing for (3,3).
    assert good_removable_node((3, 3), 3, 1) == (2, 3)
    assert good_removable_node((3, 3), 3, 0) is None
    assert good_addable_node((3, 3), 3, 0) == (1, 4)


def signature(lam, e, i):
    """Addable/removable i-nodes top-to-bottom, row by row: list of (kind, row)."""
    entries = []
    depth = len(lam)
    for r in range(1, depth + 2):
        cur = part(lam, r)
        if (r == 1 or cur < part(lam, r - 1)) and (cur + 1 - r) % e == i:
            entries.append(("A", r))
        if r <= depth and cur > part(lam, r + 1) and (cur - r) % e == i:
            entries.append(("R", r))
    return entries


def reduced_signature(lam, e, i):
    """The signature with adjacent "A then R" pairs cancelled."""
    stack = []
    for entry in signature(lam, e, i):
        if entry[0] == "R" and stack and stack[-1][0] == "A":
            stack.pop()
        else:
            stack.append(entry)
    return stack


def reference_good_nodes(lam, e, i):
    """(good removable, good addable) i-node read off the reduced signature.

    The row-by-row search, one signature per residue: the reference that the
    library's one pass over the corners is checked against.
    """
    reduced = reduced_signature(lam, e, i)
    removable = [r for kind, r in reduced if kind == "R"]
    addable = [r for kind, r in reduced if kind == "A"]
    return (
        (removable[-1], lam[removable[-1] - 1]) if removable else None,
        (addable[0], part(lam, addable[0]) + 1) if addable else None,
    )


def assert_good_nodes_match_reference(lam, e):
    for i in range(e):
        got = (good_removable_node(lam, e, i), good_addable_node(lam, e, i))
        assert got == reference_good_nodes(lam, e, i), (lam, e, i)


def test_good_nodes_match_row_by_row_reference_exhaustively():
    # Every partition, e-regular or not: blocks of e or more equal parts
    # put an addable and a removable node of one residue in the same block.
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert_good_nodes_match_reference(lam, e)


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


@given(partitions_up_to(300, 60, regular=False))
def test_good_nodes_match_row_by_row_reference_on_larger_partitions(case):
    assert_good_nodes_match_reference(*case)


@given(partitions_up_to(600, 120, regular=True))
def test_kleshchev_matches_xu_on_larger_partitions(case):
    # Rank 600 keeps the branching recursion well inside the default limit.
    lam, e = case
    assert kleshchev_oracle(lam, e) == xu(lam, e), (lam, e)


@pytest.mark.parametrize(
    "call",
    [
        lambda: good_removable_node((3, 3), 0, 0),
        lambda: good_removable_node((3, 3), 1, 0),
        lambda: good_removable_node((3, 3), 3.0, 1),
        lambda: good_removable_node((3, 3), 3, 3),
        lambda: good_removable_node((3, 3), 3, 4),
        lambda: good_removable_node((3, 3), 3, -1),
        lambda: good_removable_node((3, 3), 3, 1.0),
        lambda: good_addable_node((3, 3), 0, 0),
        lambda: good_addable_node((3, 3), 1, 0),
        lambda: good_addable_node((3, 3), "3", 0),
        lambda: good_addable_node((3, 3), 3, 3),
        lambda: good_addable_node((3, 3), 3, None),
    ],
)
def test_good_nodes_reject_bad_e_and_residue(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "route",
    [
        kleshchev_oracle,
        kleshchev_trace,
        xu,
        xu_trace,
        mullineux_crystal,
        mullineux_crystal_trace,
        e_rim,
        truncated_e_rim,
        xu_strip,
    ],
)
@pytest.mark.parametrize("e", [3.0, 3.5, "3", None])
def test_routes_reject_non_integer_e(route, e):
    with pytest.raises(InputError, match="e must be an int"):
        route((2, 1), e)


def test_mullineux_crystal_known_images():
    for lam, e, expected in KNOWN_IMAGES:
        for s in range(1, e):
            assert mullineux_crystal(lam, e, s) == expected, (lam, e, s)


def test_mullineux_crystal_flagship():
    for s in (1, 2, 3):
        assert mullineux_crystal(FLAGSHIP, 4, s) == FLAGSHIP_IMAGE, s
    assert mullineux_crystal(FLAGSHIP, 4) == FLAGSHIP_IMAGE


def test_mullineux_crystal_trace_flagship():
    result, steps = mullineux_crystal_trace(FLAGSHIP, 4, 1)
    assert result == FLAGSHIP_IMAGE
    labels = [step[0] for step in steps]
    assert labels == ["split", "lift", "componentwise image", "descend", "merge"]
    by_label = {step[0]: step for step in steps}
    assert by_label["split"][2] == ((10, 8, 7, 2, 1, 1), (5, 4, 4, 3))
    assert by_label["lift"][2] == ((4, 3, 3), (9, 7, 6, 4, 3, 3, 2, 1))
    assert by_label["componentwise image"][2] == ((10,), (14, 7, 7, 3, 3, 1))
    assert by_label["descend"][2] == ((17, 3), (9, 7, 6, 3))
    assert by_label["merge"][2] == (FLAGSHIP_IMAGE,)

    result, steps = mullineux_crystal_trace(FLAGSHIP, 4, 2)
    assert result == FLAGSHIP_IMAGE
    by_label = {step[0]: step for step in steps}
    assert by_label["lift"][2] == ((6, 6), (8, 6, 5, 4, 4, 3, 1, 1, 1))


def test_mullineux_crystal_edge_cases():
    assert mullineux_crystal((), 3) == ()
    # Strict cores conjugate.
    assert mullineux_crystal((2, 1), 4) == (2, 1)
    assert mullineux_crystal((2,), 3) == (1, 1)
    with pytest.raises(InputError):
        mullineux_crystal((3, 3, 3), 3)
    with pytest.raises(InputError):
        mullineux_crystal((3,), 3, 0)
    with pytest.raises(InputError):
        mullineux_crystal((3,), 3, 3)


def test_mullineux_crystal_trace_without_unfolding():
    assert mullineux_crystal_trace((), 3) == ((), [("empty", (0,), ((),))])
    assert mullineux_crystal_trace((2,), 3) == (
        (1, 1),
        [("conjugate strict core", (0,), ((1, 1),))],
    )


def test_three_routes_agree():
    for e in (2, 3, 4):
        for n in range(10):
            for lam in enumerate_e_regular(n, e):
                expected = xu(lam, e)
                assert kleshchev_oracle(lam, e) == expected, (lam, e)
                for s in range(1, e):
                    assert mullineux_crystal(lam, e, s) == expected, (lam, e, s)


def test_involution_properties():
    for e in (2, 3, 4):
        for n in range(10):
            for lam in enumerate_e_regular(n, e):
                image = xu(lam, e)
                assert rank(image) == n, (lam, e)
                assert is_e_regular(image, e), (lam, e)
                assert xu(image, e) == lam, (lam, e)
                if e == 2:
                    assert image == lam, lam


def test_strict_cores_conjugate():
    from mullineux.core import is_strict_e_core

    for e in (3, 4, 5):
        for n in range(10):
            for lam in enumerate_e_regular(n, e):
                if is_strict_e_core(lam, e):
                    assert xu(lam, e) == conjugate(lam), (lam, e)


def test_ak_mullineux_table_from_04():
    # The involution transported between charged sets, domain at (0,4).
    for mp, expected in (
        (((), (3,)), ((), (2, 1))),
        (((1,), (1, 1)), ((1,), (2,))),
        (((), (2, 1)), ((), (3,))),
        (((2,), (1,)), ((1, 1), (1,))),
        (((1, 1), (1,)), ((2,), (1,))),
        (((1,), (2,)), ((1,), (1, 1))),
    ):
        assert ak_mullineux(mp, (0, 4), (0, 5), 3) == expected, mp


def test_ak_mullineux_table_from_01():
    for mp, expected in (
        (((), (3,)), ((), (2, 1))),
        (((1,), (1, 1)), ((1,), (2,))),
        (((1,), (2,)), ((), (3,))),
        (((2,), (1,)), ((1, 1), (1,))),
        (((2, 1), ()), ((2,), (1,))),
        (((3,), ()), ((1,), (1, 1))),
    ):
        assert ak_mullineux(mp, (0, 1), (0, 5), 3) == expected, mp


def test_ak_mullineux_errors():
    with pytest.raises(NoPathError):
        ak_mullineux(((), (3,)), (0, 4), (0, 3), 3)
    with pytest.raises(InputError):
        ak_mullineux(((1, 1), (1,)), (0, 1), (0, 5), 3)


def test_ak_mullineux_is_an_involution_on_the_pair_of_sets():
    # Mapping and mapping back across transposed charges is the identity.
    from mullineux.crystal import enumerate_phi

    e = 3
    for n in range(7):
        for mp in enumerate_phi(n, (0, 1), e):
            out = ak_mullineux(mp, (0, 1), (0, 5), e)
            back = ak_mullineux(out, (0, 5), (0, 1), e)
            assert back == mp, mp


def test_im_sharp_worked_example():
    ms = chi(((3,), (3, 1)), (0, 1), 3)
    assert ms == ((0, 3), (1, 3), (0, 1))
    assert im_sharp(ms, 3) == ((2, 6), (0, 1))
    assert im_sharp(((2, 6), (0, 1)), 3) == ms


def test_im_sharp_edge_cases():
    assert im_sharp((), 3) == ()
    with pytest.raises(InputError):
        im_sharp(((0, 1), (1, 1)), 2)


def test_im_sharp_matches_level_one_involution():
    for e in (2, 3):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                ms = chi((lam,), (0,), e)
                expected = chi((mullineux_crystal(lam, e),), (0,), e)
                assert im_sharp(ms, e) == expected, (lam, e)


def test_im_sharp_involution_on_level_two_images():
    from mullineux.crystal import enumerate_phi

    for e in (2, 3):
        for s in range(e):
            for n in range(8):
                for mp in enumerate_phi(n, (0, s), e):
                    ms = chi(mp, (0, s), e)
                    out = im_sharp(ms, e)
                    assert multisegment_length(out) == n, (mp, s, e)
                    assert im_sharp(out, e) == ms, (mp, s, e)
