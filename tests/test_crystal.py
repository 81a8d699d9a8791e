"""Tests for charged-set membership and the charge-transport isomorphisms."""

import itertools
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import given

import hypothesis.strategies as st

from conftest import (
    aperiodic_multisegments,
    apply_word,
    bipartitions,
    build_symbol,
    charge_tuples,
    decode_symbol,
    expand,
    im_preimage,
    itertools_multipartitions,
    match_step,
    part,
    partitions,
    partitions_up_to,
    reduced_signature,
    walkable,
)

from mullineux.charges import (
    _path_word,
    fundamental_representative,
    is_fundamental,
    transpose_charge,
    very_dominant_representative,
)

from mullineux.core import (
    enumerate_e_regular,
    enumerate_partitions,
    is_strict_e_core,
    rank,
)

from mullineux.crystal import (
    _lift,
    _lower,
    _psi,
    _regrow,
    _strings,
    _walk,
    blockwise_lift,
    blockwise_lower,
    enumerate_phi,
    flotw_check,
    membership,
    psi,
)

from mullineux.errors import InputError, InternalError

from mullineux.involution import ak_mullineux, mullineux_crystal, xu

from mullineux.multisegments import chi

from mullineux.symbols import _match

from mullineux.theta import theta_inverse, theta_l2

# The rank-3 charged sets at e = 3 for three charges in one orbit.
PHI_3_01 = {
    ((), (3,)),
    ((1,), (1, 1)),
    ((1,), (2,)),
    ((2,), (1,)),
    ((2, 1), ()),
    ((3,), ()),
}
PHI_3_04 = {
    ((), (3,)),
    ((1,), (1, 1)),
    ((1,), (2,)),
    ((2,), (1,)),
    ((), (2, 1)),
    ((1, 1), (1,)),
}
PHI_3_10 = {
    ((3,), ()),
    ((1,), (1, 1)),
    ((1,), (2,)),
    ((1, 1), (1,)),
    ((2, 1), ()),
    ((2,), (1,)),
}

# The rank-3 transport (0,1) -> (0,4) at e = 3, row by row.
PSI_3_01_TO_04 = (
    (((), (3,)), ((), (3,))),
    (((1,), (1, 1)), ((1,), (1, 1))),
    (((1,), (2,)), ((), (2, 1))),
    (((2,), (1,)), ((2,), (1,))),
    (((2, 1), ()), ((1, 1), (1,))),
    (((3,), ()), ((1,), (2,))),
)


def test_flotw_check_table():
    for mp, charge, e, expected in (
        ((((1,), (2,))), (0, 1), 3, True),
        ((((1, 1), (1,))), (0, 1), 3, False),
        ((((), ())), (0, 1), 3, True),
        ((((3,), ())), (0, 1), 3, True),
        # Both length-3 first rows exist but their residues do not cover
        # every class mod 3, so the residue condition still holds.
        ((((3,), (3,))), (0, 1), 3, True),
        # Wrap condition: row 3 of the first component must fit under the
        # second component shifted by e - (s2 - s1) = 2 rows.
        ((((1, 1, 1), ())), (0, 1), 3, False),
        # Residue condition: the two length-1 rows cover both classes mod 2.
        ((((1,), (1,))), (0, 1), 2, False),
    ):
        assert flotw_check(mp, charge, e) is expected, (mp, charge)


def test_enumerate_phi_sets():
    assert set(enumerate_phi(3, (0, 1), 3)) == PHI_3_01
    assert set(enumerate_phi(3, (0, 4), 3)) == PHI_3_04
    assert set(enumerate_phi(3, (1, 0), 3)) == PHI_3_10


def filtered_phi(n, s, e):
    """The members of rank n at s by filter and transport: every
    multipartition that meets FLOTW at the fundamental representative,
    carried to s by psi, sorted."""
    f = fundamental_representative(s, e)
    return tuple(sorted(psi(mp, f, s, e) for mp in itertools_multipartitions(n, len(s)) if flotw_check(mp, f, e)))


@pytest.mark.parametrize("e", [2, 3, 4])
def test_enumerate_phi_is_the_filter_and_transport(e):
    # Every charge with entries in -2..2e-1, fundamental or not, at levels
    # 1 to 3.
    for level, top in ((1, 6), (2, 6), (3, 4)):
        for s in itertools.product(range(-2, 2 * e), repeat=level):
            for n in range(top + 1):
                assert enumerate_phi(n, s, e) == filtered_phi(n, s, e), (n, s, e)


def seeded_phi_charges():
    """Three seeded charges for each e in 2..4 at each of levels 4, 5 and 6,
    as (level, e, s), drawn from one seeded generator."""
    rng = random.Random(61)
    return [
        (level, e, tuple(rng.randint(-2 * e, 3 * e) for _ in range(level)))
        for level in (4, 5, 6)
        for e in (2, 3, 4)
        for _ in range(3)
    ]


@pytest.mark.parametrize("level, top", [(4, 4), (5, 3), (6, 3)])
def test_enumerate_phi_is_the_filter_and_transport_at_seeded_charges(level, top):
    for at, e, s in seeded_phi_charges():
        if at == level:
            for n in range(top + 1):
                assert enumerate_phi(n, s, e) == filtered_phi(n, s, e), (n, s, e)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_enumerate_phi_at_level_1_is_the_e_regular_partitions(e):
    # The level-1 component of the empty partition is the e-regular
    # partitions (Misra-Miwa), at every charge.
    for s in range(-1, e + 1):
        for n in range(13):
            members = enumerate_phi(n, (s,), e)
            assert members == tuple(sorted((lam,) for lam in enumerate_e_regular(n, e))), (n, s, e)


def padded_1500(*comps):
    """A level-1500 multipartition: the given components, then empty ones."""
    return comps + ((),) * (1500 - len(comps))


@pytest.mark.parametrize("n, expected", [
    (1, (padded_1500((1,)),)),
    (2, (padded_1500((1,), (1,)), padded_1500((1, 1)), padded_1500((2,)))),
    (3, (
        padded_1500((1,), (1,), (1,)),
        padded_1500((1, 1), (1,)),
        padded_1500((2,), (1,)),
        padded_1500((2, 1)),
        padded_1500((3,)),
    )),
])
def test_enumerate_phi_at_level_1500(n, expected):
    # Each member is a few small components followed by empty ones.
    assert enumerate_phi(n, (0,) * 1500, 3) == expected


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_enumerate_phi_rejects_negative_rank(levels):
    with pytest.raises(InputError, match="^rank must be >= 0, got -1$"):
        enumerate_phi(-1, (0,) * levels, 3)


def test_membership_table():
    for mp, charge, e, expected in (
        ((((1,), (2,))), (0, 1), 3, True),
        ((((1, 1), (1,))), (0, 1), 3, False),
        ((((), (2, 1))), (0, 4), 3, True),
        ((((3,), ())), (0, 4), 3, False),
        ((((2, 1), ())), (1, 0), 3, True),
        ((((), (3,))), (1, 0), 3, False),
    ):
        assert membership(mp, charge, e) is expected, (mp, charge)


# The walk of sigma_1 then tau, which raises the second charge by e, and of
# its inverse, tau inverse then sigma_1; tau^±1 are the k = 0 unwrap and wrap.
SHIFT_UP = (("sigma", 1), ("unwrap", 0, 1))
SHIFT_DOWN = (("wrap", 0, 1), ("sigma", 1))


def test_sigma_walk_examples():
    for mp, charge, c, out, out_charge in (
        (((2, 1), ()), (0, 1), 1, ((1,), (1, 1)), (1, 0)),
        (((3,), ()), (0, 1), 1, ((2,), (1,)), (1, 0)),
    ):
        assert _walk(mp, charge, (("sigma", c),), 3) == (out, out_charge), mp


def test_psi_tau_round_trip():
    moved, charge = _walk(((1,), (2,)), (0, 1), walkable([("tau", 1)]), 3)
    assert (moved, charge) == (((2,), (1,)), (1, 3))
    back, back_charge = _walk(moved, charge, walkable([("tau", -1)]), 3)
    assert (back, back_charge) == (((1,), (2,)), (0, 1))


@pytest.mark.parametrize("j", [-7, -4, -3, -2, -1, 1, 2, 3, 4, 7])
def test_a_tau_run_walks_as_its_expansion(j):
    # tau^j is the k = 0 unwrap (j > 0) or wrap (j < 0), whose whole cycles
    # are one charge update; it must agree with |j| single rotations, also
    # when |j| passes the level and rows wrap more than once.
    e = 3
    word = (("unwrap", 0, j),) if j > 0 else (("wrap", 0, -j),)
    for s in ((2,), (0, 1), (5, -1), (0, 1, 2), (4, 0, -3)):
        for n in range(4):
            for mp in itertools_multipartitions(n, len(s)):
                got = _walk(mp, s, word, e)
                assert got == stepwise_walk(mp, s, word, e), (mp, s, j)
                assert got[1] == apply_word(s, word, e), (mp, s, j)


def test_shift_walk_examples():
    for mp, charge, out, out_charge in (
        (((3,), (3, 1)), (0, 1), ((1,), (3, 3)), (0, 4)),
        (((2,), (1,)), (0, 1), ((2,), (1,)), (0, 4)),
    ):
        assert _walk(mp, charge, SHIFT_UP, 3) == (out, out_charge), mp
        assert _walk(out, out_charge, SHIFT_DOWN, 3) == (mp, charge), mp


def test_shift_walk_round_trip_members():
    for e in (3, 4):
        for s in range(e):
            for n in range(9):
                for mp in enumerate_phi(n, (0, s), e):
                    up, up_charge = _walk(mp, (0, s), SHIFT_UP, e)
                    assert up_charge == (0, s + e)
                    down, down_charge = _walk(up, up_charge, SHIFT_DOWN, e)
                    assert (down, down_charge) == (mp, (0, s)), (mp, s, e)


def test_psi_examples():
    for mp, charge, to, e, expected in (
        (((1,), (2,)), (0, 1), (0, 4), 3, ((), (2, 1))),
        (((1,), (6,)), (0, 8), (0, 2), 3, ((1,), (6,))),
        (((), ()), (0, 1), (0, 4), 3, ((), ())),
        (((1,), (2,)), (0, 1), (0, 1), 3, ((1,), (2,))),
    ):
        assert psi(mp, charge, to, e) == expected, (mp, charge, to)


def test_psi_rank_3_table():
    for mp, expected in PSI_3_01_TO_04:
        assert psi(mp, (0, 1), (0, 4), 3) == expected, mp
        # The inverse transport returns each row to its source.
        assert psi(expected, (0, 4), (0, 1), 3) == mp, mp


def test_psi_bijects_the_charged_sets():
    image = {psi(mp, (0, 1), (0, 4), 3) for mp in PHI_3_01}
    assert image == PHI_3_04
    image = {psi(mp, (0, 1), (1, 0), 3) for mp in PHI_3_01}
    assert image == PHI_3_10


def test_psi_round_trip_and_rank():
    for e in (2, 3):
        for s in range(e):
            targets = ((0, s + e), (s, 0), (s, e), (0, s + 2 * e))
            for n in range(8):
                for mp in enumerate_phi(n, (0, s), e):
                    for to in targets:
                        out = psi(mp, (0, s), to, e)
                        assert sum(map(sum, out)) == n, (mp, to)
                        assert psi(out, to, (0, s), e) == mp, (mp, to)


def test_psi_path_independence():
    # Inserting a detour (two swaps cancel) does not change the transport.
    e = 3
    for n in range(8):
        for mp in enumerate_phi(n, (0, 1), e):
            once, charge = _walk(mp, (0, 1), (("sigma", 1),), e)
            back, charge = _walk(once, charge, (("sigma", 1),), e)
            assert (back, charge) == (mp, (0, 1))
            assert psi(back, (0, 1), (0, 4), e) == psi(mp, (0, 1), (0, 4), e)


def test_psi_is_the_walk_of_its_generators():
    e, s, t = 3, (0, 1), (0, 7)

    def walk(mp, charge, to):
        for gen in walkable(expand(_path_word(charge, to, e))):
            mp, charge = _walk(mp, charge, (gen,), e)
        assert charge == to
        return mp

    for n in range(6):
        for mp in enumerate_phi(n, s, e):
            image = psi(mp, s, t, e)
            assert walk(mp, s, t) == image, mp
            assert walk(image, t, s) == mp, mp


def test_transport_rejects_non_partitions():
    for bad in (((1, 2), ()), ((), (1, 2))):
        for call in (
            lambda: psi(bad, (0, 1), (0, 4), 3),
            lambda: psi(bad, (0, 1), (0, 1), 3),
            lambda: membership(bad, (0, 1), 3),
            lambda: membership(bad, (0, 4), 3),
        ):
            with pytest.raises(InputError):
                call()


@pytest.mark.parametrize(
    "route",
    [
        lambda mp, charge: psi(mp, charge, charge, 3),
        lambda mp, charge: membership(mp, charge, 3),
        lambda mp, charge: flotw_check(mp, charge, 3),
        lambda mp, charge: chi(mp, charge, 3),
    ],
    ids=["psi", "membership", "flotw_check", "chi"],
)
def test_routes_need_one_charge_per_component(route):
    for mp, charge in ((((1,), (), ()), (0, 1)), (((1,), ()), (0, 1, 2))):
        with pytest.raises(InputError, match=f"^{len(mp)} components vs {len(charge)} charges$"):
            route(mp, charge)


def test_psi_rejects_distinct_orbits():
    from mullineux.errors import NoPathError

    with pytest.raises(NoPathError):
        psi(((1,), (2,)), (0, 1), (0, 2), 3)


def stepwise_step(mp, s, gen, e):
    """One generator through the symbol references of conftest: the
    reference for the walk's steps.

    tau and tau inverse, ("tau", 1) and ("tau", -1), rotate the
    components; sigma_c builds the minimal-depth symbol of components c,
    c+1, runs match_step on it and decodes the result back to partitions.
    """
    t = apply_word(s, [gen], e)
    if gen == ("tau", 1):
        return mp[1:] + mp[:1], t
    if gen == ("tau", -1):
        return mp[-1:] + mp[:-1], t
    c = gen[1]
    pair = decode_symbol(match_step(build_symbol(mp[c - 1 : c + 1], s[c - 1 : c + 1])))
    return mp[: c - 1] + pair + mp[c + 1 :], t


def stepwise_walk(mp, s, word, e):
    """Reference transport: one stepwise_step per plain generator of the word."""
    for gen in expand(word):
        mp, s = stepwise_step(mp, s, gen, e)
    return mp, s


def stepwise_psi(mp, s, t, e):
    """Reference for psi on a checked multipartition and charges of one orbit."""
    if s == t:
        return mp
    mp, end = stepwise_walk(mp, s, _path_word(s, t, e), e)
    assert end == t
    return mp


def result_or_error(fn, *args):
    """What a call returns, or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc), str(exc)


def assert_transport_matches_stepwise(mp, s, targets, e):
    """psi to each target, and the walks of each sigma, of tau and tau
    inverse and of the level-2 shifts, against the stepwise reference."""
    for t in targets:
        got = result_or_error(psi, mp, s, t, e)
        assert got == result_or_error(stepwise_psi, mp, s, t, e), (mp, s, t, e)
    words = [[("sigma", c)] for c in range(1, len(s))] + [[("tau", 1)], [("tau", -1)]]
    if len(s) == 2:
        words += [SHIFT_UP, SHIFT_DOWN]
    for word in words:
        assert _walk(mp, s, walkable(word), e) == stepwise_walk(mp, s, word, e), (mp, s, word, e)


def orbit_charge(rng, s, e, spread=2):
    """A random charge in the orbit of s: permuted entries, each moved by a multiple of e."""
    t = list(s)
    rng.shuffle(t)
    return tuple(x + rng.randint(-spread, spread) * e for x in t)


def test_transport_matches_stepwise_reference_exhaustively():
    rng = random.Random(29)
    for level in (1, 2, 3):
        for e in range(2, 6):
            for _ in range(3):
                s = tuple(rng.randint(-e, 2 * e) for _ in range(level))
                targets = [orbit_charge(rng, s, e) for _ in range(2)]
                for n in range(7):
                    for mp in itertools_multipartitions(n, level):
                        assert_transport_matches_stepwise(mp, s, targets, e)


@st.composite
def transport_inputs(draw, max_rank=40):
    """(mp, s, targets, e): up to four components of total rank at most max_rank.

    The two targets lie in the orbit of s.
    """
    level = draw(st.integers(1, 4))
    e = draw(st.integers(2, 6))
    budget = max_rank
    mp = []
    for _ in range(level):
        comp = []
        for p in draw(partitions(max_part=12, max_len=8)):
            if p <= budget:
                comp.append(p)
                budget -= p
        mp.append(tuple(comp))
    s = draw(charge_tuples(level, -2 * e, 3 * e))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return tuple(mp), s, [orbit_charge(rng, s, e, spread=3) for _ in range(2)], e


@given(transport_inputs())
def test_transport_matches_stepwise_reference_on_larger_inputs(case):
    assert_transport_matches_stepwise(*case)


def wide_gap_charges(rng, s, n, e):
    """s and the very dominant charge above it, each with targets moved by up to +-12e.

    Every charge comes with three targets in its orbit: two random ones
    and the very dominant representative for rank n, so the walks cross
    gaps of n and more, where rows pass each other far apart.
    """
    vd = very_dominant_representative(s, n, e)
    for src in (s, vd):
        yield src, [orbit_charge(rng, src, e, spread=12) for _ in range(2)] + [vd]


def test_wide_gap_transport_matches_stepwise_reference_exhaustively():
    """psi against the stepwise reference over wide gaps, levels 1..4.

    The grid must reach runs whose leading (or trailing) reps pass every
    other row far apart and collapse into one charge update."""
    rng = random.Random(37)
    longest_run = 0
    for level, top in ((1, 5), (2, 5), (3, 4), (4, 3)):
        for e in (2, 3, 4):
            s = tuple(rng.randint(-e, 2 * e) for _ in range(level))
            for n in range(top + 1):
                for src, targets in wide_gap_charges(rng, s, n, e):
                    for t in targets:
                        runs = [gen[2] for gen in _path_word(src, t, e) if gen[0] in ("wrap", "unwrap")]
                        longest_run = max([longest_run, *runs])
                        for mp in itertools_multipartitions(n, level):
                            got = result_or_error(psi, mp, src, t, e)
                            assert got == result_or_error(stepwise_psi, mp, src, t, e), (mp, src, t, e)
    assert longest_run > 12


@st.composite
def wide_gap_inputs(draw, max_rank=16):
    """(mp, s, targets, e) as transport_inputs, with very dominant charges
    and targets moved by up to +-12e."""
    mp, s, _, e = draw(transport_inputs(max_rank))
    n = sum(map(sum, mp))
    if draw(st.booleans()):
        s = very_dominant_representative(s, n, e)
    rng = random.Random(draw(st.integers(0, 2**32)))
    targets = [orbit_charge(rng, s, e, spread=12), very_dominant_representative(s, n, e)]
    return mp, s, targets, e


@given(wide_gap_inputs())
def test_wide_gap_transport_matches_stepwise_reference_on_larger_inputs(case):
    mp, s, targets, e = case
    for t in targets:
        assert result_or_error(psi, mp, s, t, e) == result_or_error(stepwise_psi, mp, s, t, e), (mp, s, t, e)
        back = result_or_error(psi, mp, t, s, e)
        assert back == result_or_error(stepwise_psi, mp, t, s, e), (mp, t, s, e)


def test_psi_across_three_million_answers_at_once():
    """psi from (0, 3*10^6 + 1) to (0, 1) at e = 3 takes one run: its reps
    that pass the other row far apart are one charge update.  The image is
    the one from any charge far enough up, here (0, 1 + 3(n + 2))."""
    e, far, low = 3, (0, 3 * 10**6 + 1), (0, 1)
    for n in range(7):
        near = (0, 1 + e * (n + 2))
        for mp in itertools_multipartitions(n, 2):
            image = psi(mp, far, low, e)
            assert image == stepwise_psi(mp, near, low, e), mp
            assert psi(image, low, far, e) == mp, mp
    mp = ((9, 7, 4, 4, 1), (8, 5, 5, 2, 1, 1))
    start = time.perf_counter()
    image = psi(mp, far, low, e)
    assert psi(image, low, far, e) == mp
    assert time.perf_counter() - start < 0.5


def test_psi_across_three_million_answers_at_once_at_level_3():
    """psi from (0, 3*10^6 + 1, 6*10^6 + 2) to (0, 1, 2) at e = 3 takes two
    runs, the top entry's and then the cluster of two, and the whole
    cycles of each run whose reps pass only rows far below are one charge
    update.  The
    image is the one from any charge far enough up, here
    (0, 1 + 3(n + 2), 2 + 6(n + 2))."""
    e, far, low = 3, (0, 3 * 10**6 + 1, 6 * 10**6 + 2), (0, 1, 2)
    for n in range(6):
        near = (0, 1 + e * (n + 2), 2 + 2 * e * (n + 2))
        for mp in itertools_multipartitions(n, 3):
            image = psi(mp, far, low, e)
            assert image == stepwise_psi(mp, near, low, e), mp
            assert psi(image, low, far, e) == mp, mp
    mp = ((9, 7, 4, 4, 1), (8, 5, 5, 2, 1, 1), (6, 3, 3, 1))
    start = time.perf_counter()
    image = psi(mp, far, low, e)
    assert psi(image, low, far, e) == mp
    assert time.perf_counter() - start < 0.5


def test_psi_with_a_word_table_is_psi_without_one():
    # One table serves every multipartition, source and target of one e;
    # it holds one word per pair of distinct charges asked for.
    rng = random.Random(43)
    for e in (2, 3, 4):
        words, pairs = {}, set()
        for level in (1, 2, 3):
            s = tuple(rng.randint(-e, 2 * e) for _ in range(level))
            for t in [s, very_dominant_representative(s, 6, e)] + [orbit_charge(rng, s, e, spread=12) for _ in range(2)]:
                pairs |= {(s, t), (t, s)} - {(s, s)}
                for n in range(5):
                    for mp in itertools_multipartitions(n, level):
                        assert _psi(mp, s, t, e, words) == _psi(mp, s, t, e), (mp, s, t, e)
                        assert _psi(mp, t, s, e, words) == _psi(mp, t, s, e), (mp, t, s, e)
        assert set(words) == pairs
        assert all(words[s, t] == _path_word(s, t, e) for s, t in pairs)


def test_enumerate_phi_walks_no_transport(monkeypatch):
    # The members grow along the crystal at the charge itself, so no
    # multipartition is carried from the fundamental representative.
    import mullineux.crystal as crystal

    s = (0, 30001, 60002)
    expected = filtered_phi(6, s, 3)
    monkeypatch.setattr(crystal, "_psi", lambda *args: pytest.fail(f"enumerate_phi transported {args}"))
    monkeypatch.setattr(crystal, "_walk", lambda *args: pytest.fail(f"enumerate_phi walked {args}"))
    assert len(expected) == 60
    assert enumerate_phi(6, s, 3) == expected


def expanded_walk(mp, s, t, e):
    """psi walked one generator per token, along the expanded path word."""
    return _walk(mp, s, walkable(expand(_path_word(s, t, e))), e)[0]


def test_a_matching_that_fails_inside_a_token_names_its_step(monkeypatch):
    """A matching that leaves the β-sets inside a wrap, an unwrap or a run
    raises the InternalError the expanded walk raises at that step."""
    import mullineux.crystal as crystal

    def fail_at(m):
        calls = []

        def match(s1, s2, row1, row2):
            # A padded row is never empty where a matching runs.
            calls.append(row1)
            return ((row1[0], row1[0]), row2) if len(calls) == m else _match(s1, s2, row1, row2)

        return match

    cases = [
        (((2, 1), (3, 1)), (0, 1), (0, 37), 3),
        (((3, 1), (2, 2)), (0, 40), (0, 1), 3),
        (((2,), (1, 1), (2, 1)), (0, 1, 2), (0, 25, 53), 3),
        (((3, 2, 1), (2, 2), (4, 1)), (0, 40, 80), (0, 1, 2), 3),
        (((3, 2, 1), (2, 2), (4, 1)), (0, 1, 2), (0, 40, 80), 3),
        (((1, 1), (2,), (1,), (3,)), (0, 11, 20, 33), (5, 40, 59, 12), 4),
    ]
    for mp, s, t, e in cases:
        assert any(gen[0] in ("wrap", "unwrap") for gen in _path_word(s, t, e))
        m = 1
        while True:
            monkeypatch.setattr(crystal, "_match", fail_at(m))
            try:
                psi(mp, s, t, e)
            except InternalError as exc:
                got = str(exc)
            else:
                break
            monkeypatch.setattr(crystal, "_match", fail_at(m))
            with pytest.raises(InternalError) as expected:
                expanded_walk(mp, s, t, e)
            assert got == str(expected.value), (mp, s, t, e, m)
            assert re.match(r"^sigma_\d+ at \([-\d, ]+\) left the β-sets: \(\((-?\d+), \1\), \([-\d, ]*\)\)$", got), got
            m += 1
        assert m > 1, (mp, s, t, e)


def test_im_transports_match_stepwise_reference(monkeypatch):
    """psi on both transports of ak_mullineux on every im_sharp preimage
    with e <= 3 and rank <= 6, fundamental -> very dominant and sharp ->
    the transposed charge, against the stepwise reference.  These are the
    transports of the reference route that im_sharp no longer runs."""
    import mullineux.involution as involution

    transports = []
    body = involution._psi
    monkeypatch.setattr(involution, "_psi", lambda *args: transports.append(args) or body(*args))
    inputs = 0
    for e in (2, 3):
        for n in range(1, 7):
            for ms in aperiodic_multisegments(n, e):
                pre, s = im_preimage(ms)
                t = transpose_charge(s)
                chi(ak_mullineux(pre, s, t, e), t, e)
                inputs += 1
    assert len(transports) == 2 * inputs
    for mp, s, t, e in transports:
        assert result_or_error(psi, mp, s, t, e) == result_or_error(stepwise_psi, mp, s, t, e), (mp, s, t, e)


def test_a_walk_that_ends_off_target_is_an_internal_error(monkeypatch):
    # psi checks only where its walk ends; the word is not replayed.
    import mullineux.crystal as crystal

    walk = crystal._walk

    def off_target(mp, s, word, e):
        image, end = walk(mp, s, word, e)
        return image, end[:-1] + (end[-1] + e,)

    monkeypatch.setattr(crystal, "_walk", off_target)
    with pytest.raises(InternalError, match=r"^isomorphism walk ended at \(0, 7\), wanted \(0, 4\)$"):
        psi(((1,), (2,)), (0, 1), (0, 4), 3)
    with pytest.raises(InternalError, match="^isomorphism walk ended at "):
        membership(((1,), (2,)), (0, 4), 3)


def test_sigma_swap_matches_the_full_matching():
    """The walk of sigma_1 on every level-2 pair of rank <= 8, at every gap
    within +-(rank + 2e), against the stepwise reference, which always runs
    the full symbol matching where the walk may only swap the two rows.
    The range holds both swap thresholds, lam_1 + len(mu) and
    -(mu_1 + len(lam)), so a swap one gap short of either gives a wrong
    pair here; one gap late still gives the right pair, and the threshold
    test below counts the matchings.  The first charge moves with e, so the
    swap is seen to read the gap, not the charges."""
    for e in range(2, 6):
        for n in range(9):
            reach = n + 2 * e
            for mp in itertools_multipartitions(n, 2):
                for gap in range(-reach, reach + 1):
                    s = (e - 4, e - 4 + gap)
                    got = _walk(mp, s, (("sigma", 1),), e)
                    assert got == stepwise_walk(mp, s, [("sigma", 1)], e), (mp, s, e)


def test_sigma_swaps_exactly_from_the_containment_threshold(monkeypatch):
    """At s_2 - s_1 >= lam_1 + len(mu) the β-set of lam lies inside that of
    mu and sigma_1 swaps the rows without matching; one step short of it
    (and of the mirror bound) the walk still runs the matching."""
    calls = []
    monkeypatch.setattr("mullineux.crystal._match", lambda *rows: calls.append(rows) or _match(*rows))
    for e in range(2, 6):
        for n in range(1, 9):
            for lam, mu in itertools_multipartitions(n, 2):
                up, down = part(lam, 1) + len(mu), part(mu, 1) + len(lam)
                for gap, matched in ((up, False), (up - 1, True), (-down, False), (1 - down, True)):
                    calls.clear()
                    s = (0, gap)
                    got = _walk((lam, mu), s, (("sigma", 1),), e)
                    assert got == stepwise_walk((lam, mu), s, [("sigma", 1)], e), (lam, mu, s, e)
                    assert bool(calls) is matched, (lam, mu, s, e)
                    assert matched or got == ((mu, lam), (gap, 0)), (lam, mu, s, e)


def test_the_walk_returns_the_rows_it_did_not_match():
    """At a very dominant charge the lift_k_stable word, sigma_1 then tau
    (the k = 0 unwrap), only swaps and rotates, and hands back the input's
    own components; a sigma_1 that matches builds new ones."""
    word = (("sigma", 1), ("unwrap", 0, 1))
    for e in (2, 3, 5):
        for n in range(7):
            for mp in itertools_multipartitions(n, 2):
                for s in range(e):
                    up = very_dominant_representative((0, s), n, e)
                    got, end = _walk(mp, up, word, e)
                    assert got[0] is mp[0] and got[1] is mp[1], (mp, up, e)
                    assert end == (up[0], up[1] + e), (mp, up, e)
                lam, mu = mp
                if lam and mu:
                    s = (0, lam[0] + len(mu) - 1)
                    got, _ = _walk(mp, s, (("sigma", 1),), e)
                    assert not any(new is old for new in got for old in mp if new), (mp, s, e)


def test_im_shaped_lifts_match_stepwise_reference_at_levels_3_to_5():
    """psi on one-row components at the charge of their sorted heads, up
    to the very dominant charge and back, against the stepwise reference.
    These are im_sharp's inputs, with many rows of one part each."""
    rng = random.Random(53)
    for level in (3, 4, 5):
        for e in (2, 3, 4, 5):
            for _ in range(10):
                segs = sorted(((rng.randrange(e), rng.randint(1, 20 // level)) for _ in range(level)),
                              key=lambda seg: (seg[0], -seg[1]))
                s = tuple(head for head, _ in segs)
                mp = tuple((length,) for _, length in segs)
                up = very_dominant_representative(s, sum(map(sum, mp)), e)
                lifted = psi(mp, s, up, e)
                assert lifted == stepwise_psi(mp, s, up, e), (mp, s, up, e)
                assert psi(lifted, up, s, e) == stepwise_psi(lifted, up, s, e) == mp, (mp, s, up, e)


def test_psi_preserves_membership():
    for e in (2, 3):
        for n in range(7):
            for mp in itertools_multipartitions(n, 2):
                for s in range(e):
                    ok = membership(mp, (0, s), e)
                    if ok:
                        out = psi(mp, (0, s), (0, s + e), e)
                        assert membership(out, (0, s + e), e), (mp, s)


def regrown_strings(mp, s, t, e):
    """mp peeled at s down to the empty multipartition one string (i, a) at
    a time by the string kernel (`_strings`), and the strings regrown at t
    with their residues unchanged (`_regrow`), last string first, on one
    list of rows in place."""
    rows = [list(lam) for lam in mp]
    strings = _strings(rows, s, e)
    assert not any(rows), (mp, s, e)
    _regrow(rows, strings, t, e)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("e", [2, 3, 4])
def test_psi_is_the_regrowth_of_the_members_strings(e):
    # A crystal isomorphism fixes the empty multipartition and commutes with
    # every f_i, so psi is the regrowth of a member's own strings at the
    # target.  The kernel shares no code with `_walk`, `_sigma` or `_match`,
    # so this is psi's one check that does not rerun its matching.  The
    # charges have entries in -2..2e-1, most of them not fundamental; the
    # targets are the fundamental and very dominant representatives, the
    # reversed charge and the charge shifted by e.  An unwrap far bound one
    # short in `_walk` fails here.
    cases = 0
    for level, top in ((2, 4), (3, 2)):
        for s in itertools.product(range(-2, 2 * e), repeat=level):
            for n in range(top + 1):
                f, vd = fundamental_representative(s, e), very_dominant_representative(s, n, e)
                for mp in enumerate_phi(n, s, e):
                    for t in {f, vd, s[::-1], tuple(x + e for x in s)}:
                        assert psi(mp, s, t, e) == regrown_strings(mp, s, t, e), (mp, s, t, e)
                        cases += 1
    assert cases == {2: 6037, 3: 19953, 4: 41936}[e]


def peeled_vertex(mp, s, e):
    """The vertex where the string kernel (`_strings`) stops peeling mp at s."""
    rows = [list(lam) for lam in mp]
    _strings(rows, s, e)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("e", [2, 3, 4])
def test_membership_is_peeling_to_the_empty_multipartition(e):
    # The members are the crystal component of the empty multipartition, so
    # a member peels down to it; any other multipartition stops at a
    # nonempty one with no good removable node.  Either way the kernel stops
    # at a highest-weight vertex: no residue's reduced signature keeps an R.
    # Every multipartition of small rank, at charges that are not
    # fundamental, so membership transports each one first.
    cases = members = 0
    for level, top in ((1, 5), (2, 3), (3, 2)):
        for s in itertools.product(range(-2, 2 * e), repeat=level):
            if is_fundamental(s, e):
                continue
            for n in range(top + 1):
                for mp in itertools_multipartitions(n, level):
                    member = membership(mp, s, e)
                    vertex = peeled_vertex(mp, s, e)
                    assert member == (not any(vertex)), (mp, s, e)
                    for i in range(e):
                        assert all(kind == "A" for kind, *_ in reduced_signature(vertex, s, e, i)), (mp, s, e, i)
                    cases += 1
                    members += member
    assert (cases, members) == {2: (3050, 1305), 3: (6910, 4321), 4: (13148, 9284)}[e]


def test_blockwise_lift_flagship():
    lam = (10, 8, 7, 5, 4, 4, 3, 2, 1, 1)
    assert blockwise_lift(lam, 4, 1) == ((4, 3, 3), (9, 7, 6, 4, 3, 3, 2, 1))
    assert blockwise_lift(lam, 4, 2) == ((6, 6), (8, 6, 5, 4, 4, 3, 1, 1, 1))
    # A lift whose first round moves nothing but a later round does.
    assert blockwise_lift((4, 2, 1), 3, 2) == ((3,), (2, 1, 1))


def test_blockwise_lift_empty_first_component_iff_deep_splits():
    # Strict cores may keep a nonempty first component after lifting.
    assert blockwise_lift((1, 1), 3, 2) == ((1,), (1,))


def lift_charge_multiple(n, e, s):
    return max(1, (n - 1 - s) // e + 1)


def test_blockwise_lift_matches_transport():
    for e in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                for s in range(1, e):
                    pair = theta_l2(lam, e, s)
                    k = lift_charge_multiple(n, e, s)
                    lifted = psi(pair, (0, s), (0, s + k * e), e)
                    assert blockwise_lift(lam, e, s) == lifted, (lam, e, s)
                    # One more block of shifts changes nothing.
                    again = psi(pair, (0, s), (0, s + (k + 1) * e), e)
                    assert again == lifted, (lam, e, s)


@given(partitions_up_to(40, 12, regular=True))
def test_blockwise_lift_matches_transport_on_larger_partitions(case):
    lam, e = case
    for s in range(1, e):
        k = lift_charge_multiple(rank(lam), e, s)
        lifted = psi(theta_l2(lam, e, s), (0, s), (0, s + k * e), e)
        assert blockwise_lift(lam, e, s) == lifted, (lam, e, s)


def test_blockwise_lift_core_signals():
    for e in (3, 4):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                for s in range(1, e):
                    lifted = blockwise_lift(lam, e, s)
                    if lifted[1] == ():
                        assert is_strict_e_core(lam, e), (lam, e, s)
                    if lam and not is_strict_e_core(lam, e):
                        assert lifted[0] != (), (lam, e, s)


def test_blockwise_lower_pair_worked_examples():
    # Two full descents checked round for round against hand computation;
    # the descent returns their merged pairs.
    assert stepwise_lower_pair(((10,), (14, 7, 7, 3, 3, 1)), 19, 4) == ((17,), (9, 7, 6, 3, 3))
    assert _lower(((10,), (14, 7, 7, 3, 3, 1)), 4, 1) == (17, 9, 7, 6, 3, 3)
    assert stepwise_lower_pair(((6, 6), (15, 7, 5, 4, 1, 1)), 10, 4) == ((17, 9), (7, 6, 3, 3))
    assert _lower(((6, 6), (15, 7, 5, 4, 1, 1)), 4, 2) == (17, 9, 7, 6, 3, 3)


def stepwise_lower_pair(pair, t, e):
    """Reference descent: a round at every t, t - e, ..., t mod e, moving or not.

    This is the loop the descent ran before it skipped the rounds that
    move no box; from a very dominant start its merged pair must be what
    `_lower` returns, and it must raise the same errors.  It checks the
    whole shape of both components after every round.  `_lower` checks
    only nu1, at the rows it used, and leaves nu2 to a proof, so this loop
    is the only witness of the whole check.
    """
    nu1, nu2 = list(pair[0]), list(pair[1])
    final_t = t % e
    while True:
        used = set()
        for a in range(len(nu2), 0, -1):
            if nu2[a - 1] == 0:
                continue
            r = nu2[a - 1] - a + t
            for j in range(len(nu1), 0, -1):
                if j in used:
                    continue
                c = nu1[j - 1] - j
                if c >= r:
                    break
                k = r - c
                below = nu2[a] if a < len(nu2) else 0
                if k <= nu2[a - 1] and nu2[a - 1] - k >= below:
                    nu2[a - 1] -= k
                    nu1[j - 1] += k
                    used.add(j)
                    break
        while nu2 and nu2[-1] == 0:
            nu2.pop()
        if any(x < y for x, y in zip(nu1, nu1[1:])):
            raise InternalError(f"first component left a round malformed: {nu1}")
        if any(x < y for x, y in zip(nu2, nu2[1:])):
            raise InternalError(f"second component left a round malformed: {nu2}")
        if t == final_t:
            break
        t -= e
    return tuple(p for p in nu1 if p > 0), tuple(nu2)


@pytest.mark.parametrize(
    "pair, shape",
    [(((2, 2), (1,)), "[2, 3]"), (((2, 2), (2, 1)), "[3, 4]")],
)
def test_blockwise_lower_raises_when_a_round_bends_the_first_component(pair, shape):
    # Public pairs that are no componentwise image reach the descent's one
    # live guard: a used row of nu1 outgrows the row above it.
    with pytest.raises(InternalError) as raised:
        blockwise_lower(pair, 2, 1)
    assert str(raised.value) == f"first component left a round malformed: {shape}"


def outcome(engine, *args):
    """What an engine returns, or the InternalError's text when it raises."""
    try:
        return engine(*args)
    except InternalError as exc:
        return str(exc)


def start_charges(n, e):
    """Every (s, t) with t = k*e - s a very dominant start for rank n: from
    the canonical one, the least t >= n, to two multiples of e above it."""
    for s in range(1, e):
        k = lift_charge_multiple(n, e, -s)
        for t in range(k * e - s, (k + 3) * e - s, e):
            yield s, t


def stepwise_lower(pair, t, e):
    """The stepwise reference descent from t, merged as blockwise_lower merges."""
    return theta_inverse(stepwise_lower_pair(pair, t, e))


def test_blockwise_lower_pair_matches_stepwise_reference_exhaustively():
    for e in range(2, 7):
        for n in range(9):
            for pair in itertools_multipartitions(n, 2):
                for s, t in start_charges(n, e):
                    expected = outcome(stepwise_lower, pair, t, e)
                    assert outcome(_lower, pair, e, s) == expected, (pair, t, e)


@st.composite
def descent_inputs(draw, max_rank=80):
    """(pair, s, t, e): a pair of total rank at most max_rank and a very dominant start."""
    e = draw(st.integers(2, 6))
    budget = max_rank
    pair = []
    for comp in draw(bipartitions(max_part=40, max_len=10)):
        kept = []
        for p in comp:
            if p <= budget:
                kept.append(p)
                budget -= p
        pair.append(tuple(kept))
    s, t = draw(st.sampled_from(list(start_charges(sum(map(sum, pair)), e))))
    return tuple(pair), s, t, e


@given(descent_inputs())
def test_blockwise_lower_pair_matches_stepwise_reference_on_larger_pairs(case):
    pair, s, t, e = case
    assert outcome(_lower, pair, e, s) == outcome(stepwise_lower, pair, t, e)


def test_blockwise_lower_starts_at_the_pairs_bound_not_at_the_rank():
    """A pair of rank 5001 whose bound nu1[0] + len(nu2) is 2 takes a round
    or two, each a walk up nu1's 5000 rows, and answers as the
    stepwise reference does from just above that bound, a pair or the same
    InternalError text.

    The time bound only guards against a start read off the rank, which
    would run a round at every charge from 5001 down, each the same walk."""
    pair = ((1,) * 5000, (1,))
    elapsed = 0.0
    for e in (3, 4):
        for s in range(1, e):
            start = time.perf_counter()
            got = outcome(_lower, pair, e, s)
            elapsed += time.perf_counter() - start
            assert got == outcome(stepwise_lower, pair, 3 * e - s, e), (e, s)
    assert _lower(((), (5, 2, 2, 1)), 3, 2) == (5, 2, 2, 1)
    assert elapsed < 0.5


def test_blockwise_lower_stops_once_no_row_of_the_second_component_is_above_the_first():
    """Pairs whose first component ends far up finish within a few rounds.

    Once no row of nu2 lies above nu1's last content, no later round can
    move a box; the descent down to -s mod e would run about a round per
    e of nu1's last part (tens of seconds at this size).  The e = 5 images are
    those of that full descent: its first rounds move boxes, then it idles."""
    big = 10**8
    start = time.perf_counter()
    assert blockwise_lower(((big,), (1,)), 3, 1) == (big, 1)
    expected = {
        1: (big + 3, big - 2, 4, 2),
        2: (big + 2, big - 3, 4, 3, 1),
        3: (big + 6, big - 4, 4, 1),
        4: (big + 5, big - 5, 4, 2, 1),
    }
    for s, image in expected.items():
        assert blockwise_lower(((big, big - 7), (9, 4, 1)), 5, s) == image, s
    assert time.perf_counter() - start < 1.0


def stepwise_lift(lam, e, s):
    """Reference lift: `_lift`'s loop with a whole-shape check after every round.

    This is the loop `_lift` ran before its rounds checked only the rows
    they changed; it must return the same pair and raise the same errors.
    `_lift` checks no shape and leaves lam1, lam2 and mu to the proofs in
    its docstring, so the whole-shape checks after every round here, and
    the end checks, are the only witness of those proofs.
    """
    lam1 = list(lam[: e - s])
    lam2 = list(lam[e - s :])
    t = s
    mu = []
    while True:
        touched = []
        for a in range(1, len(lam1) + 1):
            if lam1[a - 1] == 0:
                continue
            c = lam1[a - 1] - a
            j = 1
            while j <= len(lam2) and lam2[j - 1] - j + t >= c:
                j += 1
            k = c - part(lam2, j) + j - t
            if k <= 0 or k > lam1[a - 1]:
                continue
            if j >= 2 and lam2[j - 2] - (j - 1) + t == c:
                continue
            lam1[a - 1] -= k
            if j > len(lam2):
                lam2.append(k)
            else:
                lam2[j - 1] += k
            touched.append(j)
        if not touched:
            rightmosts = [lam1[a - 1] - a for a in range(1, len(lam1) + 1) if lam1[a - 1] > 0]
            if not rightmosts or t - (len(lam2) + 1) >= max(rightmosts):
                break
            t += e
            continue
        if any(x < y for x, y in zip(lam2, lam2[1:])):
            raise InternalError(f"collected block is not a partition: {lam2}")
        cut = max(touched)
        mu.extend(lam2[:cut])
        lam2 = lam2[cut:]
        t += e - cut
        if any(x < y for x, y in zip(lam1, lam1[1:])):
            raise InternalError(f"first component left a round malformed: {lam1}")
    mu.extend(lam2)
    if any(x < y for x, y in zip(lam1, lam1[1:])):
        raise InternalError(f"first component ended malformed: {lam1}")
    if any(x < y for x, y in zip(mu, mu[1:])):
        raise InternalError(f"second component ended malformed: {mu}")
    return tuple(p for p in lam1 if p > 0), tuple(p for p in mu if p > 0)


def test_lift_matches_stepwise_reference_exhaustively():
    # Every partition, e-regular or not, and every s including 0.
    for e in range(2, 7):
        for n in range(11):
            for lam in enumerate_partitions(n):
                for s in range(e):
                    assert outcome(_lift, lam, e, s) == outcome(stepwise_lift, lam, e, s), (lam, e, s)


@given(partitions_up_to(40, 12, regular=False))
def test_lift_matches_stepwise_reference_on_larger_partitions(case):
    lam, e = case
    for s in range(e):
        assert outcome(_lift, lam, e, s) == outcome(stepwise_lift, lam, e, s), (lam, e, s)


def route_levels(lam, e, s):
    """Every partition the crystal route lifts for lam at split charge s."""
    levels, todo = set(), [lam]
    while todo:
        cur = todo.pop()
        if cur not in levels and not is_strict_e_core(cur, e):
            levels.add(cur)
            todo += stepwise_lift(cur, e, s)
    return levels


@pytest.mark.parametrize("e", [3, 5])
@pytest.mark.parametrize("n", [240, 1000])
def test_engines_match_stepwise_references_on_every_level_of_wide_shapes(n, e):
    """Both engines against their stepwise references on the shapes a long
    input gives them: every level the crystal route visits for seeded
    e-regular partitions of rank 240 or 1000, at s = e - 1.  The descent
    starts from the componentwise images (by xu) at the canonical very
    dominant charge for the level's rank, and blockwise_lower, which starts
    lower, merges what the reference gives from there."""
    s = e - 1
    rng = random.Random(n + e)
    for lam in [random_regular(n, e, rng) for _ in range(3)]:
        for cur in route_levels(lam, e, s):
            lifted = stepwise_lift(cur, e, s)
            assert outcome(_lift, cur, e, s) == lifted, (cur, e, s)
            pair = (xu(lifted[0], e), xu(lifted[1], e))
            t = lift_charge_multiple(rank(cur), e, -s) * e - s
            assert blockwise_lower(pair, e, s) == stepwise_lower(pair, t, e), (pair, e, s)


def random_regular(n, e, rng):
    """A random e-regular partition of n: random parts, then e equal parts
    merged into one until no part repeats e times (Glaisher's map)."""
    mult = Counter()
    while n:
        p = rng.randint(1, min(n, 40))
        mult[p] += 1
        n -= p
    p = 1
    while p <= max(mult):
        q, mult[p] = divmod(mult[p], e)
        if q:
            mult[p * e] += q
        p += 1
    return tuple(sorted(mult.elements(), reverse=True))


@pytest.mark.parametrize("e", [3, 5])
def test_crystal_matches_xu_on_wide_shapes(e):
    """The engines on shapes far past the rank-40 reach of the other tests:
    the staircase 60..1 and three seeded partitions of rank 1,000."""
    rng = random.Random(2107)
    for lam in [tuple(range(60, 0, -1))] + [random_regular(1000, e, rng) for _ in range(3)]:
        image = xu(lam, e)
        for s in range(1, e):
            assert mullineux_crystal(lam, e, s) == image, (lam, e, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda: blockwise_lift((3, 2, 1), 3.0, 1),
        lambda: blockwise_lift((3, 2, 1), 3, 1.0),
        lambda: blockwise_lift((3, 2, 1), "3", 1),
        lambda: blockwise_lift((3, 2, 1), 3, None),
        lambda: blockwise_lower(((1, 1), (2, 2)), "3", 2),
        lambda: blockwise_lower(((1, 1), (2, 2)), 3, "2"),
        lambda: blockwise_lower(((1, 1), (2, 2)), 3.0, 2),
        lambda: blockwise_lower(((1, 1), (2, 2)), 3, 2.0),
        lambda: blockwise_lower(((1, 1), (2, 2)), 3, None),
    ],
)
def test_engines_reject_non_integer_arguments(call):
    with pytest.raises(InputError, match="must be an int"):
        call()


def test_blockwise_lower_flagship():
    assert blockwise_lower(((10,), (14, 7, 7, 3, 3, 1)), 4, 1) == (
        17,
        9,
        7,
        6,
        3,
        3,
    )
    assert blockwise_lower(((6, 6), (15, 7, 5, 4, 1, 1)), 4, 2) == (
        17,
        9,
        7,
        6,
        3,
        3,
    )
    # Single-row source pairs: every box returns to the first component.
    assert blockwise_lower(((1, 1), (2, 2)), 3, 2) == (3, 3)


def test_blockwise_lower_matches_transport():
    # The descended pair merges to the same partition the transport gives.
    for e in (2, 3, 4):
        for n in range(9):
            for lam in enumerate_e_regular(n, e):
                if not lam or is_strict_e_core(lam, e):
                    continue
                for s in range(1, e):
                    lifted = blockwise_lift(lam, e, s)
                    nu = (xu(lifted[0], e), xu(lifted[1], e))
                    k = max(1, (sum(map(sum, nu)) - 1 + s) // e + 1)
                    start = -s + k * e
                    target = psi(nu, (0, start), (0, e - s), e)
                    assert blockwise_lower(nu, e, s) == theta_inverse(target), (
                        lam,
                        e,
                        s,
                    )


def assert_engines_match_psi(lam, e, s):
    """The box-moving lift and descent of a non-core lam agree with psi.

    The lift must equal psi's walk from (0, s) to the very dominant charge;
    psi's descent of the componentwise images (by xu) to (0, e - s) must be
    the member that splits the merged partition blockwise_lower returns.
    """
    n = rank(lam)
    k = lift_charge_multiple(n, e, s)
    lifted = psi(theta_l2(lam, e, s), (0, s), (0, s + k * e), e)
    assert blockwise_lift(lam, e, s) == lifted, (lam, e, s)
    nu = (xu(lifted[0], e), xu(lifted[1], e))
    start = -s + max(1, (n - 1 + s) // e + 1) * e
    descended = psi(nu, (0, start), (0, e - s), e)
    assert descended == theta_l2(blockwise_lower(nu, e, s), e, e - s), (lam, e, s)


def test_engines_match_psi_exhaustively():
    for e in range(2, 7):
        for n in range(13, 17):
            for lam in enumerate_e_regular(n, e):
                if not is_strict_e_core(lam, e):
                    for s in range(1, e):
                        assert_engines_match_psi(lam, e, s)


@st.composite
def regular_inputs(draw, max_rank=80):
    """(lam, e, s): an e-regular partition of rank at most max_rank and s in 1..e-1."""
    e = draw(st.integers(2, 6))
    mults = draw(st.dictionaries(st.integers(1, 30), st.integers(1, e - 1), max_size=10))
    lam = []
    for value in sorted(mults, reverse=True):
        for _ in range(mults[value]):
            if rank(lam) + value <= max_rank:
                lam.append(value)
    return tuple(lam), e, draw(st.integers(1, e - 1))


@given(regular_inputs())
def test_engines_match_psi_on_larger_partitions(case):
    lam, e, s = case
    if not is_strict_e_core(lam, e):
        assert_engines_match_psi(lam, e, s)
    assert mullineux_crystal(lam, e, s) == xu(lam, e), (lam, e, s)
