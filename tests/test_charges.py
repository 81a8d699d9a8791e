"""Tests for charge arithmetic: generators, orbits, words, normal forms."""

import itertools
import random

import pytest

from hypothesis import given

import hypothesis.strategies as st

from conftest import apply_word, charge_tuples, expand, itertools_multipartitions, walkable

from mullineux.charges import (
    InputError,
    _is_fundamental,
    _least_in_class,
    _normalization_word,
    _path_word,
    check_charge,
    fundamental_representative,
    is_fundamental,
    same_orbit,
    sharp_very_dominant,
    transpose_charge,
    very_dominant_representative,
)

from mullineux.crystal import _walk

GENERATORS = (("sigma",), ("tau", 1), ("tau", -1))


def is_very_dominant(s, n):
    """True when consecutive gaps all exceed n - 1."""
    return all(b - a > n - 1 for a, b in zip(s, s[1:]))


def random_word(rng, level, length):
    word = []
    for _ in range(length):
        gen = rng.choice(GENERATORS)
        if gen[0] == "tau":
            word.append(gen)
        elif level >= 2:
            word.append(("sigma", rng.randrange(1, level)))
    return word


def test_generator_tables():
    for s, e, expected in (((0, 1), 3, (1, 3)), ((0, 4), 3, (4, 3)), ((5,), 2, (7,))):
        assert apply_word(s, [("tau", 1)], e) == expected, (s, e)
    for s, c, expected in (((0, 1), 1, (1, 0)), ((3, 1, 2), 2, (3, 2, 1))):
        assert apply_word(s, [("sigma", c)], 3) == expected, (s, c)
    assert apply_word((1, 3), [("tau", -1)], 3) == (0, 1)
    # At level 2 the shift z_1 is tau then sigma_1, and z_2 is sigma_1 then tau.
    assert apply_word((0, 1), [("tau", 1), ("sigma", 1)], 3) == (3, 1)
    assert apply_word((0, 1), [("sigma", 1), ("tau", 1)], 3) == (0, 4)


def test_tau_inverts_tau():
    rng = random.Random(7)
    for _ in range(100):
        level = rng.randrange(1, 5)
        s = tuple(rng.randrange(-8, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        assert apply_word(s, [("tau", 1), ("tau", -1)], e) == s
        assert apply_word(s, [("tau", -1), ("tau", 1)], e) == s


def test_tau_is_shift_after_cycle():
    # Rotating the entries and adding e to the moved one equals tau.
    rng = random.Random(11)
    for _ in range(200):
        level = rng.randrange(1, 5)
        s = tuple(rng.randrange(-8, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        expected = s[1:] + (s[0] + e,)
        assert apply_word(s, [("tau", 1)], e) == expected


def test_check_charge():
    assert check_charge((0, 1)) == (0, 1)
    assert check_charge([2, -3]) == (2, -3)
    for bad in ((), "01", (1.5,)):
        with pytest.raises(InputError):
            check_charge(bad)


def test_is_fundamental_table():
    for s, e, expected in (
        ((0, 1), 3, True),
        ((0, 0), 3, True),
        ((1, 0), 3, False),
        ((0, 3), 3, False),
        ((0, 2), 3, True),
        ((0,), 3, True),
        ((-1, 0, 1), 3, True),
        ((0, 1, 4), 3, False),
    ):
        assert is_fundamental(s, e) is expected, (s, e)
        assert _is_fundamental(s, e) is expected, (s, e)


@pytest.mark.parametrize("e", range(2, 8))
def test_unchecked_is_fundamental_agrees_with_the_definition(e):
    # Every charge of levels 1..3 with entries in -5..5, and the same charge
    # read from a list as check_charge's callers may hand it over.
    for level in (1, 2, 3):
        for s in itertools.product(range(-5, 6), repeat=level):
            expected = list(s) == sorted(s) and s[-1] < s[0] + e
            assert _is_fundamental(s, e) is expected, (s, e)
            assert is_fundamental(list(s), e) is expected, (s, e)


def test_same_orbit_table():
    for s, t, e, expected in (
        ((1, 0), (0, 4), 3, True),
        ((0, 1), (0, 4), 3, True),
        ((0, 1), (0, 2), 3, False),
        ((0,), (3,), 3, True),
        ((0, 0), (0, 1), 3, False),
        ((0,), (0, 3), 3, False),
        ((0, 1), (10**6, 1 - 10**6), 10**6, True),
        ((0, 1), (0, 10**6 + 2), 10**6, False),
        ((-1, 5, 10**6), (5, 0, 2 * 10**6 - 1), 10**6, True),
    ):
        assert same_orbit(s, t, e) is expected, (s, t, e)


def test_least_in_class_exhaustively():
    for e in range(2, 8):
        for floor, r in itertools.product(range(-2 * e, 2 * e + 1), repeat=2):
            v = _least_in_class(floor, r, e)
            assert v >= floor and (v - r) % e == 0, (floor, r, e)
            assert all((x - r) % e for x in range(floor, v)), (floor, r, e)


def test_orbit_invariant_under_generators():
    rng = random.Random(3)
    for _ in range(150):
        level = rng.randrange(1, 4)
        s = tuple(rng.randrange(-6, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        t = apply_word(s, random_word(rng, level, rng.randrange(0, 6)), e)
        assert same_orbit(s, t, e)


def test_transpose_charge():
    for s, expected in (((0, 1), (-1, 0)), ((2,), (-2,)), ((0, 1, 4), (-4, -1, 0))):
        assert transpose_charge(s) == expected, s


def test_sharp_very_dominant_table():
    for s, n, e, expected in (
        ((0, 4), 3, 3, (0, 5)),
        ((0, 4), 7, 3, (0, 8)),
        ((0, 7), 7, 3, (0, 8)),
    ):
        assert sharp_very_dominant(s, n, e) == expected, (s, n, e)


def test_sharp_charge_is_very_dominant_transpose_orbit():
    rng = random.Random(19)
    for _ in range(100):
        level = rng.randrange(1, 4)
        e = rng.randrange(2, 6)
        n = rng.randrange(0, 9)
        f = fundamental_representative(
            tuple(rng.randrange(-6, 9) for _ in range(level)), e
        )
        s = very_dominant_representative(f, n, e)
        sharp = sharp_very_dominant(s, n, e)
        assert is_very_dominant(sharp, n), (s, sharp)
        assert same_orbit(sharp, transpose_charge(s), e), (s, sharp)


def test_fundamental_representative():
    rng = random.Random(5)
    for _ in range(150):
        level = rng.randrange(1, 5)
        s = tuple(rng.randrange(-8, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        f = fundamental_representative(s, e)
        assert is_fundamental(f, e), (s, f)
        assert same_orbit(s, f, e), (s, f)
        # Fundamental representatives are unique per orbit.
        assert fundamental_representative(f, e) == f


def test_very_dominant_representative():
    for s, n, e, expected in (((0, 1), 7, 3, (0, 7)),):
        assert very_dominant_representative(s, n, e) == expected, (s, n, e)
    rng = random.Random(23)
    for _ in range(100):
        level = rng.randrange(1, 4)
        s = tuple(rng.randrange(-6, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        n = rng.randrange(0, 10)
        v = very_dominant_representative(s, n, e)
        assert is_very_dominant(v, n), (s, v)
        assert same_orbit(s, v, e), (s, v)


def test_the_level_2_split_charges_are_one_least_value_each():
    # The crystal route's trace reads its lift and image charges at the
    # fundamental split charge (0, s) as one `_least_in_class` value each.
    for e in range(2, 8):
        for s in range(1, e):
            for n in range(40):
                up = very_dominant_representative((0, s), n, e)
                assert up == (0, _least_in_class(n, s, e)), (e, s, n)
                assert sharp_very_dominant(up, n, e) == (0, _least_in_class(n, -s, e)), (e, s, n)
                # The route's image charge is the lift charge of the split at
                # (0, e - s), so difftest reads the image's lift reference there.
                assert very_dominant_representative((0, e - s), n, e) == sharp_very_dominant(up, n, e), (e, s, n)


def test_normalization_word_lands_fundamental():
    rng = random.Random(13)
    for _ in range(150):
        level = rng.randrange(1, 4)
        s = tuple(rng.randrange(-8, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        f = fundamental_representative(s, e)
        word = _path_word(s, f, e)
        assert is_fundamental(f, e), (s, f)
        assert apply_word(s, word, e) == f, (s, word)


def bubble_normalization_word(s, e):
    """The word from s to its fundamental representative, built as the
    package built it before it inserted the wrapped entry.

    Alternates stable adjacent-swap sorting (strict swaps only) with tau^-1
    whenever the sorted charge still spans e or more, as plain generators.
    """
    t = list(s)
    word = []
    l = len(t)
    while True:
        swapped = True
        while swapped:
            swapped = False
            for c in range(l - 1):
                if t[c] > t[c + 1]:
                    word.append(("sigma", c + 1))
                    t[c], t[c + 1] = t[c + 1], t[c]
                    swapped = True
        if t[-1] < t[0] + e:
            return word
        word.append(("tau", -1))
        t = [t[-1] - e] + t[:-1]


def test_normalization_word_is_the_bubble_sort_word_exhaustively():
    for e in range(2, 6):
        for level in (1, 2, 3):
            for s in itertools.product(range(-6, 7), repeat=level):
                f = fundamental_representative(s, e)
                assert expand(_path_word(s, f, e)) == bubble_normalization_word(s, e), (s, e)


@given(st.integers(1, 5).flatmap(lambda level: charge_tuples(level, -20, 20)), st.integers(2, 7))
def test_normalization_word_is_the_bubble_sort_word(s, e):
    assert expand(_path_word(s, fundamental_representative(s, e), e)) == bubble_normalization_word(s, e)


@given(st.integers(1, 6).flatmap(lambda level: charge_tuples(level, -10**6, 10**6)), st.integers(2, 7))
def test_normalization_word_has_one_wrap_per_descending_cluster(s, e):
    # Each phase of lowerings at one k is one token, and k falls from phase
    # to phase, so the word's length does not grow with the entries' spread.
    word, f = _normalization_word(s, e)
    assert f == fundamental_representative(s, e)
    wraps = [gen[1] for gen in word if gen[0] == "wrap"]
    assert len(wraps) <= 2 * (len(s) - 1)
    assert wraps == sorted(set(wraps), reverse=True)
    assert len(word) - len(wraps) <= len(s) * (len(s) - 1) // 2


def test_a_descending_cluster_is_one_token():
    # 10,000 lowerings of the top entry, then 20,000 of the cluster of two.
    assert _path_word((0, 30001, 60002), (0, 1, 2), 3) == [("wrap", 2, 10000), ("wrap", 1, 20000)]
    assert len(_path_word((0, 1, 2), (0, 30001, 60002), 3)) == 2


def orbit_pairs():
    """(s, t, e) for every pair of charges of one orbit, e in 2..4, with
    entries in -6..6 at level 1, -4..4 at level 2 and -3..3 at level 3."""
    for e in range(2, 5):
        for level, reach in ((1, 6), (2, 4), (3, 3)):
            orbits = {}
            for s in itertools.product(range(-reach, reach + 1), repeat=level):
                orbits.setdefault(tuple(sorted(x % e for x in s)), []).append(s)
            for orbit in orbits.values():
                for s, t in itertools.product(orbit, repeat=2):
                    yield s, t, e


def test_unchecked_path_word_lands_exactly():
    # psi walks the run-length word of _path_word and checks only where the
    # walk ends; the plain action of its expansion lands on t.
    for s, t, e in orbit_pairs():
        assert apply_word(s, expand(_path_word(s, t, e)), e) == t, (s, t, e)


def is_token(gen, l):
    """gen is one token of the grammar the walk reads, at level l."""
    kind, *args = gen
    if kind == "sigma":
        return len(args) == 1 and 1 <= args[0] < l
    return kind in ("wrap", "unwrap") and len(args) == 2 and 0 <= args[0] < l and args[1] >= 1


def test_path_word_tokens_are_the_walks_grammar():
    # _walk reads ("sigma", c), ("wrap", k, r) and ("unwrap", k, r) and
    # checks none of them; expanded to plain generators, with tau^±1 as the
    # k = 0 unwrap and wrap, each word walks a multipartition of rank 3, the
    # next one at each pair, to the same rows and charge.
    mps = {level: itertools.cycle(itertools_multipartitions(3, level)) for level in (1, 2, 3)}
    for s, t, e in orbit_pairs():
        word = _path_word(s, t, e)
        assert all(is_token(gen, len(s)) for gen in word), (s, t, e, word)
        mp = next(mps[len(s)])
        rows, end = _walk(mp, s, word, e)
        assert end == t and _walk(mp, s, walkable(expand(word)), e) == (rows, end), (mp, s, t, e)


def inverse(word):
    """The inverse plain word: reversed, with sigma self-inverse and tau^j inverted to tau^-j."""
    return [("tau", -gen[1]) if gen[0] == "tau" else gen for gen in reversed(word)]


def test_word_then_its_inverse_round_trips():
    rng = random.Random(29)
    for _ in range(150):
        level = rng.randrange(1, 4)
        s = tuple(rng.randrange(-6, 7) for _ in range(level))
        e = rng.randrange(2, 6)
        word = random_word(rng, level, rng.randrange(0, 8))
        t = apply_word(s, word, e)
        assert apply_word(t, inverse(word), e) == s


def test_path_word_lands_exactly():
    assert _path_word((0, 1), (0, 1), 3) == []
    rng = random.Random(31)
    for _ in range(200):
        level = rng.randrange(1, 4)
        s = tuple(rng.randrange(-8, 9) for _ in range(level))
        e = rng.randrange(2, 6)
        t = apply_word(s, random_word(rng, level, rng.randrange(0, 8)), e)
        word = _path_word(s, t, e)
        assert apply_word(s, word, e) == t, (s, t, word)


@given(charge_tuples(3, -8, 8), st.integers(2, 5))
def test_path_word_to_fundamental(s, e):
    f = fundamental_representative(s, e)
    assert apply_word(s, _path_word(s, f, e), e) == f

