"""Tests for the three routes to the involution and the multisegment lift."""

import copy
import importlib
import itertools
import pkgutil
import random
import sys
from bisect import bisect_left
from collections import Counter

import mullineux
import mullineux.core as core
import mullineux.crystal as crystal
import mullineux.involution as involution
from mullineux import difftest

import pytest
from hypothesis import given

from conftest import (
    aperiodic_multisegments,
    branching_image,
    e_rim,
    fundamental_charges,
    good_nodes,
    im_preimage,
    moved,
    partitions_up_to,
    reduced_signature,
    signature,
    truncated_e_rim,
)

from mullineux.core import (
    conjugate,
    enumerate_e_regular,
    enumerate_partitions,
    is_e_regular,
    is_strict_e_core,
    rank,
)

from mullineux.charges import (
    fundamental_representative,
    is_fundamental,
    sharp_very_dominant,
    transpose_charge,
    very_dominant_representative,
)

from mullineux.crystal import _addables, _corners, _regrow, _string_image, _strings, enumerate_phi, psi

from mullineux.errors import InputError, InternalError, NoPathError

from mullineux.involution import (
    ak_mullineux,
    im_sharp,
    kleshchev_oracle,
    kleshchev_trace,
    mullineux_crystal,
    mullineux_crystal_trace,
    xu,
    xu_strip,
    xu_trace,
)

from mullineux.multisegments import canonical, chi, is_aperiodic

from mullineux.theta import theta, theta_inverse

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


def strip_by_rim(lam, e):
    """xu_strip's answer read off the node list of truncated_e_rim.

    The listed nodes of each row must be the rightmost ones of that row.
    """
    rim = truncated_e_rim(lam, e)
    rows = Counter(i for i, _ in rim)
    right_ends = {(i, j) for i, p in enumerate(lam, 1) for j in range(p - rows[i] + 1, p + 1)}
    assert set(rim) == right_ends and len(right_ends) == len(rim), (lam, e)
    rest = tuple(p - rows[i] for i, p in enumerate(lam, 1))
    return tuple(p for p in rest if p), len(rim)


def test_xu_strip_counts_the_truncated_rim_exhaustively():
    for e in range(2, 8):
        for n in range(1, 19):
            for lam in enumerate_partitions(n):
                assert xu_strip(lam, e) == strip_by_rim(lam, e), (lam, e)


@given(partitions_up_to(300, 60, regular=False))
def test_xu_strip_counts_the_truncated_rim_on_larger_partitions(case):
    lam, e = case
    if lam:
        assert xu_strip(lam, e) == strip_by_rim(lam, e), (lam, e)


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
            # kleshchev_trace peels and regrows in flat loops, unlike
            # kleshchev_oracle, which recurses once per i-string (a row has
            # one node per string).
            assert kleshchev_trace(lam, e)[0] == image, (lam[:3], e)
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


def check_calls(call, *more):
    """Calls to core's argument checks, to conjugate and to the functions in
    `more`, made while call() runs, keyed on their names.

    Counted by code object with sys.setprofile, so a check reached under any
    name, from any module, is counted.
    """
    named = (core.check_partition, core.check_multipartition, core._int_arg, core.conjugate, *more)
    codes = {f.__code__: f.__name__ for f in named}
    counts = Counter(dict.fromkeys(codes.values(), 0))

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.mark.parametrize("lam", [(1000,), tuple(range(40, 0, -1))], ids=["row", "staircase"])
@pytest.mark.parametrize("e", [3, 5])
def test_the_crystal_route_checks_its_input_once(lam, e):
    # mullineux_crystal checks lam and e once; the lifts, descents and core
    # tests run on partitions the route built, and only the strict cores it
    # reaches go through the public conjugate, which checks each once.
    counts = check_calls(lambda: mullineux_crystal(lam, e))
    strict_cores = [mu for n in range(e) for mu in enumerate_partitions(n) if core.is_strict_e_core(mu, e)]
    assert counts["check_multipartition"] == 0
    assert counts["_int_arg"] == 1
    assert counts["conjugate"] <= len(strict_cores)
    assert counts["check_partition"] == 1 + counts["conjugate"]
    if (lam, e) == ((1000,), 3):
        assert counts["check_partition"] + counts["_int_arg"] <= 5


def test_difftest_validates_only_route_outputs():
    # difftest runs the unchecked bodies on the partitions it enumerates, on
    # the rows (len(λ),) and on the pairs the crystal route's steps hold: it
    # makes no public xu call, so no route input is checked again.
    more = (crystal._charged_input, core._regular_input, involution.xu)
    counts = check_calls(lambda: difftest.run(2, 4, 8, jobs=1), *more)
    assert counts["_charged_input"] == 0
    assert counts["check_multipartition"] == 0
    assert counts["xu"] == 0
    assert counts["_regular_input"] == 0


class FiledOnce(dict):
    """An images table that fails when a key is filed twice and records each new key."""

    def __init__(self):
        super().__init__()
        self.filed = []

    def __setitem__(self, key, value):
        assert key not in self, key
        self.filed.append(key)
        super().__setitem__(key, value)


def test_difftest_builds_each_transport_word_and_column_image_once(monkeypatch):
    # Each transport word and each xu image is built once per check. One
    # check owns a table of words keyed (s, t). xu's table, shared across
    # ranks as difftest.run shares it, gets each image of a partition or a
    # row (len(λ),) filed once, one for each strip that `_xu` makes.
    built, strips = [], []
    path_word, xu_strip = crystal._path_word, involution.xu_strip
    monkeypatch.setattr(crystal, "_path_word", lambda s, t, e: built.append((s, t)) or path_word(s, t, e))
    monkeypatch.setattr(involution, "xu_strip", lambda lam, e: strips.append(lam) or xu_strip(lam, e))
    for e in range(2, 6):
        xu_images = FiledOnce()
        for n in range(10):
            del built[:], strips[:], xu_images.filed[:]
            difftest.check(e, n, xu_images=xu_images)
            partitions = list(enumerate_e_regular(n, e))
            assert len(built) == len(set(built)) <= 2 * (e - 1) + 1, (e, n)
            # rim_strip_lift strips each nonempty partition once more, itself.
            assert len(strips) == len(xu_images.filed) + len([lam for lam in partitions if lam]), (e, n)
            rows = {((len(lam),), e) for lam in partitions if lam}
            assert {(lam, e) for lam in partitions if lam} | rows <= xu_images.keys(), (e, n)
    assert built


def test_difftest_reads_each_split_as_segments_once(monkeypatch):
    # theta_roundtrip reads λ's segments and each of its e splits' once, and
    # tests λ's aperiodicity once: neither `_flotw` nor a canonical sort runs.
    passes = []
    segments = crystal._segments
    monkeypatch.setattr(crystal, "_segments", lambda mp, s, e: passes.append(mp) or segments(mp, s, e))
    for e in range(2, 6):
        for n in range(10):
            del passes[:]
            counts = check_calls(lambda: difftest.check(e, n), crystal._is_aperiodic, crystal._flotw, canonical)
            partitions = len(list(enumerate_e_regular(n, e)))
            assert len(passes) == (e + 1) * partitions, (e, n)
            assert counts["_is_aperiodic"] == partitions, (e, n)
            assert counts["_flotw"] == counts["canonical"] == 0, (e, n)


def one_pass_roundtrip(lam, tl, s, e):
    """theta_roundtrip's test of the split tl of lam at (0, s), as difftest makes it."""
    segments = sorted(crystal._segments((lam,), (0,), e))
    aperiodic = crystal._is_aperiodic(segments, e)
    return sorted(crystal._segments(tl, (0, s), e)) == segments and aperiodic and crystal._flotw_rows(tl, (0, s), e)


def three_part_roundtrip(lam, tl, s, e):
    """The same test in three parts: tl merges back to lam, is a member at
    (0, s) and has lam's chi."""
    return (
        core._concat(*tl) == lam
        and crystal._flotw(tl, (0, s), e)
        and canonical(crystal._segments(tl, (0, s), e)) == canonical(crystal._segments((lam,), (0,), e))
    )


def split_mutations(tl, s, e):
    """The split tl at charge (0, s), and six near misses: its components
    swapped; tl at the next charge; the last box of one component's last row
    moved to the other's first row, each way; one component's last row moved
    to the other, each way.  A move from an empty component is skipped."""
    yield tl, s
    yield tl[::-1], s
    yield tl, (s + 1) % e
    for c in (0, 1):
        give, take = tl[c], tl[1 - c]
        if not give:
            continue
        less = give[:-1] + (give[-1] - 1,) if give[-1] > 1 else give[:-1]
        more = (take[0] + 1,) + take[1:] if take else (1,)
        for a, b in ((less, more), (give[:-1], tuple(sorted(take + give[-1:], reverse=True)))):
            yield ((a, b) if c == 0 else (b, a)), s


def check_roundtrip_reads_each_split_once(es, top):
    """Compare theta_roundtrip's one-pass test with the three-part test on
    every split theta(λ, (0, s)) of an e-regular λ of rank at most `top`, at
    each e in `es`, and on each split's mutations; returns the numbers of
    cases and of failing cases.  The CI runs it on a wider range.
    """
    cases = failing = 0
    for e in es:
        for n in range(top + 1):
            for lam in enumerate_e_regular(n, e):
                for s in range(e):
                    for tl, t in split_mutations(theta(lam, e, (0, s)), s, e):
                        ok = one_pass_roundtrip(lam, tl, t, e)
                        assert ok == three_part_roundtrip(lam, tl, t, e), (lam, tl, t, e)
                        cases += 1
                        failing += not ok
    return cases, failing


def test_theta_roundtrip_in_one_pass_is_the_three_part_test():
    # Equal (head, length) multisets settle the merge, chi and FLOTW (3);
    # the mutations are splits that theta never makes, and most fail.
    assert check_roundtrip_reads_each_split_once(range(2, 7), 12) == (23742, 18645)


def test_xu_with_a_table_shared_over_ascending_ranks_is_xu_without_one():
    checked = 0
    for e in range(2, 7):
        images = {}
        for n in range(15):
            for lam in enumerate_e_regular(n, e):
                assert involution._xu(lam, e, None, images) == involution._xu(lam, e, None), (lam, e)
                checked += 1
    assert checked == 1531


def module_containers():
    """A copy of every dict, list and set bound at module level in the package."""
    for info in pkgutil.iter_modules(mullineux.__path__):
        importlib.import_module(f"mullineux.{info.name}")
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "mullineux" or name.startswith("mullineux."):
            for attr, value in vars(module).items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    found[name, attr] = copy.deepcopy(value)
    return found


def test_the_routes_leave_no_module_state():
    # Images live in tables owned by each call, or by a difftest run.
    before = module_containers()
    mullineux_crystal((5, 3, 1), 3)
    mullineux_crystal_trace((17, 9, 7, 6, 3, 3), 4)
    kleshchev_oracle((5, 3, 1), 3)
    difftest.run(2, 4, 8, jobs=1)
    assert module_containers() == before
    for name, module in list(sys.modules.items()):
        if name == "mullineux" or name.startswith("mullineux."):
            memos = [attr for attr, value in vars(module).items() if hasattr(value, "cache_clear")]
            assert memos == [], name


def test_a_trace_whose_input_is_already_in_the_table_is_the_fresh_trace():
    images = {}
    involution._crystal(FLAGSHIP, 4, 1, images)
    steps = []
    assert involution._crystal(FLAGSHIP, 4, 1, images, steps) == FLAGSHIP_IMAGE
    assert steps == mullineux_crystal_trace(FLAGSHIP, 4, 1)[1]


def test_a_traced_call_lifts_each_level_once(monkeypatch):
    # The trace reads the top level's lift where the loop made it.
    calls = Counter()
    lift = involution._lift

    def counting(lam, e, s):
        calls[lam, e, s] += 1
        return lift(lam, e, s)

    monkeypatch.setattr(involution, "_lift", counting)
    for lam, e in ((FLAGSHIP, 4), ((60,), 3)):
        for s in range(1, e):
            involution._crystal(lam, e, s, {})
            untraced = calls.copy()
            calls.clear()
            steps = []
            involution._crystal(lam, e, s, {}, steps)
            assert calls == untraced, (lam, e, s)
            assert set(calls.values()) == {1}, (lam, e, s)
            assert ("lift", steps[1][1], lift(lam, e, s)) == steps[1], (lam, e, s)
            calls.clear()


def test_difftest_run_equals_its_checks_on_fresh_tables():
    # The run's shared tables reuse images across ranks and change no result.
    units = [difftest.check(e, n) for e in range(2, 5) for n in range(9)]
    assert difftest.run(2, 4, 8, jobs=1) == difftest.merge(units)


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


def test_kleshchev_trace_records_one_step_per_string():
    # The three removable nodes of (5, 3, 1) all have residue 1 mod 3 and
    # no addable 1-node cancels them, so they come off as one string.
    result, steps = kleshchev_trace((5, 3, 1), 3)
    assert steps == [
        ("peel 3 nodes of residue 1", (0,), ((4, 2),)),
        ("peel 2 nodes of residue 0", (0,), ((3, 1),)),
        ("peel 2 nodes of residue 2", (0,), ((2,),)),
        ("peel residue 1", (0,), ((1,),)),
        ("peel residue 0", (0,), ((),)),
        ("grow residue 0", (0,), ((1,),)),
        ("grow residue 2", (0,), ((1, 1),)),
        ("grow 2 nodes of residue 1", (0,), ((2, 1, 1),)),
        ("grow 2 nodes of residue 0", (0,), ((2, 2, 1, 1),)),
        ("grow 3 nodes of residue 2", (0,), ((3, 2, 2, 1, 1),)),
    ]
    assert result == steps[-1][2][0] == kleshchev_oracle((5, 3, 1), 3)


def test_kleshchev_trace_matches_the_oracle_exhaustively():
    # The trace's loop and the oracle's recursion run the same two passes.
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_e_regular(n, e):
                img, steps = kleshchev_trace(lam, e)
                assert img == kleshchev_oracle(lam, e), (lam, e)
                last = steps[-1][2] if steps else ((),)  # the empty partition has no step
                assert last == (img,), (lam, e)


def test_kleshchev_long_inputs_at_default_recursion_limit():
    # The recursion goes one call deeper per i-string, and the staircase
    # 50..1 of rank 1275 has far fewer strings than nodes.
    staircase = tuple(range(50, 0, -1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for e in (3, 5):
            assert kleshchev_oracle(staircase, e) == xu(staircase, e), e
    finally:
        sys.setrecursionlimit(limit)


def test_kleshchev_matches_the_crystal_reference_exhaustively():
    # One table per e, shared across ranks, as difftest.run keeps them.
    for e in range(2, 8):
        images = {}
        for n in range(15):
            for lam in enumerate_e_regular(n, e):
                assert (involution._kleshchev(lam, e, images),) == branching_image((lam,), (0,), e), (lam, e)


@given(partitions_up_to(600, 120, regular=True))
def test_kleshchev_matches_the_crystal_reference_on_larger_partitions(case):
    lam, e = case
    assert (kleshchev_oracle(lam, e),) == branching_image((lam,), (0,), e), (lam, e)


def test_good_nodes_cancelation():
    # The highest addable and lowest removable survive the pairing for (3,3).
    assert involution._kleshchev_peel((3, 3), 3) == (1, 1, (3, 2))
    assert involution._kleshchev_grow((3, 3), 3, 0, 1) == (4, 3)
    # (1,1)'s one removable node is cancelled by the addable node above it.
    with pytest.raises(InternalError):
        involution._kleshchev_peel((1, 1), 2)


def assert_steps_match_reference(lam, e):
    # The regrowth of residue i adds the A rows of its reduced signature and
    # no more; the peel takes the R rows of the least residue that has one.
    removables = []
    for i in range(e):
        reduced = reduced_signature((lam,), (0,), e, i)
        removables.append([r for kind, _, r in reduced if kind == "R"])
        addable = [r for kind, _, r in reduced if kind == "A"]
        grown = (lam,)
        for r in addable:
            grown = moved(grown, (0, r), 1)
        assert involution._kleshchev_grow(lam, e, i, len(addable)) == grown[0], (lam, e, i)
        with pytest.raises(InternalError):
            involution._kleshchev_grow(lam, e, i, len(addable) + 1)
    i = next((i for i, rows in enumerate(removables) if rows), None)
    if i is None:
        with pytest.raises(InternalError):
            involution._kleshchev_peel(lam, e)
        return
    peeled = (lam,)
    for r in removables[i]:
        peeled = moved(peeled, (0, r), -1)
    assert involution._kleshchev_peel(lam, e) == (i, len(removables[i]), peeled[0]), (lam, e)


def test_signatures_match_row_by_row_reference_exhaustively():
    # Every partition, e-regular or not: blocks of e or more equal parts
    # put an addable and a removable node of one residue in the same block.
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert_steps_match_reference(lam, e)


@given(partitions_up_to(300, 60, regular=False))
def test_signatures_match_row_by_row_reference_on_larger_partitions(case):
    assert_steps_match_reference(*case)


def kleshchev_chain(lam, e):
    """`_kleshchev_peel` iterated on lam until it empties lam or raises: the
    strings (i, k) it took and the partition it stopped at."""
    strings = []
    while lam:
        try:
            i, k, lam = involution._kleshchev_peel(lam, e)
        except InternalError:
            break
        strings.append((i, k))
    return strings, lam


def kernel_chain(lam, e):
    """`crystal._strings` at the level-1 charge (0,): its strings and the vertex it stops at."""
    rows = [list(lam)]
    strings = _strings(rows, (0,), e)
    return strings, tuple(rows[0])


def kernel_grow(lam, e, j, k):
    """`crystal._regrow` of the one string (j, k) at the level-1 charge (0,): f_j^k lam."""
    rows = [list(lam)]
    _regrow(rows, [(j, k)], (0,), e)
    return tuple(rows[0])


def outcome(step, *args):
    try:
        return step(*args)
    except InternalError:
        return InternalError


def check_steps_are_the_kernel(es, top):
    """Compare the branching route's steps with the string kernel at (0,) on
    every partition of rank at most `top`, e-regular or not, at each e in
    `es`; returns the number of (partition, e) pairs.  The peel's whole
    chain must take the kernel's strings and stop where it stops, and each
    regrowth of one string must match, both sides raising InternalError on
    the same inputs.  The CI runs it on a wider range.
    """
    pairs = 0
    for e in es:
        for n in range(top + 1):
            for lam in enumerate_partitions(n):
                assert kleshchev_chain(lam, e) == kernel_chain(lam, e), (lam, e)
                for j in range(e):
                    for k in (1, 2, 3):
                        grown = outcome(involution._kleshchev_grow, lam, e, j, k)
                        assert grown == outcome(kernel_grow, lam, e, j, k), (lam, e, j, k)
                pairs += 1
    return pairs


def test_level_one_steps_are_the_string_kernel_at_charge_zero():
    # The level-1 copy of the branching rule and the level-k string kernel
    # take the same strings: what a swap of one for the other relies on.
    assert check_steps_are_the_kernel(range(2, 7), 16) == 4575


@given(partitions_up_to(600, 120, regular=True))
def test_kleshchev_matches_xu_on_larger_partitions(case):
    # Rank 600 keeps the branching recursion well inside the default limit.
    lam, e = case
    assert kleshchev_oracle(lam, e) == xu(lam, e), (lam, e)


@pytest.mark.parametrize(
    "route",
    [
        kleshchev_oracle,
        kleshchev_trace,
        xu,
        xu_trace,
        mullineux_crystal,
        mullineux_crystal_trace,
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


def test_mullineux_crystal_trace_lifts_to_and_lands_at_the_charges_of_ak_mullineux():
    """The trace's lift charge is very_dominant_representative((0, s), n, e)
    and its componentwise image sits at sharp_very_dominant of that charge,
    the pair ak_mullineux lifts to and lands at."""
    for e in range(2, 7):
        for n in range(13):
            for lam in enumerate_e_regular(n, e):
                if is_strict_e_core(lam, e):
                    continue
                for s in range(1, e):
                    charges = {label: charge for label, charge, _ in mullineux_crystal_trace(lam, e, s)[1]}
                    up = very_dominant_representative((0, s), n, e)
                    assert charges["lift"] == up, (lam, e, s)
                    assert charges["componentwise image"] == sharp_very_dominant(up, n, e), (lam, e, s)


def test_strict_cores_of_rank_at_most_s_lift_alike_to_both_very_dominant_charges():
    """Below rank s + 1, (0, s) is itself very dominant, and difftest lifts
    a strict core's split there; one block of shifts more changes nothing."""
    for e in range(2, 9):
        for s in range(1, e):
            for n in range(s + 1):
                for lam in enumerate_e_regular(n, e):
                    if is_strict_e_core(lam, e):
                        pair = theta(lam, e, (0, s))
                        assert psi(pair, (0, s), (0, s), e) == psi(pair, (0, s), (0, s + e), e), (lam, e, s)


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
    e = 3
    for n in range(7):
        for mp in enumerate_phi(n, (0, 1), e):
            out = ak_mullineux(mp, (0, 1), (0, 5), e)
            back = ak_mullineux(out, (0, 5), (0, 1), e)
            assert back == mp, mp


def test_good_addable_steps_from_empty_reach_the_member_sets():
    # The sets reached from the empty multipartition by the reference's good
    # addable steps are the FLOTW sets.  This pins its tie rule: read by
    # decreasing key, with ties broken by decreasing component instead, 81
    # of these 105 cases differ.
    cases = 0
    for e in range(2, 5):
        for s in ((0, 0), (0, 1), (0, 2), (0, 1, 1), (0, 0, 2), (1, 2, 3)):
            if not is_fundamental(s, e):
                continue
            reached = {((),) * len(s)}
            for n in range(7):
                assert reached == set(enumerate_phi(n, s, e)), (s, e, n)
                cases += 1
                reached = {moved(mp, node, 1) for mp in reached for i in range(e) if (node := good_nodes(mp, s, e, i)[1])}
    assert cases == 105


def test_ak_mullineux_matches_the_crystal_reference():
    # m(empty) = empty and m(f_i x) = f_{-i} m(x) fix the map from a
    # fundamental charge s to transpose_charge(s) node by node.
    members = 0
    for e in range(2, 6):
        for level, top in ((1, 7), (2, 7), (3, 5)):
            for s in fundamental_charges(e, level):
                t = transpose_charge(s)
                for n in range(top + 1):
                    for mp in enumerate_phi(n, s, e):
                        assert ak_mullineux(mp, s, t, e) == branching_image(mp, s, e), (mp, s, e)
                        members += 1
    assert members == 4530


def test_split_identity_holds_at_every_level():
    # The paper's identity m_e = theta^-1 . ak_mullineux . theta, from a
    # fundamental charge s to transpose_charge(s), through the level >= 3
    # transports as well as the level-2 ones.
    cases = 0
    for e in range(2, 7):
        for level in (2, 3, 4):
            for s in fundamental_charges(e, level):
                t = transpose_charge(s)
                for n in range(9):
                    for lam in enumerate_e_regular(n, e):
                        image = theta_inverse(ak_mullineux(theta(lam, e, s), s, t, e))
                        assert image == xu(lam, e), (lam, e, s)
                        cases += 1
    assert cases == 11426


REFERENCE_CASES = [(e, level, top) for e in range(2, 6) for level, top in ((1, 7), (2, 7), (3, 5))]


@pytest.mark.parametrize("e, level, top", REFERENCE_CASES)
def test_crystal_reference_is_a_bijection_inverted_at_the_transposed_charge(e, level, top):
    # The reference maps the members at s onto the members at
    # transpose_charge(s), and the reference read from there maps back.
    for s in fundamental_charges(e, level):
        t = transpose_charge(s)
        assert transpose_charge(t) == s and is_fundamental(t, e), (s, e)
        for n in range(top + 1):
            members = enumerate_phi(n, s, e)
            images = [branching_image(mp, s, e) for mp in members]
            assert sorted(images) == sorted(enumerate_phi(n, t, e)), (s, e, n)
            for mp, image in zip(members, images):
                assert branching_image(image, t, e) == mp, (mp, s, e)


@pytest.mark.parametrize("e, level, top", REFERENCE_CASES)
def test_crystal_reference_does_not_depend_on_the_peeling_order(e, level, top):
    # Any path from the empty multipartition fixes the image, so peeling the
    # greatest residue first gives the image of peeling the least first.
    for s in fundamental_charges(e, level):
        for n in range(top + 1):
            for mp in enumerate_phi(n, s, e):
                assert branching_image(mp, s, e, range(e - 1, -1, -1)) == branching_image(mp, s, e), (mp, s, e)


STRING_CASES = [(e, level, top) for e in range(2, 6) for level, top in ((1, 7), (2, 6), (3, 5), (4, 4))]


def string_image(mp, s, t, e):
    """`crystal._string_image` of a member mp, on a list of its rows."""
    rows = [list(lam) for lam in mp]
    _string_image(rows, s, t, e)
    return tuple(map(tuple, rows))


def kernel_peel_passes(monkeypatch, mp, s, e):
    """`crystal._strings` run on mp at s: its strings, the rows each of its
    corner passes read, and the vertex it stops at."""
    passes = []

    def recorded(rows, s, e, j=None):
        passes.append(tuple(map(tuple, rows)))
        return _corners(rows, s, e, j)

    rows = [list(lam) for lam in mp]
    with monkeypatch.context() as m:
        m.setattr(crystal, "_corners", recorded)
        strings = _strings(rows, s, e)
    return strings, passes, tuple(map(tuple, rows))


def reference_peel(mp, s, e):
    """(i, a, e_i^a mp) for the least residue i with a good removable node of
    mp at s, its good removable i-nodes taken off one at a time."""
    i = min(j for j in range(e) if good_nodes(mp, s, e, j)[0])
    a = 0
    while (node := good_nodes(mp, s, e, i)[0]) is not None:
        mp = moved(mp, node, -1)
        a += 1
    return i, a, mp


def reference_grow(mp, t, e, j, a):
    """f_j^a mp at t, the good addable j-node added a times, and how many of
    those nodes started a row one past their component's end."""
    appended = 0
    for _ in range(a):
        c, r = good_nodes(mp, t, e, j)[1]
        appended += r == len(mp[c]) + 1
        mp = moved(mp, (c, r), 1)
    return mp, appended


@pytest.mark.parametrize("e, level, top", STRING_CASES)
def test_string_kernel_matches_the_crystal_reference_node_by_node(e, level, top, monkeypatch):
    # Each string the kernel peels (`_strings`) is the least residue with a
    # good removable node, taken node by node until none is left: its corner
    # passes read the states the reference passes through, one per string
    # and none at the empty multipartition.  Each string it regrows, as a
    # single-string `_regrow`, is that many good addable nodes of the
    # negated residue.
    for s in fundamental_charges(e, level):
        t = transpose_charge(s)
        for n in range(top + 1):
            for mp in enumerate_phi(n, s, e):
                cur, states, expected = mp, [], []
                while any(cur):
                    states.append(cur)
                    i, a, cur = reference_peel(cur, s, e)
                    expected.append((i, a))
                assert kernel_peel_passes(monkeypatch, mp, s, e) == (expected, states, cur), (mp, s, e)
                rows = [list(lam) for lam in cur]
                for i, a in reversed(expected):
                    cur = reference_grow(cur, t, e, -i % e, a)[0]
                    _regrow(rows, [(-i % e, a)], t, e)
                    assert tuple(map(tuple, rows)) == cur, (mp, s, e, i, a)
                assert cur == string_image(mp, s, t, e) == branching_image(mp, s, e), (mp, s, e)


@pytest.mark.parametrize("e, level, top", STRING_CASES)
def test_one_pass_reductions_match_the_reference_signatures(e, level, top):
    # `_corners` sorts the corners once, by residue and each residue's run in
    # signature order, or builds residue j's run alone.  `_strings` reduces
    # the runs in increasing residue order and stops each pass after the
    # first with a good removable node: run from mp and from the reference
    # e_i^max mp, it takes that one string first and then the same strings.
    # `_addables` keeps every run's whole stack of addable nodes, or residue
    # j's alone.  Members with empty components and residues with no corner
    # are among the cases.
    for s in fundamental_charges(e, level):
        for n in range(top + 1):
            for mp in enumerate_phi(n, s, e):
                nodes = _corners(mp, s, e)
                assert nodes == sorted(nodes), (mp, s, e)
                for i in range(e):
                    run = nodes[bisect_left(nodes, (i,)) : bisect_left(nodes, (i + 1,))]
                    assert [("A" if kind else "R", c, r) for _, _, c, r, kind in run] == signature(mp, s, e, i)
                    assert _corners(mp, s, e, i) == run, (mp, s, e, i)
                addables = _addables(mp, s, e)
                assert sorted(addables) == sorted({i for i, *_ in nodes}), (mp, s, e)
                for i in range(e):
                    stack = [(c, r) for kind, c, r in reduced_signature(mp, s, e, i) if kind == "A"]
                    assert addables.get(i, []) == stack, (mp, s, e, i)
                    assert _addables(mp, s, e, i) == ({i: stack} if i in addables else {}), (mp, s, e, i)
                if not any(mp):
                    continue
                removables = [[(c, r) for kind, c, r in reduced_signature(mp, s, e, i) if kind == "R"] for i in range(e)]
                i = next(i for i, removable in enumerate(removables) if removable)
                peeled = mp
                for node in removables[i]:
                    peeled = moved(peeled, node, -1)
                rows, rest = [list(lam) for lam in mp], [list(lam) for lam in peeled]
                assert _strings(rows, s, e) == [(i, len(removables[i])), *_strings(rest, s, e)], (mp, s, e)
                assert rows == rest, (mp, s, e)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_move_is_the_reference_move_of_every_kernel_string(e, monkeypatch):
    # The kernel peels and regrows one list of rows in place; the reference
    # rebuilds a tuple of tuples per node (`moved`).  Every string that
    # `_string_image` peels or regrows at levels 1-4 is moved both ways,
    # the reference node by node: a peel is checked against the rows that
    # `_strings`' next corner pass reads, a regrowth against a single-string
    # `_regrow`.  Among the moves are components emptied to () and rows
    # appended one past a component's end, and the image's rows stay lists
    # of positive parts, which `_segments` reads as segments.
    emptied = appended = 0
    for level, top in ((1, 6), (2, 5), (3, 4), (4, 3)):
        for s in fundamental_charges(e, level):
            t = transpose_charge(s)
            for n in range(top + 1):
                for mp in enumerate_phi(n, s, e):
                    strings, passes, cur = kernel_peel_passes(monkeypatch, mp, s, e)
                    assert len(passes) == len(strings) and not any(cur), (mp, s, e)
                    for (i, a), before, after in zip(strings, passes, [*passes[1:], cur]):
                        assert reference_peel(before, s, e) == (i, a, after), (mp, s, e, i, a)
                        emptied += sum(1 for c in range(level) if before[c] and not after[c])
                    rows = [list(lam) for lam in cur]
                    for i, a in reversed(strings):
                        cur, new = reference_grow(cur, t, e, -i % e, a)
                        appended += new
                        _regrow(rows, [(-i % e, a)], t, e)
                        assert tuple(map(tuple, rows)) == cur, (mp, s, e, i, a)
                    image = [list(lam) for lam in mp]
                    _string_image(image, s, t, e)
                    assert image == rows and all(type(lam) is list and all(lam) for lam in image), (mp, s, e)
    assert emptied and appended


@pytest.mark.parametrize("e", [2, 3, 4])
def test_ak_mullineux_is_the_string_kernel_on_the_sharp_orbit(e):
    # ak_mullineux lifts, runs xu on each component and transports; the
    # kernel peels and regrows the strings with negated residues.  Both fix
    # the empty multipartition and send f_i x to f_{-i} of the image, so
    # they agree at every target in the orbit where ak_mullineux lands: its
    # sharp very dominant charge, the transposed charge, that charge's
    # fundamental representative, and the representative shifted by e.
    cases = 0
    for level, top in ((2, 3), (3, 2)):
        for s in itertools.product(range(-1, e + 1), repeat=level):
            f = fundamental_representative(transpose_charge(s), e)
            for n in range(top + 1):
                sharp = sharp_very_dominant(very_dominant_representative(s, n, e), n, e)
                targets = {sharp, transpose_charge(s), f, tuple(x + e for x in f)}
                for mp in enumerate_phi(n, s, e):
                    for t in targets:
                        assert ak_mullineux(mp, s, t, e) == string_image(mp, s, t, e), (mp, s, t, e)
                        cases += 1
    assert cases == {2: 1777, 3: 4791, 4: 9048}[e]


def test_im_sharp_validates_no_multipartition(monkeypatch):
    # im_sharp checks its multisegment and runs the unchecked bodies on the
    # multipartitions and charges it builds, so none of them is checked
    # again.  chi and ak_mullineux check their input with crystal's
    # `_charged_input`, so one module covers all three; a charge is checked
    # by whichever module's `check_charge` its caller imported.
    calls, charge_calls = [], []
    check = crystal.check_multipartition
    monkeypatch.setattr(crystal, "check_multipartition", lambda mp: calls.append(mp) or check(mp))
    check_charge = mullineux.charges.check_charge
    for module in vars(mullineux).values():
        if getattr(module, "check_charge", None) is check_charge:
            monkeypatch.setattr(module, "check_charge", lambda s: charge_calls.append(s) or check_charge(s))
    assert im_sharp(((0, 3), (1, 3), (0, 1)), 3) == ((2, 6), (0, 1))
    assert im_sharp(((0, 2), (1, 1), (1, 1)), 2) == ((0, 2), (1, 1), (1, 1))
    assert calls == [] and charge_calls == []
    ak_mullineux(((1,), (2,)), (0, 1), (0, 5), 3)
    assert calls == [((1,), (2,))]


def test_im_sharp_walks_no_transport(monkeypatch):
    # The strings regrow at the fundamental charge where chi reads them, so
    # psi is never asked to move a multipartition.
    monkeypatch.setattr(crystal, "_walk", lambda *args: pytest.fail(f"im_sharp walked {args}"))
    for e in (2, 3, 4):
        for ms in aperiodic_multisegments(6, e):
            im_sharp(ms, e)


def test_an_im_call_makes_one_corner_pass_per_string(monkeypatch):
    # The peel counts the rank down, so it reads the corners once per string
    # it takes and never at the empty multipartition it ends at; the
    # regrowth reads one residue's corners once per string.  On the
    # benchmark's im inputs that is 11,918 passes.
    passes = []
    monkeypatch.setattr(
        crystal, "_corners", lambda mp, s, e, j=None: passes.append((j, any(mp))) or _corners(mp, s, e, j)
    )
    inputs = [(ms, e) for e, rank in ((2, 8), (3, 8), (4, 6)) for ms in aperiodic_multisegments(rank, e)]
    total = 0
    for ms, e in inputs:
        passes.clear()
        im_sharp(ms, e)
        peels = [nonempty for j, nonempty in passes if j is None]
        assert all(peels) and len(peels) == len(passes) - len(peels), (ms, e, passes)
        assert passes[: len(peels)] == [(None, True)] * len(peels), (ms, e, passes)
        total += len(passes)
    assert (len(inputs), total) == (1353, 11918)


def test_a_lift_that_is_not_e_regular_is_an_internal_error(monkeypatch):
    # The lift of a member has e-regular components; a lift without them is a
    # fault of the transport, not of the input.
    monkeypatch.setattr(involution, "_psi", lambda *args: ((1, 1, 1), ()))
    with pytest.raises(InternalError, match=r"^the lift of \(\(1,\), \(2,\)\) to .* is not 3-regular: \(1, 1, 1\)$"):
        ak_mullineux(((1,), (2,)), (0, 1), (0, 5), 3)


# The routes' own guards: each names a fault of the program, which no
# well-formed input reaches, so a stand-in for the helper it guards trips it.
@pytest.mark.parametrize(
    "helper, stand_in, route, message",
    [
        ("_lift", lambda lam, e, s: ((), (1,)), mullineux_crystal, "lift of (3,) lost its first component"),
        ("_lift", lambda lam, e, s: ((1,), ()), mullineux_crystal, "lift of non-core (3,) has an empty second component"),
    ],
)
def test_route_guards_raise_internal_errors(monkeypatch, helper, stand_in, route, message):
    monkeypatch.setattr(involution, helper, stand_in)
    with pytest.raises(InternalError) as info:
        route((3,), 3)
    assert type(info.value) is InternalError and str(info.value) == message


# The string kernel's guards, tripped the same way: a peel that finds no
# corner has no removable node, and a regrowth that finds no corner of its
# residue (`_corners` with j given) has no addable node.
@pytest.mark.parametrize(
    "stand_in, message",
    [
        (lambda mp, s, e, j=None: [], "no residue has a good removable node in ((1,), (2,)) at (0, 1) mod 3"),
        (
            lambda mp, s, e, j=None: _corners(mp, s, e) if j is None else [],
            "a 2-string of length 1 does not regrow on ((), ()) at (-1, 0) mod 3: 0 good addable nodes",
        ),
    ],
    ids=["peel", "regrow"],
)
def test_string_kernel_guards_raise_internal_errors(monkeypatch, stand_in, message):
    monkeypatch.setattr(crystal, "_corners", stand_in)
    with pytest.raises(InternalError) as info:
        im_sharp(((0, 1), (1, 2)), 3)
    assert type(info.value) is InternalError and str(info.value) == message


# The branching route's steps guard their own corners, so a call on an
# input that no route passes trips each guard: the empty partition has no
# removable node, and one addable node of residue 0 mod 3.
@pytest.mark.parametrize(
    "step, args, message",
    [
        (involution._kleshchev_peel, ((), 3), "() has no good removable node mod 3"),
        (involution._kleshchev_grow, ((), 3, 0, 2), "() has 1 good addable nodes of residue 0, not 2"),
    ],
    ids=["peel", "grow"],
)
def test_kleshchev_step_guards_raise_internal_errors(step, args, message):
    with pytest.raises(InternalError) as info:
        step(*args)
    assert type(info.value) is InternalError and str(info.value) == message


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
    for e in (2, 3):
        for s in range(e):
            for n in range(8):
                for mp in enumerate_phi(n, (0, s), e):
                    ms = chi(mp, (0, s), e)
                    out = im_sharp(ms, e)
                    assert sum(length for _, length in out) == n, (mp, s, e)
                    assert im_sharp(out, e) == ms, (mp, s, e)


# The ranks at which im_sharp meets the transport route on every aperiodic
# multisegment, per e: a few seconds in all.
IM_REFERENCE_RANKS = {2: 9, 3: 7, 4: 6, 5: 5, 6: 5, 7: 5, 8: 5}


def transported_im(ms, e):
    """im_sharp's reference: its preimage carried by ak_mullineux to the
    transposed charge, read there by chi."""
    pre, s = im_preimage(ms)
    t = transpose_charge(s)
    return chi(ak_mullineux(pre, s, t, e), t, e)


@pytest.mark.parametrize("e", sorted(IM_REFERENCE_RANKS))
def test_im_sharp_matches_the_transport_route(e):
    for n in range(1, IM_REFERENCE_RANKS[e] + 1):
        for ms in aperiodic_multisegments(n, e):
            assert im_sharp(ms, e) == transported_im(ms, e), (ms, e)


def test_im_sharp_matches_the_transport_route_on_wide_multisegments():
    # Seeded aperiodic multisegments of 20 and 40 segments, lengths 1..60.
    rng = random.Random(43)
    for e in (3, 5):
        for k in (20, 40):
            while True:
                ms = canonical((rng.randrange(e), rng.randint(1, 60)) for _ in range(k))
                if is_aperiodic(ms, e):
                    break
            out = im_sharp(ms, e)
            assert out == transported_im(ms, e), (ms, e)
            assert im_sharp(out, e) == ms, (ms, e)
