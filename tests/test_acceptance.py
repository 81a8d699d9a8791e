"""Acceptance suite: one test per contract criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every block is exact (no tolerances) and self-times itself against
the two-minute budget.
"""

import itertools
import time

from contextlib import contextmanager

import pytest

from conftest import (
    aperiodic_multisegments,
    branching_image,
    build_symbol,
    decode_symbol,
    fundamental_charges,
    itertools_multipartitions,
    walkable,
)

from mullineux import difftest

from mullineux.charges import transpose_charge

from mullineux.core import enumerate_e_regular

from mullineux.crystal import _walk, blockwise_lift, enumerate_phi, flotw_check, psi

from mullineux.involution import (
    ak_mullineux,
    im_sharp,
    kleshchev_oracle,
    mullineux_crystal,
    xu,
    xu_strip,
)

from mullineux.multisegments import chi, is_aperiodic

from mullineux.theta import theta, theta_inverse

TIME_BUDGET = 120.0


@contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < TIME_BUDGET, f"{name} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


# --- 1. Golden values --------------------------------------------------------

FLAGSHIP = (10, 8, 7, 5, 4, 4, 3, 2, 1, 1)
FLAGSHIP_IMAGE = (17, 9, 7, 6, 3, 3)


def test_golden_enumerate_phi_sets():
    with criterion("golden/charged-set-listings"):
        assert set(enumerate_phi(3, (0, 1), 3)) == {
            ((), (3,)),
            ((1,), (1, 1)),
            ((1,), (2,)),
            ((2,), (1,)),
            ((2, 1), ()),
            ((3,), ()),
        }
        assert set(enumerate_phi(3, (0, 4), 3)) == {
            ((), (3,)),
            ((1,), (1, 1)),
            ((1,), (2,)),
            ((2,), (1,)),
            ((), (2, 1)),
            ((1, 1), (1,)),
        }
        assert set(enumerate_phi(3, (1, 0), 3)) == {
            ((3,), ()),
            ((1,), (1, 1)),
            ((1,), (2,)),
            ((1, 1), (1,)),
            ((2, 1), ()),
            ((2,), (1,)),
        }


def test_golden_psi_table():
    rows = (
        (((), (3,)), ((), (3,))),
        (((1,), (1, 1)), ((1,), (1, 1))),
        (((1,), (2,)), ((), (2, 1))),
        (((2,), (1,)), ((2,), (1,))),
        (((2, 1), ()), ((1, 1), (1,))),
        (((3,), ()), ((1,), (2,))),
    )
    with criterion("golden/transport-table-rank-3"):
        for source, target in rows:
            assert psi(source, (0, 1), (0, 4), 3) == target, source


def test_golden_ak_mullineux_tables():
    table_04_to_05 = (
        (((), (3,)), ((), (2, 1))),
        (((1,), (1, 1)), ((1,), (2,))),
        (((), (2, 1)), ((), (3,))),
        (((2,), (1,)), ((1, 1), (1,))),
        (((1, 1), (1,)), ((2,), (1,))),
        (((1,), (2,)), ((1,), (1, 1))),
    )
    table_01_to_05 = (
        (((), (3,)), ((), (2, 1))),
        (((1,), (1, 1)), ((1,), (2,))),
        (((1,), (2,)), ((), (3,))),
        (((2,), (1,)), ((1, 1), (1,))),
        (((2, 1), ()), ((2,), (1,))),
        (((3,), ()), ((1,), (1, 1))),
    )
    with criterion("golden/charged-involution-tables"):
        for source, target in table_04_to_05:
            assert ak_mullineux(source, (0, 4), (0, 5), 3) == target, source
        for source, target in table_01_to_05:
            assert ak_mullineux(source, (0, 1), (0, 5), 3) == target, source


def test_golden_theta_values():
    lam = (8, 8, 6, 6, 4, 3, 3, 2, 1, 1)
    with criterion("golden/splitting-values"):
        assert theta(lam, 4, (0, 2, 2)) == ((8, 8), (6, 6, 4, 3), (3, 2, 1, 1))
        assert theta(lam, 4, (0, 1)) == ((8, 8, 6, 2, 1, 1), (6, 4, 3, 3))
        assert theta(lam, 4, (0, 3)) == ((8, 3, 3, 2, 1), (8, 6, 6, 4, 1))
        assert theta(lam, 4, (0, 0)) == ((8, 8, 6, 6, 1, 1), (4, 3, 3, 2))
        assert theta(lam, 4, (0, 2)) == ((8, 8, 3, 2, 1, 1), (6, 6, 4, 3))


def test_golden_flagship_involution():
    with criterion("golden/flagship-all-methods"):
        assert mullineux_crystal(FLAGSHIP, 4, 1) == FLAGSHIP_IMAGE
        assert mullineux_crystal(FLAGSHIP, 4, 2) == FLAGSHIP_IMAGE
        assert xu(FLAGSHIP, 4) == FLAGSHIP_IMAGE
        assert kleshchev_oracle(FLAGSHIP, 4) == FLAGSHIP_IMAGE
        assert blockwise_lift(FLAGSHIP, 4, 1) == (
            (4, 3, 3),
            (9, 7, 6, 4, 3, 3, 2, 1),
        )
        assert blockwise_lift(FLAGSHIP, 4, 2) == (
            (6, 6),
            (8, 6, 5, 4, 4, 3, 1, 1, 1),
        )


def test_golden_xu_chain():
    with criterion("golden/rim-stripping-chain"):
        assert xu_strip((8, 5, 3, 3), 3) == ((6, 3, 3, 2), 5)
        assert xu((6, 3, 3, 2), 3) == (8, 2, 2, 1, 1)
        assert xu((8, 5, 3, 3), 3) == (9, 3, 3, 2, 2)


def test_golden_multisegment_involution():
    ms = ((0, 3), (1, 3), (0, 1))
    with criterion("golden/multisegment-involution"):
        assert im_sharp(ms, 3) == ((2, 6), (0, 1))
        # The intermediate stations of the worked computation.
        assert chi(((3,), (3, 1)), (0, 1), 3) == ms
        assert flotw_check(((3,), (3, 1)), (0, 1), 3)
        assert psi(((3,), (3, 1)), (0, 1), (0, 4), 3) == ((1,), (3, 3))
        assert mullineux_crystal((1,), 3) == (1,)
        assert mullineux_crystal((3, 3), 3) == (6,)
        assert psi(((1,), (6,)), (0, 8), (0, 2), 3) == ((1,), (6,))
        assert chi(((1,), (6,)), (0, 2), 3) == ((2, 6), (0, 1))


# --- 2. Exhaustive property suites ------------------------------------------


@pytest.fixture(scope="module")
def difftest_merged():
    """The full differential suite over e in 2..6, ranks up to 12."""
    start = time.monotonic()
    merged = difftest.run(2, 6, 12, jobs=1)
    merged["_elapsed"] = time.monotonic() - start
    return merged


def _assert_clean(merged, names):
    for name in names:
        npass, nfail, ce = merged[name]
        assert nfail == 0, (name, ce)
        assert npass > 0, name
    assert merged["_elapsed"] < TIME_BUDGET


def test_exhaustive_involution_suite(difftest_merged):
    with criterion("exhaustive/involution-rank-regularity-agreement"):
        _assert_clean(
            difftest_merged,
            (
                "involution",
                "agreement",
                "rank_regular",
                "m2_identity",
                "core_conjugate",
            ),
        )


def test_exhaustive_recursion_identities(difftest_merged):
    with criterion("exhaustive/split-lift-strip-identities"):
        _assert_clean(difftest_merged, ("rim_strip_lift", "first_column_lift"))


def test_exhaustive_lift_characterizations(difftest_merged):
    with criterion("exhaustive/lift-emptiness-and-s0"):
        _assert_clean(
            difftest_merged,
            ("core_empty_lift", "lift_first_nonempty", "s_zero"),
        )


def test_exhaustive_blockwise_engines(difftest_merged):
    with criterion("exhaustive/blockwise-vs-symbol-route"):
        _assert_clean(
            difftest_merged,
            ("blockwise_lift", "lift_k_stable", "blockwise_lower", "theta_roundtrip"),
        )


# Every property's pass count over e in 2..6, ranks up to 12: a check that
# stops running on some partitions or split charges changes its count.
DIFFTEST_PASSES = {
    "involution": 3036,
    "agreement": 3036,
    "rank_regular": 872,
    "m2_identity": 70,
    "core_conjugate": 62,
    "rim_strip_lift": 867,
    "first_column_lift": 867,
    "core_empty_lift": 3036,
    "lift_first_nonempty": 2778,
    "s_zero": 872,
    "theta_roundtrip": 3908,
    "blockwise_lift": 3036,
    "lift_k_stable": 3036,
    "blockwise_lower": 2778,
}


def test_exhaustive_pass_counts(difftest_merged):
    with criterion("exhaustive/pass-counts"):
        assert tuple(DIFFTEST_PASSES) == difftest.PROPERTIES
        counts = {name: difftest_merged[name][:2] for name in difftest.PROPERTIES}
        assert counts == {name: [npass, 0] for name, npass in DIFFTEST_PASSES.items()}


def test_a_split_with_its_components_reversed_fails_theta_roundtrip(monkeypatch):
    # difftest computes each split once and shares it between properties;
    # theta_roundtrip still checks that one value.
    split = difftest.theta._theta
    monkeypatch.setattr(difftest.theta, "_theta", lambda lam, e, s: split(lam, e, s)[::-1])
    with criterion("exhaustive/shared-split-is-checked"):
        npass, nfail, key = difftest.run(3, 3, 6, jobs=1)["theta_roundtrip"]
        assert nfail > 0 and key is not None


def test_an_empty_second_lift_component_fails_core_empty_lift(monkeypatch):
    # The crystal route raises before it returns an empty lift component, so
    # core_empty_lift reads psi's lift: a psi that empties the second
    # component of (3, 1)'s lift at e = 3, s = 1 is recorded, not raised.
    slow = difftest.crystal._psi

    def emptied(mp, s, t, e, words=None):
        image = slow(mp, s, t, e, words)
        return (image[0], ()) if (mp, s) == (((3, 1), ()), (0, 1)) else image

    monkeypatch.setattr(difftest.crystal, "_psi", emptied)
    with criterion("exhaustive/empty-lift-is-checked"):
        assert difftest.check(3, 4)["core_empty_lift"][1:] == [1, (3, 4, (3, 1), 1)]


# --- 3. Round-trips ----------------------------------------------------------


def test_round_trip_symbols():
    with criterion("round-trip/symbol-build-decode"):
        for n in range(11):
            for bp in itertools_multipartitions(n, 2):
                for charge in itertools.product(range(-4, 5), repeat=2):
                    assert decode_symbol(build_symbol(bp, charge)) == bp, (
                        bp,
                        charge,
                    )


def test_round_trip_shift_pairs():
    with criterion("round-trip/shift-up-down"):
        for e in (2, 3, 4):
            for s in range(e):
                for n in range(9):
                    for mp in enumerate_phi(n, (0, s), e):
                        up, up_charge = _walk(mp, (0, s), walkable([("sigma", 1), ("tau", 1)]), e)
                        down, down_charge = _walk(up, up_charge, walkable([("tau", -1), ("sigma", 1)]), e)
                        assert (down, down_charge) == (mp, (0, s)), (mp, s, e)


def test_multisegment_labelling_is_injective():
    # chi labels the members of rank n at a charge by distinct aperiodic
    # multisegments of rank n.
    with criterion("round-trip/multisegment-labelling"):
        for e in (2, 3, 4, 5):
            for n in range(11):
                sets = [((0,), [(lam,) for lam in enumerate_e_regular(n, e)])]
                sets += [((0, s), enumerate_phi(n, (0, s), e)) for s in range(e)]
                for charge, members in sets:
                    labels = {chi(mp, charge, e) for mp in members}
                    assert len(labels) == len(members), (charge, e, n)
                    for ms in labels:
                        assert is_aperiodic(ms, e) and sum(length for _, length in ms) == n, (ms, charge, e)


def test_round_trip_theta():
    with criterion("round-trip/splitting"):
        for e in range(2, 7):
            for level in (1, 2, 3):
                for charge in fundamental_charges(e, level):
                    for n in range(13):
                        for lam in enumerate_e_regular(n, e):
                            mp = theta(lam, e, charge)
                            assert theta_inverse(mp) == lam, (lam, charge, e)
                            assert flotw_check(mp, charge, e), (lam, charge, e)


def test_round_trip_multisegment_involution():
    with criterion("round-trip/multisegment-involution"):
        for e in (2, 3):
            for s in range(e):
                for n in range(10):
                    for mp in enumerate_phi(n, (0, s), e):
                        ms = chi(mp, (0, s), e)
                        out = im_sharp(ms, e)
                        assert sum(length for _, length in out) == n, (mp, s, e)
                        assert im_sharp(out, e) == ms, (mp, s, e)


def test_im_is_total_and_involutive():
    # Every aperiodic multisegment is compared with the crystal reference on
    # im_sharp's own one-row preimage: segments sorted by (head, -length),
    # charged by their heads.
    with criterion("totality/multisegment-involution"):
        seen = 0
        for e in (2, 3, 4):
            for n in range(9):
                images = {ms: im_sharp(ms, e) for ms in aperiodic_multisegments(n, e)}
                for ms, out in images.items():
                    assert images.get(out) == ms, (ms, e)
                    if not ms:
                        assert out == (), e
                        continue
                    segs = sorted(ms, key=lambda seg: (seg[0], -seg[1]))
                    s = tuple(head for head, _ in segs)
                    preimage = tuple((length,) for _, length in segs)
                    st = transpose_charge(s)
                    assert out == chi(branching_image(preimage, s, e), st, e), (ms, e)
                seen += len(images)
        assert seen == 6349


# --- 4. Calibration gate ------------------------------------------------------

PAPER_M_VALUES = (
    ((3, 3), 3, (6,)),
    ((6,), 3, (3, 3)),
    ((3,), 3, (2, 1)),
    ((1, 1), 3, (2,)),
    ((1,), 3, (1,)),
    ((9, 7, 6, 4, 3, 3, 2, 1), 4, (14, 7, 7, 3, 3, 1)),
    ((8, 6, 5, 4, 4, 3, 1, 1, 1), 4, (15, 7, 5, 4, 1, 1)),
    ((6, 6), 4, (6, 6)),
    ((4, 3, 3), 4, (10,)),
    (FLAGSHIP, 4, FLAGSHIP_IMAGE),
)


def test_calibration_gate():
    with criterion("calibration/branching-oracle"):
        for lam, e, expected in PAPER_M_VALUES:
            assert kleshchev_oracle(lam, e) == expected, (lam, e)
        for e in range(2, 7):
            for n in range(9):
                for lam in enumerate_e_regular(n, e):
                    assert kleshchev_oracle(lam, e) == mullineux_crystal(lam, e), (
                        lam,
                        e,
                    )
