"""The public boundary: the exported names, the integer checks that the
public functions make on `e`, split charges and residues, the shape checks
on segments and pairs, and the library's imports."""

import ast
import importlib
import inspect
import random
import tracemalloc
from pathlib import Path

import pytest

import mullineux
from mullineux import (
    InputError,
    NoPathError,
    ak_mullineux,
    blockwise_lift,
    blockwise_lower,
    chi,
    conjugate,
    difftest,
    canonical,
    enumerate_e_regular,
    enumerate_partitions,
    enumerate_phi,
    flotw_check,
    im_sharp,
    is_aperiodic,
    is_e_regular,
    is_strict_e_core,
    kleshchev_oracle,
    membership,
    mullineux_crystal,
    psi,
    rank,
    remove_first_column,
    theta,
    theta_inverse,
    theta_l2,
    xu,
    xu_strip,
)
from mullineux.charges import (
    fundamental_representative,
    is_fundamental,
    same_orbit,
    sharp_very_dominant,
    transpose_charge,
    very_dominant_representative,
)
from mullineux.core import check_multipartition
from mullineux.involution import kleshchev_trace, mullineux_crystal_trace, xu_trace
from mullineux.multisegments import check_multisegment

PUBLIC_NAMES = [
    "InputError", "InternalError", "MullineuxError", "NoPathError",
    "ak_mullineux", "blockwise_lift", "blockwise_lower",
    "canonical", "charges", "chi", "conjugate", "core", "crystal",
    "enumerate_e_regular", "enumerate_partitions",
    "enumerate_phi", "errors", "flotw_check", "fundamental_representative",
    "im_sharp", "involution", "is_aperiodic", "is_e_regular", "is_fundamental",
    "is_strict_e_core", "kleshchev_oracle", "membership",
    "mullineux_crystal", "multisegments", "psi", "rank", "remove_first_column", "same_orbit", "sharp_very_dominant",
    "symbols", "theta", "theta_inverse", "theta_l2", "transpose_charge",
    "very_dominant_representative", "xu", "xu_strip",
]


def test_public_surface_is_pinned():
    # A new public name has to be added here on purpose.
    assert sorted(mullineux.__all__) == PUBLIC_NAMES


# The two-row symbol API and the rim lists are slow references in conftest,
# beside the tests that compare against them; no module defines or
# re-exports these names.
TEST_REFERENCES = [
    "MalformedSymbolError", "Symbol", "build_symbol", "decode_symbol",
    "e_rim", "match_step", "truncated_e_rim",
]


@pytest.mark.parametrize("name", TEST_REFERENCES)
def test_test_references_are_not_shipped(name):
    src = Path(mullineux.__file__).parent
    holders = [
        path.stem
        for path in sorted(src.glob("*.py"))
        if name in vars(importlib.import_module("mullineux" if path.stem == "__init__" else f"mullineux.{path.stem}"))
    ]
    assert holders == []


def test_symbols_module_holds_only_the_row_pairing():
    assert [
        name
        for name, obj in vars(mullineux.symbols).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == "mullineux.symbols"
    ] == ["_match"]


LAM = (2, 1)
BIP = ((1,), ())
PAIR = ((1,), (1,))
MS = ((0, 1),)
S = (0, 1)

# One call per public function that takes e, valid at e = 3.
E_CALLS = {
    "charges.is_fundamental": lambda e: is_fundamental(S, e),
    "charges.same_orbit": lambda e: same_orbit(S, (0, 4), e),
    "charges.fundamental_representative": lambda e: fundamental_representative(S, e),
    "charges.sharp_very_dominant": lambda e: sharp_very_dominant(S, 3, e),
    "charges.very_dominant_representative": lambda e: very_dominant_representative(S, 3, e),
    "core.is_e_regular": lambda e: is_e_regular(LAM, e),
    "core.is_strict_e_core": lambda e: is_strict_e_core(LAM, e),
    "core.enumerate_e_regular": lambda e: list(enumerate_e_regular(3, e)),
    "theta.theta": lambda e: theta(LAM, e, (0, 1)),
    "theta.theta_l2": lambda e: theta_l2(LAM, e, 1),
    "crystal.flotw_check": lambda e: flotw_check(BIP, (0, 1), e),
    "crystal.psi": lambda e: psi(BIP, (0, 1), (0, 4), e),
    "crystal.membership": lambda e: membership(BIP, (0, 1), e),
    "crystal.enumerate_phi": lambda e: enumerate_phi(2, (0, 1), e),
    "crystal.blockwise_lift": lambda e: blockwise_lift(LAM, e, 1),
    "crystal.blockwise_lower": lambda e: blockwise_lower(PAIR, e, 1),
    "multisegments.check_multisegment": lambda e: check_multisegment(MS, e),
    "multisegments.is_aperiodic": lambda e: is_aperiodic(MS, e),
    "multisegments.chi": lambda e: chi(BIP, (0, 1), e),
    "involution.xu_strip": lambda e: xu_strip(LAM, e),
    "involution.xu": lambda e: xu(LAM, e),
    "involution.xu_trace": lambda e: xu_trace(LAM, e),
    "involution.kleshchev_oracle": lambda e: kleshchev_oracle(LAM, e),
    "involution.kleshchev_trace": lambda e: kleshchev_trace(LAM, e),
    "involution.mullineux_crystal": lambda e: mullineux_crystal(LAM, e),
    "involution.mullineux_crystal_trace": lambda e: mullineux_crystal_trace(LAM, e),
    "involution.ak_mullineux": lambda e: ak_mullineux(BIP, (0, 1), (-1, 0), e),
    "involution.im_sharp": lambda e: im_sharp(MS, e),
}


def test_e_table_covers_every_public_function_taking_e():
    found = set()
    for short in ("charges", "core", "theta", "crystal", "multisegments", "involution"):
        module = importlib.import_module(f"mullineux.{short}")
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and "e" in inspect.signature(fn).parameters
            ):
                found.add(f"{short}.{name}")
    assert found == set(E_CALLS)


@pytest.mark.parametrize("label", sorted(E_CALLS))
def test_sample_call_is_valid_at_e_3(label):
    E_CALLS[label](3)


class IndexInt:
    """An integer type that is not int: it defines only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# e is read once with operator.index at the boundary, and the int goes down.
@pytest.mark.parametrize("label", sorted(E_CALLS))
def test_an_index_type_e_answers_as_its_int(label):
    assert E_CALLS[label](IndexInt(3)) == E_CALLS[label](3)


# A string or None is an InputError too, never a TypeError from a comparison.
@pytest.mark.parametrize("e", [0, 1, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("label", sorted(E_CALLS))
def test_bad_e_is_an_input_error(label, e):
    with pytest.raises(InputError, match="^e must be"):
        E_CALLS[label](e)


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta_l2(LAM, 3, 1.0),
        # A strict core never reaches the engines that read s.
        lambda: mullineux_crystal((2,), 3, 1.0),
        lambda: mullineux_crystal_trace((2,), 3, 1.0),
        lambda: sharp_very_dominant(S, 2.5, 3),
        lambda: very_dominant_representative(S, 2.5, 3),
        lambda: list(enumerate_partitions(2.5)),
        lambda: enumerate_phi(2.5, (0, 1), 3),
        lambda: check_multisegment(((0.5, 1),), 3),
        lambda: difftest.run(2.0, 3, 4),
        lambda: difftest.run("2", 3, 4),
        lambda: difftest.run(2, 3.0, 4),
        lambda: difftest.run(2, "3", 4),
        lambda: difftest.run(2, 3, 4.0),
        lambda: difftest.run(2, 3, "4"),
        lambda: difftest.run(2, 3, 4, jobs=1.0),
        lambda: difftest.run(2, 3, 4, jobs="1"),
    ],
)
def test_non_integer_arguments_are_input_errors(call):
    with pytest.raises(InputError, match="must be an int"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theta_l2(LAM, 3, 3), "s must be in 0..2, got 3"),
        (lambda: blockwise_lift(LAM, 3, -1), "s must be in 0..2, got -1"),
        (lambda: blockwise_lower(PAIR, 3, 0), "s must be in 1..2, got 0"),
        (lambda: mullineux_crystal((2,), 3, 3), "s must be in 1..2, got 3"),
        (lambda: check_multisegment(((0, 0),), 3), "segment length must be >= 1, got 0"),
        (lambda: im_sharp(((0, 0),), 3), "segment length must be >= 1, got 0"),
        # im_sharp reads e before its segments, so a bad e is reported first.
        (lambda: im_sharp(5, 1), "e must be >= 2, got 1"),
        (lambda: im_sharp(((0, 0),), 0), "e must be >= 2, got 0"),
        (lambda: sharp_very_dominant(S, -1, 3), "n must be >= 0, got -1"),
        (lambda: very_dominant_representative(S, -1, 3), "n must be >= 0, got -1"),
        (lambda: list(enumerate_partitions(-1)), "rank must be >= 0, got -1"),
        (lambda: enumerate_phi(-1, (0, 1), 3), "rank must be >= 0, got -1"),
        (lambda: list(enumerate_e_regular(-1, 3)), "rank must be >= 0, got -1"),
        (lambda: difftest.run(1, 3, 4), "lo must be >= 2, got 1"),
        (lambda: difftest.run(4, 3, 4), "hi must be >= 4, got 3"),
        (lambda: difftest.run(2, 3, -1), "max_n must be >= 0, got -1"),
        (lambda: difftest.run(2, 3, 4, jobs=0), "jobs must be >= 1, got 0"),
        (lambda: difftest.run(2, 3, 4, jobs=-2), "jobs must be >= 1, got -2"),
    ],
)
def test_out_of_range_arguments_name_their_range(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


# psi, membership, flotw_check, chi and ak_mullineux check their arguments with
# crystal._charged_input and then run unchecked bodies; each error is the one
# its checker raises, and a target at another level fails the orbit check.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: psi(((1, 2), ()), S, (0, 4), 3), InputError, "parts must be weakly decreasing: (1, 2)"),
        (lambda: psi((), S, (0, 4), 3), InputError, "a multipartition needs at least one component"),
        (lambda: psi(BIP, (0, 1, 2), (0, 1, 5), 3), InputError, "2 components vs 3 charges"),
        (lambda: psi(BIP, (0, 1.5), (0, 4), 3), InputError, "charge entries must be ints: (0, 1.5)"),
        (lambda: psi(BIP, S, (0, 2), 3), NoPathError, "(0, 1) and (0, 2) have different residue multisets mod 3"),
        (lambda: psi(BIP, S, (0, 1, 2), 3), NoPathError, "(0, 1) and (0, 1, 2) have different residue multisets mod 3"),
        (lambda: membership(((1, 2), ()), (0, 4), 3), InputError, "parts must be weakly decreasing: (1, 2)"),
        (lambda: membership(BIP, (0, 1, 2), 3), InputError, "2 components vs 3 charges"),
        (lambda: membership(BIP, (0, 4, 2), 3), InputError, "2 components vs 3 charges"),
        (lambda: membership(((1,),), (), 3), InputError, "a multicharge needs at least one entry"),
        (lambda: flotw_check(BIP, (0, 1, 2), 3), InputError, "2 components vs 3 charges"),
        (lambda: flotw_check(BIP, (0, 4), 3), InputError, "flotw_check needs a fundamental multicharge, got (0, 4)"),
        (lambda: chi(BIP, (0, 1, 2), 3), InputError, "2 components vs 3 charges"),
        (lambda: chi(((0, 1),), (0,), 3), InputError, "parts must be weakly decreasing: (0, 1)"),
        (lambda: ak_mullineux(BIP, S, (0, 1, 2), 3), NoPathError, "target (0, 1, 2) is not in the orbit of the image charge (0, 2)"),
        (lambda: ak_mullineux(BIP, S, (0, 1, 2), 1), InputError, "e must be >= 2, got 1"),
        (lambda: ak_mullineux(BIP, (0, 1, 2), S, 3), InputError, "2 components vs 3 charges"),
        (lambda: ak_mullineux(BIP, S, (), 3), InputError, "a multicharge needs at least one entry"),
        (lambda: ak_mullineux(((1, 1), (1,)), S, (0, 5), 3), InputError, "((1, 1), (1,)) is not a member at charge (0, 1) mod 3"),
        (lambda: ak_mullineux(((), (3,)), (0, 4), (0, 3), 3), NoPathError, "target (0, 3) is not in the orbit of the image charge (0, 5)"),
        # im_sharp names a periodic multisegment in canonical form, whatever
        # the order and the heads it was given in.
        (lambda: im_sharp(((0, 1), (1, 1)), 2), InputError, "((0, 1), (1, 1)) is not aperiodic mod 2"),
        (lambda: im_sharp(((1, 1), (0, 1)), 2), InputError, "((0, 1), (1, 1)) is not aperiodic mod 2"),
        (lambda: im_sharp(((0, 1), (3, 1)), 2), InputError, "((0, 1), (1, 1)) is not aperiodic mod 2"),
        (lambda: im_sharp([(2, 1), (0, 2), (1, 1), (0, 1)], 3), InputError, "((0, 2), (0, 1), (1, 1), (2, 1)) is not aperiodic mod 3"),
    ],
)
def test_checked_wrappers_raise_their_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# A segment is a (head, length) pair, blockwise_lower takes exactly two
# components, a charge is a nonempty sequence of ints, the core helpers and
# theta_inverse take partitions, and collections are iterable; anything
# else is an InputError,
# never an IndexError, a ValueError, a TypeError, an AttributeError, a
# silently truncated read or an answer about a non-partition.  Each bad
# argument is reported by the one checker that reads it, in its words: the
# core helpers (rank, is_e_regular) by check_partition, is_fundamental by
# check_charge.  canonical, which runs inside route loops, turns what
# sorting already raises into an InputError and checks no shape.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_multisegment(((0,),), 3), "a segment must be a (head, length) pair, got (0,)"),
        (lambda: im_sharp(((0,),), 3), "a segment must be a (head, length) pair, got (0,)"),
        (lambda: im_sharp(((0, 1, 7),), 3), "a segment must be a (head, length) pair, got (0, 1, 7)"),
        (lambda: is_aperiodic(((0,),), 3), "a segment must be a (head, length) pair, got (0,)"),
        (lambda: blockwise_lower(((1,),), 3, 1), "blockwise_lower needs two components, got 1"),
        (lambda: blockwise_lower(((1,), (1,), (5,)), 3, 1), "blockwise_lower needs two components, got 3"),
        (lambda: blockwise_lower(5, 3, 1), "a multipartition must be iterable, got 5"),
        (lambda: psi(5, S, (0, 4), 3), "a multipartition must be iterable, got 5"),
        (lambda: check_multipartition(5), "a multipartition must be iterable, got 5"),
        (lambda: check_multisegment(5, 3), "a multisegment must be iterable, got 5"),
        (lambda: im_sharp(5, 3), "a multisegment must be iterable, got 5"),
        (lambda: im_sharp(((0.5, 1),), 3), "segment head must be an int, got 0.5"),
        (lambda: is_fundamental((), 3), "a multicharge needs at least one entry"),
        (lambda: is_fundamental((0.5, 1), 3), "charge entries must be ints: (0.5, 1)"),
        (lambda: enumerate_phi(2, (), 3), "a multicharge needs at least one entry"),
        (lambda: enumerate_phi(2, (0, 1.5), 3), "charge entries must be ints: (0, 1.5)"),
        (lambda: enumerate_phi(2, 5, 3), "charge entries must be ints: 5"),
        (lambda: conjugate((1, 2)), "parts must be weakly decreasing: (1, 2)"),
        (lambda: is_strict_e_core((1, 2), 3), "parts must be weakly decreasing: (1, 2)"),
        (lambda: remove_first_column((1, 3)), "parts must be weakly decreasing: (1, 3)"),
        (lambda: theta_inverse(5), "a multipartition must be iterable, got 5"),
        (lambda: theta_inverse(((1,), (1, 2))), "parts must be weakly decreasing: (1, 2)"),
        (lambda: fundamental_representative((), 3), "a multicharge needs at least one entry"),
        (lambda: same_orbit(5, (0,), 3), "charge entries must be ints: 5"),
        (lambda: same_orbit((0,), 5, 3), "charge entries must be ints: 5"),
        (lambda: same_orbit((0,), (0, 1), 0), "e must be >= 2, got 0"),
        (lambda: transpose_charge((0.5,)), "charge entries must be ints: (0.5,)"),
        (lambda: transpose_charge(5), "charge entries must be ints: 5"),
        (lambda: conjugate(5), "parts must be ints: 5"),
        (lambda: conjugate((2.5,)), "parts must be ints: (2.5,)"),
        (lambda: conjugate((1, -1)), "parts must be nonnegative: (1, -1)"),
        (lambda: is_strict_e_core(5, 3), "parts must be ints: 5"),
        (lambda: is_strict_e_core((2, 1.5), 3), "parts must be ints: (2, 1.5)"),
        (lambda: remove_first_column(5), "parts must be ints: 5"),
        (lambda: theta_inverse(((1,), (0.5,))), "parts must be ints: (0.5,)"),
        (lambda: rank(5), "parts must be ints: 5"),
        (lambda: is_strict_e_core((1, -1), 3), "parts must be nonnegative: (1, -1)"),
        (lambda: theta_inverse((5,)), "parts must be ints: 5"),
        (lambda: is_e_regular(5, 3), "parts must be ints: 5"),
        (lambda: canonical(5), "canonical needs (head, length) segments, got 5"),
        (lambda: canonical(((0, 1), "x")), "canonical needs (head, length) segments, got ((0, 1), 'x')"),
        (lambda: rank((1, "x")), "parts must be ints: (1, 'x')"),
        (lambda: is_strict_e_core(("x",), 3), "parts must be ints: ('x',)"),
        (lambda: theta_inverse(((2,), 5)), "parts must be ints: 5"),
        (lambda: theta_inverse(((2,), (1, "x"))), "parts must be ints: (1, 'x')"),
        (lambda: canonical(((0, 1), (0,))), "canonical needs (head, length) segments, got ((0, 1), (0,))"),
        (lambda: canonical(((0, "a"), (1, 2))), "canonical needs (head, length) segments, got ((0, 'a'), (1, 2))"),
        (lambda: theta_inverse(((1,), (1, -1))), "parts must be nonnegative: (1, -1)"),
        (lambda: is_e_regular((1, 2), 3), "parts must be weakly decreasing: (1, 2)"),
        (lambda: rank((1.5,)), "parts must be ints: (1.5,)"),
        (lambda: theta_inverse(((1, 2),)), "parts must be weakly decreasing: (1, 2)"),
    ],
)
def test_malformed_segments_and_pairs_are_input_errors(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# A core helper reads its argument as check_partition does: any iterable of
# ints, trailing zeros dropped.  A dict is read as its keys.
def test_core_helpers_read_their_argument_with_check_partition():
    assert is_strict_e_core({1: 2}, 3) and is_strict_e_core([1, 0], 2)
    assert rank([2, 1, 0]) == 3
    assert is_e_regular([2, 1, 1, 0, 0, 0], 3)
    assert theta_inverse([[2, 0], (3, 1)]) == (3, 2, 1)


# Every route that takes one e-regular partition reads it through
# core._regular_input, so each rejects a non-e-regular one with the same text.
@pytest.mark.parametrize(
    "call, who",
    [
        (lambda lam: theta(lam, 3, (0, 1)), "theta"),
        (lambda lam: theta_l2(lam, 3, 1), "theta"),
        (lambda lam: xu(lam, 3), "xu"),
        (lambda lam: xu_trace(lam, 3), "xu"),
        (lambda lam: kleshchev_oracle(lam, 3), "kleshchev_oracle"),
        (lambda lam: kleshchev_trace(lam, 3), "kleshchev_oracle"),
        (lambda lam: mullineux_crystal(lam, 3), "mullineux_crystal"),
        (lambda lam: mullineux_crystal_trace(lam, 3), "mullineux_crystal"),
    ],
)
def test_e_regular_readers_share_one_message(call, who):
    with pytest.raises(InputError) as info:
        call([2, 1, 1, 1, 0])
    assert str(info.value) == f"{who} needs an e-regular partition, got (2, 1, 1, 1) with e=3"


# theta and theta_l2 check the partition and e, then e-regularity, and only
# then the charge or s; an input with two faults reports the earlier one.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theta((2,), 0, ()), "e must be >= 2, got 0"),
        (lambda: theta((1, 1, 1), 3, (0, 4)), "theta needs an e-regular partition, got (1, 1, 1) with e=3"),
        (lambda: theta_l2((1, 1, 1), 3, 5), "theta needs an e-regular partition, got (1, 1, 1) with e=3"),
    ],
)
def test_theta_reports_the_earlier_of_two_faults(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# theta and flotw_check read their charge with check_charge and then test the
# checked charge with the unchecked charges._is_fundamental; a malformed
# charge gets check_charge's message and a well-formed one outside the
# fundamental domain gets the caller's own.
@pytest.mark.parametrize(
    "call, who",
    [
        (lambda s: theta(LAM, 3, s), "theta"),
        (lambda s: flotw_check(BIP, s, 3), "flotw_check"),
    ],
)
@pytest.mark.parametrize(
    "charge, message",
    [
        ((), "a multicharge needs at least one entry"),
        (5, "charge entries must be ints: 5"),
        ((0.5, 1), "charge entries must be ints: (0.5, 1)"),
        ([0, "1"], "charge entries must be ints: [0, '1']"),
        ((1, 0), "{who} needs a fundamental multicharge, got (1, 0)"),
        ((0, 3), "{who} needs a fundamental multicharge, got (0, 3)"),
    ],
)
def test_theta_and_flotw_check_name_a_bad_charge(call, who, charge, message):
    with pytest.raises(InputError) as info:
        call(charge)
    assert str(info.value) == message.format(who=who)


@pytest.mark.parametrize(
    "call",
    [lambda: theta(LAM, 3, [0, 1]), lambda: flotw_check(BIP, [0, 1], 3)],
)
def test_theta_and_flotw_check_read_their_charge_once(call, monkeypatch):
    # The charge's entries are read once, by check_charge, and e is not read
    # again by the charge layer after the caller has checked it.
    import mullineux.charges as charges

    seen = []

    def counted(name):
        real = getattr(charges, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("_int_seq", "_int_arg"):
        monkeypatch.setattr(charges, name, counted(name))
    call()
    assert seen == ["_int_seq"]


def unused_imports(source):
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_finds_a_stray_name():
    assert unused_imports("import os\nfrom a import b as c, d\nos.sep\nd()\n") == {"c"}


def test_library_modules_use_every_name_they_import():
    # __init__ imports in order to re-export, so it is left out.
    src = Path(mullineux.__file__).parent
    found = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def self_calls(source):
    """The functions of a module that call themselves by name."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
            for call in ast.walk(node)
        )
    }


def test_only_allowed_functions_recurse():
    # Recursion depth is bounded by Python's stack, so each function that
    # calls itself must be one whose depth no answerable input can reach.
    # The enumerations all run on `core._partitions`, which steps one list
    # in place (ZS1) and needs no frame per part.
    allowed = {
        # Pinned by the benchmark's crash fixture (kleshchev_oracle's
        # RecursionError on the row 1000) until the benchmark changes
        # (ROADMAP item 3).
        "involution._kleshchev",
    }
    assert self_calls("def f(n):\n    return f(n - 1) if n else g()\ndef g():\n    return h()\n") == {"f"}
    src = Path(mullineux.__file__).parent
    found = {
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in self_calls(path.read_text(encoding="utf-8"))
    }
    assert found == allowed


HUGE_E = 10**6


@pytest.mark.parametrize("call, expected", [
    (lambda: kleshchev_oracle((5, 3, 1), HUGE_E), (3, 2, 2, 1, 1)),
    (lambda: xu((5, 3, 1), HUGE_E), (3, 2, 2, 1, 1)),
    (lambda: mullineux_crystal((5, 3, 1), HUGE_E), (3, 2, 2, 1, 1)),
    (lambda: im_sharp(((0, 1), (1, 2)), HUGE_E), ((HUGE_E - 1, 2), (HUGE_E - 2, 1))),
    (lambda: im_sharp(((HUGE_E - 3, 2), (HUGE_E - 1, 1)), HUGE_E), ((1, 2), (3, 1))),
    (lambda: same_orbit((0, 1), (HUGE_E + 1, -HUGE_E), HUGE_E), True),
    (lambda: psi(((1,), ()), (0, 1), (0, HUGE_E + 1), HUGE_E), ((1,), ())),
    (lambda: enumerate_phi(2, (0, 1), HUGE_E), (((), (2,)), ((1,), (1,)), ((1, 1), ()), ((2,), ()))),
], ids=["kleshchev_oracle", "xu", "mullineux_crystal", "im_sharp", "im_sharp_wrapping", "same_orbit", "psi",
        "enumerate_phi"])
def test_routes_do_not_allocate_in_proportion_to_e(call, expected):
    # A table of length e would take 8 MB per list here; a call whose
    # residues are read only where they occur stays far below that.
    tracemalloc.start()
    try:
        got = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert got == expected


def test_string_kernel_reduces_no_residue_that_is_not_at_a_corner(monkeypatch):
    # The peel reduces the residues of the corners in one sorted pass per
    # string, and the regrowth one pass over one residue's corners; so the
    # passes stay below the nodes moved plus the corners scanned, whatever e
    # is.  A pass per residue would make e of them per string.
    crystal = mullineux.crystal
    counts = {}
    corners = crystal._corners

    def counted_corners(mp, s, e, j=None):
        nodes = corners(mp, s, e, j)
        counts["corners"] += len(nodes)
        counts["reductions"] += 1
        return nodes

    monkeypatch.setattr(crystal, "_corners", counted_corners)
    rng = random.Random(7)
    inputs = [(((HUGE_E - 3, 2), (HUGE_E - 1, 1)), HUGE_E), (((0, 3), (1, 3), (0, 1)), 3)]
    for e in (2, 5, 1000):
        for _ in range(4):
            ms = canonical((rng.randrange(e), rng.randint(1, 12)) for _ in range(rng.randint(1, 12)))
            if is_aperiodic(ms, e):
                inputs.append((ms, e))
    for ms, e in inputs:
        counts.update(corners=0, reductions=0)
        out = im_sharp(ms, e)
        nodes = sum(length for _, length in ms) + sum(length for _, length in out)
        assert counts["reductions"] < nodes + counts["corners"], (ms, e, counts)
