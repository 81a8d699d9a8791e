"""Command line interface.

Subcommands
-----------
mullineux    compute the involution of an e-regular partition
crystal-iso  transport a charged multipartition to another charge
theta        split an e-regular partition over a fundamental multicharge
im           involution of an aperiodic multisegment
enumerate    list e-regular partitions or charged-set members of a rank
difftest     cross-check every invariant over an exhaustive range

Text grammar (bit exact): a partition is comma-separated positive integers
or "-" for the empty one; a multipartition joins components with "|"; a
multicharge is comma-separated integers; a multisegment joins "head:length"
items with ";" in canonical order (length descending, head ascending).

Exit codes: 0 success, 2 invalid input, 3 internal inconsistency.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import core, crystal, involution, multisegments
from .errors import InputError, InternalError, MullineuxError
from .theta import theta as theta_split, theta_inverse, theta_l2


# ---------------------------------------------------------------------------
# Parsing and formatting (the text grammar)
# ---------------------------------------------------------------------------

def parse_partition(text):
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse partition {text!r}") from exc
    return core.check_partition(parts)


def format_partition(lam):
    return ",".join(str(p) for p in lam) if lam else "-"


def parse_multipartition(text):
    return tuple(parse_partition(piece) for piece in text.split("|"))


def format_multipartition(mp):
    return "|".join(format_partition(c) for c in mp)


def parse_charge(text):
    try:
        return tuple(int(x) for x in text.strip().split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse multicharge {text!r}") from exc


def format_charge(s):
    return ",".join(str(x) for x in s)


def parse_multisegment(text, e):
    text = text.strip()
    if text in ("-", ""):
        return ()
    segs = []
    for item in text.split(";"):
        item = item.strip()
        head, _, length = item.partition(":")
        try:
            segs.append((int(head), int(length)))
        except ValueError as exc:
            raise InputError(f"cannot parse segment {item!r}") from exc
    return multisegments.check_multisegment(segs, e)


def format_multisegment(ms):
    if not ms:
        return "-"
    return ";".join(f"{head}:{length}" for head, length in multisegments.canonical(ms))


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))


def _trace_payload(steps):
    return [
        {"label": label, "charge": list(charge), "state": format_multipartition(state)}
        for label, charge, state in steps
    ]


def _print_trace(steps):
    for label, charge, state in steps:
        print(f"[{label}] charge {format_charge(charge)}: {format_multipartition(state)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# Names of the plain and traced function of each method; the crystal pair also
# takes the split charge.  They are looked up in `involution` at call time so
# that a rebinding there (a tracing wrapper, say) is what runs.
_METHODS = {
    "crystal": ("mullineux_crystal", "mullineux_crystal_trace"),
    "xu": ("xu", "xu_trace"),
    "kleshchev": ("kleshchev_oracle", "kleshchev_trace"),
}


def cmd_mullineux(args):
    lam = parse_partition(args.partition)
    e = args.e
    s = args.s if args.s is not None else e - 1
    names = tuple(_METHODS) if args.method == "all" else (args.method,)
    values = {}
    steps = []
    for name in names:
        traced = args.trace and name == names[0]
        fn = getattr(involution, _METHODS[name][traced])
        out = fn(lam, e, s) if name == "crystal" else fn(lam, e)
        if traced:
            out, steps = out
        values[name] = out
    distinct = set(values.values())
    if len(distinct) > 1:
        raise InternalError(
            "methods disagree: "
            + ", ".join(f"{k}={format_partition(v)}" for k, v in sorted(values.items()))
        )
    result = distinct.pop()
    if args.format == "json":
        payload = {
            "e": e,
            "input": format_partition(lam),
            "method": args.method,
            "result": format_partition(result),
        }
        if args.method == "all":
            payload["methods"] = {k: format_partition(v) for k, v in values.items()}
        if args.trace:
            payload["steps"] = _trace_payload(steps)
        _emit_json(payload)
    else:
        if args.trace:
            _print_trace(steps)
        if args.method == "all":
            for name in ("crystal", "xu", "kleshchev"):
                print(f"{name}: {format_partition(values[name])}")
        else:
            print(format_partition(result))
    return 0


def cmd_crystal_iso(args):
    mp = parse_multipartition(args.bipartition)
    src = parse_charge(args.charge)
    dst = parse_charge(args.to)
    e = args.e
    if not crystal.membership(mp, src, e):
        raise InputError(
            f"{format_multipartition(mp)} is not a member at charge {format_charge(src)} mod {e}"
        )
    image = crystal.psi(mp, src, dst, e)
    if args.format == "json":
        _emit_json(
            {
                "e": e,
                "input": format_multipartition(mp),
                "charge": list(src),
                "to": list(dst),
                "method": "crystal-iso",
                "result": format_multipartition(image),
            }
        )
    else:
        print(format_multipartition(image))
    return 0


def cmd_theta(args):
    lam = parse_partition(args.partition)
    s = parse_charge(args.charge)
    image = theta_split(lam, args.e, s)
    if args.format == "json":
        _emit_json(
            {
                "e": args.e,
                "input": format_partition(lam),
                "charge": list(s),
                "method": "theta",
                "result": format_multipartition(image),
            }
        )
    else:
        print(format_multipartition(image))
    return 0


def cmd_im(args):
    ms = parse_multisegment(args.multisegment, args.e)
    image = involution.im_sharp(ms, args.e)
    if args.format == "json":
        _emit_json(
            {
                "e": args.e,
                "input": format_multisegment(ms),
                "method": "im",
                "result": format_multisegment(image),
            }
        )
    else:
        print(format_multisegment(image))
    return 0


def cmd_enumerate(args):
    e = args.e
    if args.charge is None:
        items = [format_partition(lam) for lam in core.enumerate_e_regular(args.n, e)]
    else:
        s = parse_charge(args.charge)
        items = [format_multipartition(mp) for mp in crystal.enumerate_phi(args.n, s, e)]
    if args.format == "json":
        _emit_json(
            {
                "e": e,
                "input": f"n={args.n}" + (f" charge={args.charge}" if args.charge else ""),
                "method": "enumerate",
                "result": items,
            }
        )
    else:
        for item in items:
            print(item)
    return 0


# ---------------------------------------------------------------------------
# difftest
# ---------------------------------------------------------------------------

_DIFF_PROPERTIES = (
    "involution",
    "agreement",
    "rank_regular",
    "m2_identity",
    "core_conjugate",
    "rim_strip_lift",
    "first_column_lift",
    "core_empty_lift",
    "lift_first_nonempty",
    "s_zero",
    "theta_roundtrip",
    "blockwise_lift",
    "lift_k_stable",
    "blockwise_lower",
)


def _difftest_unit(task):
    """All property checks for the e-regular partitions of one (e, n).

    The crystal route runs once per (partition, s), traced: the lift and
    descent properties check the pairs recorded in its steps, and
    involutivity looks the image up in this (e, n)'s table of images.
    """
    e, n = task
    results = {name: [0, 0, None] for name in _DIFF_PROPERTIES}

    def record(name, ok, key, message):
        slot = results[name]
        if ok:
            slot[0] += 1
        else:
            slot[1] += 1
            if slot[2] is None or key < slot[2][0]:
                slot[2] = (key, message)

    images = {}
    for lam in sorted(core.enumerate_e_regular(n, e)):
        tag = f"e={e} partition={format_partition(lam)}"
        xim = involution.xu(lam, e)
        kim = involution.kleshchev_oracle(lam, e)
        is_core = core.is_strict_e_core(lam, e)
        record(
            "rank_regular",
            core.rank(xim) == n and core.is_e_regular(xim, e),
            (e, n, lam),
            tag,
        )
        if e == 2:
            record("m2_identity", xim == lam, (e, n, lam), tag)
        if is_core:
            record("core_conjugate", xim == core.conjugate(lam), (e, n, lam), tag)
        lifts = {}
        for s in range(1, e):
            key, where = (e, n, lam, s), f"{tag} s={s}"
            cim, steps = involution.mullineux_crystal_trace(lam, e, s)
            images[lam, s] = cim
            record("agreement", cim == xim == kim, key, where)
            if is_core:
                # The route conjugates strict cores without lifting them.
                pair = theta_l2(lam, e, s)
                up = (0, s + crystal._very_dominant_multiple(s, n, e) * e)
                lifted = crystal.psi(pair, (0, s), up, e)
            else:
                (_, _, pair), (_, up, lifted), (_, _, nu), (_, _, kappa), _ = steps
            lifts[s] = lifted
            record("core_empty_lift", lifted[1] != () or is_core, key, where)
            record("blockwise_lift", crystal.blockwise_lift(lam, e, s) == lifted, key, where)
            relifted = crystal.psi(pair, (0, s), (0, up[1] + e), e)
            record("lift_k_stable", relifted == lifted, key, where)
            if not is_core:
                record("lift_first_nonempty", lifted[0] != (), key, where)
                record(
                    "blockwise_lower",
                    crystal.blockwise_lower(nu, e, s) == theta_inverse(kappa),
                    key,
                    where,
                )
        if lam:
            smaller, removed = involution.xu_strip(lam, e)
            record("rim_strip_lift", lifts[e - 1] == ((removed,), smaller), (e, n, lam), tag)
            expect = (involution.xu((len(lam),), e), core.remove_first_column(lam))
            record("first_column_lift", lifts[1] == expect, (e, n, lam), tag)
        k0 = crystal._very_dominant_multiple(0, n, e)
        img0 = crystal.psi(theta_split(lam, e, (0, 0)), (0, 0), (0, k0 * e), e)
        record("s_zero", img0 == ((), lam), (e, n, lam), tag)
        for s in range(e):
            tl = theta_split(lam, e, (0, s))
            ok = (
                theta_inverse(tl) == lam
                and crystal.flotw_check(tl, (0, s), e)
                and tl == theta_l2(lam, e, s)
            )
            record("theta_roundtrip", ok, (e, n, lam, s), f"{tag} s={s}")
    for (lam, s), cim in images.items():
        record(
            "involution",
            images.get((cim, s)) == lam,
            (e, n, lam, s),
            f"e={e} partition={format_partition(lam)} s={s}",
        )
    return results


def _merge_results(chunks):
    merged = {name: [0, 0, None] for name in _DIFF_PROPERTIES}
    for chunk in chunks:
        for name, (npass, nfail, ce) in chunk.items():
            slot = merged[name]
            slot[0] += npass
            slot[1] += nfail
            if ce is not None and (slot[2] is None or ce[0] < slot[2][0]):
                slot[2] = ce
    return merged


def cmd_difftest(args):
    lo, sep, hi = args.e_range.partition("..")
    if sep != "..":
        raise InputError(f"--e-range wants lo..hi, got {args.e_range!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"--e-range wants integers, got {args.e_range!r}") from exc
    if lo < 2 or hi < lo:
        raise InputError(f"--e-range must satisfy 2 <= lo <= hi, got {args.e_range!r}")
    if args.max_n < 0:
        raise InputError(f"--max-n must be nonnegative, got {args.max_n}")
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    tasks = [(e, n) for e in range(lo, hi + 1) for n in range(args.max_n + 1)]
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs if args.jobs is not None else cpus, len(tasks), cpus)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_difftest_unit, tasks))
    else:
        chunks = [_difftest_unit(task) for task in tasks]
    merged = _merge_results(chunks)
    failed = any(slot[1] for slot in merged.values())
    if args.format == "json":
        payload = {
            "e": args.e_range,
            "input": f"max-n={args.max_n}",
            "method": "difftest",
            "result": "fail" if failed else "pass",
            "properties": {
                name: {
                    "pass": merged[name][0],
                    "fail": merged[name][1],
                    "counterexample": merged[name][2][1] if merged[name][2] else None,
                }
                for name in _DIFF_PROPERTIES
            },
        }
        _emit_json(payload)
    else:
        for name in _DIFF_PROPERTIES:
            npass, nfail, ce = merged[name]
            line = f"{name}: pass={npass} fail={nfail}"
            if ce is not None:
                line += f" counterexample: {ce[1]}"
            print(line)
        print("FAIL" if failed else "OK")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mullineux",
        description="Mullineux involution and the crystal machinery around it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mullineux", help="involution of an e-regular partition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--method", choices=("crystal", "xu", "kleshchev", "all"), default="crystal")
    p.add_argument("--s", type=int, default=None, help="split charge for the crystal method")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_mullineux)

    p = sub.add_parser("crystal-iso", help="transport a member between charges")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--bipartition", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_crystal_iso)

    p = sub.add_parser("theta", help="split a partition over a fundamental charge")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("im", help="involution of an aperiodic multisegment")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--multisegment", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_im)

    p = sub.add_parser("enumerate", help="list partitions or charged-set members")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--charge", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("difftest", help="exhaustive cross-checks of all invariants")
    p.add_argument("--e-range", required=True, help="modulus range lo..hi")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_difftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MullineuxError, RecursionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
