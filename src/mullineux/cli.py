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

Exit codes: 0 success, 2 invalid input, 3 internal inconsistency or out of
memory.
"""

import argparse
import os
import re
import sys

from . import core, crystal, involution, multisegments
from .errors import InputError, InternalError, MullineuxError
from .theta import theta as theta_split


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


def _emit(args, lines, **payload):
    """Print the text `lines`, or under --format json the payload (e, input,
    method, result and any extra fields) as one JSON object."""
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    else:
        for line in lines:
            print(line)


def _trace_lines(steps):
    return [
        f"[{label}] charge {format_charge(charge)}: {format_multipartition(state)}"
        for label, charge, state in steps
    ]


def _trace_payload(steps):
    return [
        {"label": label, "charge": list(charge), "state": format_multipartition(state)}
        for label, charge, state in steps
    ]


def _counterexample(key):
    """The message naming a difftest key (e, n, partition[, s])."""
    e, _, lam, *s = key
    return f"e={e} partition={format_partition(lam)}" + (f" s={s[0]}" if s else "")


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
    e = core._int_arg("e", args.e, 2)
    s = None if args.s is None else core._int_arg("s", args.s, 1, e - 1)
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
    result = format_partition(distinct.pop())
    lines = _trace_lines(steps)
    extra = {}
    if args.trace:
        extra["steps"] = _trace_payload(steps)
    if args.method == "all":
        extra["methods"] = {k: format_partition(v) for k, v in values.items()}
        lines += [f"{k}: {v}" for k, v in extra["methods"].items()]
    else:
        lines.append(result)
    _emit(args, lines, e=e, input=format_partition(lam), method=args.method, result=result, **extra)


def cmd_crystal_iso(args):
    mp = parse_multipartition(args.bipartition)
    src = parse_charge(args.charge)
    dst = parse_charge(args.to)
    e = args.e
    if not crystal.membership(mp, src, e):
        raise InputError(
            f"{format_multipartition(mp)} is not a member at charge {format_charge(src)} mod {e}"
        )
    image = format_multipartition(crystal.psi(mp, src, dst, e))
    _emit(args, [image], e=e, input=format_multipartition(mp), method="crystal-iso",
          result=image, charge=list(src), to=list(dst))


def cmd_theta(args):
    lam = parse_partition(args.partition)
    s = parse_charge(args.charge)
    image = format_multipartition(theta_split(lam, args.e, s))
    _emit(args, [image], e=args.e, input=format_partition(lam), method="theta",
          result=image, charge=list(s))


def cmd_im(args):
    ms = parse_multisegment(args.multisegment, args.e)
    image = format_multisegment(involution.im_sharp(ms, args.e))
    _emit(args, [image], e=args.e, input=format_multisegment(ms), method="im", result=image)


def cmd_enumerate(args):
    e = args.e
    if args.charge is None:
        items = [format_partition(lam) for lam in core.enumerate_e_regular(args.n, e)]
    else:
        s = parse_charge(args.charge)
        items = [format_multipartition(mp) for mp in crystal.enumerate_phi(args.n, s, e)]
    given = f"n={args.n}" + (f" charge={args.charge}" if args.charge else "")
    _emit(args, items, e=e, input=given, method="enumerate", result=items)


def cmd_difftest(args):
    from . import difftest

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
        raise InputError(f"--max-n must be >= 0, got {args.max_n}")
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    merged = difftest.run(lo, hi, args.max_n, args.jobs)
    failed = any(nfail for _, nfail, _ in merged.values())
    properties = {}
    lines = []
    for name in difftest.PROPERTIES:
        npass, nfail, key = merged[name]
        ce = None if key is None else _counterexample(key)
        properties[name] = {"pass": npass, "fail": nfail, "counterexample": ce}
        lines.append(f"{name}: pass={npass} fail={nfail}" + (f" counterexample: {ce}" if ce else ""))
    lines.append("FAIL" if failed else "OK")
    _emit(args, lines, e=args.e_range, input=f"max-n={args.max_n}", method="difftest",
          result="fail" if failed else "pass", properties=properties)
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
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument("--e", type=int, required=True)

    def command(name, func, summary, parents=(modulus,)):
        p = sub.add_parser(name, help=summary, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = command("mullineux", cmd_mullineux, "involution of an e-regular partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--method", choices=("crystal", "xu", "kleshchev", "all"), default="crystal")
    p.add_argument("--s", type=int, default=None, help="split charge for the crystal method")
    p.add_argument("--trace", action="store_true")

    p = command("crystal-iso", cmd_crystal_iso, "transport a member between charges")
    p.add_argument("--charge", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--bipartition", required=True, help='a multipartition at any level, components joined by "|"')

    p = command("theta", cmd_theta, "split a partition over a fundamental charge")
    p.add_argument("--charge", required=True)
    p.add_argument("--partition", required=True)

    p = command("im", cmd_im, "involution of an aperiodic multisegment")
    p.add_argument("--multisegment", required=True)

    p = command("enumerate", cmd_enumerate, "list partitions or charged-set members")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--charge", default=None)

    p = command("difftest", cmd_difftest, "exhaustive cross-checks of all invariants", ())
    p.add_argument("--e-range", required=True, help="modulus range lo..hi")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)

    # After each subcommand's own options, where its usage line has always shown it.
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    # argparse reads a value such as "-|3" or "-1,0" as an option name, and no
    # option name here starts so: "--name value" goes on as "--name=value".
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and re.fullmatch(r"--\w[\w-]*", tokens[-1]) and re.match(r"-[^-a-zA-Z]", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    parser = build_parser()
    args = parser.parse_args(tokens)
    try:
        return args.func(args) or 0
    except MemoryError:
        # Reported after the try, once this handler has ended and freed the
        # frames its traceback holds: until then nothing can be allocated,
        # so it comes before the clause that builds a tuple.
        pass
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MullineuxError, RecursionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed stdout; devnull takes the interpreter's last flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    print("internal error: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
