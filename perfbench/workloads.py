"""The benchmark's workloads: seeded inputs, timed operations, result checks.

A run does a fixed amount of work, set by its seed, its size and its
--seconds, never by the clock: the same arguments attempt the same
operations and meet the same failures.  Every time it reports is scaled to
a fixed machine speed by the probes of `timing.py`, timed while the
operations run.

Every timed operation starts with the program's memo tables cleared, so it
pays what one call from a fresh command-line process pays.  Checks run
after the timed call and outside it, never before it on the same input: a
check that called `xu` first would fill `_xu`'s memo and leave nothing to
time.  Timed calls run at the interpreter's default recursion limit; only
the checks get more headroom, so that verifying a long answer with the
recursive `xu` does not fail where the answer itself is right.

An operation ends in one status: "ok"; "wrong" (an answer that fails its
check, or output that does not match the library); "refused" (an InputError
or exit code 2 on a valid input); "error:<type>" (any other exception,
RecursionError included); or "exit:<code>" (a command-line call that ended
with an unexpected code).  Everything but "ok" counts as failed.
"""

import contextlib
import functools
import io
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, combinations_with_replacement, product
from pathlib import Path

import mullineux
from mullineux import InputError, cli, enumerate_e_regular, im_sharp, membership, psi, theta, theta_l2, xu
from timing import SPAWN_NOMINAL_S, Reference, Sampler, Tally, clock, spawn_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHECK_RECURSION_LIMIT = 20000


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

def repeats(seconds, pass_seconds):
    """Passes of about `pass_seconds` each that fill a run of `seconds`, at least one."""
    return max(1, round(seconds / pass_seconds))


def error_status(exc):
    if isinstance(exc, InputError):
        return "refused"
    return f"error:{type(exc).__name__}"


def _memo_clearers():
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "mullineux" or name.startswith("mullineux."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear) and clear not in found:
                    found.append(clear)
    return found


_CLEARERS = _memo_clearers()


def cold():
    """Empty every memo table of the program, as in a fresh process."""
    for clear in _CLEARERS:
        clear()


@contextlib.contextmanager
def check_headroom():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(CHECK_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Inputs, generated by the benchmark itself
# ---------------------------------------------------------------------------

def partitions(n, max_part=None, max_mult=None):
    """Partitions of n, parts at most max_part, each value fewer than max_mult times."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        limit = n // first if max_mult is None else min(n // first, max_mult - 1)
        for mult in range(1, limit + 1):
            for rest in partitions(n - mult * first, first - 1, max_mult):
                yield (first,) * mult + rest


def is_regular(lam, e):
    return all(c < e for c in Counter(lam).values())


@functools.lru_cache(maxsize=None)
def _boltzmann_weights(n, e):
    """Cumulative weights x**(v*m), m < e, for each part value v that can occur."""
    t = math.pi * math.sqrt((e - 1) / (6.0 * e * n))
    return [list(accumulate(math.exp(-t * v * m) for m in range(e))) for v in range(1, int(28.0 / t) + 2)]


def random_regular(n, e, rng):
    """A seeded e-regular partition of n, close to uniformly distributed.

    Boltzmann sampling: each part value v gets a multiplicity m below e
    with weight x**(v*m), x chosen so that the expected rank is n.  Samples
    more than 1% away from n are redrawn; the rest is added to the first
    part.
    """
    weights = _boltzmann_weights(n, e)
    tol = max(1, n // 100)
    while True:
        parts = []
        total = 0
        for v, cum in enumerate(weights, start=1):
            m = bisect_right(cum, rng.random() * cum[-1])
            if m:
                parts.extend([v] * m)
                total += v * m
                if total > n + tol:
                    break
        d = n - total
        if abs(d) > tol or not parts:
            continue
        parts.sort(reverse=True)
        parts[0] += d
        if len(parts) == 1 or parts[0] > parts[1]:
            return tuple(parts)


def aperiodic_multisegments(rank, e):
    """Every aperiodic multisegment of the rank, as canonical (head, length) tuples."""
    out = []
    for lengths in partitions(rank):
        options = []
        for length, mult in sorted(Counter(lengths).items(), reverse=True):
            options.append([
                [(h, length) for h in heads]
                for heads in combinations_with_replacement(range(e), mult)
                if len({(h + length - 1) % e for h in heads}) < e
            ])
        for combo in product(*options):
            out.append(tuple(seg for group in combo for seg in group))
    return out


def random_aperiodic(rank, e, rng):
    while True:
        lengths = rng.choice(list(partitions(rank)))
        ms = tuple(sorted(((rng.randrange(e), L) for L in lengths), key=lambda s: (-s[1], s[0])))
        tails = {}
        for h, L in ms:
            tails.setdefault(L, set()).add((h + L - 1) % e)
        if all(len(seen) < e for seen in tails.values()):
            return ms


def fmt_partition(lam):
    return ",".join(map(str, lam)) if lam else "-"


def fmt_multipartition(mp):
    return "|".join(fmt_partition(c) for c in mp)


def fmt_charge(s):
    return ",".join(map(str, s))


def fmt_multisegment(ms):
    return ";".join(f"{h}:{L}" for h, L in ms) if ms else "-"


# ---------------------------------------------------------------------------
# large: one big input per method
# ---------------------------------------------------------------------------

# Timed calls look the function up on the package at call time, so that the
# tracer's wrapper is what runs in a traced pass.
METHODS = {"crystal": "mullineux_crystal", "xu": "xu", "kleshchev": "kleshchev_oracle"}


class Large:
    """crystal, xu and kleshchev on big e-regular partitions, for e in (3, 5).

    A pass holds, for each e: random partitions drawn from the run's seed,
    RANDOM[n] of each small rank n, for all three methods; one random
    partition of the largest rank, for all three; the single row of the
    middle rank, for all three; and the single row of the largest rank, for
    xu and kleshchev only (crystal spends about 20 s there before its
    RecursionError).  The seed also orders the calls of a pass.  A run makes
    one pass per PASS_S seconds, each with fresh draws, and every call once.

    The random partitions of the largest rank are the same in every pass and
    run, drawn once from a fixed seed: a crystal call there takes seconds and
    its time varies by about 20% with the shape, and too few fit in a run
    for fresh draws to average out.

    Each input is called by all three methods, whose times differ by about
    10x, so the call times form groups: xu, then kleshchev, then crystal.
    RANDOM holds one rank-60 draw for 15 rank-240 ones so that the median
    falls well inside the group of kleshchev calls at rank 240, and the 90th
    percentile inside that of crystal calls at rank 240; every rank-60 draw
    pulls the median towards the edge between groups, where it would jump
    with the draws.
    """

    RANDOM = {60: 1, 240: 15}
    PASS_S = 10.0

    def __init__(self, seed, tiny, seconds):
        rng = random.Random(seed)
        (small, big, row), counts = (((6, 12), 20, 12), (1, 2)) if tiny else (((60, 240), 1000, 240), tuple(self.RANDOM.values()))
        fixed = {e: random_regular(big, e, random.Random(0)) for e in (3, 5)}
        self.items = []
        for _ in range(repeats(seconds, self.PASS_S)):
            items = []
            for e in (3, 5):
                for n, count in zip(small, counts):
                    for _ in range(count):
                        items.append((random_regular(n, e, rng), e, "random", tuple(METHODS)))
                items.append((fixed[e], e, "random", tuple(METHODS)))
                items.append(((row,), e, "row", tuple(METHODS)))
                items.append(((big,), e, "row", ("xu", "kleshchev")))
            rng.shuffle(items)
            self.items.extend(items)
        self.pass_size = len(items)

    def run_all(self, sampler, indices):
        """Time every call of the items at `indices` once:
        [(index, {method: (start, seconds, status, answer)})]."""
        done = []
        with sampler:
            for index in indices:
                lam, e, _, methods = self.items[index]
                done.append((index, self.run_item(lam, e, methods)))
        return done

    @staticmethod
    def run_item(lam, e, methods):
        outcomes = {}
        for m in methods:
            cold()
            t0 = clock()
            try:
                answer = getattr(mullineux, METHODS[m])(lam, e)
                outcomes[m] = t0, clock() - t0, "ok", answer
            except Exception as exc:  # a failure to record, RecursionError included
                outcomes[m] = t0, clock() - t0, error_status(exc), None
        return outcomes

    def settle(self, done, sampler, tally, per_method):
        """Check the answers of the timed calls and record every call."""
        for index, outcomes in done:
            lam, e, _, _ = self.items[index]
            answers = {answer for _, _, status, answer in outcomes.values() if status == "ok"}
            for m, (start, seconds, status, answer) in outcomes.items():
                if status == "ok" and not (len(answers) == 1 and self.verify(lam, answer, e)):
                    status = "wrong"
                tally.add_timed(sampler, (m, index), start, seconds, status)
                per_method[m].add_timed(sampler, index, start, seconds, status, weight=sum(lam))

    @staticmethod
    def verify(lam, image, e):
        """Rank kept, image e-regular, and xu maps it back to the input."""
        if sum(image) != sum(lam) or not is_regular(image, e):
            return False
        with check_headroom():
            try:
                return xu(image, e) == lam
            except Exception:  # an unverifiable answer is not a right one
                return False

    def raw_seconds(self, done):
        """Every call's measured time, keyed by method, e, rank and shape."""
        raw = {}
        for index, outcomes in done:
            lam, e, shape, _ = self.items[index]
            for m, (_, seconds, _, _) in outcomes.items():
                raw.setdefault(f"{m} e={e} n={sum(lam)} {shape}", []).append(seconds)
        return dict(sorted(raw.items()))

    def measure(self, part, parts):
        sampler, tally, per_method = Sampler(), Tally(), {m: Tally() for m in METHODS}
        done = self.run_all(sampler, range(part, len(self.items), parts))
        self.settle(done, sampler, tally, per_method)
        return tally, {"calls": len(tally.samples), "raw_seconds": self.raw_seconds(done), **sampler.summary()}

    def trace(self, tracer):
        sampler, plain, per_method = Sampler(), Tally(), {m: Tally() for m in METHODS}
        done = self.run_all(sampler, range(self.pass_size))
        self.settle(done, sampler, plain, per_method)
        with tracer:
            traced_done = self.run_all(sampler, range(self.pass_size))
        traced = Tally()
        self.settle(traced_done, sampler, traced, {m: Tally() for m in METHODS})
        extra = {f"{m}.nodes_per_s": t.rate() for m, t in per_method.items()}
        return plain, traced, extra, {"raw_seconds": self.raw_seconds(done)}


# ---------------------------------------------------------------------------
# difftest: the exhaustive cross-check through the command-line entry point
# ---------------------------------------------------------------------------

PROPERTY_LINE = re.compile(r"^(\w+): pass=(\d+) fail=(\d+)")


def run_main(argv):
    """cli.main in this process: (exit code, stdout, start, seconds), memos cold."""
    out, err = io.StringIO(), io.StringIO()
    cold()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught exception is what exits 1 with a traceback
        code = 1
    return code, out.getvalue(), t0, clock() - t0


class Difftest:
    """`mullineux difftest --e-range 2..6 --max-n 12 --jobs 1`, run through cli.main.

    A run repeats the command once per PASS_S seconds; each command is one
    operation, worth one input per partition it covers.
    """

    PASS_S = 4.0

    def __init__(self, seed, tiny, seconds):
        hi, max_n = (3, 5) if tiny else (6, 12)
        self.argv = ["difftest", "--e-range", f"2..{hi}", "--max-n", str(max_n), "--jobs", "1"]
        counts = {(e, n): sum(1 for _ in partitions(n, max_mult=e)) for e in range(2, hi + 1) for n in range(max_n + 1)}
        self.partitions = sum(counts.values())
        self.agreement = sum((e - 1) * c for (e, _), c in counts.items())
        self.commands = repeats(seconds, self.PASS_S)

    def run(self, tally, sampler, runs):
        """Run the command once for each index in `runs`, then check and record each run."""
        with sampler:
            done = [(i, *run_main(self.argv)) for i in runs]
        for i, code, text, start, seconds in done:
            tally.add_timed(sampler, i, start, seconds, self.check(code, text), weight=self.partitions)

    def check(self, code, text):
        if code not in (0, 3):
            return f"exit:{code}"
        lines = text.splitlines()
        props = {}
        for line in lines:
            m = PROPERTY_LINE.match(line)
            if m:
                props[m.group(1)] = int(m.group(2)), int(m.group(3))
        ok = (
            code == 0
            and lines[-1:] == ["OK"]
            and props
            and all(fail == 0 for _, fail in props.values())
            and props.get("agreement", (None,))[0] == self.agreement
        )
        return "ok" if ok else "wrong"

    def measure(self, part, parts):
        sampler, tally = Sampler(), Tally()
        self.run(tally, sampler, range(part, self.commands, parts))
        seconds = [v[0] for v in tally.samples.values()]
        return tally, {"partitions_per_command": self.partitions, "command_seconds": seconds, **sampler.summary()}

    def trace(self, tracer):
        sampler, plain, traced = Sampler(), Tally(), Tally()
        self.run(plain, sampler, [0])
        with tracer:
            self.run(traced, sampler, [0])
        return plain, traced, {}, {}


# ---------------------------------------------------------------------------
# cli: sequential command-line calls, each in a fresh interpreter
# ---------------------------------------------------------------------------

MIN_CLI_CALLS = 100


def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_seconds(args):
    """Measured time of one `python args...` run in a fresh interpreter."""
    t0 = clock()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(), capture_output=True, check=True, timeout=60)
    return clock() - t0


class Cli:
    """Seeded `python -m mullineux.cli` calls with a fixed mix per block of ten.

    Six `mullineux --method all` calls (every fourth with --format json),
    one theta, one crystal-iso, one im or enumerate, and one malformed or
    out-of-domain call that must exit 2 with empty stdout.  A run makes
    CALLS_PER_S calls per second of --seconds, and at least MIN_CLI_CALLS,
    so that ten calls lie beyond the 90th percentile.
    """

    MALFORMED = ("irregular", "increasing", "non-member", "other-orbit")
    CALLS_PER_S = 5

    def __init__(self, seed, tiny, seconds):
        rng = random.Random(seed)
        self.min_calls, self.sizes = (3, (4, 12)) if tiny else (MIN_CLI_CALLS, (20, 150))
        count = max(self.min_calls, round(seconds * self.CALLS_PER_S))
        shapes = iter(self._spread(rng, sum(1 for i in range(count) if i % 10 < 6)))
        self.calls = [self._call(rng, i, shapes) for i in range(count)]

    def _spread(self, rng, count):
        """(e, rank) for `count` mullineux calls: each e in 2..6 equally often,
        each e's ranks spread evenly over the size range, in seeded order.

        The latency percentiles then see the same mix of sizes on every seed.
        """
        lo, hi = self.sizes
        rounds = -(-count // 5)
        pairs = [(2 + k % 5, lo + int((k // 5 + rng.random()) * (hi - lo + 1) / rounds)) for k in range(count)]
        rng.shuffle(pairs)
        return pairs

    def _partition(self, rng, e):
        return random_regular(rng.randint(*self.sizes), e, rng)

    def _call(self, rng, i, shapes):
        e = rng.randint(2, 6)
        slot, block = i % 10, i // 10
        if slot < 6:
            e, n = next(shapes)
            lam = random_regular(n, e, rng)
            fmt = "json" if i % 4 == 0 else "text"
            argv = ["mullineux", "--e", str(e), "--partition", fmt_partition(lam), "--method", "all", "--format", fmt]
            return {"kind": "mullineux", "argv": argv, "e": e, "lam": lam, "format": fmt}
        if slot == 6:
            s = tuple(sorted(rng.randrange(e) for _ in range(rng.randint(1, 3))))
            lam = self._partition(rng, e)
            argv = ["theta", "--e", str(e), "--charge", fmt_charge(s), "--partition", fmt_partition(lam)]
            return {"kind": "theta", "argv": argv, "e": e, "lam": lam, "charge": s}
        if slot == 7:
            s = rng.randrange(1, e)
            mp = theta_l2(random_regular(rng.randint(4, 30), e, rng), e, s)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            to = (a * e, s + b * e) if rng.random() < 0.5 else (s + b * e, a * e)
            return self._iso(e, mp, (0, s), to)
        if slot == 8 and block % 2 == 0:
            e = rng.randint(2, 4)
            ms = random_aperiodic(rng.randint(1, 8), e, rng)
            argv = ["im", "--e", str(e), "--multisegment", fmt_multisegment(ms)]
            return {"kind": "im", "argv": argv, "e": e, "ms": ms}
        if slot == 8:
            n = rng.randint(2, 12)
            argv = ["enumerate", "--e", str(e), "--n", str(n)]
            return {"kind": "enumerate", "argv": argv, "e": e, "n": n}
        return self._malformed(rng, self.MALFORMED[block % 4], e)

    def _iso(self, e, mp, charge, to):
        # "--to=-6,-4": a separate "-6,-4" would be read as an option name.
        argv = ["crystal-iso", "--e", str(e), f"--charge={fmt_charge(charge)}", f"--to={fmt_charge(to)}",
                "--bipartition", fmt_multipartition(mp)]
        return {"kind": "crystal-iso", "argv": argv, "e": e, "mp": mp, "charge": charge, "to": to}

    def _malformed(self, rng, kind, e):
        if kind == "irregular":
            lam = tuple(sorted(self._partition(rng, e) + (rng.randint(1, 5),) * e, reverse=True))
            argv = ["mullineux", "--e", str(e), "--partition", fmt_partition(lam), "--method", "all"]
        elif kind == "increasing":
            lam = self._partition(rng, e)
            argv = ["mullineux", "--e", str(e), "--partition", fmt_partition(lam[::-1] + (lam[0] + 1,))]
        elif kind == "non-member":
            # An empty first component under more than s rows breaks the
            # first FLOTW condition at (0, s).
            s = rng.randrange(1, e)
            mp = ((), tuple(sorted((rng.randint(1, 9) for _ in range(s + 1 + rng.randrange(3))), reverse=True)))
            if membership(mp, (0, s), e):
                raise RuntimeError(f"{mp} was meant to be a non-member at (0, {s}) mod {e}")
            call = self._iso(e, mp, (0, s), (0, s + e))
            call["kind"] = "malformed"
            return call
        else:
            s = rng.randrange(1, e)
            mp = theta_l2(random_regular(rng.randint(4, 30), e, rng), e, s)
            call = self._iso(e, mp, (0, s), (0, (s + rng.randrange(1, e)) % e))
            call["kind"] = "malformed"
            return call
        return {"kind": "malformed", "argv": argv}

    @staticmethod
    def expected(call):
        """(exit code, expected stdout, valid) from the library; stdout is a
        list of lines, or a dict of JSON fields for --format json."""
        kind = call["kind"]
        if kind == "malformed":
            return 2, [], False
        e = call["e"]
        try:
            if kind == "mullineux":
                image = fmt_partition(xu(call["lam"], e))
                if call["format"] == "json":
                    methods = {m: image for m in METHODS}
                    return 0, {"e": e, "input": fmt_partition(call["lam"]), "method": "all",
                               "methods": methods, "result": image}, True
                return 0, [f"{m}: {image}" for m in METHODS], True
            if kind == "theta":
                return 0, [fmt_multipartition(theta(call["lam"], e, call["charge"]))], True
            if kind == "crystal-iso":
                return 0, [fmt_multipartition(psi(call["mp"], call["charge"], call["to"], e))], True
            if kind == "im":
                return 0, [fmt_multisegment(im_sharp(call["ms"], e))], True
            return 0, [fmt_partition(lam) for lam in enumerate_e_regular(call["n"], e)], True
        except InputError:
            return 2, [], True

    def status(self, call, code, stdout):
        want_code, want_out, valid = self.expected(call)
        if code == 0:
            if want_code != 0:
                return "wrong"
            if isinstance(want_out, dict):
                try:
                    got = json.loads(stdout)
                except ValueError:
                    return "wrong"
                same = isinstance(got, dict) and all(got.get(k) == v for k, v in want_out.items())
            else:
                same = stdout.splitlines() == want_out
            return "ok" if same else "wrong"
        if code == 2 and want_code == 2:
            if stdout:
                return "wrong"
            return "refused" if valid else "ok"
        return f"exit:{code}"

    def measure(self, part, parts):
        probe = subprocess.run(
            [sys.executable, "-c", "import mullineux.cli, mullineux; print(mullineux.__file__)"],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        where = Path(probe.stdout.strip()).resolve()
        if SRC.resolve() not in where.parents:
            raise RuntimeError(f"command-line calls import mullineux from {where}, not from {SRC}")
        # A bare interpreter start, about twice a second, is the probe.
        ref = Reference(lambda: spawn_probe(ROOT, cli_env()), SPAWN_NOMINAL_S, every=0.5, nearest=3, warmup=1)
        done = []
        for i in range(part, len(self.calls), parts):
            call = self.calls[i]
            ref.tick()
            t0 = clock()
            proc = subprocess.run([sys.executable, "-m", "mullineux.cli", *call["argv"]],
                                  cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60)
            done.append((i, t0, clock() - t0, call, proc.returncode, proc.stdout))
        ref.sample()
        tally = Tally()
        for i, start, seconds, call, code, stdout in done:
            tally.add_timed(ref, i, start, seconds, self.status(call, code, stdout))
        return tally, {"calls": len(done), **ref.summary()}

    def trace(self, tracer):
        calls = self.calls[: self.min_calls]
        sampler, plain, traced = Sampler(), Tally(), Tally()
        for tally, ctx in ((plain, contextlib.nullcontext()), (traced, tracer)):
            with ctx, sampler:
                results = [(call, *run_main(call["argv"])) for call in calls]
            for i, (call, code, stdout, start, seconds) in enumerate(results):
                tally.add_timed(sampler, i, start, seconds, self.status(call, code, stdout))
        floor = statistics.median(spawn_seconds(["-c", "pass"]) for _ in range(5))
        imported = statistics.median(spawn_seconds(["-c", "import mullineux.cli"]) for _ in range(5))
        extra = {"cli.interpreter_ms": 1000.0 * floor, "cli.import_ms": 1000.0 * (imported - floor)}
        return plain, traced, extra, {"replayed_calls": len(calls)}


# ---------------------------------------------------------------------------
# im: the multisegment involution over every aperiodic multisegment
# ---------------------------------------------------------------------------

class Im:
    """im_sharp on every aperiodic multisegment of the (e, rank) cases.

    A run makes one pass over all inputs per PASS_S seconds, each pass in
    its own seeded order; an input's time is the median of its passes.
    """

    PASS_S = 3.3

    def __init__(self, seed, tiny, seconds):
        cases = ((2, 3), (3, 3), (4, 2)) if tiny else ((2, 8), (3, 8), (4, 6))
        inputs = [(ms, e) for e, rank in cases for ms in aperiodic_multisegments(rank, e)]
        rng = random.Random(seed)
        self.passes = [rng.sample(inputs, len(inputs)) for _ in range(repeats(seconds, self.PASS_S))]

    @staticmethod
    def run_pass(inputs, sampler):
        """Time every call of a pass: [(ms, e, start, seconds, status, image)]."""
        done = []
        with sampler:
            for ms, e in inputs:
                cold()
                t0 = clock()
                try:
                    image = mullineux.im_sharp(ms, e)
                    done.append((ms, e, t0, clock() - t0, "ok", image))
                except Exception as exc:  # a refusal or crash to record
                    done.append((ms, e, t0, clock() - t0, error_status(exc), None))
        return done

    @staticmethod
    def settle(done, sampler, tally):
        """Check that every answer maps back to its input, and record every call."""
        for ms, e, start, seconds, status, image in done:
            if status == "ok":
                try:
                    if im_sharp(image, e) != ms:
                        status = "wrong"
                except Exception:  # an image it cannot map back is not an involution
                    status = "wrong"
            tally.add_timed(sampler, (ms, e), start, seconds, status)

    def measure(self, part, parts):
        sampler, tally = Sampler(), Tally()
        for inputs in self.passes[part::parts]:
            self.settle(self.run_pass(inputs, sampler), sampler, tally)
        return tally, {"passes": len(self.passes[part::parts]), **sampler.summary()}

    def trace(self, tracer):
        sampler, plain, traced = Sampler(), Tally(), Tally()
        self.settle(self.run_pass(self.passes[0], sampler), sampler, plain)
        with tracer:
            done = self.run_pass(self.passes[0], sampler)
        self.settle(done, sampler, traced)
        return plain, traced, {}, {}


# Traced-run metrics that only one workload measures; the others report 0.
TRACE_EXTRAS = ("cli.interpreter_ms", "cli.import_ms", "crystal.nodes_per_s", "xu.nodes_per_s", "kleshchev.nodes_per_s")

WORKLOADS = {"large": Large, "difftest": Difftest, "cli": Cli, "im": Im}
