"""Benchmark entry point for the mullineux package.

    python3 perfbench/run.py --workload large --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's context (machine, Python, seed, statuses, raw
per-call times).  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

The process that prints the result measures nothing itself.  It shares the
run's operations among worker processes started one after another, each a
fresh interpreter, so that the program's memo tables start cold, and merges
what they measured.  It times set-up (interpreter start, `import mullineux`
from the checkout's src/, and input generation) from spawn to "READY" in
the workers and in as many more children that only set up as make five,
scaled to a fixed machine speed by a bare interpreter start timed before
each (see timing.py).  A traced run is one worker.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from timing import SPAWN_NOMINAL_S, Reference, Tally, spawn_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170
# Worker processes that share a run's operations, one after another.  The
# same work timed in separate processes (each with its own memory layout and
# hash seed) differed by up to 10%; spreading it over several averages that
# out, as pyperf does.  Command-line calls are separate processes anyway.
PARTS = {"large": 3, "difftest": 5, "cli": 1, "im": 3}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on small inputs, for the benchmark's own tests")
    p.add_argument("--child", choices=("setup", "run"), default=None, help=argparse.SUPPRESS)
    p.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--parts", type=int, default=1, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child side: set up, say READY, measure, report
# ---------------------------------------------------------------------------

def import_checkout():
    """Import mullineux from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import mullineux

    where = Path(mullineux.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"mullineux imported from {where}, not from {SRC}")


def child_main(args):
    import_checkout()
    import resource

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", args.seconds)
    print("READY", flush=True)
    if args.child == "setup":
        return 0
    if args.trace:
        from layers import Tracer, layer_metrics, traced_functions

        tracer = Tracer()
        plain, tally, extra, context = workload.trace(tracer)
        metrics = dict.fromkeys(workloads.TRACE_EXTRAS, 0.0)
        metrics.update(layer_metrics(tracer.stats), **extra)
        metrics["trace.overhead_share"] = tally.busy / plain.busy - 1.0
        context["untraced"] = plain.summary()
        context["wrapped"] = sorted(label for label, _, _ in traced_functions())
        context.update(tally.summary())
        print(json.dumps({"wrong": tally.wrong, "metrics": metrics, "context": context}), flush=True)
        return 0
    tally, context = workload.measure(args.part, args.parts)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    records = [[repr(key), *rest] for key, *rest in tally.records]
    context.update(tally.summary(), part=args.part)
    print(json.dumps({"records": records, "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                      "context": context}), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def spawn(args, role, part=0, parts=1):
    """Start a child; return (process, start, seconds until it said READY)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--part", str(part), "--parts", str(parts)]
    t0 = time.perf_counter()
    # Unbuffered, so that reading the first line takes nothing more from the
    # pipe: communicate() reads the rest from the file descriptor itself.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} child failed before it was set up")
    return proc, t0, ready


def finish(proc, deadline):
    """Wait for a child, until `deadline` at most, and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out.decode()


def measure(args, deadline):
    """Run the workers and the set-up-only children; merge what they measured.

    Returns (end-to-end metrics, number of wrong answers, context).
    """
    parts = PARTS[args.workload]
    children = [("setup", 0)] * max(0, SETUP_SAMPLES - parts) + [("run", part) for part in range(parts)]
    # A bare interpreter start just before each child is the probe that scales its set-up.
    ref = Reference(lambda: spawn_probe(ROOT), SPAWN_NOMINAL_S, every=0.0, nearest=2, warmup=1)
    setups, reports = [], []
    for role, part in children:
        ref.sample()
        proc, start, ready = spawn(args, role, part, parts)
        setups.append((start, ready))
        out = finish(proc, deadline)
        if role == "run":
            reports.append(json.loads(out.strip().splitlines()[-1]))
    tally = Tally()
    for report in reports:
        for record in report["records"]:
            tally.add(*record)
    metrics = dict(tally.metrics(), peak_rss_mb=max(r["peak_rss_mb"] for r in reports),
                   setup_s=statistics.median(ref.scaled(start, ready) for start, ready in setups))
    context = dict(tally.summary(), workers=[r["context"] for r in reports],
                   raw_setup_s=[ready for _, ready in setups], setup_probe=ref.summary())
    return metrics, tally.wrong, context


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mullineux" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no mullineux sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.trace:
        proc, _, _ = spawn(args, "run")
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        measured, wrong, context = report["metrics"], report["wrong"], report["context"]
    else:
        measured, wrong, context = measure(args, deadline)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    context = dict(context, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size, nproc=os.cpu_count(),
                   python=platform.python_version(), machine=platform.machine())
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": context["attempted"],
        "failed": context["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
