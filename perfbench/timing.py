"""Times at a fixed machine speed, and the tally of a run's operations.

The cores of the 2-vCPU VM the baseline comes from are shared.  Their speed
for one process flips between two levels, 1.4x to 1.8x apart, many times a
second, as a neighbour comes and goes, and the share of slow time drifts
over minutes.
No statistic taken inside one run escapes that drift.  So every run also
times a fixed probe while it works, and reports each operation's time as

    measured seconds * NOMINAL / typical duration of the probe samples around it

that is, as it would read on a machine where the probe takes NOMINAL
seconds.  The probe is the benchmark's own code, never the program's, so a
change to the program moves the scaled times as much as the raw ones, while
a change in the machine's speed moves both the probe and the operation.

Two probes, each close to the work it scales:

- `Sampler`, for operations inside the workload process: an interval timer
  interrupts them every 20 ms to time `python_probe`, so even an operation
  of seconds has its own samples; it scales by their mean.  The samples'
  own time is taken out of the operation's time.
- `Reference(spawn_probe, ...)`, for operations that start a fresh
  interpreter (a command-line call, a set-up): a bare `python -c pass`,
  timed between them; it scales by the median of the nearest few.  An
  in-process loop tracks a child's start-up badly (over one minute the two
  moved apart by up to 40%), while a call's start-up and a bare start-up
  moved together to within 7%.

`Tally` collects the scaled times and statuses of a run's operations.
"""

import gc
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter

clock = time.perf_counter

SAMPLER_NOMINAL_S = 0.00025
SPAWN_NOMINAL_S = 0.070


def _regular_partitions(n, top, limit):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for mult in range(1, min(n // first, limit - 1) + 1):
            for rest in _regular_partitions(n - mult * first, first - 1, limit):
                yield (first,) * mult + rest


def python_probe():
    """Enumerate the 3-regular partitions of 11 and count their distinct parts.

    The same kind of work as the program's: recursive generators, tuples,
    small dictionaries.  Of three probes tried (an integer loop, this one,
    and this one plus sorting and set operations), this one tracked the
    workloads best through the machine's slow phases.  The garbage
    collector is off meanwhile, so that the probe does not time a
    collection of the program's objects.
    """
    gc.disable()
    try:
        for lam in _regular_partitions(11, 11, 3):
            Counter(lam)
    finally:
        gc.enable()


class Sampler:
    """Probe samples taken every `interval` seconds while the `with` block runs.

    The probe adds at most 13 frames to the stack it interrupts; the
    program's calls that succeed stay below half of the default recursion
    limit.
    """

    def __init__(self, nominal=SAMPLER_NOMINAL_S, interval=0.02, nearest=8):
        self.nominal = nominal
        self.interval = interval
        self.nearest = nearest
        self.starts, self.probes, self.costs = [], [], []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = clock()
        python_probe()
        t1 = clock()
        self.starts.append(t0)
        self.probes.append(t1 - t0)
        self.costs.append(clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:  # a block shorter than one interval
            self._handler(signal.SIGALRM, None)
        return False

    def scaled(self, start, seconds):
        """An operation's time without the samples taken inside it, at the nominal speed.

        The scale comes from the samples taken inside the operation, or,
        when there are fewer than `nearest` of them, from those and the
        ones just before and after it.
        """
        i = bisect_left(self.starts, start)
        j = bisect_left(self.starts, start + seconds)
        net = seconds - sum(self.costs[i:j])
        if j - i < self.nearest:
            half = self.nearest // 2
            i, j = max(0, i - half), min(len(self.starts), j + half)
        return net * self.nominal * (j - i) / sum(self.probes[i:j])

    def summary(self):
        """Number of probe samples and their min, median and max, in ms."""
        return _summary(self.probes)


def spawn_probe(cwd=None, env=None):
    """Seconds from spawning a bare `python -c pass` to its exit."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, capture_output=True, check=True, timeout=60)
    return clock() - t0


class Reference:
    """Samples of a probe run between operations, and the scale they give each one.

    `tick()` between operations runs the probe when `every` seconds have
    passed since its last run; `sample()` runs it now.  An operation is
    scaled by `nominal` over the median of the `nearest` samples closest to
    it in time.  The probe first runs `warmup` times unrecorded, to fill the
    file cache.
    """

    def __init__(self, probe, nominal, every, nearest, warmup):
        self.probe = probe
        self.nominal = nominal
        self.every = every
        self.nearest = nearest
        self.samples = []
        self._last = float("-inf")
        for _ in range(warmup):
            probe()

    def sample(self):
        start = clock()
        self.samples.append((start, self.probe()))
        self._last = clock()

    def tick(self):
        if clock() - self._last >= self.every:
            self.sample()

    def scaled(self, start, seconds):
        """An operation's time at the nominal speed."""
        end = start + seconds

        def gap(sample):
            return max(start - sample[0], sample[0] - end, 0.0)

        near = sorted(self.samples, key=gap)[: self.nearest]
        return seconds * self.nominal / statistics.median(s for _, s in near)

    def summary(self):
        """Number of probe samples and their min, median and max, in ms."""
        return _summary([s for _, s in self.samples])


class Tally:
    """Durations and statuses of the operations of one measurement.

    An operation is keyed by its input.  When an input runs several times
    in a run, its time is the median of its runs.  `records` keeps
    every `add` in order, so that the tallies of several worker processes
    can be merged by replaying them into one.
    """

    def __init__(self):
        self.records = []
        self.samples = {}
        self.weights = {}
        self.failing = set()
        self.statuses = Counter()
        self.raw_busy = 0.0

    def add(self, key, seconds, status, weight=1, raw=None):
        """Record one run of input `key`, worth `weight` inputs when answered.

        `seconds` is the scaled time; `raw`, when given, the measured one.
        """
        self.records.append((key, seconds, status, weight, raw))
        self.samples.setdefault(key, []).append(seconds)
        self.weights[key] = weight
        self.statuses[status] += 1
        self.raw_busy += seconds if raw is None else raw
        if status != "ok":
            self.failing.add(key)

    def add_timed(self, probe, key, start, raw, status, weight=1):
        """Record a run measured at `start` as lasting `raw` s, scaled by `probe`."""
        self.add(key, probe.scaled(start, raw), status, weight, raw)

    @property
    def attempted(self):
        return sum(self.statuses.values())

    @property
    def failed(self):
        return self.attempted - self.statuses["ok"]

    @property
    def wrong(self):
        return self.statuses["wrong"]

    @property
    def busy(self):
        """Total time of every run of every operation."""
        return sum(sum(v) for v in self.samples.values())

    def typical(self):
        return {key: statistics.median(v) for key, v in self.samples.items()}

    def rate(self):
        """Inputs answered correctly per second, each input at its median run."""
        typical = self.typical()
        done = sum(w for key, w in self.weights.items() if key not in self.failing)
        return done / sum(typical.values())

    def metrics(self):
        ms = sorted(1000.0 * s for s in self.typical().values())
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
        return {
            "success_share": self.statuses["ok"] / self.attempted,
            "ops_per_s": self.rate(),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": p90,
        }

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / self.attempted if self.attempted else 0.0,
            "statuses": dict(sorted(self.statuses.items())),
            "inputs": len(self.samples),
            "busy_s": self.busy,
            "raw_busy_s": self.raw_busy,
        }


def _summary(seconds):
    ms = sorted(1000.0 * s for s in seconds)
    return {"probes": len(ms), "probe_ms": [ms[0], statistics.median(ms), ms[-1]] if ms else []}
