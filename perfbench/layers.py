"""Per-layer tracing of the mullineux package, applied from outside it.

`Tracer` replaces every binding of each public function of the traced
modules (the defining module's attribute, every `from .x import f` copy in
the other modules, and the `mullineux` package attribute) with a wrapper
that counts calls and measures time.  Nothing inside the program changes,
and leaving the `with` block puts the original functions back.

A stack of child-time accumulators gives self time: a call's duration minus
the durations of the wrapped calls made inside it.  Total time counts only
the outermost call of a function, so recursion through one function is not
counted twice.  Counts and times stay in memory and are read once, when the
run ends.
"""

import functools
import importlib
import inspect
import time

MODULES = ("core", "charges", "symbols", "crystal", "theta", "multisegments", "involution", "cli")

# `core.part` is a one-line accessor called from every inner loop; wrapping it
# would multiply the tracing cost without naming a layer anyone optimises.
SKIPPED = frozenset({"core.part"})

CALLS, SELF_S, TOTAL_S, RETURNS, NOT_NONE, SIZE = range(6)


def traced_functions():
    """(label, module, function) for every function the tracer wraps.

    A traced function is defined in one of MODULES, has a public name, is
    not a generator function (`enumerate_*`: wrapping would time only the
    creation of the generator) and is not in SKIPPED.
    """
    found = []
    for short in MODULES:
        module = importlib.import_module(f"mullineux.{short}")
        for name, obj in vars(module).items():
            label = f"{short}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
                and label not in SKIPPED
            ):
                found.append((label, module, obj))
    return found


class Tracer:
    """Context manager that wraps the traced functions while it is active."""

    def __init__(self):
        self.stats = {}
        self._stack = [0.0]
        self._patched = []

    def __enter__(self):
        import mullineux

        wrappers = {}
        for label, _, fn in traced_functions():
            wrappers[id(fn)] = (fn, self._wrap(fn, label))
        owners = [importlib.import_module(f"mullineux.{m}") for m in MODULES] + [mullineux]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(owner, attr, pair[1])
                    self._patched.append((owner, attr, obj))
        return self

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()
        return False

    def _wrap(self, fn, label):
        st = self.stats.setdefault(label, [0, 0.0, 0.0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        sized = label == "charges.path_word"  # counts the generators of the words it returns
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                active[0] -= 1
                st[CALLS] += 1
                st[SELF_S] += dur - inner
                if not active[0]:
                    st[TOTAL_S] += dur
            st[RETURNS] += 1
            if result is not None:
                st[NOT_NONE] += 1
            if sized:
                st[SIZE] += len(result)
            return result

        return wrapper


def layer_metrics(stats):
    """The per-layer metrics named in BENCHMARK.json, from a tracer's stats.

    Functions that were never called read 0, so every workload reports
    every metric.
    """
    def get(label, field):
        return stats.get(label, [0, 0.0, 0.0, 0, 0, 0])[field]

    def ratio(label, field):
        calls = get(label, CALLS)
        return get(label, field) / calls if calls else 0.0

    def summed(prefix):
        return sum(st[SELF_S] for label, st in stats.items() if label.startswith(prefix))

    out = {}
    counted = {
        "core": ("check_partition", "check_multipartition"),
        "charges": ("path_word",),
        "symbols": ("build_symbol", "match_step", "decode_symbol"),
        "crystal": ("psi_sigma", "blockwise_lift", "blockwise_lower", "flotw_check"),
        "theta": ("theta_l2", "theta", "theta_inverse"),
        "multisegments": ("chi_inverse", "chi"),
        "involution": ("xu_strip", "good_removable_node", "good_addable_node"),
    }
    for module, names in counted.items():
        for name in names:
            label = f"{module}.{name}"
            out[f"{label}.calls"] = get(label, CALLS)
            out[f"{label}.self_s"] = get(label, SELF_S)
    for label in ("crystal.psi", "involution.ak_mullineux", "involution.im_sharp"):
        out[f"{label}.calls"] = get(label, CALLS)
        out[f"{label}.total_s"] = get(label, TOTAL_S)
    for label in ("involution.xu", "involution.kleshchev_oracle", "involution.mullineux_crystal"):
        out[f"{label}.total_s"] = get(label, TOTAL_S)
    out["crystal.membership.calls"] = get("crystal.membership", CALLS)
    out["charges.path_word.generators"] = get("charges.path_word", SIZE)
    out["multisegments.chi_inverse.success_ratio"] = ratio("multisegments.chi_inverse", RETURNS)
    out["involution.good_removable_node.hit_ratio"] = ratio("involution.good_removable_node", NOT_NONE)
    out["cli.parse.self_s"] = summed("cli.parse_")
    out["cli.format.self_s"] = summed("cli.format_")
    for module in MODULES:
        out[f"{module}.self_s"] = summed(f"{module}.")
    return out
