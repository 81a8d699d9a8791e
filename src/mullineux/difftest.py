"""Exhaustive cross-checks of the three routes to the Mullineux involution.

`PROPERTIES` names every checked property, in report order.  `check(e, n)`
runs all of them over the e-regular partitions of rank n; `run` covers a
range of e and n, on a process pool when asked for more than one job.  A
result maps each property to [passes, failures, smallest failing key], where
a key is (e, n, partition) or (e, n, partition, s).

The crystal route runs untraced, as `mullineux_crystal` runs it.  The
partitions come from the enumeration, each split theta(λ, (0, s)), s in
0..e-1, from one `theta._theta` call, the lift from `crystal._lift`, which
the route calls (but `core_empty_lift` and `lift_first_nonempty` read the
lift `psi` gives), the componentwise image from the route's table at that
lift's components, and one very dominant charge per (e, n, s) from
`charges._very_dominant_representative`, so the checks validate none of
them again: they run the unchecked bodies the routes use, `involution._xu`,
`crystal._psi`, `_lift` and `_flotw_rows`, and `core._is_strict_core`.
The splits serve the lifts, `s_zero` and `theta_roundtrip`, and `psi` runs
once on each, with one table of transport words keyed (s, t): to `ups[0]`
for `s_zero`, and for s > 0 to `ups[s]`, filed as the lift reference keyed
(λ, s).  `involution` and `blockwise_lower` run after the partitions, on
the crystal route's own table and the lift references.  xu keeps its
images, of the enumerated partitions and of the rows (len(λ),) that
`first_column_lift` reads, in a table keyed (λ, e), as the other two routes
do, so a partition is stripped once per table.  chi is read at the fundamental charges (0,) and (0, s)
only, where it is the rows read as segments (`crystal._segments`), with no
transport: `theta_roundtrip` reads each split's segments once, and one
sorted list of them settles the merge back to λ, chi and FLOTW (3).  The
calls to `xu_strip`, `remove_first_column`, `conjugate` and `rank`, which
checks xu's image before `core._is_e_regular` tests it, stay public.
Library functions are called through their modules (`crystal._psi`, ...),
so a rebinding of a module attribute, such as a tracing wrapper, is what
runs.
"""

import os
from importlib import import_module

from . import charges, core, crystal, involution

# The package binds the name `theta` to the function, so fetch the module.
theta = import_module(f"{__package__}.theta")

PROPERTIES = (
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


def check(e, n, crystal_images=None, kleshchev_images=None, xu_images=None):
    """All property checks for the e-regular partitions of rank n.

    The crystal route runs once per (partition, s), untraced: its lift is
    checked against `psi`, the images it lowered, read from its table at
    that lift's components, against the lift reference of its image, and
    involutivity reads the image of the image in the route's own table.
    `crystal_images`, `kleshchev_images` and `xu_images` are the tables in
    which `involution._crystal`, `_kleshchev` and `_xu` keep their images;
    each defaults to a new empty one.
    """
    crystal_images = {} if crystal_images is None else crystal_images
    kleshchev_images = {} if kleshchev_images is None else kleshchev_images
    xu_images = {} if xu_images is None else xu_images
    results = {name: [0, 0, None] for name in PROPERTIES}

    def record(name, ok, key):
        slot = results[name]
        if ok:
            slot[0] += 1
        else:
            slot[1] += 1
            if slot[2] is None or key < slot[2]:
                slot[2] = key

    # routed holds (key, image, componentwise image or None for a strict core).
    words, references, routed = {}, {}, []
    # The route's lift charge for each split (0, s); ups[0] is s_zero's target.
    ups = [charges._very_dominant_representative((0, s), n, e) for s in range(e)]
    for lam in sorted(core.enumerate_e_regular(n, e)):
        key = (e, n, lam)
        xim = involution._xu(lam, e, None, xu_images)
        kim = involution._kleshchev(lam, e, kleshchev_images)
        is_core = core._is_strict_core(lam, e)
        splits = [theta._theta(lam, e, (0, 0))]
        record("rank_regular", core.rank(xim) == n and core._is_e_regular(xim, e), key)
        if e == 2:
            record("m2_identity", xim == lam, key)
        if is_core:
            record("core_conjugate", xim == core.conjugate(lam), key)
        for s in range(1, e):
            skey = (e, n, lam, s)
            cim = involution._crystal(lam, e, s, crystal_images)
            record("agreement", cim == xim == kim, skey)
            pair = theta._theta(lam, e, (0, s))
            lifted = crystal._lift(lam, e, s)
            # The route lowers the images it filed at its lift's components.
            nu = None
            if not is_core:
                nu = crystal_images.get((lifted[0], e, s)), crystal_images.get((lifted[1], e, s))
            routed.append((skey, cim, nu))
            splits.append(pair)
            # psi, the slow reference, checks the route's lift here and its descent below.
            reference = references[lam, s] = crystal._psi(pair, (0, s), ups[s], e, words)
            # The route raises on an empty lift component before it returns,
            # so these two read psi's lift, which has no such guard.
            if not is_core:
                record("lift_first_nonempty", reference[0] != (), skey)
            record("core_empty_lift", reference[1] != () or is_core, skey)
            record("blockwise_lift", lifted == reference, skey)
            # The word to ups[s] + (0, e) is the word to ups[s] followed by
            # sigma_1, tau; tau is the k = 0 unwrap.
            relifted, _ = crystal._walk(reference, ups[s], (("sigma", 1), ("unwrap", 0, 1)), e)
            record("lift_k_stable", relifted == reference, skey)
            if lam and s == e - 1:
                smaller, removed = involution.xu_strip(lam, e)
                record("rim_strip_lift", lifted == ((removed,), smaller), key)
            if lam and s == 1:
                expect = (involution._xu((len(lam),), e, None, xu_images), core.remove_first_column(lam))
                record("first_column_lift", lifted == expect, key)
        img0 = crystal._psi(splits[0], (0, 0), ups[0], e, words)
        record("s_zero", img0 == ((), lam), key)
        # At the fundamental charges (0,) and (0, s), chi is the rows read as
        # segments. theta_roundtrip asks that tl merge back to λ, be a member
        # at (0, s) and have λ's chi; members of a rank at a fundamental charge
        # have distinct chi, so that pins tl down. Equal (head, length)
        # multisets settle all but FLOTW (1) and (2): the lengths are the
        # parts, so tl merges back to λ; chi is equal; and each length has
        # the same tails, so FLOTW (3) at (0, s) is λ's aperiodicity at (0,).
        segments = sorted(crystal._segments((lam,), (0,), e))
        aperiodic = crystal._is_aperiodic(segments, e)
        for s, tl in enumerate(splits):
            ok = (
                sorted(crystal._segments(tl, (0, s), e)) == segments
                and aperiodic
                and crystal._flotw_rows(tl, (0, s), e)
            )
            record("theta_roundtrip", ok, (e, n, lam, s))
    # psi is a bijection, so it lowers nu from the route's image charge
    # ups[e - s] to the split of the image at (0, e - s) exactly when it
    # lifts that split back to nu: the image's lift reference.  An image
    # with no reference is no e-regular partition of rank n, and fails.
    for skey, cim, nu in routed:
        lam, s = skey[2:]
        record("involution", crystal_images.get((cim, e, s)) == lam, skey)
        if nu is not None:
            record("blockwise_lower", references.get((cim, e - s)) == nu, skey)
    return results


def merge(results):
    """Sum the counts of several results and keep the smallest failing keys."""
    merged = {name: [0, 0, None] for name in PROPERTIES}
    for result in results:
        for name, (npass, nfail, key) in result.items():
            slot = merged[name]
            slot[0] += npass
            slot[1] += nfail
            if key is not None and (slot[2] is None or key < slot[2]):
                slot[2] = key
    return merged


def run(lo, hi, max_n, jobs=None):
    """Merged checks over e in lo..hi and n in 0..max_n.

    The work runs on min(jobs, tasks, cpus) processes (`jobs` defaults to
    the number of cpus).  When that is 1 it runs here, and one set of image
    tables, one per route, serves every rank; each pool task starts from
    empty tables.
    InputError unless lo >= 2, hi >= lo, max_n >= 0 and jobs is None or
    at least 1, each an int.
    """
    lo = core._int_arg("lo", lo, 2)
    hi = core._int_arg("hi", hi, lo)
    max_n = core._int_arg("max_n", max_n, 0)
    jobs = None if jobs is None else core._int_arg("jobs", jobs, 1)
    tasks = [(e, n) for e in range(lo, hi + 1) for n in range(max_n + 1)]
    cpus = os.cpu_count() or 1
    jobs = min(cpus if jobs is None else jobs, len(tasks), cpus)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return merge(pool.map(check, *zip(*tasks)))
    crystal_images, kleshchev_images, xu_images = {}, {}, {}
    return merge(check(e, n, crystal_images, kleshchev_images, xu_images) for e, n in tasks)
