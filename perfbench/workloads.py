"""The benchmark's workloads: which CLI calls make up one pass, what each
must print, and why each workload exists.

A pass runs every target of a workload once, in-process, through
``diagsemi.cli.main(argv)``.  One closed-loop client in one process: a
target starts only after the previous one returned and was verified.
The inputs are the catalog's fixed textbook generating sets, so the only
thing the seed changes is the order of the targets inside ``green_json``
and ``census_stats``; the program itself only ever receives argv.

Why each workload exists, and which layer metric (``--trace 1``) should
move which end-to-end metric on it:

fern_tl10 -- ``fern 10 4``.  Enumerates TL_10 (16,796 Bipartitions) and
    runs about 318k ``Bipartition`` products (302,328 = 2 * 16,796 * 9 of
    them inside enumeration: right and left Cayley graphs), which are
    ~85 % of ``wall_s``.  It never touches ``kernels``.  A cheaper
    ``Bipartition.__mul__`` or a Froidure-Pin enumeration shows here
    (``elements.mul_calls``, ``elements.mul_s``,
    ``engine.enumerate_mul_calls`` should halve, ``engine.enumerate_s``);
    a census kernel change should leave it unchanged.  ``cli.self_s`` is
    the x*x = x cross-check loop minus its products.

green_json -- ``green --json`` on T_6, I_6, Br_6, IS_5 and P_4 (81,239
    elements).  Same ``engine.enumerate_semigroup``, but mostly cheap
    ``MapElement`` products, so BFS bookkeeping
    (``engine.enumerate_self_s``), SCCs (``engine.green_s``), eggboxes
    (``engine.eggbox_s``; ``cmd_green`` builds each one twice, so
    ``engine.eggbox_calls`` is twice the D-class count) and the JSON
    writer (``engine.write_s``, ``engine.write_bytes``) take a large
    share.  A change that speeds up Bipartitions but costs map elements
    or Green's structure shows here.

census_stats -- ``census --stats`` on I_3, IS_3 and T_3.  Enumeration is
    trivial; ``wall_s`` is the closed-set search (``census.search_s``,
    ``kernels.extend_window_*``), the conjugacy fold
    (``kernels.min_image_*``, ``census.census_self_s``) and the
    per-class statistics (``kernels.count_dclasses_*``,
    ``kernels.count_idempotents_s``).  Raw sets / classes are
    16,143 / 2,963, 4,055 / 795 and 1,299 / 283.  A bitset kernel or a
    census up to symmetry shows here; a faster element product should
    not.  This is the single-threaded census baseline.

census_jobs2 -- ``census I 3 --stats --jobs 2``.  The only workload on
    the forked statistics pool (2,963 records, over the 256-record
    threshold).  Its output files must be byte-identical to I_3 in
    ``census_stats``.  A parallel census search shows here.  The kernel
    calls made inside the forked workers are not visible to the tracer:
    ``census.pool_records_unobserved`` counts the records whose
    statistics ran there, and ``kernels.count_*`` cover only the calls
    made in the benchmark's own process.

``engine.table_*`` and ``census.symmetry_group_s`` are close to zero on
every workload, so a gain claimed there needs a new workload first.

``BENCHMARK.json`` lists fern_tl10, census_stats and census_jobs2 only.
On a shared 2-core host, pass times drift by tens of percent over
minutes, and only longer runs (42 s, about five passes) kept the
run-to-run spread of ``wall_s`` inside its bound; the run budget allows
that for three workloads.  green_json stays runnable by hand; its
layers (``engine.green_s``, ``engine.eggbox_s``, ``engine.write_s``)
are also measured on fern_tl10.
"""

import random
import re

# family code and degree of each target of a workload, in its base order
_GREEN = [("T", 6), ("I", 6), ("Br", 6), ("IS", 5), ("P", 4)]
_CENSUS = [("I", 3, 16143, 2963), ("IS", 3, 4055, 795), ("T", 3, 1299, 283)]
_CENSUS_FILES = ["{stem}.jsonl", "{stem}_sizes.csv",
                 "{stem}_sizes_nontrivial_perm.csv",
                 "{stem}_size_vs_dclasses.csv", "{stem}_size_vs_idempotents.csv"]


class Target:
    """One CLI call: argv, the families whose generators it builds,
    patterns that lines of its stdout must match in full, and the files
    it must write (names relative to the output directory)."""

    def __init__(self, argv, families, expect, files):
        self.argv = argv
        self.families = families
        self.expect = expect
        self.files = files
        self.label = " ".join(argv[:3])


def _lines(*lines):
    return [re.escape(line) for line in lines]


def _fern(out, n, dclass, side, cells):
    name = f"fern_TL{n}_D{dclass}.pgm"
    return Target(["fern", str(n), str(dclass), "--out", f"{out}/{name}"],
                  [("TL", n)],
                  _lines(f"TL_{n} D[{dclass}]: {side}x{side} bitmap, {cells} "
                         f"idempotent cells (brute-force {cells}, MATCH)"),
                  [name])


def _green(out, family, n, order):
    name = f"green_{family}{n}.json"
    return Target(["green", family, str(n), "--json", f"{out}/{name}"],
                  [(family, n)],
                  [re.escape(f"{family}_{n}: {order} elements, ") + ".*"], [name])


def _census(out, family, n, raw, classes, extra=()):
    stem = f"census_{family}{n}"
    return Target(["census", family, str(n), "--stats", *extra, "--out", out],
                  [(family, n)],
                  _lines(f"subsemigroups of {family}_{n} up to conjugacy: {classes}",
                         f"raw subsemigroups: {raw}"),
                  [f.format(stem=stem) for f in _CENSUS_FILES])


# ``selftest`` is not a benchmark workload: ``selftest.py`` runs it as a
# quick end-to-end check of the benchmark itself.  ``green_json`` is run
# by hand only (see the module docstring).
WORKLOADS = ("fern_tl10", "green_json", "census_stats", "census_jobs2", "selftest")


def targets(workload, seed, out, family_order):
    """The targets of one pass, in the order the seed gives.

    ``family_order(code, n)`` supplies the closed-form orders that the
    ``green`` element counts are checked against."""
    if workload == "fern_tl10":
        return [_fern(out, 10, 4, 90, 5206)]
    if workload == "census_jobs2":
        return [_census(out, *_CENSUS[0], extra=("--jobs", "2"))]
    if workload == "selftest":
        return [_fern(out, 6, 1, 5, 13), _green(out, "T", 3, family_order("T", 3)),
                _census(out, "T", 2, 10, 8)]
    if workload == "green_json":
        base = [_green(out, f, n, family_order(f, n)) for f, n in _GREEN]
    elif workload == "census_stats":
        base = [_census(out, *row) for row in _CENSUS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(base)
    return base
