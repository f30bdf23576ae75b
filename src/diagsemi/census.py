"""Subsemigroup census of a small enumerated semigroup.

Subsets are bitmasks over element indices.  The search is Close-by-One
(S. O. Kuznetsov, 1993; compare B. Ganter's NextClosure, 1984): a state
is a closed mask M plus the lowest index lo it may still adjoin.  The
children of M are the closures C = <M, e> for e >= lo not in M that gain
no element below e, and each child is expanded from e + 1.  The one
parent of a nonempty closed C is <C ∩ [0, e)>, for the largest e in C
outside the closure of C's elements below e, so every closed subset
(the empty one included) is produced exactly once and no record of the
sets already found is kept; a 2^N subset scan doubles as the
completeness oracle in the tests.

The search runs one level of the tree at a time: ``extend_window``
closes every candidate of a level together, over packed mask rows (see
``kernels``).  Each level goes straight on to the fold to conjugacy
classes, which maps every mask through the ambient symmetry group (the
point permutations fixing the element set) and keeps the minimal image,
where masks compare as plain integers with element i at bit i; then the
statistics of the level's representatives are counted.  The states of a
level share nothing, so each level is cut into at most ``jobs`` slices
of about equal weight.  The calling process folds, counts and extends
the first slice while ``jobs`` - 1 workers, forked once per census and
each on its own pipe, take one of the others.
"""

import json
import multiprocessing
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import permutations, starmap

import numpy as np

from .elements import PointPermutation, conjugate
from .engine import EnumeratedSemigroup
from .formulas import decimal_string
from .kernels import Backend, _spans, pack_masks, unpack_masks


class FeasibilityError(RuntimeError):
    """A request exceeds a feasibility bound; no partial counts are ever
    reported."""


# The two feasibility bounds, in elements, that the command line checks
# against the closed-form order.  The census bound admits S_5 (120), the
# largest ambient of any census the suite gates, and refuses TL_6 (132),
# whose search is out of reach; at 128 elements the search's lookup table
# takes 8 MiB.  The enumeration bound admits TL_12 (208,012) and refuses
# TL_13 (742,900).
CENSUS_MAX_ELEMENTS = 128
ENUMERATION_MAX_ELEMENTS = 250_000
# The symmetry group is found by trying all n! point permutations.
SYMMETRY_MAX_DEGREE = 8


def check_bound(n, bound, kind, what="ambient", unit="elements"):
    """The one refusal of every bound: ``what`` has ``n`` ``unit``, more
    than the ``kind`` bound admits."""
    if n > bound:
        raise FeasibilityError(
            f"{what} has {decimal_string(n)} {unit}, over the {kind} bound of {bound}")


def check_census_bound(n, what="ambient"):
    """Refuse an ambient of ``n`` elements over the census bound."""
    check_bound(n, CENSUS_MAX_ELEMENTS, "census", what=what)


class SymmetryGroup:
    """Point permutations whose conjugation action fixes the ambient
    element set, together with the induced element-index permutations."""

    def __init__(self, perms, index_perms):
        self.perms = perms
        self.index_perms = index_perms  # int32 array |G| x N

    def __len__(self):
        return len(self.perms)


def symmetry_group(S: EnumeratedSemigroup) -> SymmetryGroup:
    n = S.degree
    if n is None:
        raise ValueError("ambient semigroup has no diagram degree")
    check_bound(n, SYMMETRY_MAX_DEGREE, "symmetry", unit="points")
    kept, rows = [], []
    for image in permutations(range(n)):
        sigma = PointPermutation(image)
        row = np.empty(len(S), dtype=np.int32)
        ok = True
        for i, x in enumerate(S.elements):
            j = S.index.get(conjugate(x, sigma))
            if j is None:
                ok = False
                break
            row[i] = j
        if ok:
            kept.append(sigma)
            rows.append(row)
    return SymmetryGroup(kept, np.vstack(rows))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _units(table):
    """The indices of the units of a monoid with identity 0, ascending:
    the elements whose table row holds 0 (in a finite monoid a one-sided
    inverse is two-sided).  In every family here they are the
    permutation diagrams."""
    return np.flatnonzero((table == 0).any(axis=1))


def _root(n):
    """The state of the whole search: the empty set, adjoining from 0."""
    return pack_masks([0], n), np.zeros(1, np.intp)


def all_subsemigroup_masks(S):
    """Every product-closed subset of S, as a sorted list of bitmasks,
    found one level of the search at a time."""
    check_census_bound(len(S))
    kernels = Backend(S.multiplication_table(), np.arange(len(S))[None])  # trivial group
    found, (masks, lo) = [], _root(len(S))
    while len(masks):
        found += unpack_masks(masks)
        children = kernels.extend_window(masks, lo)
        masks, lo = children["mask"], children["e"] + 1
    return sorted(found)


@dataclass(frozen=True, slots=True)  # no __dict__: a census holds one record a class
class CensusRecord:
    mask: int  # representative: minimal image over the symmetry group
    orbit_size: int
    size: int
    d_classes: int
    idempotents: int
    has_nontrivial_perm: bool

    def to_json(self):
        return {
            "representative_mask_hex": hex(self.mask),
            "orbit_size": self.orbit_size,
            "size": self.size,
            "d_classes": self.d_classes,
            "idempotents": self.idempotents,
            "has_nontrivial_perm": self.has_nontrivial_perm,
        }


# (kernels, mask of the non-identity units) of the running census,
# read by _census_level: forked workers inherit it, so nothing is pickled
_AMBIENT = None


def _census_level(states):
    """The census of one slice ``states`` (masks, lo) of a level of the
    search: the states of its children, the fields of the records of its
    sets that are their own minimal image, and how many of its sets each
    minimal image has."""
    kernels, perm_bits = _AMBIENT
    masks, lo = states
    reps, orbits = kernels.min_image(masks)
    own = (masks == reps).all(axis=1)
    # one void value a row: np.unique sorts these far faster than rows by axis=0
    nb = reps.shape[1]
    images, counts = np.unique(reps.view(f"V{nb}").ravel(), return_counts=True)
    own_masks = masks[own]
    # a tuple of fields a record, which a worker pickles far faster than records
    fields = [(m, orbit, m.bit_count(), d, e, bool(m & perm_bits))
               for m, orbit, d, e in zip(unpack_masks(own_masks), orbits[own].tolist(),
                                         kernels.count_dclasses(own_masks),
                                         kernels.count_idempotents(own_masks))]
    children = kernels.extend_window(masks, lo)
    found = dict(zip(unpack_masks(images.view(np.uint8).reshape(-1, nb)), counts.tolist()))
    return (children["mask"], children["e"] + 1), fields, found


def _serve(pipe):
    """A worker's loop: the census of each slice it receives on ``pipe``,
    or the exception that raised and its traceback, sent back until the
    caller closes the pipe."""
    while True:
        try:
            states = pipe.recv()
        except EOFError:
            return
        try:
            reply = None, _census_level(states)
        except Exception as exc:  # raised again in the caller
            import traceback  # here, not at the top: it adds 3 ms to every start
            reply = exc, traceback.format_exc()
        pipe.send(reply)


def _gather(pipes, slices):
    """The census of each slice, in order: the first in this process while
    the workers on ``pipes`` take one of the others each."""
    for pipe, states in zip(pipes, slices[1:]):
        pipe.send(states)
    results = [_census_level(slices[0])]
    for pipe in pipes[:len(slices) - 1]:
        try:
            exc, value = pipe.recv()
        except EOFError:
            raise RuntimeError("a census worker died") from None
        if exc is not None:
            raise exc from RuntimeError(f"in a census worker:\n{value}")
        results.append(value)
    return results


@contextmanager
def _workers(count):
    """A function from the slices of a level to their census, run by this
    process and ``count`` forked workers.  The workers fork on entry, so
    they inherit ``_AMBIENT``, and are stopped and joined on exit, on
    success or failure alike."""
    fork = multiprocessing.get_context("fork")
    pipes, procs = [], []
    try:
        for _ in range(count):
            ours, theirs = fork.Pipe()
            pipes.append(ours)
            procs.append(fork.Process(target=_serve, args=(theirs,), daemon=True))
            procs[-1].start()
            theirs.close()  # the worker's end: its exit is then EOF on ours
        yield lambda slices: _gather(pipes, slices)
    finally:
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            proc.terminate()  # a worker still busy with a slice of a failed level
            proc.join()


def census_up_to_conjugacy(S, G=None, jobs=1):
    """One record per conjugacy class of subsemigroups, ordered by
    representative mask; returns (records, raw_total)."""
    global _AMBIENT
    check_census_bound(len(S))
    if G is None:
        G = symmetry_group(S)
    table = S.multiplication_table()
    _AMBIENT = Backend(table, G.index_perms), sum(1 << int(i) for i in _units(table)[1:])
    try:
        jobs = min(jobs, _usable_cpus())
        records, found = [], Counter()
        with _workers(jobs - 1) as census_slices:
            # each level is the children of the slices of the one before, cut into
            # at most ``jobs`` slices of about equal weight (N - lo bounds a state's
            # candidates)
            level = [_root(len(S))]
            while sum(len(masks) for masks, _ in level):
                masks, lo = map(np.concatenate, zip(*level))
                level, weights = [], len(S) - lo
                slices = [(masks[s], lo[s]) for s in _spans(weights, -(-weights.sum() // jobs))]
                del masks, lo, weights  # from here on the slices alone hold the level
                for kids, part, counts in census_slices(slices):
                    level.append(kids)
                    records += starmap(CensusRecord, part)
                    found.update(counts)  # Counter.update adds where dict.update overwrites
                del slices, kids, part, counts  # free the level before the next is built
    finally:
        _AMBIENT = None  # the tables are not kept past the call, nor past a failure
    records.sort(key=lambda r: r.mask)

    raw_total = sum(found.values())
    for r in records:
        if found.pop(r.mask) != r.orbit_size:
            raise AssertionError(f"orbit of {r.mask:#x} does not hold {r.orbit_size} sets")
    if found:
        raise AssertionError(f"{len(found)} minimal images were found without their set")
    return records, raw_total


def subgroup_census(S, G=None, jobs=1):
    """Conjugacy classes of subgroups of a group ambient.

    Every nonempty closed subset of a finite group is a subgroup, so
    this is the subsemigroup census with the empty set dropped (the one
    row of the published table that excludes it)."""
    check_census_bound(len(S))
    if len(_units(S.multiplication_table())) != len(S):
        raise ValueError("ambient is not a group")
    records, _ = census_up_to_conjugacy(S, G=G, jobs=jobs)
    nonempty = [r for r in records if r.size > 0]
    for r in nonempty:
        if not r.mask & 1:
            raise AssertionError("subgroup without the ambient identity")
    return len(nonempty)


# ---------------------------------------------------------------------------
# statistics and file formats


def size_histogram(records, only_nontrivial_perm=False):
    out = {}
    for r in records:
        if only_nontrivial_perm and not r.has_nontrivial_perm:
            continue
        out[r.size] = out.get(r.size, 0) + 1
    return dict(sorted(out.items()))


def joint_histogram(records, metric):
    key = {"d-classes": "d_classes", "idempotents": "idempotents"}.get(metric)
    if key is None:
        raise ValueError(f"unknown metric {metric!r}")
    out = {}
    for r in records:
        k = (r.size, getattr(r, key))
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


def write_histogram_csv(path, hist, config=""):
    with open(path, "w") as fh:
        if config:
            fh.write(f"# {config}\n")
        fh.write("size,count\n")
        for size, count in hist.items():
            fh.write(f"{size},{count}\n")


def write_joint_csv(path, joint, metric, config=""):
    with open(path, "w") as fh:
        if config:
            fh.write(f"# {config}\n")
        fh.write(f"size,{metric},count\n")
        for (size, value), count in joint.items():
            fh.write(f"{size},{value},{count}\n")


# ``json.dumps(r.to_json())`` of a record, plus its newline, in one format
_JSONL_RECORD = ('{{"representative_mask_hex": "{:#x}", "orbit_size": {}, "size": {}, '
                 '"d_classes": {}, "idempotents": {}, "has_nontrivial_perm": {}}}\n')
_JSON_BOOL = ("false", "true")


def write_records_jsonl(path, records, config=None):
    with open(path, "w") as fh:
        if config is not None:
            fh.write(json.dumps({"config": config}) + "\n")
        fh.writelines(_JSONL_RECORD.format(r.mask, r.orbit_size, r.size, r.d_classes,
                                           r.idempotents, _JSON_BOOL[r.has_nontrivial_perm])
                      for r in records)
