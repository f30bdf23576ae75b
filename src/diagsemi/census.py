"""Subsemigroup census of a small enumerated semigroup.

Subsets are bitmasks over element indices.  The search is Close-by-One
(S. O. Kuznetsov, 1993; compare B. Ganter's NextClosure, 1984): a state
is a closed mask M plus the element e it was reached by, and it may
still adjoin the elements above e.  The children of M are the closures
C = <M, f> for f > e not in M that gain no element below f, each a state
with e = f.  The one parent of a nonempty closed C is <C ∩ [0, e)>, for
the largest e in C outside the closure of C's elements below e, so every
closed subset (the empty one included) is produced exactly once and no
record of the sets already found is kept; a 2^N subset scan doubles as
the completeness oracle in the tests.

The search runs one level of the tree at a time, and a level, like each
slice of it, is one state array of ``kernels`` records (state, e, mask),
from the ``root`` state (the empty set, e = -1) down to the last level:
``extend_window`` closes every candidate of a level together and returns
the next.  This module reads no byte of a mask: the packed layout, the
keys that sort as the masks do and the weight of a state (the bound on
its candidates) are the ``kernels``' own.  Each level goes straight on
to the fold to conjugacy classes, which maps every mask through the
ambient symmetry group (the point permutations fixing the element set)
and keeps the minimal image, where masks compare as plain integers with
element i at bit i.  The states of a level share nothing, so each level
is cut into at most ``jobs`` slices of about equal weight.  The calling
process folds and extends the first slice while ``jobs`` - 1 workers,
forked once per census and each on its own pipe, take one of the
others.  Every slice function takes the ambient, the kernels and their
tables, as an argument, which the workers inherit at the fork.

A slice returns arrays, never an object per set: the state array of its
children, the masks of its sets that are their own minimal image, with
their orbit sizes, and its distinct minimal images, as sorted keys, with
how many of its sets have each.  After each level the caller merges
those sorted runs into one running table of images by a stable sort, so
that it holds one entry for each class found so far.  After the search,
the statistics of every class are counted in one pass: the classes in
size order, cut as a level is into at most ``jobs`` slices of about
equal weight (the sum of the squares of their sizes), go through the
same processes in one call.  The caller then checks every orbit against
the image table and sorts the classes by their keys, which is mask
order.  ``CensusClasses`` holds the result; the histograms are
``np.unique`` counts of its columns, and the JSONL writer, like
iteration over ``CensusRecord``s, builds Python values a chunk of rows
at a time, the writer with one %-format a chunk.
"""

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, permutations, starmap

import numpy as np

from .elements import PointPermutation, conjugate
from .engine import EnumeratedSemigroup
from .formulas import decimal_string
from .kernels import Backend, _spans, mask_field, mask_row, popcount, root, sort_keys, unpack_masks


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


def all_subsemigroup_masks(S):
    """Every product-closed subset of S, as a sorted list of bitmasks,
    found one level of the search at a time."""
    check_census_bound(len(S))
    kernels = Backend(S.multiplication_table(), np.arange(len(S))[None])  # trivial group
    found, level = [], root(len(S))
    while len(level):
        found += unpack_masks(level["mask"])
        level = kernels.extend_window(level)
    return sorted(found)


@dataclass(frozen=True, slots=True)
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


_STAT_FIELDS = CensusRecord.__slots__[1:]
# rows turned into Python values, and into JSONL lines, at a time: bounds
# the objects and the string alive at once
_CHUNK_ROWS = 1 << 9


def class_dtype(n, group_order):
    """The row of one class of a census over ``n`` elements and a symmetry
    group of ``group_order``: the packed mask of its representative, then
    the fields of its ``CensusRecord``, each as narrow as its bound."""
    count = np.min_scalar_type(n)  # a size, D-class or idempotent count is at most n
    return np.dtype([mask_field(n), ("orbit_size", np.min_scalar_type(group_order)),
                     ("size", count), ("d_classes", count), ("idempotents", count),
                     ("has_nontrivial_perm", bool)])


class CensusClasses:
    """The classes of a census in mask order: ``rows``, one row of
    ``class_dtype`` a class.  Iteration builds its ``CensusRecord``s."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return starmap(CensusRecord, chain.from_iterable(zip(*c) for c in _python_columns(self.rows)))

    def __eq__(self, other):
        return (isinstance(other, CensusClasses) and self.rows.dtype == other.rows.dtype
                and self.rows.tobytes() == other.rows.tobytes())


def _python_columns(rows):
    """The fields of ``rows`` as lists of Python values, the masks ints, a
    chunk of rows at a time."""
    for part in _spans(len(rows), _CHUNK_ROWS):
        chunk = rows[part]
        yield [unpack_masks(chunk["mask"]), *(chunk[f].tolist() for f in _STAT_FIELDS)]


def _share(weights, jobs):
    """The one rule by which a census shares out its work: at most ``jobs``
    slices of consecutive items of about equal total ``weights``."""
    return _spans(weights, -(-weights.sum() // jobs))


def _census_level(ambient, states):
    """The census of one slice ``states`` of a level of the search: the
    state array of its children, the rows of the classes of its sets that
    are their own minimal image, their statistics still zero, and its
    distinct minimal images (``sort_keys``) with how many of its sets have
    each."""
    kernels, _, dtype = ambient
    masks = states["mask"]
    reps, orbits = kernels.min_image(masks)
    own = (masks == reps).all(axis=1)
    classes = np.zeros(np.count_nonzero(own), dtype)
    classes["mask"], classes["orbit_size"] = masks[own], orbits[own]
    return kernels.extend_window(states), classes, np.unique(sort_keys(reps), return_counts=True)


def _class_stats(ambient, masks):
    """The D-class count, the idempotent count and whether a non-identity
    unit is in, of each subsemigroup in the packed ``masks``."""
    kernels, perm_row, _ = ambient
    return (kernels.count_dclasses(masks), kernels.count_idempotents(masks),
            (masks & perm_row).any(axis=1))


def _serve(pipe, ambient):
    """A worker's loop: for each (function, slice) it receives on
    ``pipe``, the function's value on ``ambient`` and the slice, or the
    exception that raised and its traceback, sent back until the caller
    closes the pipe."""
    while True:
        try:
            function, part = pipe.recv()
        except EOFError:
            return
        try:
            reply = None, function(ambient, part)
        except Exception as exc:  # raised again in the caller
            import traceback  # here, not at the top: it adds 3 ms to every start
            reply = exc, traceback.format_exc()
        pipe.send(reply)


def _gather(pipes, ambient, function, slices):
    """``function``, a module-level function, on ``ambient`` and each
    slice, in order: on the first in this process while the workers on
    ``pipes`` take one of the others each."""
    if len(slices) > len(pipes) + 1:
        raise ValueError(f"{len(slices)} slices for {len(pipes) + 1} processes")
    for pipe, part in zip(pipes, slices[1:]):
        pipe.send((function, part))
    results = [function(ambient, slices[0])]
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
def _workers(count, ambient):
    """A function from a module-level function and at most ``count`` + 1
    slices to its value on ``ambient`` and each slice, run by this process
    and ``count`` forked workers.  The workers fork on entry and get
    ``ambient`` as an argument of their ``Process``, so they inherit it
    and nothing of it is pickled; they are stopped and joined on exit, on
    success or failure alike."""
    if count:  # imported here, not at the top: a census that forks nothing does without it
        import multiprocessing
        fork = multiprocessing.get_context("fork")
    pipes, procs = [], []
    try:
        for _ in range(count):
            ours, theirs = fork.Pipe()
            pipes.append(ours)
            procs.append(fork.Process(target=_serve, args=(theirs, ambient), daemon=True))
            procs[-1].start()
            theirs.close()  # the worker's end: its exit is then EOF on ours
        yield lambda function, slices: _gather(pipes, ambient, function, slices)
    finally:
        for pipe in pipes:
            pipe.close()
        for proc in procs:
            proc.terminate()  # a worker still busy with a slice of a failed call
            proc.join()


def _check_jobs(jobs):
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def census_up_to_conjugacy(S, G=None, jobs=1):
    """The conjugacy classes of subsemigroups of S and the number of
    subsemigroups: returns (``CensusClasses``, raw_total)."""
    _check_jobs(jobs)
    check_census_bound(len(S))
    if G is None:
        G = symmetry_group(S)
    n, table = len(S), S.multiplication_table()
    kernels = Backend(table, G.index_perms)
    # the kernels, the packed non-identity units and the class row, which
    # the forked workers inherit, so nothing of it is pickled
    ambient = kernels, mask_row(_units(table)[1:], n), class_dtype(n, len(G))
    jobs = min(jobs, _usable_cpus())
    classes, level = [], root(n)
    # the distinct minimal images so far, ascending, and how many sets have each
    images, held = sort_keys(level["mask"][:0]), np.empty(0, np.intp)
    with _workers(jobs - 1, ambient) as run:
        # each level is the children of the slices of the one before, shared
        # out by the state weights
        while len(level):
            slices = [level[s] for s in _share(kernels.weights(level), jobs)]
            del level  # from here on the slices alone hold the level
            level, keys, counts = [], [images], [held]
            for kids, part, (part_keys, part_counts) in run(_census_level, slices):
                level.append(kids)
                classes.append(part)
                keys.append(part_keys)
                counts.append(part_counts)
            # free the level before the next is built
            del slices, kids, part, part_keys, part_counts
            # the table and the slices' images are sorted runs, which a
            # stable sort merges
            keys, counts = np.concatenate(keys), np.concatenate(counts)
            order = np.argsort(keys, kind="stable")
            keys, counts = keys[order], counts[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            images, held = keys[starts], np.add.reduceat(counts, starts)
            del keys, counts, order, starts
            level = np.concatenate(level)
        # the statistics in one run over the classes in size order, shared
        # out by the sum of the squares of their sizes
        classes = np.concatenate(classes)
        classes["size"] = popcount(classes["mask"])
        by_size = np.argsort(classes["size"], kind="stable")
        slices = [by_size[s] for s in _share(classes["size"][by_size].astype(np.int64) ** 2, jobs)]
        for rows, stats in zip(slices, run(_class_stats, [classes["mask"][rows] for rows in slices])):
            for field, values in zip(_STAT_FIELDS[2:], stats):
                classes[field][rows] = values
    keys = sort_keys(classes["mask"])
    order = np.argsort(keys)
    classes, keys = classes[order], keys[order]

    # a class's own set is one of the sets of its minimal image, so each
    # key is among the images
    short = np.flatnonzero(held[np.searchsorted(images, keys)] != classes["orbit_size"])
    if len(short):
        r = next(iter(CensusClasses(classes[short[:1]])))
        raise AssertionError(f"orbit of {r.mask:#x} does not hold {r.orbit_size} sets")
    if len(images) > len(keys):
        raise AssertionError(f"{len(images) - len(keys)} minimal images were found without their set")
    return CensusClasses(classes), int(held.sum())


def subgroup_census(S, G=None, jobs=1):
    """Conjugacy classes of subgroups of a group ambient.

    Every nonempty closed subset of a finite group is a subgroup, so
    this is the subsemigroup census with the empty set dropped (the one
    row of the published table that excludes it)."""
    _check_jobs(jobs)
    check_census_bound(len(S))
    if len(_units(S.multiplication_table())) != len(S):
        raise ValueError("ambient is not a group")
    classes, _ = census_up_to_conjugacy(S, G=G, jobs=jobs)
    nonempty = classes.rows[classes.rows["size"] > 0]
    if not (nonempty["mask"] & mask_row([0], len(S))).any(axis=1).all():
        raise AssertionError("subgroup without the ambient identity")
    return len(nonempty)


# ---------------------------------------------------------------------------
# statistics and file formats


def size_histogram(classes, only_nontrivial_perm=False):
    rows = classes.rows
    if only_nontrivial_perm:
        rows = rows[rows["has_nontrivial_perm"]]
    sizes, counts = np.unique(rows["size"], return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


def joint_histogram(classes, metric):
    key = {"d-classes": "d_classes", "idempotents": "idempotents"}.get(metric)
    if key is None:
        raise ValueError(f"unknown metric {metric!r}")
    values = classes.rows[key]
    base = int(values.max(initial=0)) + 1  # size·base + value orders as (size, value)
    pairs, counts = np.unique(classes.rows["size"].astype(np.int64) * base + values,
                              return_counts=True)
    return {divmod(pair, base): count for pair, count in zip(pairs.tolist(), counts.tolist())}


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


# ``json.dumps(r.to_json())`` of a record, plus its newline, in one
# %-format, which formats these ints about twice as fast as str.format,
# and a chunk of records in one % of the format repeated
_JSONL_RECORD = ('{"representative_mask_hex": "%#x", "orbit_size": %d, "size": %d, '
                 '"d_classes": %d, "idempotents": %d, "has_nontrivial_perm": %s}\n')
_JSON_BOOL = ("false", "true")


def write_records_jsonl(path, classes, config=None):
    with open(path, "w") as fh:
        if config is not None:
            fh.write(json.dumps({"config": config}) + "\n")
        for *columns, perm in _python_columns(classes.rows):
            fields = chain.from_iterable(zip(*columns, map(_JSON_BOOL.__getitem__, perm)))
            fh.write((_JSONL_RECORD * len(perm)) % tuple(fields))
