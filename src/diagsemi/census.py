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

Deduplication to conjugacy classes maps every mask through the ambient
symmetry group (the point permutations fixing the element set) and
keeps the minimal image, where masks compare as plain integers with
element i at bit i.
"""

import json
import multiprocessing
import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .elements import PointPermutation, conjugate, is_nontrivial_permutation
from .engine import EnumeratedSemigroup
from .formulas import decimal_string
from .kernels import Backend


class FeasibilityError(RuntimeError):
    """A request exceeds a feasibility bound; no partial counts are ever
    reported."""


# The two feasibility bounds, in elements, that the command line checks
# against the closed-form order; only the census bound can be overridden.
# The enumeration bound admits TL_12 (208,012) and refuses TL_13 (742,900).
DEFAULT_MAX_ELEMENTS = 64
ENUMERATION_MAX_ELEMENTS = 250_000
# The symmetry group is found by trying all n! point permutations.
SYMMETRY_MAX_DEGREE = 8

_KERNELS = Backend()


def check_bound(n, bound, kind, what="ambient"):
    """The one refusal of every bound: ``what`` has ``n`` elements, more
    than the ``kind`` bound admits."""
    if n > bound:
        raise FeasibilityError(
            f"{what} has {decimal_string(n)} elements, over the {kind} bound of {bound}")


def check_census_bound(n, max_elements=None):
    """Refuse an ambient of ``n`` elements over the census bound."""
    check_bound(n, DEFAULT_MAX_ELEMENTS if max_elements is None else max_elements,
                "census")


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
    if n > SYMMETRY_MAX_DEGREE:
        raise FeasibilityError(
            f"symmetry filtering over S_{n} refused (bound {SYMMETRY_MAX_DEGREE})"
        )
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


def all_subsemigroup_masks(S, max_elements=None):
    """Every product-closed subset of S, as a sorted list of bitmasks."""
    check_census_bound(len(S), max_elements)
    table = S.multiplication_table()
    masks = [0]
    work = [(0, 0)]
    while work:
        mask, lo = work.pop()
        for e, closed in _KERNELS.extend_window(table, mask, lo):
            masks.append(closed)
            work.append((closed, e + 1))
    return sorted(masks)


@dataclass(frozen=True)
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


_POOL_STATE = {}


def _stats_worker(args):
    mask, orbit = args
    return _make_record(_POOL_STATE["table"], _POOL_STATE["perm_bits"], mask, orbit)


def _make_record(table, perm_bits, mask, orbit):
    return CensusRecord(
        mask=mask,
        orbit_size=orbit,
        size=bin(mask).count("1"),
        d_classes=_KERNELS.count_dclasses(table, mask),
        idempotents=_KERNELS.count_idempotents(table, mask),
        has_nontrivial_perm=bool(mask & perm_bits),
    )


def census_up_to_conjugacy(S, G=None, max_elements=None, jobs=1):
    """One record per conjugacy class of subsemigroups, ordered by
    representative mask; returns (records, raw_total)."""
    check_census_bound(len(S), max_elements)
    if G is None:
        G = symmetry_group(S)
    masks = all_subsemigroup_masks(S, max_elements=max_elements)

    groups = {}
    for m in masks:
        rep, orbit = _KERNELS.min_image(m, G.index_perms)
        groups.setdefault(rep, [orbit, 0])
        groups[rep][1] += 1
    for rep, (orbit, n_in_orbit) in groups.items():
        if orbit != n_in_orbit:
            raise AssertionError(
                f"orbit of {rep:#x} has {orbit} images but {n_in_orbit} members"
            )

    perm_bits = 0
    for i, x in enumerate(S.elements):
        if is_nontrivial_permutation(x):
            perm_bits |= 1 << i

    table = S.multiplication_table()
    items = sorted((rep, orbit) for rep, (orbit, _) in groups.items())
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and len(items) > 256:
        _KERNELS.product_tables(table)  # built once here, inherited by the fork
        _POOL_STATE.update(table=table, perm_bits=perm_bits)
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            records = pool.map(_stats_worker, items, chunksize=512)
    else:
        records = [_make_record(table, perm_bits, m, o) for m, o in items]
    assert sum(r.orbit_size for r in records) == len(masks)
    return records, len(masks)


def subgroup_census(S, G=None, max_elements=None, jobs=1):
    """Conjugacy classes of subgroups of a group ambient.

    Every nonempty closed subset of a finite group is a subgroup, so
    this is the subsemigroup census with the empty set dropped (the one
    row of the published table that excludes it)."""
    check_census_bound(len(S), max_elements)
    table = S.multiplication_table()
    # every element needs a two-sided inverse: a y with xy = yx = 1
    if not ((table == 0) & (table.T == 0)).any(axis=1).all():
        raise ValueError("ambient is not a group")
    records, _ = census_up_to_conjugacy(S, G=G, max_elements=max_elements,
                                        jobs=jobs)
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


def write_records_jsonl(path, records, config=None):
    with open(path, "w") as fh:
        if config is not None:
            fh.write(json.dumps({"config": config}) + "\n")
        for r in records:
            fh.write(json.dumps(r.to_json()) + "\n")
