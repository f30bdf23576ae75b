import multiprocessing
import os
import random
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from diagsemi import census
from diagsemi.census import (
    FeasibilityError,
    _units,
    all_subsemigroup_masks,
    census_up_to_conjugacy,
    joint_histogram,
    size_histogram,
    subgroup_census,
    symmetry_group,
)
from diagsemi.elements import MapElement
from diagsemi.embeddings import embed
from diagsemi.engine import enumerate_semigroup
from diagsemi.formulas import family_order
from diagsemi.kernels import Backend, _lookup_table, pack_masks, unpack_masks

from .conftest import monoid
from .oracles import brute_closed_subsets, is_closed

# Published census counts gated at desk scale (the S row counts subgroup
# classes and excludes the empty set; every other row includes it).
TABLE3 = [
    ("TL", 1, 2), ("TL", 2, 4), ("TL", 3, 12), ("TL", 4, 232), ("TL", 5, 12592),
    ("Br", 1, 2), ("Br", 2, 6), ("Br", 3, 42), ("Br", 4, 10411),
    ("S", 1, 1), ("S", 2, 2), ("S", 3, 4), ("S", 4, 11), ("S", 5, 19),
    ("T", 1, 2), ("T", 2, 8), ("T", 3, 283),
    ("I", 1, 4), ("I", 2, 23), ("I", 3, 2963),
    ("PT", 1, 4), ("PT", 2, 50), ("PT", 3, 94232),
    ("P", 1, 4), ("P", 2, 272),
    ("B", 1, 4), ("B", 2, 385),
    ("IS", 1, 2), ("IS", 2, 6), ("IS", 3, 795),
    ("PB", 1, 1262),
]

# Raw closed sets (the empty one included) that the census tests also assert
RAW_SETS = {("Br", 4): 178323, ("PT", 3): 546834}


def _census_count(family, n):
    S = monoid(family, n)
    if family == "S":
        return subgroup_census(S)
    records, raw = census_up_to_conjugacy(S)
    if (family, n) in RAW_SETS:
        assert raw == RAW_SETS[family, n]
    return len(records)


@pytest.mark.parametrize("family,n,expected", TABLE3)
def test_published_census_counts(family, n, expected):
    assert _census_count(family, n) == expected


def test_subgroup_census_rejects_a_non_group():
    with pytest.raises(ValueError, match="^ambient is not a group$"):
        subgroup_census(monoid("T", 2))


def test_trivial_ambient():
    S = enumerate_semigroup([MapElement.identity(1)])
    assert all_subsemigroup_masks(S) == [0, 1]
    records, total = census_up_to_conjugacy(S)
    assert total == 2
    assert size_histogram(records) == {0: 1, 1: 1}


@pytest.mark.parametrize("family,n", [
    ("I", 1), ("PT", 1), ("T", 2), ("S", 3), ("I", 2), ("PT", 2),
    ("B", 1), ("P", 1), ("Br", 2), ("IS", 2), ("TL", 3), ("Br", 3),
])
def test_search_agrees_with_subset_scan(family, n):
    """Close-by-One search vs filtering all 2^N subsets (N <= 15)."""
    S = monoid(family, n)
    assert len(S) <= 15
    table = S.multiplication_table()
    assert all_subsemigroup_masks(S) == sorted(brute_closed_subsets(table))


@pytest.mark.parametrize("family,n,raw", [
    ("T", 3, 1299), ("IS", 3, 4055), ("I", 3, 16143), ("TL", 5, 24966), ("S", 5, 157),
])
def test_raw_counts_past_the_subset_scan(family, n, raw):
    """Raw closed-set counts on ambients too large for the subset scan."""
    assert len(all_subsemigroup_masks(monoid(family, n))) == raw


def test_s5_search_is_fast():
    S = monoid("S", 5)
    S.multiplication_table()
    start = time.perf_counter()
    masks = all_subsemigroup_masks(S)
    assert time.perf_counter() - start < 1.0
    assert len(masks) == 157


def test_every_emitted_mask_is_closed():
    S = monoid("T", 3)
    table = S.multiplication_table()
    for mask in all_subsemigroup_masks(S):
        assert is_closed(table, mask)


def test_symmetry_groups():
    for n in (2, 3):
        G = symmetry_group(monoid("T", n))
        assert len(G) == [1, 1, 2, 6][n]
    G = symmetry_group(monoid("TL", 3))
    assert len(G) == 2
    images = sorted(g.image for g in G.perms)
    assert images == [(0, 1, 2), (2, 1, 0)]  # identity and the reversal
    G = symmetry_group(enumerate_semigroup([MapElement.identity(1)]))
    assert len(G) == 1


def test_symmetry_group_closed_under_composition():
    for family, n in [("T", 3), ("TL", 4), ("P", 2), ("B", 2)]:
        G = symmetry_group(monoid(family, n))
        perms = set(p.image for p in G.perms)
        for a in G.perms:
            for b in G.perms:
                assert (a * b).image in perms


def test_orbit_sum_identity_and_minimal_image():
    S = monoid("P", 2)
    G = symmetry_group(S)
    kernels = Backend(S.multiplication_table(), G.index_perms)
    records, raw = census_up_to_conjugacy(S, G=G)
    assert sum(r.orbit_size for r in records) == raw
    rng = random.Random(17)
    sample = rng.sample(all_subsemigroup_masks(S), 60)
    reps = kernels.min_image(pack_masks(sample, len(S)))[0]
    assert (kernels.min_image(reps)[0] == reps).all()  # idempotent
    for mask, rep in zip(sample, unpack_masks(reps)):
        images = []
        for row in G.index_perms:
            image = 0
            for i in range(len(S)):
                if mask >> i & 1:
                    image |= 1 << int(row[i])
            images.append(image)
        assert unpack_masks(kernels.min_image(pack_masks(images, len(S)))[0]) == [rep] * len(images)


def test_subgroup_census_values():
    assert subgroup_census(monoid("S", 1)) == 1
    assert subgroup_census(monoid("S", 3)) == 4
    assert subgroup_census(monoid("S", 4)) == 11
    with pytest.raises(ValueError):
        subgroup_census(monoid("T", 2))


def test_census_record_statistics():
    records, _ = census_up_to_conjugacy(monoid("T", 2))
    whole = [r for r in records if r.size == 4]
    assert len(whole) == 1
    assert whole[0].d_classes == 2  # {1, swap} above the two constants
    assert whole[0].idempotents == 3
    assert whole[0].has_nontrivial_perm
    empty = [r for r in records if r.size == 0]
    assert len(empty) == 1
    assert empty[0].d_classes == 0 and empty[0].idempotents == 0


def test_max_size_bucket_is_the_whole_monoid():
    records, _ = census_up_to_conjugacy(monoid("T", 3))
    hist = size_histogram(records)
    assert max(hist) == 27
    assert hist[27] == 1


def test_joint_histogram_total_mass():
    records, _ = census_up_to_conjugacy(monoid("I", 2))
    joint = joint_histogram(records, "d-classes")
    assert sum(joint.values()) == len(records) == 23
    joint = joint_histogram(records, "idempotents")
    assert sum(joint.values()) == 23
    with pytest.raises(ValueError):
        joint_histogram(records, "nope")


def test_histogram_perm_filter():
    records, _ = census_up_to_conjugacy(monoid("T", 2))
    with_perm = size_histogram(records, only_nontrivial_perm=True)
    assert sum(with_perm.values()) == sum(1 for r in records if r.has_nontrivial_perm)
    assert with_perm  # T_2 contains the swap


def test_feasibility_bound_refuses_not_lies():
    """TL_6 (132 elements) is over the census bound: every entry point
    refuses it with the one message of the bound."""
    S = monoid("TL", 6)
    message = "^ambient has 132 elements, over the census bound of 128$"
    for entry in (all_subsemigroup_masks, census_up_to_conjugacy, subgroup_census):
        with pytest.raises(FeasibilityError, match=message):
            entry(S)


def test_census_bound_admits_every_gated_row_and_refuses_tl6():
    """The census bound admits the largest ambient of TABLE3 (S_5, 120
    elements) and refuses the next catalog ambient, TL_6."""
    largest = max(family_order(f, n) for f, n, _ in TABLE3)
    assert largest <= census.CENSUS_MAX_ELEMENTS < family_order("TL", 6)


def test_symmetry_bound_refuses_before_trying_a_permutation(monkeypatch):
    """The group of one 9-cycle is refused by its degree, before the
    census tries any of the 9! point permutations."""
    cycle = enumerate_semigroup([MapElement(9, "permutation", [(i + 1) % 9 for i in range(9)])])
    assert len(cycle) == 9
    monkeypatch.setattr(census, "permutations", lambda *_: pytest.fail("tried a permutation"))
    with pytest.raises(FeasibilityError,
                       match="^ambient has 9 points, over the symmetry bound of 8$"):
        census_up_to_conjugacy(cycle)


@pytest.mark.parametrize("family,n", [("T", 3), ("I", 3), ("P", 2), ("TL", 4), ("B", 2)])
def test_census_deterministic_across_jobs(family, n):
    S = monoid(family, n)
    a, ta = census_up_to_conjugacy(S, jobs=1)
    b, tb = census_up_to_conjugacy(S, jobs=2)
    assert ta == tb
    assert a == b


def test_census_refuses_an_incomplete_search(monkeypatch):
    """A search that loses one leaf of the Close-by-One tree trips the
    census guard that matches the lost set: a set that is not its own
    minimal image leaves its class short, and a lost representative leaves
    its orbit counted without a record."""
    S = monoid("T", 3)
    n = len(S)
    G = symmetry_group(S)
    kernels = Backend(S.multiplication_table(), G.index_perms)
    leaves = []
    masks, lo = pack_masks([0], n), np.zeros(1, np.intp)
    while len(masks):
        children = kernels.extend_window(masks, lo)
        parents = np.zeros(len(masks), bool)
        parents[children["state"]] = True
        leaves += unpack_masks(masks[~parents])
        masks, lo = children["mask"], children["e"] + 1
    reps, orbits = kernels.min_image(pack_masks(leaves, n))
    images = dict(zip(leaves, zip(unpack_masks(reps), orbits.tolist())))
    not_minimal = next(c for c in leaves if images[c][0] != c)
    representative = next(c for c in leaves if images[c][0] == c and images[c][1] > 1)
    extend = Backend.extend_window

    def dropping(dropped):
        """extend_window without the one child row ``dropped``."""
        row = pack_masks([dropped], n)

        def extend_window(self, masks, lo):
            children = extend(self, masks, lo)
            return children[~(children["mask"] == row).all(axis=1)]
        return extend_window

    for dropped, guard in ((not_minimal, "^orbit of"), (representative, "without their set")):
        monkeypatch.setattr(Backend, "extend_window", dropping(dropped))
        with pytest.raises(AssertionError, match=guard):
            census_up_to_conjugacy(S, G=G)


@pytest.mark.parametrize("family,n", [(f, n) for f, n, _ in TABLE3])
def test_units_are_the_permutation_diagrams(family, n):
    """The census reads its permutations off the multiplication table as
    the units: they are the images of the permutations of the points,
    and TL_n has the identity alone."""
    S = monoid(family, n)
    units = _units(S.multiplication_table())
    assert units[0] == 0
    expected = set()
    if family != "TL":
        identity = tuple(range(n))
        expected = {S.index[embed(MapElement(n, "permutation", sigma), family)[0]]
                    for sigma in permutations(range(n)) if sigma != identity}
    assert set(units[1:].tolist()) == expected


def test_a_failed_census_keeps_no_tables(monkeypatch):
    """A census whose kernel raises drops its ambient all the same."""
    def fail(self, masks):
        raise RuntimeError("kernel failure")

    monkeypatch.setattr(Backend, "min_image", fail)
    with pytest.raises(RuntimeError, match="kernel failure"):
        census_up_to_conjugacy(monoid("T", 2))
    assert census._AMBIENT is None


def _failing_min_image(monkeypatch, where, fail):
    """Make ``Backend.min_image`` call ``fail`` in the calling process
    (``where`` "caller") or in the workers only ("worker"), with two
    usable CPUs, so that ``jobs=2`` forks one worker."""
    caller, min_image = os.getpid(), Backend.min_image

    def patched(self, masks):
        if (os.getpid() == caller) == (where == "caller"):
            fail()
        return min_image(self, masks)

    monkeypatch.setattr(Backend, "min_image", patched)
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)


def _no_workers_left():
    return not multiprocessing.active_children() and census._AMBIENT is None


def test_two_jobs_leave_no_worker_running(monkeypatch):
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
    S = monoid("T", 3)
    assert census_up_to_conjugacy(S, jobs=2) == census_up_to_conjugacy(S, jobs=1)
    assert _no_workers_left()


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_kernel_failure_surfaces_in_the_caller(monkeypatch, where):
    """An exception in the caller's slice or in a worker's reaches the
    caller with its message, and every worker is stopped and joined."""
    def fail():
        raise ValueError(f"kernel failure in the {where}")

    _failing_min_image(monkeypatch, where, fail)
    with pytest.raises(ValueError, match=f"kernel failure in the {where}"):
        census_up_to_conjugacy(monoid("T", 3), jobs=2)
    assert _no_workers_left()


def test_a_dead_worker_raises_in_the_caller(monkeypatch):
    """A worker that exits mid-slice is EOF on its pipe: the census raises
    rather than waits, and leaves no worker behind."""
    _failing_min_image(monkeypatch, "worker", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="census worker died"):
        census_up_to_conjugacy(monoid("T", 3), jobs=2)
    assert _no_workers_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_builds_the_product_tables_once_in_the_caller(monkeypatch, tmp_path, jobs):
    """Each census call builds the product lookup table of its search once,
    in the calling process: forked workers inherit it.  Builds are logged
    to a file, so a build in a worker would show up under the worker's pid."""
    log = tmp_path / "builds"

    def logged(table):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return _lookup_table(table)

    monkeypatch.setattr("diagsemi.kernels._lookup_table", logged)
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
    S = monoid("T", 3)
    for _ in range(2):
        records, _ = census_up_to_conjugacy(S, jobs=jobs)
        assert len(records) == 283
    assert log.read_text().split() == [str(os.getpid())] * 2


def _serial_workers(monkeypatch):
    """Replace the forked workers by a census of every slice in this
    process; returns the worker counts requested and, for every level,
    its slices and the children states of their results."""
    requested, maps = [], []

    @contextmanager
    def serial(count):
        requested.append(count)

        def census_slices(slices):
            results = [census._census_level(states) for states in slices]
            maps.append((slices, [children for children, _, _ in results]))
            return results

        yield census_slices

    monkeypatch.setattr(census, "_workers", serial)
    return requested, maps


def test_census_maps_each_level_in_at_most_jobs_slices(monkeypatch):
    """With two jobs the census hands its workers one call per level of the
    search, over at most two non-empty slices that make up the level: the
    children of the slices of the level before, in order.  The root level,
    the empty set alone, is one slice."""
    _, maps = _serial_workers(monkeypatch)
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
    S = monoid("I", 3)
    expected = census_up_to_conjugacy(S, jobs=1)
    assert len(maps) == 11 and all(len(slices) == 1 for slices, _ in maps)
    maps.clear()
    assert census_up_to_conjugacy(S, jobs=2) == expected
    kernels = Backend(S.multiplication_table(), np.arange(len(S))[None])
    assert len(maps) == 11 and len(maps[0][0]) == 1
    states = level = census._root(len(S))
    for slices, children in maps:
        assert 1 <= len(slices) <= 2 and all(len(masks) for masks, _ in slices)
        masks, lo = map(np.concatenate, zip(*slices))
        assert np.array_equal(masks, states[0]) and np.array_equal(lo, states[1])
        # the level of the search as one batch, in another order
        assert sorted(unpack_masks(masks)) == sorted(unpack_masks(level[0]))
        states = tuple(map(np.concatenate, zip(*children)))
        whole = kernels.extend_window(*level)
        level = whole["mask"], whole["e"] + 1
    assert not len(states[0]) and not len(level[0])


def test_jobs_capped_at_cpu_count(monkeypatch):
    """``jobs`` counts the calling process, so a census forks ``jobs`` - 1
    workers, and no more than the usable CPUs less one."""
    requested, _ = _serial_workers(monkeypatch)
    # the CPUs this process may run on, not all of the host's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    S = monoid("T", 3)
    records, raw = census_up_to_conjugacy(S, jobs=5000)
    assert requested == [2]
    assert len(records) == 283
    assert (records, raw) == census_up_to_conjugacy(S, jobs=1)
    # where there is no affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert requested == [2, 0]
    assert census_up_to_conjugacy(S, jobs=5000) == (records, raw)
    assert requested == [2, 0, 1]


def test_census_stats_match_brute_force_on_subsemigroups():
    """Per-record D-class/idempotent stats vs brute-force divisibility on
    the restricted multiplication table."""
    from .oracles import brute_j_classes

    S = monoid("TL", 4)
    table = S.multiplication_table()
    records, _ = census_up_to_conjugacy(S)
    rng = random.Random(4)
    sample = [r for r in records if r.size > 0]
    for r in rng.sample(sample, 40):
        members = [i for i in range(len(S)) if r.mask >> i & 1]
        local = {g: k for k, g in enumerate(members)}
        sub = np.array([[local[int(table[x, y])] for y in members] for x in members])
        assert len(set(brute_j_classes(sub))) == r.d_classes
        assert sum(1 for x in members if int(table[x, x]) == x) == r.idempotents


@pytest.mark.parametrize("family,n", [("T", 3), ("P", 2), ("TL", 4), ("B", 2)])
def test_census_records_match_oracles(family, n):
    """Per-record representative, orbit and D-class/idempotent stats vs
    the orbit by definition and brute-force divisibility on the
    restricted multiplication table."""
    from .oracles import brute_j_classes

    S = monoid(family, n)
    table = S.multiplication_table()
    G = symmetry_group(S)
    records, _ = census_up_to_conjugacy(S, G=G)
    rng = random.Random(4)
    sample = [r for r in records if r.size > 0]
    for r in rng.sample(sample, 40):
        members = [i for i in range(len(S)) if r.mask >> i & 1]
        images = {sum(1 << int(row[i]) for i in members) for row in G.index_perms}
        assert (min(images), len(images)) == (r.mask, r.orbit_size)
        local = {g: k for k, g in enumerate(members)}
        sub = np.array([[local[int(table[x, y])] for y in members] for x in members])
        assert len(set(brute_j_classes(sub))) == r.d_classes
        assert sum(1 for x in members if int(table[x, x]) == x) == r.idempotents
