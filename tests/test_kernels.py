import random
import tracemalloc

import numpy as np
import pytest

from diagsemi import census, kernels as kernels_module
from diagsemi.census import all_subsemigroup_masks, symmetry_group
from diagsemi.formulas import family_order
from diagsemi.kernels import Backend, pack_masks, unpack_masks

from .conftest import monoid
from .oracles import NibbleClosure, brute_j_classes, dclasses_by_products, is_closed
from .test_census import TABLE3

def _kernels(table, perms=None):
    """The kernels over ``table``, with the trivial group unless ``perms``."""
    return Backend(table, np.arange(len(table))[None] if perms is None else perms)


def _states(n, pairs):
    """The state array of the (int mask, lo) ``pairs`` over ``n`` elements:
    a state that may adjoin the elements from lo up has e = lo - 1."""
    states = np.zeros(len(pairs), kernels_module.root(n).dtype)
    states["mask"] = pack_masks([mask for mask, _ in pairs], n)
    states["e"] = [lo - 1 for _, lo in pairs]
    return states


def _children(kernels, n, mask, lo):
    """The children of the one state (mask, lo), as a dict e -> closure."""
    out = kernels.extend_window(_states(n, [(mask, lo)]))
    return dict(zip(out["e"].tolist(), unpack_masks(out["mask"])))


def _capped_sum(n):
    # x*y = min(x + y, n - 1): the closure of {e} is {e, 2e, 3e, ...} capped
    idx = np.arange(n)
    return np.minimum(idx[:, None] + idx[None, :], n - 1).astype(np.int32)


def _orbit(mask, perms):
    """Images of ``mask`` under each row, by definition."""
    return {sum(1 << int(row[i]) for i in range(len(row)) if mask >> i & 1)
            for row in perms}


def _j_classes(table, mask):
    members = [i for i in range(len(table)) if mask >> i & 1]
    local = {g: k for k, g in enumerate(members)}
    sub = np.array([[local[int(table[x, y])] for y in members] for x in members])
    return len(set(brute_j_classes(sub))) if members else 0


def _random_group(n, seed):
    """A group of order 8 on range(n): the symmetries of a square, acting on
    n // 4 disjoint squares at once (any points left over fixed), with the
    points relabelled at random.  ``min_image`` reads orbit sizes off
    stabilisers, so its permutations must form a group."""
    square = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
              (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3)]
    label = random.Random(seed).sample(range(n), n)
    perms = np.tile(np.arange(n, dtype=np.int32), (len(square), 1))
    for row, symmetry in zip(perms, square):
        for k in range(0, n - n % 4, 4):
            for i in range(4):
                row[label[k + i]] = label[k + symmetry[i]]
    return perms


def _check_against_oracles(table, perms, masks):
    """The batched kernels on ``masks`` against the per-mask definitions."""
    kernels = _kernels(table, perms)
    assert all(is_closed(table, mask) for mask in masks)
    orbits = [_orbit(mask, perms) for mask in masks]
    rows = pack_masks(masks, len(table))
    reps, sizes = kernels.min_image(rows)
    assert unpack_masks(reps) == [min(o) for o in orbits]
    assert sizes.tolist() == [len(o) for o in orbits]
    assert kernels.count_dclasses(rows).tolist() == [_j_classes(table, mask) for mask in masks]


def test_closure_basics():
    table = np.array([[0, 1, 2], [1, 0, 2], [2, 2, 2]], dtype=np.int32)
    kernels = _kernels(table)
    # closing {1} pulls in 1*1=0, below 1: that closure is not a child
    assert _children(kernels, 3, 0, 0) == {0: 0b001, 2: 0b100}
    exts = _children(kernels, 3, 0b100, 0)
    assert exts == {0: 0b101}
    assert all(is_closed(table, m) for m in exts.values())


def test_extend_window_wider_than_64():
    n = 70
    table = _capped_sum(n)
    kernels = _kernels(table)
    assert _children(kernels, n, 0, 1)[1] == (1 << n) - 2
    top = 1 << (n - 1)
    assert _children(kernels, n, 0, 40) == {
        e: 1 << e | top for e in range(40, n)}
    mask = 1 << 35 | top
    exts = _children(kernels, n, mask, 60)
    assert exts == {e: mask | 1 << e for e in range(60, n - 1)}
    assert all(is_closed(table, m) for m in exts.values())


def _random_magma(n, seed):
    """A random binary operation on range(n): no law holds, so its closed
    sets check the closure alone."""
    return np.random.default_rng(seed).integers(0, n, (n, n), dtype=np.int32)


def _check_search_against_the_oracle(table, pairs=None):
    """The batched search, state by state, against the python closure: the
    children of every state, as sets of (e, closed), and no child twice.
    From the root, every level of the tree; from ``pairs`` (of an int mask
    and lo), their children only."""
    n = len(table)
    kernels, oracle = _kernels(table), NibbleClosure(table)
    states = kernels_module.root(n) if pairs is None else _states(n, pairs)
    while len(states):
        children = kernels.extend_window(states)
        got = [set() for _ in range(len(states))]
        for k, e, closed in zip(children["state"].tolist(), children["e"].tolist(),
                                unpack_masks(children["mask"])):
            got[k].add((e, closed))
        assert sum(map(len, got)) == len(children)
        assert got == [set(oracle.extend_window(mask, e + 1))
                       for mask, e in zip(unpack_masks(states["mask"]), states["e"].tolist())]
        if pairs is not None:
            break
        states = children


@pytest.mark.parametrize("family,n", [(f, n) for f, n, _ in TABLE3 if family_order(f, n) <= 42])
def test_search_against_the_python_closure(family, n):
    _check_search_against_the_oracle(monoid(family, n).multiplication_table())


@pytest.mark.parametrize("n", [3, 11, 19, 67])
def test_search_against_the_python_closure_on_random_tables(n):
    """Random operations at widths that are not a multiple of 8, one of
    them past one 64-bit word."""
    for seed in range(4):
        _check_search_against_the_oracle(_random_magma(n, seed))


@pytest.mark.parametrize("ambient", ["I3", "magma19", "magma67"])
def test_search_against_the_python_closure_in_tiny_chunks(monkeypatch, ambient):
    """With chunks of 1 KiB, every level of the search and every round of
    its closures split into many parts, so that a part of a round can hold
    as many pairs as the round has sets without one pair a set.  The magma
    on 67 elements is two 64-bit words wide."""
    table = (monoid("I", 3).multiplication_table() if ambient == "I3"
             else _random_magma(int(ambient[5:]), 0))
    monkeypatch.setattr(kernels_module, "_CHUNK_BYTES", 1 << 10)
    _check_search_against_the_oracle(table)


def test_search_against_the_python_closure_wider_than_64():
    """The capped sum has too many closed sets for the whole tree: the
    children of the root, of states with lo past 0, and of the singles
    with and without the elements below them."""
    n = 70
    table = _capped_sum(n)
    top = 1 << (n - 1)
    singles = NibbleClosure(table).extend_window(0, 0)
    states = [(0, 0), (0, 40), (1 << 35 | top, 60)]
    states += [(m, e + 1) for e, m in singles] + [(m, 0) for _, m in singles[::5]]
    _check_search_against_the_oracle(table, states)


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 128])
def test_sort_keys_order_as_the_int_masks(n):
    """The sort keys of packed masks order as the masks do as integers,
    uint64 words up to 64 elements and big-endian bytes past them, and
    equal masks have equal keys; the keys of a mask field of a state array
    are those of its rows."""
    rng = random.Random(n)
    masks = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]
    # masks tied on every byte but the lowest, and repeated masks
    masks += [masks[-1] ^ rng.getrandbits(min(n, 8)) for _ in range(20)] + masks[:30]
    packed = pack_masks(masks, n)
    keys = kernels_module.sort_keys(packed)
    assert keys.dtype.kind == ("u" if n <= 64 else "S")
    assert [masks[i] for i in np.argsort(keys, kind="stable")] == sorted(masks)
    assert len(np.unique(keys)) == len(set(masks))
    states = _states(n, [(mask, 0) for mask in masks])
    assert np.array_equal(kernels_module.sort_keys(states["mask"]), keys)


def test_lookup_table_at_the_census_bound_is_8_mib():
    """At the census bound the search's lookup table takes 8 MiB, so no
    ambient the census admits needs a bound on the table of its own."""
    n = census.CENSUS_MAX_ELEMENTS
    assert n == 128
    single = kernels_module._words(np.eye(n, dtype=bool))
    assert kernels_module._lookup_table(_capped_sum(n), single).nbytes == 1 << 23


def test_fold_table_at_the_census_bound_is_under_1_mib():
    """S_5's fold table, the largest a gated census builds (N = |G| = 120),
    takes under 1 MiB: 16 rows a 4-bit chunk of |G| images of two words.
    Tables on byte chunks would take 7 MiB."""
    perms = symmetry_group(monoid("S", 5)).index_perms
    assert perms.shape == (120, 120)
    single = kernels_module._words(np.eye(120, dtype=bool))
    assert kernels_module._fold_table(perms, single).nbytes == 30 * 16 * 120 * 2 * 8 <= 1 << 20


def _wide_masks(n):
    """Closed masks of the capped sum on ``n`` elements, past 64 of them:
    the empty set, the singles' closures and their children, and sparse
    closed masks, whose images often tie on the high words (the top
    element with any three from n // 2 up)."""
    table = _capped_sum(n)
    rng = random.Random(n)
    kernels = _kernels(table)
    singles = list(_children(kernels, n, 0, 0).values())
    masks = {0} | set(singles)
    for mask in rng.sample(singles, 12):
        masks.update(_children(kernels, n, mask, 0).values())
    masks.update(sum(1 << e for e in rng.sample(range(n // 2, n - 1), 3)) | 1 << (n - 1)
                 for _ in range(12))
    return sorted(masks)


def test_min_image_and_dclasses_wider_than_64():
    """Masks of two and three 64-bit words: the fold compares images
    word by word from the highest, so it needs ties past the first."""
    for n in (70, 140):
        _check_against_oracles(_capped_sum(n), _random_group(n, n), _wide_masks(n))
    # a least image whose middle word is all ones, which an image not tied
    # on the top word can match there and then beat on the low word; x·y = x
    # closes every set
    n = 140
    swap = np.arange(n, dtype=np.int32)
    swap[[0, 128, 129, 130]] = 130, 129, 128, 0
    left_zero = np.repeat(np.arange(n, dtype=np.int32)[:, None], n, axis=1)
    _check_against_oracles(left_zero, np.stack([np.arange(n, dtype=np.int32), swap]),
                           [((1 << 64) - 1) << 64 | 1 << 128 | 1])


@pytest.mark.parametrize("family,n", [("IS", 3), ("T", 3), ("P", 2)])
def test_kernels_on_widths_not_a_multiple_of_4(family, n):
    S = monoid(family, n)
    assert len(S) % 4
    table = S.multiplication_table()
    masks = all_subsemigroup_masks(S)
    sample = random.Random(len(S)).sample(masks, min(80, len(masks)))
    _check_against_oracles(table, symmetry_group(S).index_perms, sample)


def _chunk_lengths(monkeypatch):
    """The lengths of the chunks the batched kernels work on, in order."""
    lengths, spans = [], kernels_module._spans

    def recorded(weights, step):
        parts = spans(weights, step)
        lengths.extend(part.stop - part.start for part in parts)
        return parts

    monkeypatch.setattr(kernels_module, "_spans", recorded)
    return lengths


@pytest.mark.parametrize("kernel", ["min_image", "count_dclasses"])
def test_batches_around_one_chunk(monkeypatch, kernel):
    """Batches of 0, 1, chunk - 1, chunk and chunk + 1 masks, where chunk
    is how many masks the kernel takes at once, agree with the oracles.
    The masks {e, 69} of the capped sum all have two elements, so the
    D-class pass chunks them as one size."""
    n = 70
    table = _capped_sum(n)
    perms = _random_group(n, 71)
    pairs = [1 << e | 1 << (n - 1) for e in range(n // 2, n - 1)]
    oracle = {"min_image": lambda masks: ([min(_orbit(m, perms)) for m in masks],
                                          [len(_orbit(m, perms)) for m in masks]),
              "count_dclasses": lambda masks: [_j_classes(table, m) for m in masks]}[kernel]
    monkeypatch.setattr(kernels_module, "_CHUNK_BYTES", 1 << 11)
    lengths = _chunk_lengths(monkeypatch)
    kernel_run = getattr(_kernels(table, perms), kernel)

    def run(masks):
        out = kernel_run(pack_masks(masks, n))
        if kernel == "min_image":
            return unpack_masks(out[0]), out[1].tolist()
        return out.tolist()

    run(pairs)
    chunk = lengths[0]
    assert 1 < chunk < len(pairs) - 1
    for size in (0, 1, chunk - 1, chunk, chunk + 1):
        lengths.clear()
        masks = pairs[:size]
        assert run(masks) == oracle(masks)
        assert lengths == [chunk] * (size // chunk) + [size % chunk] * (size % chunk > 0)


def _chunk_peaks(monkeypatch, method):
    """The tracemalloc peak of temporaries of each call of the ``Backend``
    chunk ``method``, over what was held before it, as it is called."""
    peaks, chunk = [], getattr(Backend, method)

    def measured(self, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = chunk(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(Backend, method, measured)
    return peaks


@pytest.mark.parametrize("family,n", [("I", 3), ("TL", 5), ("capped_sum", 70)])
def test_dclass_chunks_hold_about_the_chunk_budget(monkeypatch, family, n):
    """Over every class of the census, and over the closed masks of the
    capped sum past 64 elements, each chunk of ``count_dclasses``, the
    unpacking of its masks included, peaks at no more than 1.25 times
    ``_CHUNK_BYTES`` of temporaries (by tracemalloc).  The capped sum's
    masks go in four times over, so that its chunks fill."""
    if family == "capped_sum":
        table = _capped_sum(n)
        masks = np.tile(pack_masks(_wide_masks(n), n), (4, 1))
        expected = dclasses_by_products(table, masks)
    else:
        table = monoid(family, n).multiplication_table()
        classes = census.census_up_to_conjugacy(monoid(family, n))[0].rows
        masks, expected = classes["mask"], classes["d_classes"]
    kernels = _kernels(table)
    peaks = _chunk_peaks(monkeypatch, "_dclasses_of_size")
    tracemalloc.start()
    try:
        counts = kernels.count_dclasses(masks)
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, expected)
    assert len(peaks) > 1 and max(peaks) <= 1.25 * kernels_module._CHUNK_BYTES


@pytest.mark.parametrize("family,n", [("I", 3), ("TL", 5), ("capped_sum", 70)])
def test_search_chunks_hold_about_the_chunk_budget(monkeypatch, family, n):
    """Over every level of the search, and over the first levels of the
    capped sum past 64 elements, whose closures gain several elements a
    round, each chunk of ``extend_window`` peaks at no more than 1.25
    times ``_CHUNK_BYTES`` of temporaries (by tracemalloc)."""
    table = _capped_sum(n) if family == "capped_sum" else monoid(family, n).multiplication_table()
    kernels = _kernels(table)
    peaks = _chunk_peaks(monkeypatch, "_close")
    level, found = kernels_module.root(len(table)), 0
    tracemalloc.start()
    try:
        for _ in range(3 if family == "capped_sum" else len(table) + 1):
            found += len(level)
            level = kernels.extend_window(level)
    finally:
        tracemalloc.stop()
    if family != "capped_sum":
        assert not len(level) and found == len(all_subsemigroup_masks(monoid(family, n)))
    assert len(peaks) > 1 and max(peaks) <= 1.25 * kernels_module._CHUNK_BYTES


@pytest.mark.parametrize("family,n", [("I", 3), ("TL", 5), ("capped_sum", 70)])
def test_fold_chunks_hold_about_the_chunk_budget(monkeypatch, family, n):
    """Over every closed set of the census, and over the closed masks of
    the capped sum past 64 elements under a group of order 8, four times
    over, each chunk of ``min_image`` peaks at no more than 1.25 times
    ``_CHUNK_BYTES`` of temporaries (by tracemalloc)."""
    if family == "capped_sum":
        table, perms = _capped_sum(n), _random_group(n, n)
        masks = np.tile(pack_masks(_wide_masks(n), n), (4, 1))
    else:
        S = monoid(family, n)
        table, perms = S.multiplication_table(), symmetry_group(S).index_perms
        masks = pack_masks(all_subsemigroup_masks(S), len(S))
    kernels = _kernels(table, perms)
    peaks = _chunk_peaks(monkeypatch, "_min_images")
    tracemalloc.start()
    try:
        reps, orbits = kernels.min_image(masks)
    finally:
        tracemalloc.stop()
    if family != "capped_sum":  # the closed sets are whole orbits: 1/|orbit| a set sums to the classes
        assert len(np.unique(kernels_module.sort_keys(reps))) == round((1 / orbits).sum())
    assert len(peaks) > 1 and max(peaks) <= 1.25 * kernels_module._CHUNK_BYTES


def _check_dclasses_against_the_products(family, n):
    """``count_dclasses`` on every class of the census of ``family`` n
    against the D-class count from the s x s products of each class."""
    S = monoid(family, n)
    table = S.multiplication_table()
    masks = census.census_up_to_conjugacy(S)[0].rows["mask"]
    assert np.array_equal(_kernels(table).count_dclasses(masks), dclasses_by_products(table, masks))


@pytest.mark.parametrize("family,n", [("I", 3), ("IS", 3), ("T", 3), ("TL", 5), ("P", 2),
                                      ("B", 2), ("Br", 3)])
def test_dclasses_against_the_product_oracle(family, n):
    _check_dclasses_against_the_products(family, n)


@pytest.mark.stretch
@pytest.mark.parametrize("family,n", [("Br", 4), ("PT", 3)])
def test_dclasses_against_the_product_oracle_stretch(family, n):
    """Br_4 holds its masks in two 64-bit words; PT_3 has 94,232 classes."""
    _check_dclasses_against_the_products(family, n)


def test_spans_of_a_count_are_those_of_weights_of_one():
    """A number of items is cut as that many items of weight one."""
    for count in range(301):
        ones = np.ones(count, int)
        for step in range(1, 41):
            assert kernels_module._spans(count, step) == kernels_module._spans(ones, step)


def test_spans_of_a_count_build_no_array():
    """The slices of PT_3's 94,232 classes, 512 at a time, take a list of
    185 slices and no array of the items (which took 758 KiB)."""
    tracemalloc.start()
    try:
        spans = kernels_module._spans(94232, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spans) == 185 and spans[-1] == slice(94208, 94232)
    assert peak < 64 << 10


def test_count_idempotents_against_the_diagonal():
    rng = random.Random(3)
    tables = [_capped_sum(70)] + [monoid(f, n).multiplication_table()
                                  for f, n in (("IS", 3), ("T", 3))]
    for table in tables:
        n = len(table)
        kernels = _kernels(table)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
        assert kernels.count_idempotents(pack_masks(masks, n)).tolist() == [
            sum(1 for i in range(n) if mask >> i & 1 and table[i, i] == i) for mask in masks]
        assert kernels.count_idempotents(pack_masks([], n)).tolist() == []

