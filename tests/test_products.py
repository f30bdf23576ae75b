import itertools
import random

import pytest

from diagsemi.elements import (
    FAMILY_CODES,
    Bipartition,
    PointPermutation,
    all_pbrs,
    bipartition_from_pbr,
    classify,
    conjugate,
    identity_like,
    is_planar,
)
from diagsemi.embeddings import embed

from .samplers import random_element

SAMPLES_PER_FAMILY = 10000


def test_associativity_exhaustive_degree1_pbr():
    elems = list(all_pbrs(1))
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("family", FAMILY_CODES)
def test_associativity_sampled(family):
    rng = random.Random(hash(family) & 0xFFFF)
    degrees = [1] if family == "PB" else ([2] if family == "B" else [2, 3, 4])
    count = 0
    while count < SAMPLES_PER_FAMILY:
        n = rng.choice(degrees)
        a = random_element(family, n, rng)
        b = random_element(family, n, rng)
        c = random_element(family, n, rng)
        assert (a * b) * c == a * (b * c)
        count += 1


@pytest.mark.parametrize("family", FAMILY_CODES)
def test_identity_law_sampled(family):
    rng = random.Random(hash(family) & 0xFFF)
    degrees = [1] if family == "PB" else ([1, 2] if family == "B" else [1, 2, 3, 4])
    for _ in range(500):
        n = rng.choice(degrees)
        x = random_element(family, n, rng)
        e = identity_like(x)
        assert e * x == x
        assert x * e == x


@pytest.mark.parametrize("family,n", [
    ("S", 3), ("T", 3), ("I", 3), ("PT", 3), ("B", 2),
    ("P", 3), ("IS", 3), ("Br", 3), ("TL", 3), ("PB", 1),
])
def test_family_closed_under_product(family, n, get_monoid):
    S = get_monoid(family, n)
    for x, y in itertools.product(S.elements, repeat=2):
        assert family in classify(x * y)


def test_bipartition_product_matches_pbr_product_exhaustive_p2(get_monoid):
    P2 = get_monoid("P", 2).elements
    for a, b in itertools.product(P2, repeat=2):
        via_pbr = bipartition_from_pbr(a.to_pbr() * b.to_pbr())
        assert a * b == via_pbr


def _first_occurrence_order(assignment):
    seen = []
    for bid in assignment:
        if bid not in seen:
            seen.append(bid)
    return seen == list(range(len(seen)))


def test_bipartition_product_matches_pbr_product_sampled_p3():
    rng = random.Random(2024)
    for family, n in (("P", 3), ("Br", 4)):
        for _ in range(10000):
            a = random_element(family, n, rng)
            b = random_element(family, n, rng)
            ab = a * b
            assert ab == bipartition_from_pbr(a.to_pbr() * b.to_pbr())
            # the product is built canonical, as the validating constructor would
            rebuilt = Bipartition(n, ab.assignment)
            assert ab == rebuilt and hash(ab) == hash(rebuilt)
            assert _first_occurrence_order(ab.assignment)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_product_matches_embedded_bipartition_product(n, get_monoid):
    T = get_monoid("T", n).elements
    for x, y in itertools.product(T, repeat=2):
        assert embed(x * y, "P")[0] == embed(x, "P")[0] * embed(y, "P")[0]


def test_conjugation_is_automorphism_exhaustive_p2(get_monoid):
    P2 = get_monoid("P", 2).elements
    swap = PointPermutation([1, 0])
    for x, y in itertools.product(P2, repeat=2):
        assert conjugate(x * y, swap) == conjugate(x, swap) * conjugate(y, swap)


def test_conjugation_identity_fixes_everything():
    rng = random.Random(5)
    for family in FAMILY_CODES:
        n = 1 if family == "PB" else 2
        x = random_element(family, n, rng)
        assert conjugate(x, PointPermutation.identity(n)) == x


@pytest.mark.parametrize("family", FAMILY_CODES)
def test_conjugation_automorphism_sampled(family):
    rng = random.Random(hash(family) & 0xFFFFF)
    degrees = [1] if family == "PB" else ([2] if family == "B" else [2, 3, 4])
    for _ in range(500):
        n = rng.choice(degrees)
        image = list(range(n))
        rng.shuffle(image)
        sigma = PointPermutation(image)
        x = random_element(family, n, rng)
        y = random_element(family, n, rng)
        assert conjugate(x * y, sigma) == conjugate(x, sigma) * conjugate(y, sigma)


def test_conjugation_preserves_flags_except_planarity():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 4)
        image = list(range(n))
        rng.shuffle(image)
        sigma = PointPermutation(image)
        family = rng.choice(FAMILY_CODES)
        if family == "PB":
            n_eff = 1
            sigma_eff = PointPermutation.identity(1)
        else:
            n_eff, sigma_eff = (2, PointPermutation([1, 0])) if family == "B" else (n, sigma)
        x = random_element(family, n_eff, rng)
        before = classify(x) - {"TL"}
        after = classify(conjugate(x, sigma_eff)) - {"TL"}
        assert before == after


def test_reversal_preserves_planarity_on_tl3(get_monoid):
    TL3 = get_monoid("TL", 3).elements
    reversal = PointPermutation([2, 1, 0])
    for x in TL3:
        assert is_planar(conjugate(x, reversal))
        assert "TL" in classify(conjugate(x, reversal))
