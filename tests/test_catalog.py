import hashlib
import json

import pytest

from diagsemi.catalog import (
    UnsupportedFamilyDegree,
    family_identity,
    standard_generators,
    supports,
)
from diagsemi.elements import (
    FAMILY_CODES,
    Bipartition,
    classify,
    element_from_json,
    element_to_json,
)
from diagsemi.formulas import family_order

from .conftest import monoid


def test_every_generator_passes_its_family_test():
    for family in FAMILY_CODES:
        for n in (1, 2, 3):
            if not supports(family, n):
                continue
            gs = standard_generators(family, n)
            for g in gs.elements:
                assert family in classify(g)


def test_every_tl_generator_is_its_own_mirror_image():
    """The TL fern ranks its columns on the orbit of its rows' halves,
    which needs every generator to equal its mirror image: the same
    diagram with upper and lower rows swapped."""
    for n in range(1, 13):
        for g in standard_generators("TL", n).elements:
            assert Bipartition(n, g.assignment[n:] + g.assignment[:n]) == g


@pytest.mark.parametrize("family,n", [
    ("TL", 5), ("Br", 4), ("S", 4), ("T", 3), ("I", 3),
    ("PT", 3), ("P", 3), ("IS", 3), ("B", 2), ("PB", 1),
])
def test_closure_size_matches_closed_form(family, n):
    S = monoid(family, n)
    assert len(S) == family_order(family, n)


def test_documented_support_matrix():
    assert supports("B", 2) and not supports("B", 3)
    assert supports("PB", 1) and not supports("PB", 2)
    for family in ("S", "T", "I", "PT", "P", "IS", "Br", "TL"):
        assert supports(family, 1) and supports(family, 5)
    with pytest.raises(UnsupportedFamilyDegree):
        standard_generators("B", 3)
    with pytest.raises(UnsupportedFamilyDegree):
        standard_generators("TL", 0)


def test_identity_element_per_family():
    for family in FAMILY_CODES:
        ident = family_identity(family, 2 if family != "PB" else 1)
        assert ident * ident == ident


def test_generator_set_json_roundtrip():
    gs = standard_generators("P", 3)
    doc = gs.to_json()
    assert doc["family"] == "P" and doc["degree"] == 3
    for entry in doc["generators"]:
        g = element_from_json(entry["element"])
        assert element_to_json(g) == entry["element"]


def test_every_generating_set_is_pinned():
    """Every generator, its order and label, every identity and every
    refusal message, for each family (and an unknown one) at n = 0..8.
    The census masks and the pinned digests follow the generator order,
    so none of this may move."""
    rows = []
    for family in FAMILY_CODES + ("X",):
        for n in range(9):
            try:
                gs = standard_generators(family, n)
            except UnsupportedFamilyDegree as exc:
                rows.append([family, n, "unsupported", str(exc)])
                continue
            rows.append([family, n, gs.to_json(), element_to_json(gs.identity),
                         list(gs.labels)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "14dc6c1726ff7089be83c1201d9ad94c0e6006ff7e0ad6d4ddfdea1dc24bc002"
