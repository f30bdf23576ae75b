import itertools
import random

import pytest

from diagsemi.elements import (
    Bipartition,
    MapElement,
    PBR,
    PointPermutation,
    all_pbrs,
    bipartition_from_pbr,
    classify,
    conjugate,
    is_planar,
    rank,
)
from diagsemi.engine import enumerate_semigroup
from diagsemi.formulas import catalan, double_factorial_odd

from .oracles import all_brauer_diagrams, is_planar_pairwise, pbr_product_by_walks


def test_pbr_identity_edges():
    one = PBR.identity(1)
    assert set(one.edges()) == {(0, 1), (1, 0)}
    three = PBR.identity(3)
    assert set(three.edges()) == {(i, i + 3) for i in range(3)} | {(i + 3, i) for i in range(3)}


def test_pbr_identity_law_sampled_degree2():
    rng = random.Random(7)
    ident = PBR.identity(2)
    for _ in range(1000):
        x = PBR(2, [rng.getrandbits(4) for _ in range(4)])
        assert ident * x == x
        assert x * ident == x


def test_pbr_degree1_closed_and_oracle_exact():
    elems = list(all_pbrs(1))
    assert len(elems) == 16
    seen = set()
    for a, b in itertools.product(elems, repeat=2):
        p = a * b
        assert p == pbr_product_by_walks(a, b)
        seen.add(p)
    assert seen <= set(elems)


def test_pbr_product_degree_mismatch():
    with pytest.raises(ValueError):
        PBR.identity(2) * PBR.identity(3)


def test_pbr_rejects_degree_zero():
    with pytest.raises(ValueError):
        PBR(0, [])
    with pytest.raises(ValueError):
        Bipartition(0, [])
    with pytest.raises(ValueError):
        MapElement(0, "permutation", [])


def test_classify_identity_is_in_every_family():
    for n in (1, 2, 3, 4):
        assert classify(PBR.identity(n)) == {"PB", "B", "PT", "T", "I", "S", "P", "IS", "Br", "TL"}


def test_classify_figure_example():
    # the degree-5 example diagram: edges (2,1),(2,3'),(5,4'),(5,5'),
    # (1',1),(2',2'),(2',3),(3',4'),(4',3'),(5',5) in 1-based notation
    edges = [(1, 0), (1, 7), (4, 8), (4, 9), (5, 0), (6, 6), (6, 2), (7, 8), (8, 7), (9, 4)]
    flags = classify(PBR.from_edges(5, edges))
    assert "B" not in flags  # has an upward edge 1' -> 1
    assert "P" not in flags  # not an equivalence relation
    assert flags == {"PB"}


def test_classify_hook_diagram():
    hook = Bipartition.from_blocks(2, [(0, 1), (2, 3)])
    flags = classify(hook)
    assert {"P", "Br", "TL"} <= flags
    assert "IS" not in flags  # the block {1,2} misses the lower row
    assert flags == {"PB", "P", "Br", "TL"}


def test_classify_monotone_along_hasse():
    rng = random.Random(11)
    implications = [("TL", "Br"), ("Br", "P"), ("IS", "P"), ("P", "PB"),
                    ("S", "T"), ("S", "I"), ("T", "PT"), ("I", "PT"),
                    ("PT", "B"), ("B", "PB")]
    for _ in range(300):
        n = rng.randint(1, 3)
        x = PBR(n, [rng.getrandbits(2 * n) for _ in range(2 * n)])
        flags = classify(x)
        for lower, upper in implications:
            if lower in flags:
                assert upper in flags, (x, flags)


def test_bipartition_roundtrip_identity_and_full():
    ident = Bipartition.identity(3)
    p = ident.to_pbr()
    # full closure: block cliques plus loops
    assert p.has_edge(0, 0) and p.has_edge(0, 3) and p.has_edge(3, 0)
    assert bipartition_from_pbr(p) == ident

    single = Bipartition.from_blocks(2, [(0, 1, 2, 3)])
    q = single.to_pbr()
    assert all(q.has_edge(a, b) for a in range(4) for b in range(4))
    assert bipartition_from_pbr(q) == single


def test_bipartition_roundtrip_all_of_p2(get_monoid):
    P2 = get_monoid("P", 2)
    assert len(P2) == 15
    for b in P2.elements:
        assert bipartition_from_pbr(b.to_pbr()) == b


def test_bipartition_from_pbr_rejects_with_reason():
    with pytest.raises(ValueError, match="reflexive"):
        bipartition_from_pbr(PBR.identity(2))
    with pytest.raises(ValueError, match="symmetric"):
        bipartition_from_pbr(PBR.from_edges(1, [(0, 0), (1, 1), (0, 1)]))
    loops = [(a, a) for a in range(6)]
    with pytest.raises(ValueError, match="transitive"):
        bipartition_from_pbr(PBR.from_edges(3, loops + [(0, 1), (1, 0), (1, 2), (2, 1)]))


def test_planarity_basics():
    assert is_planar(Bipartition.identity(4))
    crossing = Bipartition.from_blocks(2, [(0, 3), (1, 2)])
    assert not is_planar(crossing)


@pytest.mark.parametrize("n,expected", [(4, 14), (5, 42)])
def test_planar_brauer_count_is_catalan(n, expected):
    diagrams = list(all_brauer_diagrams(n))
    assert len(diagrams) == double_factorial_odd(n)
    planar = [d for d in diagrams if is_planar(d)]
    assert len(planar) == catalan(n) == expected


def test_planarity_scan_matches_pairwise_oracle():
    diagrams = [d for n in range(1, 6) for d in all_brauer_diagrams(n)]
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 8)
        k = rng.randint(1, 2 * n)  # few blocks make planar diagrams common
        diagrams.append(Bipartition(n, [rng.randrange(k) for _ in range(2 * n)]))
    verdicts = [is_planar(d) for d in diagrams]
    assert verdicts == [is_planar_pairwise(d) for d in diagrams]
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_rank():
    assert rank(Bipartition.identity(5)) == 5
    assert rank(Bipartition.from_blocks(3, [tuple(range(6))])) == 1
    counts = {}
    for d in all_brauer_diagrams(3):
        if is_planar(d):
            counts[rank(d)] = counts.get(rank(d), 0) + 1
    assert counts == {1: 4, 3: 1}


def test_map_element_invariants():
    with pytest.raises(ValueError):
        MapElement(3, "transformation", [0, None, 2])
    with pytest.raises(ValueError):
        MapElement(3, "partial_perm", [0, 0, None])
    with pytest.raises(ValueError):
        MapElement(2, "permutation", [1, 1])
    with pytest.raises(ValueError):
        MapElement(2, "partial", [2, 0])
    # undefined entries are a sentinel, never a point
    x = MapElement(3, "partial", [None, 0, None])
    assert x.data == (None, 0, None)


def test_map_product_kinds_join():
    t = MapElement(3, "transformation", [1, 1, 2])
    p = MapElement(3, "partial_perm", [None, 1, 2])
    assert (t * p).kind == "partial"
    s = MapElement(3, "permutation", [1, 2, 0])
    assert (s * s).kind == "permutation"
    r = MapElement(3, "relation", [1, 3, 4])
    assert (r * t).kind == "relation"


def test_relation_vs_map_payloads_never_collide():
    swap_map = MapElement(2, "permutation", [1, 0])
    rel = MapElement(2, "relation", [1, 0])
    assert swap_map != rel


def test_map_like_relation_equals_the_map_with_its_edges():
    swap_rel = MapElement(2, "relation", [2, 1])
    swap_map = MapElement(2, "permutation", [1, 0])
    assert swap_rel == swap_map and hash(swap_rel) == hash(swap_map)
    partial_rel = MapElement(3, "relation", [0, 1, 1])
    partial_map = MapElement(3, "partial", [None, 0, 0])
    assert partial_rel == partial_map and hash(partial_rel) == hash(partial_map)
    assert MapElement(2, "relation", [3, 0]) != MapElement(2, "partial", [0, None])
    assert len(enumerate_semigroup([swap_rel, swap_map])) == 2


def test_conjugate_permutation_action():
    sigma = PointPermutation.from_cycles(3, (0, 1, 2))
    x = MapElement(3, "transformation", [1, 1, 2])
    y = conjugate(x, sigma)
    assert y.data == tuple(sigma.image[x.data[sigma.inverse().image[i]]] for i in range(3))
    assert conjugate(x, PointPermutation.identity(3)) == x


def test_point_permutation_algebra():
    a = PointPermutation.from_cycles(4, (0, 1))
    b = PointPermutation.from_cycles(4, (1, 2, 3))
    assert (a * b).image == tuple(b(a(i)) for i in range(4))
    assert (a * a.inverse()).is_identity()
    with pytest.raises(ValueError):
        PointPermutation([0, 0, 1])
