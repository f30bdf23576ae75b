import copy
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from diagsemi import engine as engine_module
from diagsemi import halves as halves_module
from diagsemi.catalog import hook, standard_generators
from diagsemi.census import FeasibilityError
from diagsemi.elements import PBR, Bipartition, MapElement
from diagsemi.engine import (
    LimitExceeded,
    ReesElement,
    ReesZero,
    _scc,
    enumerate_family,
    enumerate_semigroup,
    green_structure,
    ideals_of,
    idempotents,
    is_ideal,
    principal_ideals,
    rees_quotient,
)
from diagsemi.formulas import ballot
from diagsemi.halves import _least_halves, tl_cell_diagrams, tl_fern, tl_products

from .conftest import monoid
from .oracles import (
    brute_d_classes,
    brute_d_leq,
    brute_idempotents,
    brute_j_classes,
    brute_l_classes,
    brute_principal_ideals,
    brute_r_classes,
    is_two_sided_ideal,
    least_halves_by_products,
    tl_diagram,
    tl_partners,
    _partition_key,
)

# Small and mid-size monoids used as oracle targets (all <= 1000 elements).
ORACLE_SUITE = [
    ("S", 1), ("S", 2), ("S", 3), ("S", 4), ("S", 5),
    ("T", 1), ("T", 2), ("T", 3), ("T", 4),
    ("I", 1), ("I", 2), ("I", 3), ("I", 4),
    ("PT", 1), ("PT", 2), ("PT", 3),
    ("P", 1), ("P", 2), ("P", 3),
    ("IS", 1), ("IS", 2), ("IS", 3), ("IS", 4),
    ("Br", 1), ("Br", 2), ("Br", 3), ("Br", 4), ("Br", 5),
    ("TL", 1), ("TL", 2), ("TL", 3), ("TL", 4), ("TL", 5), ("TL", 6), ("TL", 7),
    ("B", 1), ("B", 2),
    ("PB", 1),
    ("S", 6),
]


def test_enumeration_counts():
    assert len(monoid("T", 3)) == 27
    assert len(monoid("IS", 3)) == 25
    one = enumerate_semigroup([MapElement.identity(4)])
    assert len(one) == 1


def test_enumeration_limit_aborts_cleanly():
    gens = standard_generators("T", 3)
    with pytest.raises(LimitExceeded):
        enumerate_family(gens, limit=10)


def test_enumeration_is_deterministic():
    a = enumerate_family(standard_generators("P", 3))
    b = enumerate_family(standard_generators("P", 3))
    assert a.elements == b.elements
    assert np.array_equal(a.right, b.right)
    assert np.array_equal(a.left, b.left)


def _t3_mod_rank_two():
    S = monoid("T", 3)
    return rees_quotient(S, next(i for i in ideals_of(S) if len(i) == 21))


# ORACLE_SUITE plus a Rees quotient, as zero-argument builders
ORACLE_BUILDS = [
    *(pytest.param(lambda f=f, n=n: monoid(f, n), id=f"{f}-{n}")
      for f, n in ORACLE_SUITE),
    pytest.param(_t3_mod_rank_two, id="T-3-mod-rank-2"),
]


@pytest.mark.parametrize("build", ORACLE_BUILDS)
def test_cayley_graphs_and_words_match_products(build):
    S = build()
    elements, gens = S.elements, S.gens
    for i, x in enumerate(elements):
        for g, y in enumerate(gens):
            assert elements[S.right[i, g]] == x * y
            assert elements[S.left[i, g]] == y * x
        if i:
            assert x == elements[S.prefix[i]] * gens[S.last_gen[i]]


def test_enumeration_uses_few_products(monkeypatch):
    gens = standard_generators("TL", 7)
    calls = []
    product = Bipartition.__mul__

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(Bipartition, "__mul__", counted)
    S = enumerate_family(gens)
    assert len(S) == 429
    assert len(calls) <= 2 * len(S)


def test_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        enumerate_semigroup([MapElement.identity(2), MapElement.identity(3)])


def test_identity_adjoined_flag():
    assert monoid("TL", 3).identity_adjoined  # hooks never multiply to 1
    assert not monoid("S", 3).identity_adjoined  # s * s = 1


def test_multiplication_table_consistent_with_products():
    S = monoid("I", 3)
    table = S.multiplication_table()
    rng = np.random.default_rng(3)
    for x, y in zip(rng.integers(0, len(S), 200), rng.integers(0, len(S), 200)):
        assert S.elements[int(x)] * S.elements[int(y)] == S.elements[int(table[x, y])]


@pytest.mark.parametrize("family,n", ORACLE_SUITE)
def test_green_classes_match_brute_force_divisibility(family, n):
    S = monoid(family, n)
    green = green_structure(S)
    table = S.multiplication_table()
    # the brute partitions number their classes by smallest member, as
    # the class ids must be
    r, l, d = brute_r_classes(table), brute_l_classes(table), brute_d_classes(table)
    assert tuple(green.r_class) == r
    assert tuple(green.l_class) == l
    assert tuple(green.d_class) == d == brute_j_classes(table)
    assert green.d_leq == brute_d_leq(table)
    order = green.d_order
    assert sorted(order) == list(range(len(order))) and order[0] == d[0]
    assert not any((order[i], order[j]) in green.d_leq
                   for i in range(len(order)) for j in range(i + 1, len(order)))
    for pos, d_id in enumerate(order):
        members = [i for i in range(len(S)) if d[i] == d_id]
        box = green.eggbox(pos)
        assert box.row_classes == list(dict.fromkeys(r[i] for i in members))
        assert box.col_classes == list(dict.fromkeys(l[i] for i in members))


@pytest.mark.parametrize("family,n,x,y", [("I", 3, 3, 24), ("TL", 4, 1, 11)])
def test_green_structure_rejects_a_cycle_of_d_classes(family, n, x, y):
    """A corrupt right edge y -> x, from below D_x back up into it: R, L
    and D stay the same, but D_x and D_y become one J-class."""
    S = monoid(family, n)
    green = green_structure(S)
    dx, dy = green.d_class[x], green.d_class[y]
    assert dx not in (green.d_order[0], dy) and (dy, dx) in green.d_leq
    reached, frontier = {x}, [x]  # xS, the monoids holding the identity
    while frontier:
        frontier = [int(w) for v in frontier for w in S.right[v] if int(w) not in reached]
        reached.update(frontier)
    assert y not in reached
    bad = copy.copy(S)
    bad.right = S.right.copy()
    bad.right[y, 0] = x
    assert _scc(bad.right) == green.r_class
    with pytest.raises(AssertionError):
        green_structure(bad)


def test_d_equals_j_on_tl8():
    S = monoid("TL", 8)
    assert len(S) == 1430
    green = green_structure(S)
    table = S.multiplication_table()
    assert _partition_key(green.d_class) == brute_j_classes(table)


def test_groups_have_one_d_class():
    green = green_structure(monoid("S", 3))
    assert green.n_d_classes() == 1
    box = green.eggbox(0)
    assert box.idempotent_mask.shape == (1, 1)
    assert box.idempotent_mask[0, 0]


def test_t3_has_three_d_classes():
    green = green_structure(monoid("T", 3))
    assert green.n_d_classes() == 3


def test_tl4_d_classes_linear():
    green = green_structure(monoid("TL", 4))
    assert green.n_d_classes() == 3
    for i in range(2):
        assert (green.d_order[i + 1], green.d_order[i]) in green.d_leq


def _tl_halves(x):
    """Upper and lower halves of a TL diagram, from its blocks: the other
    end of each point's cup, or the point itself on a through line."""
    n = x.degree
    upper, lower = list(range(n)), list(range(n))
    for a, b in x.blocks():
        if b < n:
            upper[a], upper[b] = b, a
        elif a >= n:
            lower[a - n], lower[b - n] = b - n, a - n
    return tuple(upper), tuple(lower)


@pytest.mark.parametrize("n", range(1, 11))
def test_tl_fern_matches_enumerated_eggbox(n):
    S = monoid("TL", n)
    green = green_structure(S)
    for k in range(n // 2 + 1):
        box = green.eggbox(k)
        upper_of, lower_of = {}, {}  # class id -> the half all its members share
        for i in green.d_class_elements(green.d_order[k]):
            upper, lower = _tl_halves(S.elements[i])
            assert upper_of.setdefault(green.r_class[i], upper) == upper
            assert lower_of.setdefault(green.l_class[i], lower) == lower
        rows, cols, mask = tl_fern(n, k)
        uppers, lowers = list(map(tuple, rows.tolist())), list(map(tuple, cols.tolist()))
        assert uppers == [upper_of[c] for c in box.row_classes]
        assert lowers == [lower_of[c] for c in box.col_classes]
        assert np.array_equal(mask, box.idempotent_mask)
        diagrams = [[tl_diagram(u, v) for v in lowers] for u in uppers]
        assert [[[S.index[x]] for x in row] for row in diagrams] == box.cells
        assert tl_cell_diagrams(rows, cols).tolist() == [
            tl_partners(x) for row in diagrams for x in row]
    with pytest.raises(ValueError):
        tl_fern(n, n // 2 + 1)


@pytest.mark.parametrize("n", [0, -1])
def test_tl_fern_refuses_a_degree_below_one(n):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        tl_fern(n, 0)


@pytest.mark.parametrize("args,error,message", [
    ((0, 0), ValueError, "degree must be >= 1"),
    ((4, 9), ValueError, "TL_4 has no D-class index 9"),
    ((18, 8), FeasibilityError,
     "TL_18 D[8] has 142420356 cells, over the fern cell bound of 16777216"),
    ((500, 1), FeasibilityError, "each half-diagram orbit of TL_500 D[1] has "
     "124750000 point-products, over the orbit bound of 4194304"),
    ((1000, 1), FeasibilityError, "each half-diagram orbit of TL_1000 D[1] has "
     "999000000 point-products, over the orbit bound of 4194304"),
])
def test_tl_fern_refuses_before_any_orbit_work(monkeypatch, args, error, message):
    """Every fern refusal is made by the library, before the orbit."""
    def refused(*args):
        raise AssertionError("the orbit was searched")

    monkeypatch.setattr(halves_module, "_least_halves", refused)
    with pytest.raises(error) as caught:
        tl_fern(*args)
    assert str(caught.value) == message


@pytest.mark.parametrize("n", range(1, 13))
def test_least_halves_match_the_product_oracle(n):
    """The breadth-first ranking of the halves agrees with the one over
    every word length, for the hook indices in catalog order, reversed
    and rotated by one: the reorders move both tie-breaks, letter against
    the rank of the rest of the word."""
    hooks = list(range(n - 1))
    for order in (hooks, hooks[::-1], hooks[1:] + hooks[:1]):
        letters = [hook(n, i) for i in order]
        for k in range(n // 2 + 1):
            r = n - 2 * k
            rows, cols = _least_halves(order, n, r, ballot(n, k))
            assert (list(map(tuple, rows.tolist())), list(map(tuple, cols.tolist()))) == (
                least_halves_by_products(letters, Bipartition.identity(n), r))


def test_least_halves_take_no_diagram_products(monkeypatch):
    """The hooks act on the halves themselves: TL_10 D[4] is ranked with
    the batched diagram product unavailable."""
    def refused(x, y):
        raise AssertionError("tl_products called")

    monkeypatch.setattr(halves_module, "tl_products", refused)
    rows, cols = _least_halves(range(9), 10, 2, ballot(10, 4))
    gens = standard_generators("TL", 10)
    assert (list(map(tuple, rows.tolist())), list(map(tuple, cols.tolist()))) == (
        least_halves_by_products(gens.elements, gens.identity, 2))


def test_least_halves_refuse_a_wrong_count():
    with pytest.raises(AssertionError, match="the orbit holds 9 halves of rank 2, not 8"):
        _least_halves(range(5), 6, 2, 8)


@pytest.mark.parametrize("n", range(1, 9))
def test_tl_products_match_bipartition_products(n):
    S = monoid("TL", n)
    rng = np.random.default_rng(n)
    pairs = rng.integers(len(S), size=(2000, 2))
    xs, ys = ([S.elements[i] for i in column] for column in pairs.T)
    products = tl_products(np.array([tl_partners(x) for x in xs]),
                           np.array([tl_partners(y) for y in ys]))
    assert products.tolist() == [tl_partners(x * y) for x, y in zip(xs, ys)]


@pytest.mark.parametrize("n", range(1, 11))
def test_tl_d_hierarchy_is_a_rank_chain(n):
    from diagsemi.elements import rank

    S = monoid("TL", n)
    green = green_structure(S)
    assert green.n_d_classes() == n // 2 + 1
    ranks = []
    for pos in range(green.n_d_classes()):
        members = green.d_class_elements(green.d_order[pos])
        member_ranks = {rank(S.elements[i]) for i in members}
        assert len(member_ranks) == 1
        ranks.append(member_ranks.pop())
    assert ranks == list(range(n, -1, -2))
    for i in range(green.n_d_classes() - 1):
        assert (green.d_order[i + 1], green.d_order[i]) in green.d_leq


def test_idempotent_counts():
    assert idempotents(monoid("S", 4)) == [0]
    assert len(idempotents(monoid("T", 2))) == 3
    TL3 = monoid("TL", 3)
    assert idempotents(TL3) == brute_idempotents(TL3.elements)


@pytest.mark.parametrize("build", ORACLE_BUILDS)
def test_idempotents_match_the_table_diagonal(build):
    S = build()
    table = S.multiplication_table()
    diagonal = [i for i in range(len(S)) if table[i, i] == i]
    assert idempotents(S) == diagonal
    green = green_structure(S)
    assert np.flatnonzero(green.idempotent).tolist() == diagonal
    assert len(green.summary) == green.n_d_classes()
    for pos, d_id in enumerate(green.d_order):
        members = green.d_class_elements(d_id)
        box = green.eggbox(pos)
        idem = len(set(members).intersection(diagonal))
        assert box.idempotent_mask.sum() == idem
        assert green.summary[pos] == (len(members), len(box.row_classes),
                                      len(box.col_classes), idem)
        assert all(type(v) is int for v in green.summary[pos])


@pytest.mark.parametrize("build", ORACLE_BUILDS)
def test_green_structure_takes_no_element_products(build, monkeypatch):
    """After enumeration, Green's structure, its summary, the idempotents
    and every eggbox are read off the Cayley graphs and the words."""
    S = build()

    def refuse(*args):
        raise AssertionError("no element product after enumeration")

    for cls in (PBR, Bipartition, MapElement, ReesElement, ReesZero):
        monkeypatch.setattr(cls, "__mul__", refuse)
    green = green_structure(S)
    assert sum(size for size, _, _, _ in green.summary) == len(S)
    assert idempotents(S) == np.flatnonzero(green.idempotent).tolist()
    for pos in range(green.n_d_classes()):
        box = green.eggbox(pos)
        assert box.idempotent_mask.sum() == green.summary[pos][3]


@pytest.mark.parametrize("family,n", [("T", 3), ("I", 3), ("TL", 5), ("Br", 3), ("P", 2)])
def test_eggbox_cells_equal_size_within_d_class(family, n):
    S = monoid(family, n)
    green = green_structure(S)
    for pos in range(green.n_d_classes()):
        box = green.eggbox(pos)
        sizes = {len(cell) for row in box.cells for cell in row}
        assert len(sizes) == 1


def test_eggbox_dims_match_brute_force_partitions():
    S = monoid("T", 3)
    green = green_structure(S)
    table = S.multiplication_table()
    r_brute = brute_r_classes(table)
    l_brute = brute_l_classes(table)
    d_brute = brute_d_classes(table)
    for pos in range(green.n_d_classes()):
        box = green.eggbox(pos)
        members = green.d_class_elements(green.d_order[pos])
        assert len(box.row_classes) == len({r_brute[i] for i in members})
        assert len(box.col_classes) == len({l_brute[i] for i in members})
        assert len({d_brute[i] for i in members}) == 1


def test_principal_ideals_and_is_ideal():
    S = monoid("T", 2)
    principals = principal_ideals(S)
    assert all(is_ideal(S, p) for p in principals)
    # {identity} is not an ideal: S * {1} is not inside it
    ident_only = [0]
    assert not is_ideal(S, ident_only)


@pytest.mark.parametrize("build", ORACLE_BUILDS)
def test_ideals_match_brute_force(build):
    S = build()
    table = S.multiplication_table()
    principals = principal_ideals(S)
    assert principals == brute_principal_ideals(table)
    for a, b in combinations_with_replacement(principals, 2):
        assert is_ideal(S, set(a) | set(b))
    assert is_ideal(S, [0]) == (len(S) == 1)
    # principal one-sided ideals sS^1 and S^1s: ideals only when two-sided
    one_sided = {frozenset(line.tolist()) | {s}
                 for s in range(len(S)) for line in (table[s], table[:, s])}
    for subset in one_sided:
        assert is_ideal(S, subset) == is_two_sided_ideal(table, subset)
    unions = {frozenset(p) for p in principals}
    while True:
        more = {a | b for a in unions for b in unions} - unions
        if not more:
            break
        unions |= more
    assert ideals_of(S) == sorted(unions, key=lambda s: (len(s), sorted(s)))


def test_principal_ideals_of_tl8_are_fast():
    S = monoid("TL", 8)
    start = time.perf_counter()
    principals = principal_ideals(S)
    assert time.perf_counter() - start < 0.5
    assert [len(p) for p in principals] == [196, 980, 1380, 1429, 1430]


def test_ideals_of_t3_are_the_rank_ideals():
    S = monoid("T", 3)
    ideals = ideals_of(S)
    assert [len(i) for i in ideals] == [3, 21, 27]
    for i in ideals:
        assert is_ideal(S, i)


def test_ideals_of_refuses_more_than_its_bound(monkeypatch):
    monkeypatch.setattr(engine_module, "IDEALS_MAX_COUNT", 2)
    with pytest.raises(ValueError, match="too many ideals to list"):
        ideals_of(monoid("T", 3))


def test_rees_quotient_of_whole_semigroup_is_trivial():
    S = monoid("T", 2)
    Q = rees_quotient(S, range(len(S)))
    assert len(Q) == 1
    assert isinstance(Q.elements[0], ReesZero)


def test_rees_quotient_t2_by_constants():
    S = monoid("T", 2)
    constants = [i for i, x in enumerate(S.elements)
                 if len(set(x.data)) == 1]
    assert len(constants) == 2
    Q = rees_quotient(S, constants)
    assert len(Q) == len(S) - len(constants) + 1
    # associativity of the quotient product
    for a in Q.elements:
        for b in Q.elements:
            for c in Q.elements:
                assert (a * b) * c == a * (b * c)


def test_rees_quotients_keep_their_own_zero_and_ideal():
    S = monoid("T", 3)
    ideals = [i for i in ideals_of(S) if len(i) < len(S)]
    assert [len(i) for i in ideals] == [3, 21]
    small, large = (rees_quotient(S, i) for i in ideals)
    # the identity lies in neither ideal: one payload, two quotients
    assert small.elements[0].payload == large.elements[0].payload
    assert small.elements[0] != large.elements[0]
    # quotients built and dropped in turn: each keeps a zero of its own
    zeros = []
    for k in range(100):
        Q = rees_quotient(S, ideals[k % 2])
        zeros.append(next(x for x in Q.elements if isinstance(x, ReesZero)))
    assert len({id(z) for z in zeros}) == len(zeros)
    assert all(z == zeros[k % 2] != zeros[1 - k % 2] for k, z in enumerate(zeros))


def test_rees_quotient_rejects_non_ideal():
    S = monoid("T", 2)
    with pytest.raises(ValueError):
        rees_quotient(S, [0])
