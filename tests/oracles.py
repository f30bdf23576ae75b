"""Independent brute-force oracles.

Everything here is deliberately written from the definitions, without
touching the library's search/SCC/kernel code paths, so tests can pin
the fast implementations against it.
"""

from itertools import combinations

import numpy as np

from diagsemi.elements import PBR, Bipartition, bit_indices


def pbr_product_by_walks(a: PBR, b: PBR) -> PBR:
    """PBR product by enumerating alternating walks of length <= 4n in the
    stacked graph (revisits allowed; the length bound cuts cycles)."""
    n = a.degree
    # stacked vertices: 0..n-1 upper, n..2n-1 middle, 2n..3n-1 lower
    a_edges = [(u, v) for u in range(2 * n) for v in bit_indices(a.rows[u])]
    b_edges = [(u + n, v + n) for u in range(2 * n) for v in bit_indices(b.rows[u])]
    outer = list(range(n)) + list(range(2 * n, 3 * n))
    max_len = 4 * n

    result = set()
    for start in outer:
        # walk states: (vertex, colour of last edge); colour 0 = a, 1 = b
        frontier = {(v, 0) for u, v in a_edges if u == start}
        frontier |= {(v, 1) for u, v in b_edges if u == start}
        reached = set()
        for _ in range(max_len):
            if not frontier:
                break
            reached |= frontier
            nxt = set()
            for v, colour in frontier:
                edges = b_edges if colour == 0 else a_edges
                for u, w in edges:
                    if u == v:
                        nxt.add((w, 1 - colour))
            frontier = nxt - reached
        for v, _ in reached:
            if v < n or v >= 2 * n:
                s = start if start < n else start - n
                t = v if v < n else v - n
                result.add((s, t))
    return PBR.from_edges(n, result)


def is_closed(table, mask):
    """Whether x*y lies in ``mask`` for every x and y in ``mask``."""
    members = [i for i in range(len(table)) if mask >> i & 1]
    return all(mask >> int(table[x][y]) & 1 for x in members for y in members)


def brute_closed_subsets(table):
    """All product-closed subsets of {0..N-1}, by scanning every subset."""
    return [mask for mask in range(1 << len(table)) if is_closed(table, mask)]


class NibbleClosure:
    """The one-mask-at-a-time Close-by-One step over python-int masks: the
    reference for the batched search of ``Backend.extend_window``.

    For an element x and the 4-bit chunk c of a mask (elements 4c ..
    4c+3), the product table of x holds 16 entries: entry b is the OR of
    ``1 << table[x, y] | 1 << table[y, x]`` over the elements y of the
    chunk whose bits are set in b, so ``x·M ∪ M·x`` is the OR of ⌈N/4⌉
    lookups, one per chunk of M."""

    def __init__(self, table):
        rows = table.tolist()
        self.n = n = len(rows)
        self.products = [_nibble_tables([1 << rows[x][y] | 1 << rows[y][x] for y in range(n)])
                         for x in range(n)]

    def nibbles(self, mask):
        """The 4-bit chunks of ``mask``, lowest first."""
        return [mask >> c & 15 for c in range(0, self.n, 4)]

    def closure(self, mask, nib, first):
        """Closure of the closed set ``mask``, whose nibbles are ``nib``,
        after adjoining element ``first``, or None as soon as it gains an
        element below ``first``; a copy of the nibbles grows along with
        the set."""
        m = mask | 1 << first
        below = (1 << first) - 1
        nib = nib[:]
        nib[first >> 2] |= 1 << (first & 3)
        stack = [first]
        while stack:
            new = 0
            for table, b in zip(self.products[stack.pop()], nib):
                new |= table[b]
            new &= ~m
            if new:
                if new & below:
                    return None
                m |= new
                for p in bit_indices(new):
                    nib[p >> 2] |= 1 << (p & 3)
                    stack.append(p)
        return m

    def extend_window(self, mask, lo):
        """``(e, closure of mask + e)`` for each e >= lo not in mask whose
        closure gains no element below e: the canonical children of mask."""
        nib = self.nibbles(mask)
        return [(e, closed) for e in range(lo, self.n) if not mask >> e & 1
                and (closed := self.closure(mask, nib, e)) is not None]


def _nibble_tables(values):
    """Per 4-bit chunk, the ORs of the subsets of its (up to four) ``values``,
    indexed by the subset as a bitmask."""
    out = []
    for c in range(0, len(values), 4):
        t = [0]
        for v in values[c:c + 4]:
            t += [u | v for u in t]
        out.append(t)
    return out


def _partition_key(classes):
    """Canonical form of a partition given as element -> class-key map."""
    relabel = {}
    return tuple(relabel.setdefault(classes[i], len(relabel)) for i in range(len(classes)))


def brute_r_classes(table):
    """t R s iff the principal right ideals tS^1 and sS^1 agree."""
    n = len(table)
    ideals = [frozenset(int(v) for v in table[s]) | {s} for s in range(n)]
    return _partition_key(ideals)


def brute_l_classes(table):
    n = len(table)
    ideals = [frozenset(int(v) for v in table[:, s]) | {s} for s in range(n)]
    return _partition_key(ideals)


def brute_d_classes(table):
    """Join of the brute R and L partitions via union-find."""
    n = len(table)
    r = brute_r_classes(table)
    l = brute_l_classes(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (r, l):
        first = {}
        for i in range(n):
            c = part[i]
            if c in first:
                a, b = find(first[c]), find(i)
                if a != b:
                    parent[max(a, b)] = min(a, b)
            else:
                first[c] = i
    return _partition_key([find(i) for i in range(n)])


def _two_sided_ideal(table, s):
    """S^1 s S^1, as S^1 s together with (S^1 s) S, read off the full table."""
    us = set(int(v) for v in table[:, s])
    us.add(s)
    return frozenset(int(v) for v in np.unique(table[sorted(us), :])) | us


def brute_j_classes(table):
    """t J s iff S^1 t S^1 = S^1 s S^1, ideals read off the full table.

    Computed once per brute R-class (R-related elements are J-related by
    definition), which keeps the quadratic blow-up tolerable."""
    n = len(table)
    r = brute_r_classes(table)
    rep_ideal = {}
    classes = [None] * n
    for s in range(n):
        if r[s] not in rep_ideal:
            rep_ideal[r[s]] = _two_sided_ideal(table, s)
        classes[s] = rep_ideal[r[s]]
    return _partition_key(classes)


def brute_d_leq(table):
    """Pairs (a, b) of D-classes with S^1 a S^1 inside S^1 b S^1.

    Classes are numbered by smallest member, as ``brute_d_classes``
    numbers them; each ideal is read off the table at that member."""
    d = brute_d_classes(table)
    firsts = {}
    for s in range(len(table)):
        firsts.setdefault(d[s], s)
    ideals = [_two_sided_ideal(table, firsts[c]) for c in range(len(firsts))]
    return {(a, b) for a, ia in enumerate(ideals) for b, ib in enumerate(ideals)
            if ia <= ib}


def dclasses_by_products(table, masks):
    """The number of D-classes of each subsemigroup in the packed mask rows
    ``masks`` (element i at bit i & 7 of byte i >> 3), from its s x s
    products read off ``table``: the successors {a} ∪ aT ∪ Ta of every
    member a are scattered into a 0/1 matrix, whose boolean square gives
    every principal ideal {a} ∪ aT ∪ Ta ∪ TaT.  A member starts a new
    class when no lower member has the same ideal.  The masks of one size
    go together, 64 at a time."""
    bits = np.unpackbits(masks, axis=1, bitorder="little").view(bool)
    sizes = bits.sum(axis=1)
    counts = np.zeros(len(masks), int)
    for s in set(sizes.tolist()) - {0}:
        rows = np.flatnonzero(sizes == s)
        for k in range(0, len(rows), 64):
            part = rows[k:k + 64]
            counts[part] = _dclasses_of_size(table, bits[part], s)
    return counts


def _dclasses_of_size(table, bits, s):
    """``dclasses_by_products`` of the unpacked masks ``bits``, all of size s."""
    r, n = bits.shape
    members = np.nonzero(bits)[1].reshape(r, s)  # ascending in each row
    # the member number of each element of each mask, flat over the rows
    local = np.cumsum(bits, axis=1).ravel() - 1
    products = table[members[:, :, None], members[:, None, :]]
    ab = local[products + (n * np.arange(r))[:, None, None]]
    # succ[t, a, b]: member b is in {a} ∪ aT ∪ Ta, set at flat index
    # t·s² + a·s + b; a block's diagonal is every (s+1)th of its s² entries
    succ = np.zeros((r, s, s), np.float32)
    flat, starts = succ.reshape(-1), (s * np.arange(r * s)).reshape(r, s, 1)
    flat[starts + ab] = 1
    flat[starts + ab.transpose(0, 2, 1)] = 1
    succ.reshape(r, s * s)[:, ::s + 1] = 1
    ideal = np.matmul(succ, succ) > 0
    j = ideal & ideal.transpose(0, 2, 1)
    return (j.argmax(axis=2) == np.arange(s)).sum(axis=1)


def is_two_sided_ideal(table, subset):
    """Whether x*s and s*x lie in the nonempty ``subset`` for every
    element x and every s in ``subset``, read off the full table."""
    members = sorted(subset)
    inside = np.zeros(len(table), dtype=bool)
    inside[members] = True
    return bool(members) and bool(inside[table[members]].all()
                                  and inside[table[:, members]].all())


def brute_principal_ideals(table):
    """The distinct S^1 s S^1, as sorted index tuples ordered by size and
    then by members.  Read off the table once per brute R-class, since
    R-related elements generate the same two-sided ideal."""
    r = brute_r_classes(table)
    reps = {}
    for s in range(len(table)):
        reps.setdefault(r[s], s)
    ideals = {tuple(sorted(_two_sided_ideal(table, s))) for s in reps.values()}
    return sorted(ideals, key=lambda t: (len(t), t))


def brute_idempotents(elements):
    return [i for i, x in enumerate(elements) if x * x == x]


def all_perfect_matchings(points):
    """All perfect matchings of an even-sized point list."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for matching in all_perfect_matchings(remaining):
            yield [(first, other)] + matching


def all_brauer_diagrams(n):
    for matching in all_perfect_matchings(list(range(2 * n))):
        yield Bipartition.from_blocks(n, matching)


def is_planar_pairwise(b: Bipartition) -> bool:
    """Planarity by definition: no two blocks cross in the boundary cyclic
    order 1, 2, ..., n, n', (n-1)', ..., 1'."""
    n = b.degree
    pos_of = list(range(n)) + [n + (n - 1 - i) for i in range(n)]
    positioned = [sorted(pos_of[p] for p in blk) for blk in b.blocks()]
    return not any(_blocks_cross(pa, pb) for pa, pb in combinations(positioned, 2))


def _blocks_cross(pos_a, pos_b):
    """Two blocks cross iff their points alternate at least four times
    around the circle."""
    merged = sorted([(p, 0) for p in pos_a] + [(p, 1) for p in pos_b])
    labels = [lab for _, lab in merged]
    changes = sum(1 for k in range(len(labels)) if labels[k] != labels[k - 1])
    return changes >= 4


def tl_diagram(upper, lower):
    """The TL diagram with the given upper and lower halves, through lines
    joined in order.  A half is a tuple: entry i is the other end of the
    cup at i, or i itself on a through line."""
    n = len(upper)
    labels = [min(i, j) for i, j in enumerate(upper)]
    labels += [n + min(i, j) for i, j in enumerate(lower)]
    through_upper = [i for i, j in enumerate(upper) if i == j]
    through_lower = [i for i, j in enumerate(lower) if i == j]
    for a, b in zip(through_upper, through_lower):
        labels[n + b] = a
    return Bipartition(n, labels)


def tl_partners(x):
    """The partner array of a TL diagram: entry p is the other point of
    the pair holding point p (upper points 0..n-1, lower n..2n-1)."""
    partner = list(range(2 * x.degree))
    for a, b in x.blocks():
        partner[a], partner[b] = b, a
    return partner


def _half(labels):
    """The half-diagram of one row of a TL diagram, from the block labels
    of its points: the other end of each cup, or the point itself."""
    half = list(range(len(labels)))
    first = {}
    for i, b in enumerate(labels):
        j = first.setdefault(b, i)
        half[i], half[j] = j, i
    return tuple(half)


def least_halves_by_products(gens, identity, r):
    """The halves of rank r, ordered by the shortlex-least word over
    ``gens`` whose upper half each one is (rows) and by the least word
    whose lower half it is (columns), from one ``Bipartition`` product
    per half and generator.  Each generator must be its own mirror image,
    so the lower halves have the orbit and the action of the upper ones.

    Level L lists every half with a word of exact length L, by its least
    such word, so a half turns up at the length of its shortest word."""
    n = identity.degree
    reps, halves = [identity], [_half(identity.assignment[:n])]
    index, action = {halves[0]: 0}, []
    for x in reps:
        row = []
        for g in gens:
            y = g * x
            h = _half(y.assignment[:n])
            j = index.get(h, -1)
            if j < 0 and sum(i == p for i, p in enumerate(h)) >= r:
                j = index[h] = len(reps)
                reps.append(y)
                halves.append(h)
            row.append(j)
        action.append(row)
    targets = {j for j, h in enumerate(halves) if sum(i == p for i, p in enumerate(h)) == r}

    def ranked(upper):
        left, level, order = set(targets), [0], []
        while left:
            for j in level:
                if j in left:
                    left.remove(j)
                    order.append(halves[j])
            best = {}
            for pos, i in enumerate(level):
                for g, j in enumerate(action[i]):
                    key = (g, pos) if upper else (pos, g)
                    if j >= 0 and (j not in best or key < best[j]):
                        best[j] = key
            level = sorted(best, key=best.__getitem__)
        return order

    return ranked(upper=True), ranked(upper=False)
