"""Enumerate a finite monoid from generators and analyse its structure.

Enumeration is the Froidure-Pin algorithm (V. Froidure and J.-E. Pin,
"Algorithms for computing finite semigroups", 1997).  Elements are
discovered in length-lexicographic order of their words over the
generators, which makes element indices, Cayley graphs and every
downstream ordering deterministic.  Each element u other than the
identity has a word b.w: b its first letter, s the element w spells.
For a generator a, if w.a is not itself the word of s*a (s*a was first
reached another way), then u*a = b*(s*a) is read from the Cayley graphs
already built; only when w.a is a new word is u*a computed by a product.
The left graph takes no products at all: if u = p*c is the word
decomposition of u, then g*u = (g*p)*c.  The identity passed in must be
a two-sided identity of the generators.

Green's classes come from two SCC passes (Tarjan), over the flat right
and left Cayley graphs: R- and L-classes are their components and D is
their join.  D = J is checked rather than computed: each D-class is
strongly connected in the two-sided graph, so the two agree exactly
when the quotient graph of D-classes, the graph the D-order is read
from, is acyclic.  Brute-force divisibility versions live in the test
suite as oracles.  Idempotents are read off the left graph and the
words, and the per-D-class summary off the class labels, so no element
is multiplied after enumeration.

As J = D, a principal ideal S^1 s S^1 is the union of the D-classes at
or below D_s: it is read off the D-order, not searched for (J. East et
al., "Computing finite semigroups", 2019).
"""

import heapq
import json
from array import array

import numpy as np

from . import kernels
from .catalog import hook
from .elements import identity_like
from .formulas import ballot


class LimitExceeded(RuntimeError):
    def __init__(self, limit):
        super().__init__(f"enumeration exceeded the limit of {limit} elements")
        self.limit = limit


class EnumeratedSemigroup:
    """A finite monoid given by an element list closed under product.

    elements[0] is the identity passed to ``enumerate_semigroup``, which
    must be a two-sided identity of the generators; ``identity_adjoined``
    is true when it is not also a product of generators.  ``right[i, g]`` is
    the index of elements[i] * gens[g], ``left[i, g]`` of gens[g] *
    elements[i] (int32 arrays of shape (n, k)).  ``prefix``/``last_gen``
    (int arrays, -1 at the identity) decompose each element's word, the
    least one in length-lexicographic order: elements[i] =
    elements[prefix[i]] * gens[last_gen[i]], and element indices follow
    the order of these words.  The left graph satisfies
    ``left[i, g] = right[left[prefix[i], g], last_gen[i]]``.
    """

    def __init__(self, elements, index, gens, right, left,
                 prefix, last_gen, identity_adjoined):
        self.elements = elements
        self.index = index
        self.gens = gens
        self.right = right
        self.left = left
        self.prefix = prefix
        self.last_gen = last_gen
        self.identity_adjoined = identity_adjoined
        self._table = None

    def __len__(self):
        return len(self.elements)

    @property
    def degree(self):
        return getattr(self.elements[0], "degree", None)

    def multiplication_table(self) -> np.ndarray:
        """Full N x N index table, built column by column from the word
        decomposition (table[x][y*g] = right[table[x][y]][g])."""
        if self._table is None:
            n = len(self.elements)
            table = np.empty((n, n), dtype=np.int32)
            table[:, 0] = np.arange(n, dtype=np.int32)
            for j in range(1, n):
                table[:, j] = self.right[table[:, self.prefix[j]], self.last_gen[j]]
            self._table = table
        return self._table


def enumerate_semigroup(gens, identity=None, limit=None) -> EnumeratedSemigroup:
    """Froidure-Pin closure of the generators, identity adjoined as element 0.

    ``identity`` must be a two-sided identity of the generators (the
    default, ``identity_like(gens[0])``, is one): row 0 of ``right`` is
    read off as the generators themselves, without products.
    """
    gens = list(gens)
    if identity is None:
        if not gens:
            raise ValueError("need at least one generator or an explicit identity")
        identity = identity_like(gens[0])
    degrees = {getattr(g, "degree", None) for g in gens} | {getattr(identity, "degree", None)}
    if len(degrees) > 1:
        raise ValueError(f"mixed degrees in generating set: {sorted(map(str, degrees))}")

    uniq_gens = [g for g in dict.fromkeys(gens) if g != identity]

    # Flat row-major (n, k) graphs and per-element words.  first[i] is
    # the first letter of i's word and suffix[i] the element the rest of
    # the word spells; the identity has neither.
    k = len(uniq_gens)
    elements = [identity]
    index = {identity: 0}
    prefix, last_gen = array("i", [-1]), array("i", [-1])
    first, suffix = array("i", [-1]), array("i", [-1])
    right, left = array("i"), array("i")
    for b, g in enumerate(uniq_gens):
        if limit is not None and b + 1 >= limit:
            raise LimitExceeded(limit)
        index[g] = b + 1
        elements.append(g)
        prefix.append(0)
        last_gen.append(b)
        first.append(b)
        suffix.append(0)
        right.append(b + 1)
    left.extend(right)

    # Elements are processed in index order, which is the length-
    # lexicographic order of their words; level_end is the first element
    # longer than element i.  Left rows of a level are built as soon as
    # the right rows of that level are done.
    built = 1  # left rows exist for elements [0, built)
    level_end = len(elements)
    i = 1
    while True:
        if i == level_end:
            for j in range(built, i):
                p, c = prefix[j] * k, last_gen[j]
                for g in range(k):
                    left.append(right[left[p + g] * k + c])
            built = i
            level_end = len(elements)
            if i == level_end:
                break
        u, b, s = elements[i], first[i], suffix[i]
        for a in range(k):
            r = right[s * k + a]
            if prefix[r] == s and last_gen[r] == a:
                # s*a is a new word: the only case that needs a product
                y = u * uniq_gens[a]
                j = index.get(y)
                if j is None:
                    j = len(elements)
                    if limit is not None and j >= limit:
                        raise LimitExceeded(limit)
                    index[y] = j
                    elements.append(y)
                    prefix.append(i)
                    last_gen.append(a)
                    first.append(b)
                    suffix.append(r)
            elif r == 0:
                j = b + 1  # u*a = b * (s*a) = b
            else:
                # u*a = b*prefix[r]*last_gen[r]; b*prefix[r] is shorter
                # than u, or u itself when last_gen[r] < a
                j = right[left[prefix[r] * k + b] * k + last_gen[r]]
            right.append(j)
        i += 1

    n = len(elements)
    right = np.frombuffer(right, dtype=np.int32).reshape(n, k)
    left = np.frombuffer(left, dtype=np.int32).reshape(n, k)
    # row 0 maps the identity to the generators themselves, so the identity
    # is a nonempty product iff it appears as a target from some other row
    adjoined = not bool((right[1:] == 0).any())
    return EnumeratedSemigroup(elements, index, uniq_gens, right, left,
                               prefix, last_gen, adjoined)


def enumerate_family(genset, limit=None) -> EnumeratedSemigroup:
    return enumerate_semigroup(list(genset.elements), identity=genset.identity,
                               limit=limit)


# ---------------------------------------------------------------------------
# Green's structure


def _scc(graph):
    """Strongly connected components of a Cayley graph, by iterative
    Tarjan; ``graph`` is an (n, k) int32 array whose row v lists the
    out-edges of node v.  Returns component ids, numbered by smallest
    member node."""
    n, k = graph.shape
    # edge ptr of node v is out[v*k + ptr]; reading the flat buffer hands
    # back python ints, where numpy rows hand back numpy scalars
    out = memoryview(np.ascontiguousarray(graph, dtype=np.int32).reshape(-1))
    num = [-1] * n  # preorder number, -1 while unvisited
    low = [0] * n
    comp = [-1] * n  # root of its component; -1 while unvisited or on the stack
    stack = []
    path, work = [], []  # open nodes and the position in ``out`` of their next edge
    counter = 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path.append(root)
        work.append(root * k)
        while work:
            node, pos = path[-1], work[-1]
            end = node * k + k
            while pos < end:
                nxt = out[pos]
                pos += 1
                if num[nxt] < 0:
                    work[-1] = pos
                    num[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    path.append(nxt)
                    work.append(nxt * k)
                    break
                if comp[nxt] < 0 and num[nxt] < low[node]:
                    low[node] = num[nxt]
            else:
                path.pop()
                work.pop()
                if low[node] == num[node]:
                    while True:
                        w = stack.pop()
                        comp[w] = node
                        if w == node:
                            break
                if path:
                    parent = path[-1]
                    if low[node] < low[parent]:
                        low[parent] = low[node]

    relabel = {}  # root -> rank of the component's smallest member
    for c in comp:
        relabel.setdefault(c, len(relabel))
    return [relabel[c] for c in comp]


class GreenStructure:
    """R/L/D class ids per element plus the D-class order.

    Class ids are numbered by smallest member element.  D-classes are
    listed in ``d_order`` from the top down (the identity's class first,
    then a deterministic linear extension of reverse ideal containment),
    so "D-class index k" below means the k-th entry of that list.
    ``idempotent`` flags each element x with x*x = x, and ``summary``
    lists, for each D-class in ``d_order``, its size, its numbers of R-
    and L-classes (eggbox rows and columns) and its idempotents.
    """

    def __init__(self, S, r_class, l_class, d_class, d_order, d_leq):
        self.S = S
        self.r_class = r_class
        self.l_class = l_class
        self.d_class = d_class
        self.d_order = d_order
        self.d_leq = d_leq  # set of pairs (a, b) with D_a below-or-equal D_b
        self.idempotent = idempotent_flags(S)
        d = np.asarray(d_class)
        sizes = np.bincount(d)
        # member indices per D-class id, in index order
        self._members = np.split(np.argsort(d, kind="stable"), np.cumsum(sizes)[:-1])
        # an R- or L-class lies in one D-class, counted by its first member;
        # an H-class holds at most one idempotent
        rows, cols = (np.bincount(d[np.unique(c, return_index=True)[1]])
                      for c in (r_class, l_class))
        idem = np.bincount(d, weights=self.idempotent)
        self.summary = [tuple(int(v[a]) for v in (sizes, rows, cols, idem)) for a in d_order]

    def n_d_classes(self):
        return len(self.d_order)

    def d_class_elements(self, d_id):
        return self._members[d_id].tolist()

    def eggbox(self, position):
        return eggbox(self, position)

    def to_json(self):
        return {
            "size": len(self.S),
            "r_class": list(self.r_class),
            "l_class": list(self.l_class),
            "d_class": list(self.d_class),
            "d_order": list(self.d_order),
            "eggbox": [dict(position=pos, rows=rows, cols=cols, idempotents=idem, size=size)
                       for pos, (size, rows, cols, idem) in enumerate(self.summary)],
        }


def green_structure(S: EnumeratedSemigroup) -> GreenStructure:
    right, left = S.right, S.left
    r_class = _scc(right)
    l_class = _scc(left)
    r = np.array(r_class, dtype=np.int32)
    l = np.array(l_class, dtype=np.int32)

    # D = join of R and L: each element labelled by the least R-class id
    # its D-class has reached so far, spread through L- and R-classes
    # until it is stable (twice, as every R-class of a D-class meets
    # every L-class).  The least R-class holds the smallest member, so
    # ranking the labels numbers D-classes by smallest member too.
    n = len(r_class)
    label = r
    while True:
        via_l = np.full(max(l_class) + 1, n, dtype=np.int32)
        np.minimum.at(via_l, l, label)
        via_r = np.full(max(r_class) + 1, n, dtype=np.int32)
        np.minimum.at(via_r, r, via_l[l])
        spread = via_r[r]
        if np.array_equal(spread, label):
            break
        label = spread
    _, d_of_r = np.unique(via_r, return_inverse=True)
    d = d_of_r.astype(np.int32)[r]
    d_ids = d_of_r.tolist()
    d_class = [d_ids[c] for c in r_class]  # shares one int object per class
    n_d = max(d_ids) + 1

    # One multiplication step leaving D_a lands strictly below it.  Each
    # D-class is strongly connected in the two-sided Cayley graph, so J
    # = D exactly when this quotient graph of D-classes has no cycle.
    # One generator at a time keeps the arrays at n entries.
    steps = set()  # edge a -> b as a * n_d + b
    for graph in (right, left):
        for column in graph.T:
            target = d[column]
            leaves = target != d
            codes = np.sort(d[leaves] * np.int64(n_d) + target[leaves])
            steps.update(codes[np.diff(codes, prepend=-1) != 0].tolist())
    below = [[] for _ in range(n_d)]  # direct successors
    n_above = [0] * n_d
    for step in steps:
        a, b = divmod(step, n_d)
        below[a].append(b)
        n_above[b] += 1

    # top-down order: among the classes with no class left above them,
    # the least id, i.e. the one whose first element comes first
    ready = [a for a in range(n_d) if n_above[a] == 0]
    d_order = []
    while ready:
        a = heapq.heappop(ready)
        d_order.append(a)
        for b in below[a]:
            n_above[b] -= 1
            if n_above[b] == 0:
                heapq.heappush(ready, b)
    if len(d_order) < n_d:
        raise AssertionError("D and J partitions disagree; enumeration is corrupt")

    reaches = [set() for _ in range(n_d)]  # reaches[a] = classes strictly below a
    for a in reversed(d_order):
        for b in below[a]:
            reaches[a].add(b)
            reaches[a] |= reaches[b]
    leq = {(a, b) for b in range(n_d) for a in reaches[b]} | {(a, a) for a in range(n_d)}
    return GreenStructure(S, r_class, l_class, d_class, d_order, leq)


class Eggbox:
    def __init__(self, row_classes, col_classes, cells, idempotent_mask):
        self.row_classes = row_classes  # R-class ids, by smallest member
        self.col_classes = col_classes  # L-class ids, by smallest member
        self.cells = cells  # cells[r][c] = list of element indices (an H-class)
        self.idempotent_mask = idempotent_mask  # bool array rows x cols


def eggbox(green, position: int) -> Eggbox:
    """The eggbox grid of the D-class at the given position of d_order."""
    if not 0 <= position < len(green.d_order):
        raise ValueError(f"no D-class at position {position}")
    members = green.d_class_elements(green.d_order[position])
    r_class, l_class, flags = green.r_class, green.l_class, green.idempotent
    # members are in index order, so first occurrence is smallest member
    rpos, cpos = {}, {}
    for i in members:
        rpos.setdefault(r_class[i], len(rpos))
        cpos.setdefault(l_class[i], len(cpos))
    cells = [[[] for _ in cpos] for _ in rpos]
    mask = np.zeros((len(rpos), len(cpos)), dtype=bool)
    for i in members:
        r, c = rpos[r_class[i]], cpos[l_class[i]]
        cells[r][c].append(i)
        mask[r, c] |= flags[i]
    return Eggbox(list(rpos), list(cpos), cells, mask)


def idempotent_flags(S: EnumeratedSemigroup) -> np.ndarray:
    """Whether x*x = x, for every element x, without products: if x has
    the word g_1...g_k, then x*x = g_1*(...(g_k*x)), read off the left
    Cayley graph one letter at a time from the end of the word."""
    prefix, last_gen = np.asarray(S.prefix), np.asarray(S.last_gen)
    square = np.arange(len(S))
    rest = np.arange(len(S))  # the element the unread start of each word spells
    live = np.arange(1, len(S))  # the elements whose word is not read to its start
    while live.size:
        square[live] = S.left[square[live], last_gen[rest[live]]]
        rest[live] = prefix[rest[live]]
        live = live[rest[live] > 0]
    return square == np.arange(len(S))


def idempotents(S: EnumeratedSemigroup):
    return np.flatnonzero(idempotent_flags(S)).tolist()


# ---------------------------------------------------------------------------
# Temperley-Lieb ferns from half-diagrams
#
# Every block of a TL diagram is a pair, so one row of it is a planar
# involution of 0..n-1: half[i] is the other end of the cup at i, or i
# itself when i lies on a through line.  In TL_n the upper half fixes
# the R-class and the lower half the L-class, H-classes are trivial, and
# D[k] is every (upper, lower) pair of halves with r = n - 2k through
# points, through lines joined in order.


def _first_seen(ids):
    """The ids >= 0 in the order they first occur."""
    order = dict.fromkeys(ids)
    order.pop(-1, None)
    return list(order)


def _least_halves(gens, identity, r, wanted):
    """The ``wanted`` halves of rank r, as two (wanted, n) arrays ordered
    by the shortlex-least generator word whose upper half each one is,
    and by the least word whose lower half it is.  These are the orders
    of the first members of the R- and of the L-classes in Froidure-Pin
    order.

    Every generator must be a hook e_i of TL_n, in any order: ``tl_fern``
    passes the catalog's hooks, and any other letter raises ValueError,
    even one that is its own mirror image.  A hook is its own mirror
    image (upper and lower rows swapped), and mirroring reverses
    products, so the lower half of x*g is the upper half of g*x', x' the
    mirror of x, and the lower halves have the orbit and the action of
    the upper ones.

    The orbit of the identity's upper half under g*x is searched breadth
    first: level L holds the halves of rank >= r whose shortest word has
    length L.  The least word of such a half is g.w' (upper) or w'.g
    (lower), w' the least word of a half of level L - 1: a shorter word
    for the half of w' would give a shorter one for the half itself.  So
    rows rank a level by letter and then the rank of w', columns by the
    rank of w' and then letter.  Every hook acts on every half of a
    level at once, on the halves themselves."""
    n = identity.degree
    hooks = {hook(n, i): i for i in range(n - 1)}
    for g in gens:
        if g not in hooks:
            raise ValueError(f"{g!r} is not a hook e_i of TL_{n}")
    at = np.array([hooks[g] for g in gens], dtype=np.intp)
    points = np.arange(n, dtype=_small_ints(n))
    width = points.nbytes
    seen = {points.tobytes(): 0}
    level, by_row, by_col = points[None, :], [0], [0]
    rows, cols = [], []
    while len(level):
        target = (level == points).sum(axis=1) == r
        rows.append(level[by_row][target[by_row]])
        cols.append(level[by_col][target[by_col]])
        # y[g * m + j]: the upper half of gens[g] * level[j].  The hook e_i
        # puts the cup {i, i + 1} in and joins a and b, the old partners of
        # i and i + 1: into a cup when both are cup ends, else the one cup
        # end becomes a through point; two through points close up.  When
        # {i, i + 1} already is a cup, this writes the half back as it was.
        m = len(level)
        y = np.tile(level, (len(at), 1))
        y_row, i = np.arange(len(y)), np.repeat(at, m)
        a, b = y[y_row, i], y[y_row, i + 1]
        y[y_row, a] = np.where(b == i + 1, a, b)
        y[y_row, b] = np.where(a == i, b, a)
        y[y_row, i], y[y_row, i + 1] = i + 1, i
        # act[g, j]: the index in the next level of y[g * m + j], or -1
        # when it is of rank < r or of an earlier level
        start, fresh = len(seen), []
        found = [-1] * len(y)
        halves = y.tobytes()
        for k in np.flatnonzero((y == points).sum(axis=1) >= r).tolist():
            key = halves[k * width:(k + 1) * width]
            j = seen.setdefault(key, start + len(fresh)) - start
            if j == len(fresh):
                fresh.append(key)
            if j >= 0:
                found[k] = j
        act = np.reshape(found, (len(at), m))
        level = np.frombuffer(b"".join(fresh), dtype=points.dtype).reshape(-1, n)
        by_row = _first_seen(act[:, by_row].ravel().tolist())
        by_col = _first_seen(act[:, by_col].T.ravel().tolist())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if len(rows) != wanted:
        raise AssertionError(f"the orbit holds {len(rows)} halves of rank {r}, "
                             f"not {wanted}")
    return rows, cols


def _small_ints(top):
    """The narrowest signed integer type that holds 0 .. top."""
    return np.min_scalar_type(-top - 1)


def _through_points(halves):
    """(R, r) array of the through points of each of R halves of rank r,
    in increasing order."""
    R, n = halves.shape
    return (np.flatnonzero(halves == np.arange(n)) % n).reshape(R, -1)


def tl_fern(gens, position: int):
    """Rows, columns and idempotent mask of the eggbox of TL_n's D-class
    at ``position`` (rank n - 2*position), without enumerating TL_n.

    ``gens`` is a generating set of TL_n with its identity whose other
    elements are hooks e_i, as the catalog's are; any other element
    raises ValueError.  Rows and columns are (R, n) and (C, n) arrays of
    upper and lower halves, in the order ``eggbox`` gives their R- and
    L-classes; cell (u, v) is black iff the diagram with halves u and v
    is idempotent, i.e. iff v glued onto u keeps rank: each walk from a
    through point of v, through cups alternately of u and v, ends at a
    through point of u."""
    identity = gens.identity
    n = identity.degree
    if not 0 <= position <= n // 2:
        raise ValueError(f"no D-class at position {position}")
    letters = [g for g in dict.fromkeys(gens.elements) if g != identity]
    r = n - 2 * position
    side = ballot(n, position)
    rows, cols = _least_halves(letters, identity, r, side)

    # a walk at point p takes u's cup to q and v's cup from q; point n is
    # where it stops, reached from every through point of u and fixed.
    # A walk that ends at a through point of v goes back and forth on its
    # path, which holds no through point of u, so it never reaches n.
    # Each step uses one of u's ``position`` cups: position + 1 steps end
    # every walk.
    stop = np.full((side, 1), n, dtype=rows.dtype)
    up = np.hstack([np.where(rows == np.arange(n), stop, rows), stop])
    down = np.hstack([cols, stop]).ravel()
    col_base = np.arange(side)[:, None] * (n + 1)
    starts = _through_points(cols)
    mask = np.empty((side, side), dtype=bool)
    row_bytes = 3 * starts.nbytes
    for u, out in zip(kernels._chunks(up, row_bytes), kernels._chunks(mask, row_bytes)):
        u = u.ravel()
        row_base = np.arange(len(out))[:, None, None] * (n + 1)
        p = starts
        for _ in range(position + 1):
            p = down[col_base + u[row_base + p]]
        out[:] = (p == n).all(axis=2)
    return rows, cols, mask


def tl_cell_diagrams(rows, cols):
    """Partner arrays of the diagrams of every cell (u, v) for u in
    ``rows`` and v in ``cols``, as a (R * C, 2n) array, row-major over
    the cells: point i < n is upper point i, n + j is lower point j, and
    each point holds the other end of its pair.  The upper cups are u's,
    the lower cups v's, and the k-th through point of u is joined to the
    k-th through point of v."""
    R, n = rows.shape
    C = len(cols)
    x = np.empty((R, C, 2 * n), dtype=_small_ints(2 * n))
    x[:, :, :n] = rows[:, None, :]
    x[:, :, n:] = cols[None, :, :].astype(x.dtype) + n
    upper, lower = _through_points(rows)[:, None, :], _through_points(cols)[None, :, :]
    r_idx, c_idx = np.arange(R)[:, None, None], np.arange(C)[None, :, None]
    x[r_idx, c_idx, upper] = n + lower
    x[r_idx, c_idx, n + lower] = upper
    return x.reshape(R * C, 2 * n)


def tl_products(x, y):
    """Partner arrays of the products x[i] * y[i] of TL diagrams given as
    partner arrays (see ``tl_cell_diagrams``), all at once.

    The product glues x's lower row to y's upper row.  Every outer point
    starts a walk through the 3n points that leaves each middle point by
    the edge of the other factor; it ends at its partner in the product
    after at most n + 1 edges.  Closed loops in the middle are dropped."""
    m, two_n = x.shape
    n = two_n // 2
    # a walk at state j < n is at middle point j, x's lower point n + j,
    # and leaves by x's edge; at state n + j it is at middle point j, y's
    # upper point j, and leaves by y's edge; at 2n + p it has ended at
    # point p of the product.  x's edge to x[a] ends at the top when
    # x[a] < n and else goes on at state x[a]; y's edge to y[b] ends at
    # the bottom when y[b] >= n and else goes on at state y[b].
    dtype = _small_ints(2 * two_n)
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    ended = dtype.type(two_n)
    x = x + (x < n) * ended
    y = y + (y >= n) * ended
    s = np.hstack([x[:, :n], y[:, n:]]).ravel()  # the first edge of each walk
    step = np.hstack([x[:, n:], y[:, :n]]).ravel()
    # only the walks not yet ended go on: most end at once
    walks = np.flatnonzero(s < two_n)
    for _ in range(n):
        if not walks.size:
            break
        s[walks] = step[walks - walks % two_n + s[walks]]
        walks = walks[s[walks] < two_n]
    return s.reshape(m, two_n) - two_n


# ---------------------------------------------------------------------------
# ideals and Rees quotients


def principal_ideals(S: EnumeratedSemigroup):
    """The distinct principal two-sided ideals, as sorted index tuples:
    one per D-class, the members of every D-class at or below it."""
    green = green_structure(S)
    below = [[] for _ in green.d_order]
    for a, b in green.d_leq:
        below[b].append(a)
    ideals = [tuple(sorted(i for a in classes for i in green.d_class_elements(a)))
              for classes in below]
    return sorted(ideals, key=lambda t: (len(t), t))


def is_ideal(S: EnumeratedSemigroup, indices) -> bool:
    """Whether the nonempty index set is closed under multiplying by the
    generators on either side."""
    idx = np.fromiter(indices, dtype=np.intp)
    if not idx.size:
        return False
    member = np.zeros(len(S), dtype=bool)
    member[idx] = True
    return bool(member[S.right[idx]].all() and member[S.left[idx]].all())


def ideals_of(S: EnumeratedSemigroup, max_count=100000):
    """All (nonempty) two-sided ideals: unions of principal ideals."""
    principals = principal_ideals(S)
    out = {frozenset(p) for p in principals}
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for p in principals:
                u = a | frozenset(p)
                if u not in out:
                    out.add(u)
                    nxt.append(u)
                    if len(out) > max_count:
                        raise ValueError("too many ideals to list")
        frontier = nxt
    return sorted(out, key=lambda s: (len(s), sorted(s)))


class ReesZero:
    """Adjoined zero of a Rees quotient.  Each quotient builds its own;
    zeros of quotients by the same ideal compare equal."""

    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal

    def __mul__(self, other):
        if isinstance(other, (ReesZero, ReesElement)):
            return self
        return NotImplemented

    def __rmul__(self, other):
        return self

    def __eq__(self, other):
        return isinstance(other, ReesZero) and (self.ideal is other.ideal
                                                or self.ideal == other.ideal)

    def __hash__(self):
        return hash(("rees-zero", self.ideal))

    def __repr__(self):
        return "ReesZero"


class ReesElement:
    """Element of S/I: a non-ideal element of S, multiplied mod the ideal.
    It carries the zero of its quotient, and with it the ideal."""

    __slots__ = ("payload", "zero")

    def __init__(self, payload, zero):
        self.payload = payload
        self.zero = zero

    def __mul__(self, other):
        if isinstance(other, ReesZero):
            return other
        if not isinstance(other, ReesElement):
            return NotImplemented
        p = self.payload * other.payload
        if p in self.zero.ideal:
            return self.zero
        return ReesElement(p, self.zero)

    def __eq__(self, other):
        return (isinstance(other, ReesElement) and self.payload == other.payload
                and self.zero == other.zero)

    def __hash__(self):
        return hash(("rees", self.payload))

    def __repr__(self):
        return f"ReesElement({self.payload!r})"


def rees_quotient(S: EnumeratedSemigroup, ideal_indices) -> EnumeratedSemigroup:
    """Collapse a verified ideal to a zero element."""
    idx = sorted(set(ideal_indices))
    if not is_ideal(S, idx):
        raise ValueError("the given subset is not a two-sided ideal")
    zero = ReesZero(frozenset(S.elements[i] for i in idx))
    if len(idx) == len(S):
        return enumerate_semigroup([zero], identity=zero)
    wrap = lambda x: zero if x in zero.ideal else ReesElement(x, zero)
    gens = [wrap(g) for g in S.gens]
    return enumerate_semigroup(gens, identity=wrap(S.elements[0]))


# ---------------------------------------------------------------------------
# exports


def write_pgm(path, bitmap, comment=""):
    """P2 graymap, one pixel per cell: marked cells black, the rest white."""
    h, w = bitmap.shape
    header = ["P2", *(f"# {line}" for line in comment.splitlines()), f"{w} {h}", "255"]
    # one character a cell, "0" or "w", joined and then widened to "255"
    cells = np.where(bitmap, b"0", b"w")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for row in cells:
            fh.write(" ".join(row.tobytes().decode()).replace("w", "255") + "\n")


def write_green_json(path, green: GreenStructure, config=None):
    doc = green.to_json()
    if config:
        doc["config"] = config
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
