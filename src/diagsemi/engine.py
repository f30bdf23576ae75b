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

Green's classes come from strongly connected components of the Cayley
graphs; brute-force divisibility versions live in the test suite as
oracles.
"""

import json
from array import array

import numpy as np

from .elements import identity_like


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

    def __init__(self, elements, index, gens, labels, right, left,
                 prefix, last_gen, identity_adjoined):
        self.elements = elements
        self.index = index
        self.gens = gens
        self.gen_labels = labels
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

    def word_for(self, i):
        """First-discovered generator word for element i (list of gen indices)."""
        word = []
        while i != 0:
            word.append(self.last_gen[i])
            i = self.prefix[i]
        return word[::-1]

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


def enumerate_semigroup(gens, identity=None, limit=None, labels=None) -> EnumeratedSemigroup:
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

    uniq_gens, uniq_labels = [], []
    seen_gens = set()
    for k, g in enumerate(gens):
        if g not in seen_gens and g != identity:
            seen_gens.add(g)
            uniq_gens.append(g)
            uniq_labels.append(labels[k] if labels else f"g{len(uniq_gens) - 1}")

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
    return EnumeratedSemigroup(elements, index, uniq_gens, tuple(uniq_labels),
                               right, left, prefix, last_gen, adjoined)


def enumerate_family(genset, limit=None) -> EnumeratedSemigroup:
    return enumerate_semigroup(list(genset.elements), identity=genset.identity,
                               limit=limit, labels=list(genset.labels))


# ---------------------------------------------------------------------------
# Green's structure


def _scc(n, out_edges):
    """Iterative Tarjan; returns (component id per node, component count).
    Component ids are renumbered by smallest member node."""
    UNVISITED = -1
    ids = [UNVISITED] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [UNVISITED] * n
    counter = 0
    n_comps = 0
    for root in range(n):
        if ids[root] != UNVISITED:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                ids[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            edges = out_edges(node)
            while ptr < len(edges):
                nxt = edges[ptr]
                ptr += 1
                if ids[nxt] == UNVISITED:
                    work[-1] = (node, ptr)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], ids[nxt])
            if advanced:
                continue
            if low[node] == ids[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == node:
                        break
                n_comps += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    # renumber so class id = rank of smallest member element
    first = {}
    for v in range(n):
        first.setdefault(comp[v], v)
    order = sorted(first, key=first.get)
    relabel = {old: new for new, old in enumerate(order)}
    return [relabel[c] for c in comp], n_comps


class GreenStructure:
    """R/L/D class ids per element plus the D-class order.

    D-classes are listed in ``d_order`` from the top down (the
    identity's class first, then a deterministic linear extension of
    reverse ideal containment), so "D-class index k" below means the
    k-th entry of that list.
    """

    def __init__(self, S, r_class, l_class, d_class, d_order, d_leq):
        self.S = S
        self.r_class = r_class
        self.l_class = l_class
        self.d_class = d_class
        self.d_order = d_order
        self.d_leq = d_leq  # set of pairs (a, b) with D_a below-or-equal D_b
        self._eggboxes = {}  # position -> Eggbox, filled by eggbox()

    def n_d_classes(self):
        return len(self.d_order)

    def d_class_elements(self, d_id):
        return [i for i, d in enumerate(self.d_class) if d == d_id]

    def d_id_at(self, position):
        return self.d_order[position]

    def eggbox(self, position):
        return eggbox(self, position)

    def to_json(self):
        grids = []
        for pos in range(len(self.d_order)):
            box = self.eggbox(pos)
            grids.append({
                "position": pos,
                "rows": len(box.row_classes),
                "cols": len(box.col_classes),
                "idempotents": int(box.idempotent_mask.sum()),
                "size": len(self.d_class_elements(self.d_order[pos])),
            })
        return {
            "size": len(self.S),
            "r_class": list(self.r_class),
            "l_class": list(self.l_class),
            "d_class": list(self.d_class),
            "d_order": list(self.d_order),
            "eggbox": grids,
        }


def green_structure(S: EnumeratedSemigroup) -> GreenStructure:
    n = len(S)
    right, left = S.right, S.left
    k = right.shape[1]

    r_class, _ = _scc(n, lambda v: right[v])
    l_class, _ = _scc(n, lambda v: left[v])

    # D = join of R and L
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    firsts = {}
    for cls in (r_class, l_class):
        firsts.clear()
        for v in range(n):
            c = cls[v]
            if c in firsts:
                ra, rb = find(firsts[c]), find(v)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                firsts[c] = v
    relabel = {}
    d_class = []
    for v in range(n):
        d_class.append(relabel.setdefault(find(v), len(relabel)))

    # J from the two-sided Cayley graph; must agree with D on a finite
    # semigroup -- checked, because it exercises both constructions.
    both = np.concatenate([right, left], axis=1)
    j_class, _ = _scc(n, lambda v: both[v])
    if j_class != d_class:
        raise AssertionError("D and J partitions disagree; enumeration is corrupt")

    n_d = len(relabel)
    # One multiplication step leaving D_a lands strictly below it; close
    # transitively to get the ideal-containment order.
    step_down = [set() for _ in range(n_d)]
    for v in range(n):
        dv = d_class[v]
        for g in range(k):
            for w in (int(right[v, g]), int(left[v, g])):
                if d_class[w] != dv:
                    step_down[dv].add(d_class[w])
    reaches = [set(s) for s in step_down]  # reaches[a] = classes strictly below a
    changed = True
    while changed:
        changed = False
        for a in range(n_d):
            extra = set()
            for b in reaches[a]:
                extra |= reaches[b] - reaches[a]
            if extra:
                reaches[a] |= extra
                changed = True

    # top-down order: the identity's class first, ties by first element
    first_elem = [min(i for i in range(n) if d_class[i] == d) for d in range(n_d)]
    remaining = set(range(n_d))
    d_order = []
    while remaining:
        ready = [d for d in remaining
                 if not any(e != d and d in reaches[e] for e in remaining)]
        ready.sort(key=lambda d: first_elem[d])
        d_order.append(ready[0])
        remaining.remove(ready[0])

    leq = {(a, b) for b in range(n_d) for a in reaches[b]} | {(a, a) for a in range(n_d)}
    return GreenStructure(S, r_class, l_class, d_class, d_order, leq)


class Eggbox:
    def __init__(self, row_classes, col_classes, cells, idempotent_mask):
        self.row_classes = row_classes  # R-class ids, discovery order
        self.col_classes = col_classes  # L-class ids, discovery order
        self.cells = cells  # cells[r][c] = list of element indices (an H-class)
        self.idempotent_mask = idempotent_mask  # bool array rows x cols


def eggbox(green, position: int) -> Eggbox:
    """The eggbox grid of the D-class at the given position of d_order.

    Accepts a GreenStructure or an EnumeratedSemigroup (recomputing the
    structure in the latter case).  A structure builds each of its
    eggboxes once and returns the same box on later calls."""
    if isinstance(green, EnumeratedSemigroup):
        green = green_structure(green)
    if not 0 <= position < len(green.d_order):
        raise ValueError(f"no D-class at position {position}")
    if position in green._eggboxes:
        return green._eggboxes[position]
    d_id = green.d_order[position]
    S = green.S
    members = green.d_class_elements(d_id)
    rows = sorted({green.r_class[i] for i in members},
                  key=lambda c: min(i for i in members if green.r_class[i] == c))
    cols = sorted({green.l_class[i] for i in members},
                  key=lambda c: min(i for i in members if green.l_class[i] == c))
    rpos = {c: k for k, c in enumerate(rows)}
    cpos = {c: k for k, c in enumerate(cols)}
    cells = [[[] for _ in cols] for _ in rows]
    for i in members:
        cells[rpos[green.r_class[i]]][cpos[green.l_class[i]]].append(i)
    idem = np.zeros((len(rows), len(cols)), dtype=bool)
    for r in range(len(rows)):
        for c in range(len(cols)):
            for i in cells[r][c]:
                x = S.elements[i]
                if x * x == x:
                    idem[r, c] = True
                    break
    box = green._eggboxes[position] = Eggbox(rows, cols, cells, idem)
    return box


def idempotents(S: EnumeratedSemigroup):
    return [i for i, x in enumerate(S.elements) if x * x == x]


# ---------------------------------------------------------------------------
# ideals and Rees quotients


def principal_ideals(S: EnumeratedSemigroup):
    """The distinct principal two-sided ideals, as sorted index tuples."""
    n = len(S)
    k = S.right.shape[1]
    out = set()
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for g in range(k):
                for w in (int(S.right[x, g]), int(S.left[x, g])):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        out.add(tuple(sorted(seen)))
    return sorted(out, key=lambda t: (len(t), t))


def is_ideal(S: EnumeratedSemigroup, indices) -> bool:
    idx = set(indices)
    if not idx:
        return False
    for x in idx:
        for g in range(S.right.shape[1]):
            if int(S.right[x, g]) not in idx or int(S.left[x, g]) not in idx:
                return False
    return True


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
    lines = ["P2"]
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"{w} {h}")
    lines.append("255")
    for r in range(h):
        lines.append(" ".join("0" if bitmap[r, c] else "255" for c in range(w)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_green_json(path, green: GreenStructure, config=None):
    doc = green.to_json()
    if config:
        doc["config"] = config
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
