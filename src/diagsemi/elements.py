"""Diagram elements of degree n and their products.

A diagram of degree n lives on two rows of n points: upper points are
indexed 0..n-1, lower points n..2n-1 (point i+n is the "primed" copy of
point i).  Three concrete representations cover the ten families:

* ``PBR``         -- an arbitrary directed graph on the 2n points
                     (the universal element type),
* ``Bipartition`` -- a set partition of the 2n points (partition monoid
                     and its submonoids: block bijections, Brauer,
                     Temperley-Lieb),
* ``MapElement``  -- top-to-bottom diagrams: binary relations and
                     partial/total (co)functional maps.

All products are read left to right: ``x * y`` stacks x above y.
Elements are immutable and hashable.
"""

from __future__ import annotations

from collections import Counter


# Family codes used throughout the library and on the CLI.
#   PB  partitioned binary relations     B   binary relations
#   PT  partial transformations          T   transformations
#   I   partial permutations             S   permutations
#   P   partitions (bipartitions)        IS  block bijections
#   Br  Brauer diagrams                  TL  Temperley-Lieb diagrams
FAMILY_CODES = ("PB", "B", "PT", "T", "I", "S", "P", "IS", "Br", "TL")

FAMILY_NAMES = {
    "PB": "partitioned binary relation monoid",
    "B": "binary relation monoid",
    "PT": "partial transformation monoid",
    "T": "full transformation monoid",
    "I": "symmetric inverse monoid",
    "S": "symmetric group",
    "P": "partition monoid",
    "IS": "dual symmetric inverse monoid",
    "Br": "Brauer monoid",
    "TL": "Temperley-Lieb monoid",
}

# The map kind of each family of top-to-bottom diagrams.
MAP_KIND = {"B": "relation", "PT": "partial", "T": "transformation",
            "I": "partial_perm", "S": "permutation"}
MAP_KINDS = tuple(MAP_KIND.values())

# Constraint lattice of the map kinds, bottom to top:
# permutation < transformation, partial_perm < partial < relation.
_KIND_UPSETS = {
    "permutation": {"permutation", "transformation", "partial_perm", "partial", "relation"},
    "transformation": {"transformation", "partial", "relation"},
    "partial_perm": {"partial_perm", "partial", "relation"},
    "partial": {"partial", "relation"},
    "relation": {"relation"},
}


def join_kinds(a: str, b: str) -> str:
    common = _KIND_UPSETS[a] & _KIND_UPSETS[b]
    for kind in ("permutation", "transformation", "partial_perm", "partial", "relation"):
        if kind in common:
            return kind
    raise ValueError(f"no common kind for {a!r} and {b!r}")


def bit_indices(mask: int):
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_degree(a, b):
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")


class PointPermutation:
    """A permutation of the n points, used to conjugate diagrams."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation: {image}")
        if not image:
            raise ValueError("degree 0 not supported")
        self.image = image

    @property
    def degree(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "PointPermutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, *cycles) -> "PointPermutation":
        image = list(range(n))
        for cycle in cycles:
            for i, p in enumerate(cycle):
                image[p] = cycle[(i + 1) % len(cycle)]
        return cls(image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "PointPermutation") -> "PointPermutation":
        _check_degree(self, other)
        return PointPermutation(other.image[v] for v in self.image)

    def inverse(self) -> "PointPermutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return PointPermutation(inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def __eq__(self, other):
        return isinstance(other, PointPermutation) and self.image == other.image

    def __hash__(self):
        return hash(("perm", self.image))

    def __repr__(self):
        return f"PointPermutation({list(self.image)})"

    def doubled(self, i: int) -> int:
        """Apply to a point index in [0, 2n): upper and lower copies move alike."""
        n = len(self.image)
        return self.image[i] if i < n else n + self.image[i - n]


class PBR:
    """Partitioned binary relation: any subset of (X u X')^2 as directed edges.

    Stored as 2n adjacency rows, ``rows[a]`` a bitmask over targets b.
    """

    __slots__ = ("degree", "rows")

    def __init__(self, degree: int, rows):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        rows = tuple(int(r) for r in rows)
        if len(rows) != 2 * degree:
            raise ValueError("need 2n adjacency rows")
        full = (1 << (2 * degree)) - 1
        if any(r < 0 or r > full for r in rows):
            raise ValueError("row bits out of range")
        self.degree = degree
        self.rows = rows

    @classmethod
    def identity(cls, n: int) -> "PBR":
        rows = [1 << (i + n) for i in range(n)] + [1 << i for i in range(n)]
        return cls(n, rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "PBR":
        rows = [0] * (2 * n)
        for a, b in edges:
            if not (0 <= a < 2 * n and 0 <= b < 2 * n):
                raise ValueError(f"edge ({a},{b}) out of range for degree {n}")
            rows[a] |= 1 << b
        return cls(n, rows)

    def edges(self):
        return [(a, b) for a in range(2 * self.degree) for b in bit_indices(self.rows[a])]

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def identity_element(self) -> "PBR":
        return PBR.identity(self.degree)

    def __mul__(self, other: "PBR") -> "PBR":
        """Alternating-path product.

        Stack self above other, identify self's lower row with other's
        upper row, and put an edge a -> b in the result iff the stacked
        graph has a walk from a to b whose edges strictly alternate
        between self-edges and other-edges (a single edge of either
        colour counts).  Implemented as reachability over states
        (vertex, colour of last edge).
        """
        if not isinstance(other, PBR):
            return NotImplemented
        _check_degree(self, other)
        n = self.degree
        # Stacked vertex ids: 0..n-1 upper, n..2n-1 middle, 2n..3n-1 lower.
        # self's rows already use stacked ids; other's rows shift up by n.
        a_out = self.rows
        b_out = other.rows
        low_n = (1 << n) - 1
        out_rows = [0] * (2 * n)
        for src_amb in range(2 * n):
            src = src_amb if src_amb < n else src_amb + n
            reach_a = 0  # reached with last edge from self
            reach_b = 0
            front_a = a_out[src] if src < 2 * n else 0
            front_b = (b_out[src - n] << n) if src >= n else 0
            while front_a or front_b:
                reach_a |= front_a
                reach_b |= front_b
                step_b = 0
                for v in bit_indices(front_a):
                    if v >= n:
                        step_b |= b_out[v - n] << n
                step_a = 0
                for v in bit_indices(front_b):
                    if v < 2 * n:
                        step_a |= a_out[v]
                front_a = step_a & ~reach_a
                front_b = step_b & ~reach_b
            reached = reach_a | reach_b
            out_rows[src_amb] = (reached & low_n) | (((reached >> (2 * n)) & low_n) << n)
        return PBR(n, out_rows)

    def conjugate(self, sigma: PointPermutation) -> "PBR":
        if sigma.degree != self.degree:
            raise ValueError("degree mismatch")
        rows = [0] * (2 * self.degree)
        for a in range(2 * self.degree):
            acc = 0
            for b in bit_indices(self.rows[a]):
                acc |= 1 << sigma.doubled(b)
            rows[sigma.doubled(a)] = acc
        return PBR(self.degree, rows)

    def __eq__(self, other):
        return isinstance(other, PBR) and self.degree == other.degree and self.rows == other.rows

    def __hash__(self):
        return hash(("pbr", self.degree, self.rows))

    def __repr__(self):
        return f"PBR({self.degree}, edges={self.edges()})"


def all_pbrs(n: int):
    """All 2^((2n)^2) PBRs of degree n.  Only sane for n = 1."""
    m = 2 * n
    for code in range(1 << (m * m)):
        rows = [(code >> (a * m)) & ((1 << m) - 1) for a in range(m)]
        yield PBR(n, rows)


class Bipartition:
    """Set partition of the 2n points; element of the partition monoid.

    Canonical form: block ids are assigned by first occurrence while
    scanning points 0..2n-1, so equality and hashing are structural.
    """

    __slots__ = ("degree", "assignment")

    def __init__(self, degree: int, assignment):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        assignment = tuple(assignment)
        if len(assignment) != 2 * degree:
            raise ValueError("assignment must cover all 2n points")
        self.degree = degree
        self.assignment = _canonical_assignment(assignment)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Bipartition":
        assignment = [-1] * (2 * n)
        for bid, block in enumerate(blocks):
            if not block:
                raise ValueError("empty block")
            for p in block:
                if not 0 <= p < 2 * n:
                    raise ValueError(f"point {p} out of range for degree {n}")
                if assignment[p] != -1:
                    raise ValueError(f"point {p} in two blocks")
                assignment[p] = bid
        if -1 in assignment:
            raise ValueError("blocks do not cover all 2n points")
        return cls(n, assignment)

    @classmethod
    def identity(cls, n: int) -> "Bipartition":
        return cls(n, list(range(n)) * 2)

    def identity_element(self) -> "Bipartition":
        return Bipartition.identity(self.degree)

    def n_blocks(self) -> int:
        return max(self.assignment) + 1

    def blocks(self):
        out = [[] for _ in range(self.n_blocks())]
        for p, bid in enumerate(self.assignment):
            out[bid].append(p)
        return [tuple(b) for b in out]

    def __mul__(self, other: "Bipartition") -> "Bipartition":
        if not isinstance(other, Bipartition):
            return NotImplemented
        _check_degree(self, other)
        n = self.degree
        a, b = self.assignment, other.assignment
        # Union-find over blocks: self's ids 0..2n-1, other's shifted to
        # 2n..4n-1, glued where self's lower row meets other's upper row.
        parent = list(range(4 * n))
        for x, y in zip(a[n:], b[:n]):
            y += 2 * n
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[y] = x
        # Upper row from self, lower row from other, each point labelled
        # by its root in order of first occurrence: already canonical.
        relabel = {}
        out = []
        for x in a[:n]:
            while parent[x] != x:
                x = parent[x]
            out.append(relabel.setdefault(x, len(relabel)))
        for y in b[n:]:
            y += 2 * n
            while parent[y] != y:
                y = parent[y]
            out.append(relabel.setdefault(y, len(relabel)))
        product = object.__new__(Bipartition)
        product.degree = n
        product.assignment = tuple(out)
        return product

    def conjugate(self, sigma: PointPermutation) -> "Bipartition":
        if sigma.degree != self.degree:
            raise ValueError("degree mismatch")
        assignment = [0] * (2 * self.degree)
        for p, bid in enumerate(self.assignment):
            assignment[sigma.doubled(p)] = bid
        return Bipartition(self.degree, assignment)

    def to_pbr(self) -> PBR:
        """Full equivalence-relation form: block cliques plus all loops."""
        n = self.degree
        masks = [0] * self.n_blocks()
        for p, bid in enumerate(self.assignment):
            masks[bid] |= 1 << p
        return PBR(n, [masks[self.assignment[p]] for p in range(2 * n)])

    def __eq__(self, other):
        return (
            isinstance(other, Bipartition)
            and self.degree == other.degree
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash(("bip", self.degree, self.assignment))

    def __repr__(self):
        return f"Bipartition({self.degree}, blocks={self.blocks()})"


def _canonical_assignment(assignment):
    relabel = {}
    out = []
    for bid in assignment:
        out.append(relabel.setdefault(bid, len(relabel)))
    return tuple(out)


def rank(b: Bipartition) -> int:
    """Number of transverse blocks (blocks meeting both rows)."""
    n = b.degree
    upper = set(b.assignment[:n])
    lower = set(b.assignment[n:])
    return len(upper & lower)


def is_planar(b: Bipartition) -> bool:
    """True iff the blocks are non-crossing in the boundary cyclic order
    1, 2, ..., n, n', (n-1)', ..., 1': one scan of the points in that
    order, with a stack of the blocks begun and not yet finished."""
    n = b.degree
    boundary = b.assignment[:n] + b.assignment[n:][::-1]
    left = Counter(boundary)  # points of each block not yet scanned
    begun, stack = set(), []
    for blk in boundary:
        if not stack or stack[-1] != blk:
            if blk in begun:  # resumed under a block begun since: they cross
                return False
            begun.add(blk)
            stack.append(blk)
        left[blk] -= 1
        if not left[blk]:
            stack.pop()
    return True


class MapElement:
    """Top-to-bottom diagram: a binary relation or a (partial) map.

    ``kind`` is the family container the element lives in; it names the
    constraint set, not the tightest one the element happens to satisfy.
    For the relation kind ``data`` holds n row bitmasks; for the map
    kinds it is a length-n tuple with None marking undefined points.
    Equality ignores the kind (same edge set, same element).
    """

    __slots__ = ("degree", "kind", "data")

    def __init__(self, degree: int, kind: str, data):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if kind not in MAP_KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        data = tuple(data)
        if len(data) != degree:
            raise ValueError("data must have length n")
        if kind == "relation":
            full = (1 << degree) - 1
            if any(not isinstance(r, int) or r < 0 or r > full for r in data):
                raise ValueError("relation rows out of range")
        else:
            for v in data:
                if v is not None and not 0 <= v < degree:
                    raise ValueError(f"image entry {v} out of range")
            defined = [v for v in data if v is not None]
            if kind in ("transformation", "permutation") and len(defined) != degree:
                raise ValueError(f"{kind} must be total")
            if kind in ("partial_perm", "permutation") and len(set(defined)) != len(defined):
                raise ValueError(f"{kind} must be injective")
        self.degree = degree
        self.kind = kind
        self.data = data

    @classmethod
    def identity(cls, n: int, kind: str = "permutation") -> "MapElement":
        if kind == "relation":
            return cls(n, "relation", [1 << i for i in range(n)])
        return cls(n, kind, range(n))

    @classmethod
    def relation_from_matrix(cls, matrix) -> "MapElement":
        rows = [sum((1 << j) for j, v in enumerate(row) if v) for row in matrix]
        return cls(len(rows), "relation", rows)

    def identity_element(self) -> "MapElement":
        if self.kind == "relation":
            return MapElement.identity(self.degree, "relation")
        return MapElement.identity(self.degree)

    def _as_rows(self):
        if self.kind == "relation":
            return self.data
        return tuple(0 if v is None else 1 << v for v in self.data)

    def __mul__(self, other: "MapElement") -> "MapElement":
        if not isinstance(other, MapElement):
            return NotImplemented
        _check_degree(self, other)
        kind = join_kinds(self.kind, other.kind)
        if kind == "relation":
            rows_b = other._as_rows()
            rows = []
            for r in self._as_rows():
                acc = 0
                for j in bit_indices(r):
                    acc |= rows_b[j]
                rows.append(acc)
            return MapElement(self.degree, "relation", rows)
        image = []
        for v in self.data:
            image.append(None if v is None else other.data[v])
        return MapElement(self.degree, kind, image)

    def conjugate(self, sigma: PointPermutation) -> "MapElement":
        if sigma.degree != self.degree:
            raise ValueError("degree mismatch")
        if self.kind == "relation":
            rows = [0] * self.degree
            for i, r in enumerate(self.data):
                acc = 0
                for j in bit_indices(r):
                    acc |= 1 << sigma.image[j]
                rows[sigma.image[i]] = acc
            return MapElement(self.degree, "relation", rows)
        image = [None] * self.degree
        for i, v in enumerate(self.data):
            if v is not None:
                image[sigma.image[i]] = sigma.image[v]
        return MapElement(self.degree, self.kind, image)

    def to_pbr(self) -> PBR:
        """Directed form: one edge i -> j' per pair in the relation/map."""
        n = self.degree
        return PBR(n, [r << n for r in self._as_rows()] + [0] * n)

    def __eq__(self, other):
        if not isinstance(other, MapElement):
            return NotImplemented
        return (
            self.degree == other.degree
            and (self.kind == "relation") == (other.kind == "relation")
            and self.data == other.data
        )

    def __hash__(self):
        return hash(("map", self.degree, self.kind == "relation", self.data))

    def __repr__(self):
        return f"MapElement({self.degree}, {self.kind!r}, {list(self.data)})"


def all_relations(n: int):
    """All 2^(n^2) binary relations of degree n.  Only sane for n <= 2."""
    for code in range(1 << (n * n)):
        rows = [(code >> (i * n)) & ((1 << n) - 1) for i in range(n)]
        yield MapElement(n, "relation", rows)


def conjugate(x, sigma: PointPermutation):
    """Relabel the points of any element by sigma (upper and lower alike)."""
    return x.conjugate(sigma)


def identity_like(x):
    """The identity element in the same family representation as x."""
    return x.identity_element()


# ---------------------------------------------------------------------------
# Classification into the ten families.


def _strip_loops(rows):
    return tuple(r & ~(1 << a) for a, r in enumerate(rows))


def _equivalence_failure(rows, n):
    """None if rows (plus loops) form an equivalence relation on the 2n
    points, else a human-readable witness of the failed axiom."""
    m = 2 * n
    closed = tuple(rows[a] | (1 << a) for a in range(m))
    for a in range(m):
        for b in bit_indices(closed[a]):
            if not closed[b] >> a & 1:
                return f"not symmetric: edge {a}->{b} without {b}->{a}"
            if closed[b] & ~closed[a]:
                c = next(bit_indices(closed[b] & ~closed[a]))
                return f"not transitive: {a}->{b}->{c} without {a}->{c}"
    return None


def classify(x) -> set:
    """Family flags of an element, as a set of family codes.

    Works on any element type; non-PBR inputs are classified through
    their PBR form.  Loops are immaterial (a partition diagram may omit
    them), and a map drawn with undirected strands (each top-to-bottom
    edge paired with its reverse) counts as that map.
    """
    pbr = x if isinstance(x, PBR) else x.to_pbr()
    n = pbr.degree
    flags = {"PB"}
    stripped = _strip_loops(pbr.rows)

    down = tuple((stripped[a] >> n) << n if a < n else 0 for a in range(2 * n))
    sym = list(down)
    for a in range(n):
        for b in bit_indices(down[a] >> n):
            sym[n + b] |= 1 << a
    if stripped == down or stripped == tuple(sym):
        flags.add("B")
        out_degrees = [bin(down[a] >> n).count("1") for a in range(n)]
        if all(d <= 1 for d in out_degrees):
            flags.add("PT")
            targets = [r >> n for r in down[:n] if r]
            injective = len(set(targets)) == len(targets)
            total = all(d == 1 for d in out_degrees)
            if total:
                flags.add("T")
            if injective:
                flags.add("I")
            if total and injective:
                flags.add("S")

    if _equivalence_failure(stripped, n) is None:
        flags.add("P")
        # the loop-closed row of a point is the mask of its block: a block label
        bip = Bipartition(n, [stripped[a] | (1 << a) for a in range(2 * n)])
        blocks = bip.blocks()
        if all(any(p < n for p in blk) and any(p >= n for p in blk) for blk in blocks):
            flags.add("IS")
        if all(len(blk) == 2 for blk in blocks):
            flags.add("Br")
            if is_planar(bip):
                flags.add("TL")
    return flags


def bipartition_from_pbr(pbr: PBR) -> Bipartition:
    """Read off the blocks of a PBR whose edge set is an equivalence
    relation on the 2n points.  Rejects anything else, naming the
    missing witness edge."""
    n = pbr.degree
    reason = _equivalence_failure(pbr.rows, n)
    if reason is None:
        for a in range(2 * n):
            if not pbr.rows[a] >> a & 1:
                reason = f"not reflexive: missing loop {a}->{a}"
                break
    if reason is not None:
        raise ValueError(f"PBR is not an equivalence relation: {reason}")
    assignment = []
    roots = {}
    for a in range(2 * n):
        r = next(bit_indices(pbr.rows[a]))
        assignment.append(roots.setdefault(r, len(roots)))
    return Bipartition(n, assignment)


# ---------------------------------------------------------------------------
# JSON encoding (bit-exact wire format shared by the CLI and fixtures).


def element_to_json(x) -> dict:
    if isinstance(x, PBR):
        return {"type": "pbr", "degree": x.degree,
                "edges": [[a, b] for a, b in sorted(x.edges())]}
    if isinstance(x, Bipartition):
        blocks = sorted(sorted(b) for b in x.blocks())
        return {"type": "bipartition", "degree": x.degree, "blocks": blocks}
    if isinstance(x, MapElement):
        if x.kind == "relation":
            matrix = [[(r >> j) & 1 for j in range(x.degree)] for r in x.data]
            return {"type": "map", "degree": x.degree, "kind": "relation", "matrix": matrix}
        return {
            "type": "map",
            "degree": x.degree,
            "kind": x.kind,
            "image": [v for v in x.data],
        }
    raise TypeError(f"cannot serialize {type(x).__name__}")


def element_from_json(obj: dict):
    t = obj["type"]
    n = obj["degree"]
    if t == "pbr":
        return PBR.from_edges(n, obj["edges"])
    if t == "bipartition":
        return Bipartition.from_blocks(n, obj["blocks"])
    if t == "map":
        if obj["kind"] == "relation":
            matrix = obj["matrix"]
            if len(matrix) != n or any(len(row) != n or any(v not in (0, 1) for v in row)
                                       for row in matrix):
                raise ValueError(f"a relation of degree {n} needs an {n} x {n} "
                                 "matrix of 0/1 entries")
            return MapElement.relation_from_matrix(matrix)
        return MapElement(n, obj["kind"], obj["image"])
    raise ValueError(f"unknown element type {t!r}")
