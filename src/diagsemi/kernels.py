"""Hot kernels for the subsemigroup census.

Subsets of an enumerated semigroup are bitmasks over element indices,
held as plain python ints of any width; the ambient multiplication is
an int32 N x N table.

The kernels work on whole masks through nibble lookup tables.  For an
element x and the 4-bit chunk c of a mask (elements 4c .. 4c+3), the
product table of x holds 16 entries: entry b is the OR of
``1 << table[x, y] | 1 << table[y, x]`` over the elements y of the chunk
whose bits are set in b.  ``x·M ∪ M·x`` is then the OR of ⌈N/4⌉
lookups, one per chunk of M.  The images of a mask under the |G| rows
of a permutation array are packed into one int, row g at bits g·N and
up: entry b of chunk c is the OR of ``1 << (g·N + row_g[y])`` over the
rows g and the elements y of the chunk whose bits are set in b, so all
|G| images together cost ⌈N/4⌉ lookups.  Chunks of 4 bits rather than
8 keep the tables several times smaller at about the same speed.

``extend_window`` serves the Close-by-One search of ``census``; its
canonicity test stops a closure at the first element below the one
adjoined, so the closures it drops cost little.

A ``Backend`` holds the tables of one ambient (its multiplication table
and the element-index permutations of its symmetry group), all built
once by its constructor: product tables, the idempotent mask, image
tables.  ``census`` builds one per call, before any fork, so the pool's
workers inherit them.
"""

from functools import reduce
from operator import getitem, or_

from .elements import bit_indices

# Read by the benchmark's host record; no kernel here is JIT-compiled.
numba = None

_HEX_DIGIT = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _nibbles(mask, width):
    """The ``width`` lowest 4-bit chunks of ``mask``, lowest first."""
    return bytearray(format(mask, f"0{width}x").encode().translate(_HEX_DIGIT)[::-1])


def _lookup(tables, nibbles):
    """OR over the chunks c of a mask of ``tables[c][nibbles[c]]``."""
    return reduce(or_, map(getitem, tables, nibbles))


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


def _product_tables(rows):
    n = len(rows)
    return [_nibble_tables([1 << rows[x][y] | 1 << rows[y][x] for y in range(n)])
            for x in range(n)]


def _image_tables(rows):
    n = len(rows[0])
    return _nibble_tables([sum(1 << (g * n + row[y]) for g, row in enumerate(rows))
                           for y in range(n)])


def _idempotents(rows):
    """The mask of the i with i*i = i."""
    return sum(1 << i for i, row in enumerate(rows) if row[i] == i)


def _closure(products, mask, nib, first):
    """Closure of the closed set ``mask``, whose nibbles are ``nib``, after
    adjoining element ``first``, or None as soon as it gains an element
    below ``first``; a copy of the nibbles grows along with the set."""
    m = mask | 1 << first
    below = (1 << first) - 1
    nib = nib[:]
    nib[first >> 2] |= 1 << (first & 3)
    stack = [first]
    while stack:
        new = _lookup(products[stack.pop()], nib) & ~m
        if new:
            if new & below:
                return None
            m |= new
            for p in bit_indices(new):
                nib[p >> 2] |= 1 << (p & 3)
                stack.append(p)
    return m


class Backend:
    """The census mask kernels over one ambient; masks are python ints at
    the boundary.  Patching these methods on the class reaches every
    kernel call."""

    def __init__(self, table, perms):
        rows, perm_rows = table.tolist(), perms.tolist()
        self._products = _product_tables(rows)
        self._idempotents = _idempotents(rows)
        self._images = _image_tables(perm_rows)
        self._width = len(self._images)  # 4-bit chunks of a mask
        self._order, self._n = len(perm_rows), len(rows)

    def extend_window(self, mask, lo):
        """``(e, closure of mask + e)`` for each e >= lo not in mask whose
        closure gains no element below e: the canonical children of mask."""
        products = self._products
        nib = _nibbles(mask, self._width)
        return [(e, closed) for e in range(lo, self._n) if not mask >> e & 1
                and (closed := _closure(products, mask, nib, e)) is not None]

    def min_image(self, mask):
        """Minimal image of ``mask`` under the permutations, and the number
        of distinct images (the orbit size)."""
        packed = _lookup(self._images, _nibbles(mask, self._width))
        n = self._n
        full = (1 << n) - 1
        images = {packed >> (g * n) & full for g in range(self._order)}
        return min(images), len(images)

    def count_idempotents(self, mask):
        return (mask & self._idempotents).bit_count()

    def count_dclasses(self, mask):
        """Number of D-classes of the subsemigroup ``mask``: its distinct
        principal two-sided ideals."""
        products = self._products
        nib = _nibbles(mask, self._width)
        # succ[x] = {x} | xT | Tx for x in T
        succ = [0] * self._n
        for x in bit_indices(mask):
            succ[x] = 1 << x | _lookup(products[x], nib)
        # the ideal of t is {t} | tT | Tt | TtT, and TtT = T(tT) lies in
        # the successors of tT, so two steps from t reach all of it
        ideals = set()
        for t in bit_indices(mask):
            s = ideal = succ[t]
            while s:
                low = s & -s
                ideal |= succ[low.bit_length() - 1]
                s ^= low
            ideals.add(ideal)
        return len(ideals)
