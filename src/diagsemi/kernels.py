"""Hot kernels for the subsemigroup census.

Subsets of an enumerated semigroup are bitmasks over element indices,
held as plain python ints of any width; the ambient multiplication is
an int32 N x N table.

The closed-set search works on one mask at a time, through nibble
lookup tables.  For an element x and the 4-bit chunk c of a mask
(elements 4c .. 4c+3), the product table of x holds 16 entries: entry b
is the OR of ``1 << table[x, y] | 1 << table[y, x]`` over the elements y
of the chunk whose bits are set in b.  ``x·M ∪ M·x`` is then the OR of
⌈N/4⌉ lookups, one per chunk of M; chunks of 4 bits rather than 8 keep
the tables several times smaller at about the same speed.
``extend_window`` serves the Close-by-One search of ``census``; its
canonicity test stops a closure at the first element below the one
adjoined, so the closures it drops cost little.

The fold and the per-class statistics take a list of masks and work on
them in numpy, unpacked to a bool array of one row per mask, in chunks
of about ``_CHUNK_BYTES`` of temporaries.  ``min_image`` gathers the
|G| images of every mask at once through the inverse element
permutations and packs each image highest element first, so that its
bytes compare as the mask does as an integer; sorting each row of
images puts the minimal image first, and the orbit size is the number
of distinct entries.  ``count_dclasses`` takes the masks of one size s
together: it gathers the s x s products of each subsemigroup T from the
table, marks the successors {x} ∪ xT ∪ Tx of every member x, and one
stacked boolean square of those s x s matrices gives every principal
ideal.  A member starts a new D-class when no lower member has the same
ideal.

A ``Backend`` holds the tables of one ambient (its multiplication table
and the element-index permutations of its symmetry group), all built
once by its constructor.  ``census`` builds one per call, before any
fork, so the pool's workers inherit them.
"""

from functools import reduce
from operator import getitem, or_

import numpy as np

from .elements import bit_indices

# Read by the benchmark's host record; no kernel here is JIT-compiled.
numba = None

# Bytes of temporaries that a batched kernel holds per chunk of masks.
_CHUNK_BYTES = 1 << 18

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


def _chunks(items, row_bytes):
    """``items`` in slices of about ``_CHUNK_BYTES`` at ``row_bytes`` each."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (items[i:i + step] for i in range(0, len(items), step))


class Backend:
    """The census mask kernels over one ambient; masks are python ints at
    the boundary.  Patching these methods on the class reaches every
    kernel call."""

    def __init__(self, table, perms):
        rows = table.tolist()
        self._products = _product_tables(rows)
        self._n = n = len(rows)
        self._width = (n + 3) // 4  # 4-bit chunks of a mask
        self._bytes = nb = (n + 7) // 8
        self._table = table
        self._idempotent = np.zeros(8 * nb, bool)
        self._idempotent[:n] = np.diagonal(table) == np.arange(n)
        # bit k of image g, highest first, is element e = 8·nb - 1 - k: the
        # bit of its preimage under g, or bit e itself, zero, past N
        top = np.arange(8 * nb)[::-1]
        inverse = np.argsort(perms, axis=1)
        self._preimages = np.where(top < n, inverse[:, np.minimum(top, n - 1)], top).ravel()

    def _bits(self, masks):
        """The (R, 8·⌈N/8⌉) bool array of ``masks``, element i in column i."""
        raw = b"".join(m.to_bytes(self._bytes, "little") for m in masks)
        packed = np.frombuffer(raw, np.uint8).reshape(len(masks), self._bytes)
        return np.unpackbits(packed, axis=1, bitorder="little").view(bool)

    def extend_window(self, mask, lo):
        """``(e, closure of mask + e)`` for each e >= lo not in mask whose
        closure gains no element below e: the canonical children of mask."""
        products = self._products
        nib = _nibbles(mask, self._width)
        return [(e, closed) for e in range(lo, self._n) if not mask >> e & 1
                and (closed := _closure(products, mask, nib, e)) is not None]

    def min_image(self, masks):
        """The minimal image of each mask under the permutations, and the
        number of its distinct images (its orbit size), as two lists."""
        reps, orbits = [], []
        nb = self._bytes
        for chunk in _chunks(masks, len(self._preimages)):
            # the |G| images of each mask as big-endian byte strings
            images = np.packbits(np.take(self._bits(chunk), self._preimages, axis=1), axis=1)
            images = np.sort(images.view(f"S{nb}"), axis=1)
            orbits += (1 + (images[:, 1:] != images[:, :-1]).sum(axis=1)).tolist()
            least = images[:, 0].tobytes()
            reps += [int.from_bytes(least[i:i + nb], "big") for i in range(0, len(least), nb)]
        return reps, orbits

    def count_idempotents(self, masks):
        return self._bits(masks)[:, self._idempotent].sum(axis=1).tolist()

    def count_dclasses(self, masks):
        """The number of D-classes of each subsemigroup in ``masks``: its
        distinct principal two-sided ideals."""
        bits = self._bits(masks)
        sizes = bits.sum(axis=1)
        counts = np.zeros(len(masks), int)
        for s in set(sizes.tolist()) - {0}:
            for rows in _chunks(np.flatnonzero(sizes == s), 24 * s * s):
                counts[rows] = self._dclasses_of_size(bits[rows], s)
        return counts.tolist()

    def _dclasses_of_size(self, bits, s):
        """``count_dclasses`` of the masks in ``bits``, all of size s."""
        r, n = bits.shape
        members = np.nonzero(bits)[1].reshape(r, s)  # ascending in each row
        # the member number of each element of each mask, flat over the rows
        local = np.cumsum(bits, axis=1, dtype=np.int32).ravel() - 1
        products = self._table[members[:, :, None], members[:, None, :]]
        ab = local[products + (n * np.arange(r, dtype=np.int32))[:, None, None]]
        # succ[t, a, b]: member b is in {a} ∪ aT ∪ Ta
        succ = np.zeros((r, s, s), np.float32)
        t, a = np.arange(r)[:, None, None], np.arange(s)[:, None]
        succ[t, a, ab] = 1
        succ[t, a, ab.transpose(0, 2, 1)] = 1
        succ[:, a[:, 0], a[:, 0]] = 1
        # the ideal of a is {a} | aT | Ta | TaT, and TaT = T(aT) lies in
        # the successors of aT, so two steps from a reach all of it
        ideal = np.matmul(succ, succ) > 0
        # a and b are J-related when each lies in the ideal of the other;
        # a starts a new class when the first member J-related to it is a
        j = ideal & ideal.transpose(0, 2, 1)
        return (j.argmax(axis=2) == a[:, 0]).sum(axis=1)
