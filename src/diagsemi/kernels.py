"""Hot kernels for the subsemigroup census.

Subsets of an enumerated semigroup of N elements are packed mask rows:
uint8 arrays of shape (R, ⌈N/8⌉), one row per subset, with element i at
bit i & 7 of byte i >> 3.  The ambient multiplication is an int32 N x N
table.  Python ints are built only at the census's boundary, for its
records and its counts of minimal images (``unpack_masks``).

``extend_window`` runs one level of the Close-by-One search of
``census`` for a whole batch of states (M, lo) at once.  Its candidates
are the pairs (state, e) with e >= lo and e not in M, and all of them
close together by semi-naive rounds: with C the set so far and D the
elements the last round added (at first {e}, as M is closed), a round
adds ``new = (D·C ∪ C·D) \\ C`` to every row.  A row is dropped in the
first round whose ``new`` holds an element below its e, the canonicity
test of Close-by-One, so the closures it drops cost little.  Each
product is one gather through a byte lookup table: the rows of element x
and byte chunk c (elements 8c .. 8c+7) are 256 packed masks, and row b
is the OR of ``x·y | y·x`` over the elements y of the chunk whose bits
are set in b.  ``x·C ∪ C·x`` is then the OR of the ⌈N/8⌉ rows picked by
the bytes of C, and one ``np.bitwise_or.reduceat`` ORs them over the
members x of D of each row.  The search holds its sets, and the table
its rows, in whole uint64 words, which gather and OR several times
faster than bytes: the table takes N·⌈N/8⌉·256·8⌈N/64⌉ bytes, 8 MiB at
the census bound of 128 elements.

The fold and the per-class statistics take the packed rows of one level
and work on them in numpy, unpacked to a bool array of one row per mask.
``min_image`` gathers the |G| images of every mask at once through the
inverse element permutations and packs each image highest element
first, so that its bytes compare as the mask does as an integer; sorting
each row of images puts the minimal image first, and the orbit size is
the number of distinct entries.  ``count_dclasses`` takes the masks of
one size s together: it gathers the s x s products of each subsemigroup
T from the table, marks the successors {x} ∪ xT ∪ Tx of every member x,
and one stacked boolean square of those s x s matrices gives every
principal ideal.  A member starts a new D-class when no lower member has
the same ideal.

Every kernel works in chunks of about ``_CHUNK_BYTES`` of temporaries,
cut by ``_spans`` into slices of consecutive items of about equal weight,
as the census cuts each level of its search into its job slices.
A ``Backend`` holds the tables of one ambient (the lookup table, the
multiplication table and the element-index permutations of its symmetry
group), all built once by its constructor.  ``census`` builds one per
call, before any fork, so the ``--jobs`` workers inherit them.
"""

import numpy as np

# Read by the benchmark's host record; no kernel here is JIT-compiled.
numba = None

# Bytes of temporaries that a batched kernel, or the TL fern's mask and its
# check, holds per chunk; more makes no fern faster but raises its peak RSS.
_CHUNK_BYTES = 1 << 18


def pack_masks(masks, n):
    """The packed rows of the int ``masks`` over ``n`` elements."""
    nb = (n + 7) // 8
    raw = b"".join(m.to_bytes(nb, "little") for m in masks)
    return np.frombuffer(raw, np.uint8).reshape(len(masks), nb)


def unpack_masks(rows):
    """The int masks of packed ``rows``."""
    nb = rows.shape[1]
    raw = np.ascontiguousarray(rows).tobytes()
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]


def _words(bits):
    """The packed rows of a bool array, element i in column i, padded to
    whole uint64 words: the width the search computes in."""
    n = bits.shape[1]
    padded = np.zeros((len(bits), (n + 63) // 64 * 64), bool)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _lookup_table(table):
    """Row (x·⌈N/8⌉ + c)·256 + b: the packed OR of ``x·y | y·x`` over the
    elements y of byte chunk c whose bits are set in b, in uint64 words."""
    n = len(table)
    nb = (n + 7) // 8
    single = _words(np.eye(n, dtype=bool))
    pairs = np.zeros((n, 8 * nb, single.shape[1]), np.uint64)
    pairs[:, :n] = single[table] | single[table.T]
    pairs = pairs.reshape(n, nb, 8, -1)
    out = np.zeros((n, nb, 256, single.shape[1]), np.uint64)
    for j in range(8):  # the subsets holding bit j are those without it, plus y = 8c + j
        np.bitwise_or(out[:, :, :1 << j], pairs[:, :, j, None], out=out[:, :, 1 << j:2 << j])
    return out.reshape(n * nb * 256, -1)


def _spans(weights, step):
    """Slices of consecutive items whose ``weights`` add up to about
    ``step`` each (one item at least), where a number ``weights`` is that
    many items of weight one; none for no items."""
    step = max(1, step)
    ends = np.arange(1, weights + 1) if np.isscalar(weights) else np.cumsum(weights)
    cuts = np.searchsorted(ends, np.arange(step, ends[-1] if len(ends) else 0, step),
                           side="right")
    bounds = sorted({0, len(ends), *cuts.tolist()})
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class Backend:
    """The census mask kernels over one ambient, on packed mask rows.
    Patching these methods on the class reaches every kernel call."""

    def __init__(self, table, perms):
        self._n = n = len(table)
        self._bytes = nb = (n + 7) // 8
        self._table = table
        self._lookup = _lookup_table(table)
        # the first lookup row of each element and chunk
        self._cells = 256 * np.arange(n * nb).reshape(n, nb)
        self._single = _words(np.eye(n, dtype=bool))
        self._below = _words(np.tri(n + 1, n, -1, bool))  # row e: the elements below e
        # the temporaries of one candidate: its gathered lookup rows and their indices
        self._pair_bytes = nb * (self._lookup.itemsize * self._lookup.shape[1] + 8)
        self._children = np.dtype([("state", np.intp), ("e", np.intp), ("mask", np.uint8, (nb,))])
        self._idempotent = np.zeros(8 * nb, bool)
        self._idempotent[:n] = np.diagonal(table) == np.arange(n)
        # bit k of image g, highest first, is element e = 8·nb - 1 - k: the
        # bit of its preimage under g, or bit e itself, zero, past N
        top = np.arange(8 * nb)[::-1]
        inverse = np.argsort(perms, axis=1)
        self._preimages = np.where(top < n, inverse[:, np.minimum(top, n - 1)], top).ravel()

    @staticmethod
    def _bits(masks):
        """The (R, 8·⌈N/8⌉) bool array of packed ``masks``, element i in column i."""
        return np.unpackbits(masks, axis=1, bitorder="little").view(bool)

    def extend_window(self, masks, lo):
        """The canonical children of the states (masks[k], lo[k]), as one
        record array of (state k, e, closure of masks[k] + e), for each
        e >= lo[k] not in masks[k] whose closure gains no element below e."""
        n = self._n
        if not len(masks):
            return np.empty(0, self._children)
        out = []
        # n - lo bounds the candidates of a state
        for part in _spans(n - lo, _CHUNK_BYTES // self._pair_bytes):
            free = ~self._bits(masks[part])[:, :n] & (np.arange(n) >= lo[part, None])
            state, e = np.nonzero(free)
            out.append(self._close(masks, state + part.start, e))
        return np.concatenate(out)

    def _close(self, masks, state, e):
        """The children records of the candidates (state, e)."""
        nb = self._bytes
        c = np.zeros((len(e), self._single.shape[1]), np.uint64)
        c.view(np.uint8)[:, :nb] = masks[state]
        c |= self._single[e]
        # the candidates still closing, and the pairs (row of c, x in its D)
        live = rows = np.arange(len(e))
        xs = e
        kept, closed = [live[:0]], [c[:0]]
        while len(live):
            new = self._products(c, rows, xs) & ~c
            canonical = ~(new & self._below[e[live]]).any(axis=1)
            grows = new.any(axis=1)
            done = canonical & ~grows
            kept.append(live[done])
            closed.append(c[done])
            more = canonical & grows
            live, c, new = live[more], c[more] | new[more], new[more]
            rows, xs = np.nonzero(self._bits(new.view(np.uint8)))
        kept = np.concatenate(kept)
        out = np.empty(len(kept), self._children)
        out["state"], out["e"] = state[kept], e[kept]
        out["mask"] = np.concatenate(closed).view(np.uint8)[:, :nb]
        return out

    def _products(self, c, rows, xs):
        """For each row C of ``c``, the OR of ``x·C ∪ C·x`` over the pairs
        (row, x) of ``rows`` (ascending, every row in one at least) and ``xs``."""
        nb = self._bytes
        out = np.zeros_like(c)
        index = c.view(np.uint8)[:, :nb]
        for part in _spans(len(rows), _CHUNK_BYTES // self._pair_bytes):
            r, x = rows[part], xs[part]
            # the ⌈N/8⌉ lookup rows of every pair, then their OR per row
            chunks = np.take(self._lookup, (self._cells[x] + index[r]).ravel(), axis=0)
            starts = np.flatnonzero(np.diff(r, prepend=-1))
            out[r[starts]] |= np.bitwise_or.reduceat(chunks, starts * nb)
        return out

    def min_image(self, masks):
        """The minimal image of each packed mask under the permutations, as
        packed rows, and the number of its distinct images (its orbit size)."""
        reps, orbits = [np.empty((0, self._bytes), np.uint8)], [np.empty(0, int)]
        nb = self._bytes
        for part in _spans(len(masks), _CHUNK_BYTES // len(self._preimages)):
            chunk = masks[part]
            # the |G| images of each mask as big-endian byte strings
            images = np.packbits(np.take(self._bits(chunk), self._preimages, axis=1), axis=1)
            images = np.sort(images.view(f"S{nb}"), axis=1)
            orbits.append(1 + (images[:, 1:] != images[:, :-1]).sum(axis=1))
            # big-endian bytes of the reversed bits are the little-endian bytes, reversed
            reps.append(np.ascontiguousarray(images[:, 0]).view(np.uint8).reshape(-1, nb)[:, ::-1])
        return np.concatenate(reps), np.concatenate(orbits)

    def count_idempotents(self, masks):
        return self._bits(masks)[:, self._idempotent].sum(axis=1).tolist()

    def count_dclasses(self, masks):
        """The number of D-classes of each subsemigroup in ``masks``: its
        distinct principal two-sided ideals."""
        bits = self._bits(masks)
        sizes = bits.sum(axis=1)
        counts = np.zeros(len(masks), int)
        for s in set(sizes.tolist()) - {0}:
            rows = np.flatnonzero(sizes == s)
            for part in _spans(len(rows), _CHUNK_BYTES // (24 * s * s)):
                counts[rows[part]] = self._dclasses_of_size(bits[rows[part]], s)
        return counts.tolist()

    def _dclasses_of_size(self, bits, s):
        """``count_dclasses`` of the masks in ``bits``, all of size s."""
        r, n = bits.shape
        members = np.nonzero(bits)[1].reshape(r, s)  # ascending in each row
        # the member number of each element of each mask, flat over the rows
        local = np.cumsum(bits, axis=1, dtype=np.int32).ravel() - 1
        products = self._table[members[:, :, None], members[:, None, :]]
        ab = local[products + (n * np.arange(r, dtype=np.int32))[:, None, None]]
        # succ[t, a, b]: member b is in {a} ∪ aT ∪ Ta, set at flat index
        # t·s² + a·s + b; a block's diagonal is every (s+1)th of its s² entries
        succ = np.zeros((r, s, s), np.float32)
        flat, rows = succ.reshape(-1), s * np.arange(r * s).reshape(r, s, 1)
        flat[rows + ab] = 1
        flat[rows + ab.transpose(0, 2, 1)] = 1
        succ.reshape(r, s * s)[:, ::s + 1] = 1
        # the ideal of a is {a} | aT | Ta | TaT, and TaT = T(aT) lies in
        # the successors of aT, so two steps from a reach all of it
        ideal = np.matmul(succ, succ) > 0
        # a and b are J-related when each lies in the ideal of the other;
        # a starts a new class when the first member J-related to it is a
        j = ideal & ideal.transpose(0, 2, 1)
        return (j.argmax(axis=2) == np.arange(s)).sum(axis=1)
