"""Hot kernels for the subsemigroup census.

Subsets of an enumerated semigroup of N elements are packed mask rows:
uint8 arrays of shape (R, ⌈N/8⌉), one row per subset, with element i at
bit i & 7 of byte i >> 3.  This module alone knows that layout: the
census takes from it the mask field of its rows (``mask_field``), the
packed mask of a set of elements (``mask_row``) and keys that sort as
the masks do as integers (``sort_keys``).  The ambient multiplication is
an int32 N x N table.  The census builds no Python int per set or per
class from what the kernels return; only its JSONL writer and its
records do (``unpack_masks``).

A state of the Close-by-One search of ``census`` is a record (state, e,
mask) of a state array: a closed set M, reached from state number
``state`` of the level before by adjoining e, that may still adjoin the
elements above e; ``root`` is the array of the one state of the whole
search, with e = -1.  ``extend_window`` runs one level of the search for
a whole state array at once and returns the next level as one.  Its
candidates are the pairs (state, f) with f > e and f not in M, as many
as a state's ``Backend.weights`` at most, read off whole words: with the
masks padded to uint64 words, the free elements of a state are those
from e + 1 up (a row of ``Backend._from``) outside M, and one
``np.flatnonzero`` of their bits, divmod 8⌈N/8⌉, gives every candidate
of a chunk of states.  All of them close together by semi-naive rounds:
with C the set so far and D the elements the last round added (at
first {f}, as M is closed), a round adds ``new = (D·C ∪ C·D) \\ C`` to
every row.  A row is dropped in the first round whose ``new`` holds an
element below its f, the canonicity test of Close-by-One, so the
closures it drops cost little.  Each product is one gather through a
byte lookup table: the rows of element x and byte chunk c (elements
8c .. 8c+7) are 256 packed masks, and row b is the OR of ``x·y | y·x``
over the elements y of the chunk whose bits are set in b.  ``x·C ∪ C·x``
is then the OR of the ⌈N/8⌉ rows picked by the bytes of C.  A round
gathers them for all its pairs (row, x in D) at once and chunk-major:
the row numbers 256·(⌈N/8⌉·x + c) + byte c of C make one (⌈N/8⌉, P)
array, one ``np.take`` gathers them and ``np.bitwise_or.reduce`` ORs
them over the chunks, whole arrays at a time.  When each row has one
pair, as every row has in the first round, the gathered words are the
products; only when some row has several does
``np.bitwise_or.reduceat`` OR its run of pairs.  The search holds its
sets, and the table its rows, in whole uint64 words, which gather and
OR several times faster than bytes: the table takes
N·⌈N/8⌉·256·8⌈N/64⌉ bytes, 8 MiB at the census bound of 128 elements.
A chunk of candidates gives half its budget to the arrays of its
candidates through their rounds and half to each gather of pairs, at
the costs that ``Backend._search_bytes`` gives, as measured by
tracemalloc.

``min_image`` folds the packed rows of one level by the same lookup
trick, on a table per nibble chunk: row 16c + v holds, for every g in
the symmetry group G, the packed image under g of the elements of chunk
c (elements 4c .. 4c+3) that nibble v selects, in uint64 words.  The |G|
images of a mask are then the OR of ⌈N/4⌉ gathered rows, with no
unpacking and no sort.  The minimal image is the least of them compared
word by word from the highest, among the images tied on every higher
word, and the orbit size is |G| / #{g : gM = M}, so the permutations
must form a group.  The table takes 16·⌈N/4⌉·|G|·8⌈N/64⌉ bytes: 7 KiB
for I_3 and 0.9 MiB for S_5.  A mask costs it 16·|G|·8⌈N/64⌉ bytes, its
images and the rows ORed into them, plus its fold row indices
(``Backend._fold_bytes``).

``count_dclasses`` takes the masks of one size s together and reads the
successors {x} ∪ xT ∪ Tx of every member x of each subsemigroup T off
the search's lookup table: xT ∪ Tx is the OR of the ⌈N/8⌉ rows picked
by x and the bytes of T, one gather of a closure round.  Unpacking
those words at the members of T gives an s x s 0/1 matrix, with no
product read from a table and no scatter, and one stacked float32
square of those matrices gives every principal ideal.  A member starts
a new D-class when no lower member has the same ideal.  A mask costs it,
by tracemalloc, the greater of its two phases, 8·s·⌈N/8⌉·(⌈N/64⌉ + 2)
bytes for the gathered rows and their indices and 9·s² for the squares,
plus 40 bytes a byte of the packed mask (``Backend._dclass_bytes``);
its chunks are cut by that cost.  The census hands it its classes in
size order, so each size falls in one slice or a few.

Every kernel works in chunks of about ``_CHUNK_BYTES`` of temporaries,
cut by ``_spans`` into slices of consecutive items of about equal weight,
as the census cuts each level of its search into its job slices, both by
the state weights; the TL fern's mask and its check in ``halves`` share
that chunk size.  A ``Backend`` holds the tables of one ambient (the
lookup table of its products and the fold table of its symmetry group),
both built once by its constructor; no kernel reads the multiplication
table.  ``census`` builds one per call, before any fork, so the
``--jobs`` workers inherit them.
"""

import numpy as np

# Read by the benchmark's host record; no kernel here is JIT-compiled.
numba = None

# Bytes of temporaries that a batched kernel, or the TL fern's mask and its
# check in ``halves``, holds per chunk; more makes no fern faster but
# raises its peak RSS.
_CHUNK_BYTES = 1 << 18
_TOP = np.uint64(np.iinfo(np.uint64).max)


def mask_field(n):
    """The structured field of a packed mask over ``n`` elements."""
    return "mask", np.uint8, ((n + 7) // 8,)


def root(n):
    """The state of the whole search over ``n`` elements, as a state array
    of one record (state, e, mask): the empty set, as if reached by
    adjoining element -1."""
    return np.array([(-1, -1, 0)], [("state", np.intp), ("e", np.intp), mask_field(n)])


def mask_row(elements, n):
    """The packed mask of the set of element indices ``elements`` of ``n``."""
    return np.packbits(np.isin(np.arange(n), elements), bitorder="little")


def sort_keys(masks):
    """A key of each packed mask row that compares as the mask does as an
    integer: the mask itself as a uint64 while it fits one, which sorts
    several times faster, and else its big-endian byte string."""
    rows, nb = masks.shape
    if nb > 8:
        return np.ascontiguousarray(masks[:, ::-1]).view(f"S{nb}").ravel()
    words = np.zeros((rows, 8), np.uint8)
    words[:, :nb] = masks
    return words.view("<u8").ravel()


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


def _subset_ors(single):
    """Row c·2^k + v: the OR of the rows ``single[c, j]`` over the bits j
    set in v, for every chunk c of k rows and every v below 2^k."""
    count, k = single.shape[:2]
    out = np.zeros((count, 1 << k, *single.shape[2:]), single.dtype)
    for j in range(k):  # the subsets holding bit j are those without it, plus row j
        np.bitwise_or(out[:, :1 << j], single[:, j, None], out=out[:, 1 << j:2 << j])
    return out.reshape(count << k, -1)


def _lookup_table(table, single):
    """Row (x·⌈N/8⌉ + c)·256 + b: the packed OR of ``x·y | y·x`` over the
    elements y of byte chunk c whose bits are set in b, in uint64 words,
    as ``single`` packs each element alone."""
    n = len(table)
    pairs = np.zeros((n, 8 * ((n + 7) // 8), single.shape[1]), np.uint64)
    pairs[:, :n] = single[table] | single[table.T]
    return _subset_ors(pairs.reshape(-1, 8, single.shape[1]))


def _fold_table(perms, single):
    """Row 16c + v: the packed images under every permutation g of the
    elements of nibble chunk c (elements 4c .. 4c+3) whose bits are set in
    v, g by g, each in ⌈N/64⌉ uint64 words, as ``single`` packs each
    element alone."""
    count, words = (len(single) + 3) // 4, single.shape[1]
    images = np.zeros((len(perms), 4 * count, words), np.uint64)
    images[:, :len(single)] = single[perms]
    return _subset_ors(images.reshape(len(perms), count, 4, words).transpose(1, 2, 0, 3))


# the set bits of each byte value
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)


def popcount(masks):
    """The number of elements of each packed mask."""
    return _POPCOUNT[masks].sum(axis=1)


def _spans(weights, step):
    """Slices of consecutive items whose ``weights`` add up to about
    ``step`` each (one item at least), where a number ``weights`` is that
    many items of weight one; none for no items."""
    step = max(1, step)
    if np.isscalar(weights):
        return [slice(a, min(a + step, weights)) for a in range(0, weights, step)]
    if len(weights) and weights.sum() <= step:
        return [slice(0, len(weights))]  # one slice, without the cuts
    ends = np.cumsum(weights)
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
        self._words = (n + 63) // 64
        self._single = _words(np.eye(n, dtype=bool))
        self._lookup = _lookup_table(table, self._single)
        # the first lookup row of each byte chunk of element 0, as a column
        self._lookup_rows = 256 * np.arange(nb)[:, None]
        below = np.tri(n + 1, n, -1, bool)
        self._below = _words(below)  # row e: the elements below e
        self._from = _words(~below)  # row e: the elements from e up
        self._idempotent = mask_row(np.flatnonzero(np.diagonal(table) == np.arange(n)), n)
        self._order = len(perms)
        self._fold = _fold_table(perms, self._single)
        # the first fold row of each nibble chunk, for every nibble a mask
        # row holds (two a byte); those past N are never read
        self._chunk_rows = (16 * np.arange(2 * nb, dtype=np.uint16))[:, None]

    def _pad(self, masks):
        """Packed ``masks`` padded to whole uint64 words."""
        words = np.zeros((len(masks), self._words), np.uint64)
        words.view(np.uint8)[:, :self._bytes] = masks
        return words

    def _elements(self, words):
        """The pairs (row, element) of the elements of packed word rows, row
        by row, read off the bits of their ⌈N/8⌉ bytes."""
        nb = self._bytes
        return np.divmod(np.flatnonzero(self._bits(words.view(np.uint8)[:, :nb])), 8 * nb)

    def _gather(self, x, chunks, out=None):
        """x·C ∪ C·x in packed words for each element x of ``x``, where the
        same column of ``chunks`` holds the ⌈N/8⌉ bytes of its C: the OR
        over the chunks c of lookup row 256·(⌈N/8⌉·x + c) + byte c of C,
        gathered chunk-major, so that the OR runs over whole arrays."""
        index = (256 * self._bytes) * x + self._lookup_rows
        index += chunks
        words = np.take(self._lookup, index.ravel(), axis=0)
        del index
        return np.bitwise_or.reduce(words.reshape(self._bytes, len(x), -1), axis=0, out=out)

    @staticmethod
    def _bits(masks):
        """The (R, 8·⌈N/8⌉) bool array of packed ``masks``, element i in column i."""
        return np.unpackbits(masks, axis=1, bitorder="little").view(bool)

    def weights(self, states):
        """The weight of each state: the number of elements above its e,
        which bounds its candidates."""
        return self._n - 1 - states["e"]

    def extend_window(self, states):
        """The canonical children of the state array ``states`` as a state
        array: for each state k and each element f above its e and not in
        its mask whose closure with the mask gains no element below f, the
        record (k, f, that closure)."""
        parts = _spans(self.weights(states), _CHUNK_BYTES // (2 * self._search_bytes()[0]))
        return np.concatenate([states[:0], *(self._close(states[part], part.start) for part in parts)])

    def _search_bytes(self):
        """The peak bytes of temporaries of ``_close``, as measured by
        tracemalloc, each of which takes half a chunk: those of a candidate
        through its rounds (its state, e, row, set and products), and those
        of a pair in a gather (the bytes of its set, its lookup indices and
        numpy's buffer for casting the bytes to them, its lookup rows and
        its products)."""
        nb, words = self._bytes, self._words
        return 24 + 16 * words, nb * (8 * words + 17) + 16 * words

    def _close(self, states, start):
        """The children records of the state array ``states``, whose first
        state is state ``start`` of its level."""
        words = self._pad(states["mask"])
        # the candidates (state, e): the elements above e and not in the mask
        free = self._from[states["e"] + 1]
        free &= ~words
        state, e = self._elements(free)
        del free
        c = words[state]
        c |= self._single[e]
        del words
        # the candidates still closing, and the pairs (row of c, x in its D)
        live = rows = np.arange(len(e))
        xs = e
        kept, closed = [live[:0]], [c[:0]]
        while len(live):
            new = self._products(c, rows, xs)
            new &= ~c
            canonical = ~(new & self._below[e[live]]).any(axis=1)
            grows = new.any(axis=1)
            c |= new
            done = canonical & ~grows
            kept.append(live[done])
            closed.append(c[done])
            more = canonical & grows
            live, c = live[more], c[more]
            rows, xs = self._elements(new[more])
            del new  # not held through the next round
        kept = np.concatenate(kept)
        out = np.empty(len(kept), states.dtype)
        out["state"], out["e"] = state[kept] + start, e[kept]
        out["mask"] = np.concatenate(closed).view(np.uint8)[:, :self._bytes]
        return out

    def _products(self, c, rows, xs):
        """For each row C of ``c``, the OR of ``x·C ∪ C·x`` over the pairs
        (row, x) of ``rows`` (ascending, every row in one at least) and ``xs``."""
        chunks = c.view(np.uint8)[:, :self._bytes].T
        one = len(rows) == len(c)  # one pair a row, so rows is arange(len(c))
        out = np.empty_like(c) if one else np.zeros_like(c)
        for part in _spans(len(rows), _CHUNK_BYTES // (2 * self._search_bytes()[1])):
            if one:  # the gathered words are the products
                self._gather(xs[part], chunks[:, part], out[part])
            else:  # the rows of a part are consecutive, each with a run of pairs
                r = rows[part]
                words = self._gather(xs[part], np.take(chunks, r, axis=1))
                starts = np.searchsorted(r, np.arange(r[0], r[-1] + 1))
                out[r[0]:r[-1] + 1] |= np.bitwise_or.reduceat(words, starts)
        return out

    def min_image(self, masks):
        """The minimal image of each packed mask under the permutations, which
        must form a group, as packed rows, and the size of its orbit."""
        reps, orbits = [np.empty((0, self._bytes), np.uint8)], [np.empty(0, int)]
        for part in _spans(len(masks), _CHUNK_BYTES // self._fold_bytes()):
            least, orbit = self._min_images(masks[part])
            reps.append(least)
            orbits.append(orbit)
        return np.concatenate(reps), np.concatenate(orbits)

    def _fold_bytes(self):
        """The peak bytes of temporaries of ``_min_images`` a mask, as
        measured by tracemalloc: its |G| images and the gathered rows ORed
        into them, in uint64 words, and its fold row indices, the uint16
        ones and the intp copy that ``np.take`` makes of one row of them."""
        return 16 * self._order * self._words + 4 * self._bytes + 8

    def _min_images(self, masks):
        """``min_image`` of one chunk of packed ``masks``."""
        nb, order, words = self._bytes, self._order, self._words
        # the fold row of every nibble chunk of every mask, chunk by chunk
        rows = np.empty((2 * nb, len(masks)), np.uint16)
        np.bitwise_and(masks.T, 15, out=rows[::2])
        np.right_shift(masks.T, 4, out=rows[1::2])
        rows += self._chunk_rows
        rows = rows[:(self._n + 3) // 4]
        images = np.take(self._fold, rows[0], axis=0)
        for index in rows[1:]:
            images |= np.take(self._fold, index, axis=0)
        images = images.reshape(len(masks), order, words)
        # the least image, word by word from the highest, among the images
        # tied on every higher word
        least = np.empty((len(masks), words), np.uint64)
        word = images[:, :, -1]
        for w in range(words - 1, -1, -1):
            least[:, w] = word.min(axis=1)
            if w:
                ties = word == least[:, w, None]
                tied = ties if w == words - 1 else tied & ties
                word = np.where(tied, images[:, :, w - 1], _TOP)
        # |orbit| = |G| / |stabiliser|
        fixed = (images == self._pad(masks)[:, None]).all(axis=2)
        return least.view(np.uint8)[:, :nb], order // np.count_nonzero(fixed, axis=1)

    def count_idempotents(self, masks):
        return popcount(masks & self._idempotent)

    def count_dclasses(self, masks):
        """The number of D-classes of each subsemigroup in ``masks``: its
        distinct principal two-sided ideals."""
        sizes = popcount(masks)
        counts = np.zeros(len(masks), int)
        for s in set(sizes.tolist()) - {0}:
            rows = np.flatnonzero(sizes == s)
            for part in _spans(len(rows), _CHUNK_BYTES // self._dclass_bytes(s)):
                counts[rows[part]] = self._dclasses_of_size(masks[rows[part]], s)
        return counts

    def _dclass_bytes(self, s):
        """The peak bytes of temporaries of ``_dclasses_of_size`` a mask of
        size s, as measured by tracemalloc: the greater of its two phases,
        the gathered lookup rows with their indices and the s x s squares,
        plus 40 bytes a byte of the mask for its bits and byte indices."""
        nb = self._bytes
        return max(8 * s * nb * (self._words + 2), 9 * s * s) + 40 * nb

    def _dclasses_of_size(self, masks, s):
        """``count_dclasses`` of the packed ``masks``, all of size s."""
        r, nb = masks.shape
        bits = self._bits(masks)
        members = np.flatnonzero(bits).reshape(r, s)  # ascending in each row
        members -= 8 * nb * np.arange(r)[:, None]
        # aT ∪ Ta for each member a of each mask T, in packed words
        words = self._gather(members.ravel(), np.repeat(masks.T, s, axis=1)).reshape(r, s, -1)
        del members
        # succ[t, b, a]: member b is in {a} ∪ aT ∪ Ta, read off the bits of
        # a's words at the members of T (the successor relation transposed,
        # which leaves the symmetric J below as it is); the diagonal is {a}
        succ = np.unpackbits(words.view(np.uint8), axis=2, bitorder="little")
        del words
        succ = succ.transpose(0, 2, 1)[:, :8 * nb][bits].reshape(r, s, s).astype(np.float32)
        succ.reshape(r, s * s)[:, ::s + 1] = 1
        # the ideal of a is {a} | aT | Ta | TaT, and TaT = T(aT) lies in
        # the successors of aT, so two steps from a reach all of it: row c
        # of the square marks the members whose ideal holds c
        ideal = np.matmul(succ, succ) > 0
        # a and b are J-related when each lies in the ideal of the other;
        # a starts a new class when the first member J-related to it is a
        j = ideal & ideal.transpose(0, 2, 1)
        return (j.argmax(axis=2) == np.arange(s)).sum(axis=1)
