"""Temperley-Lieb D-classes from half-diagrams: the idempotent ferns.

Every block of a TL diagram is a pair, so one row of it is a planar
involution of 0..n-1: half[i] is the other end of the cup at i, or i
itself when i lies on a through line.  In TL_n the upper half fixes the
R-class and the lower half the L-class, H-classes are trivial, and D[k]
is every (upper, lower) pair of halves with r = n - 2k through points,
through lines joined in order.

``tl_fern`` builds the rows, columns and idempotent mask of D[k] from
one orbit of halves under the hook indices (``_least_halves``), without
enumerating TL_n or building a diagram object, so two bounds cover all
of its work: FERN_MAX_CELLS (2^24 cells) its bitmap and
FERN_MAX_POINT_PRODUCTS (2^22) its one half-diagram orbit, in
point-products (the entries of the orbit's action arrays: halves times
hooks times the degree n).  It refuses a degree below 1, a missing
D-class index and a fern over either bound before any orbit work.
``idempotent_cells`` is the fern's MATCH check: it builds the partner
array of every cell's diagram (``tl_cell_diagrams``) and multiplies it
by itself (``tl_products``), sharing no code with the orbit or the mask.
The mask and the check hold about ``kernels._CHUNK_BYTES`` of
temporaries a chunk.
"""

import numpy as np

from . import kernels
from .census import check_bound
from .formulas import ballot, binomial

# the largest fern bitmap, in cells: 16 MiB of mask
FERN_MAX_CELLS = 1 << 24
# the largest half-diagram orbit, in entries of its action arrays (halves
# times hooks times the degree n): admits fern 16 7 (2,745,600) and fern
# 2048 0 (4,192,256, 0.02 s on a 2-core Xeon host), a few seconds at most
FERN_MAX_POINT_PRODUCTS = 1 << 22
# peak bytes of the check's temporaries per cell and degree, as measured
# on TL_10 and TL_14 (17-23)
_CHECK_CELL_BYTES = 24


def _first_seen(ids):
    """The ids >= 0 in the order they first occur."""
    order = dict.fromkeys(ids)
    order.pop(-1, None)
    return list(order)


def _least_halves(hooks, n, r, wanted):
    """The ``wanted`` halves of rank r of degree n, as two (wanted, n)
    arrays ordered by the shortlex-least word over ``hooks`` whose upper
    half each one is, and by the least word whose lower half it is.  The
    letters are hook indices, i for e_{i+1}, in letter order: with
    range(n - 1), the catalog's order, these are the orders of the first
    members of the R- and of the L-classes in Froidure-Pin order.

    A hook is its own mirror image (upper and lower rows swapped), and
    mirroring reverses products, so the lower half of x*e_i is the upper
    half of e_i*x', x' the mirror of x, and the lower halves have the
    orbit and the action of the upper ones.

    The orbit of the identity's upper half under e_i*x is searched
    breadth first: level L holds the halves of rank >= r whose shortest
    word has length L.  The least word of such a half is e_i.w' (upper)
    or w'.e_i (lower), w' the least word of a half of level L - 1: a
    shorter word for the half of w' would give a shorter one for the
    half itself.  So rows rank a level by letter and then the rank of w',
    columns by the rank of w' and then letter.  Every hook acts on every
    half of a level at once, on the halves themselves."""
    at = np.asarray(hooks, dtype=np.intp)
    points = np.arange(n, dtype=_small_ints(n))
    width = points.nbytes
    seen = {points.tobytes(): 0}
    level, by_row, by_col = points[None, :], [0], [0]
    rows, cols = [], []
    while len(level):
        target = (level == points).sum(axis=1) == r
        rows.append(level[by_row][target[by_row]])
        cols.append(level[by_col][target[by_col]])
        # y[g * m + j]: the upper half of e_{i+1} * level[j], i = at[g].
        # The hook puts the cup {i, i + 1} in and joins a and b, the old
        # partners of i and i + 1: into a cup when both are cup ends, else
        # the one cup end becomes a through point; two through points close
        # up.  When {i, i + 1} already is a cup, this writes the half back.
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


def tl_fern(n, position: int):
    """Rows, columns and idempotent mask of the eggbox of TL_n's D-class
    at ``position`` (rank n - 2*position), without enumerating TL_n or
    building any diagram: the hooks are their indices 0 .. n - 2.

    Rows and columns are (R, n) and (C, n) arrays of upper and lower
    halves, in the order ``engine.eggbox`` gives their R- and L-classes under
    the catalog's hooks e_1 .. e_{n-1}; cell (u, v) is black iff the
    diagram with halves u and v is idempotent, i.e. iff v glued onto u
    keeps rank: each walk from a through point of v, through cups
    alternately of u and v, ends at a through point of u.  A degree
    below 1, a missing index and a fern over its bounds are refused
    before any orbit work."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if not 0 <= position <= n // 2:
        raise ValueError(f"TL_{n} has no D-class index {position}")
    what = f"TL_{n} D[{position}]"
    side = ballot(n, position)
    check_bound(side ** 2, FERN_MAX_CELLS, "fern cell", what=what, unit="cells")
    # C(n, position) halves of rank at least n - 2 * position, n - 1 hooks
    # and n points
    check_bound(binomial(n, position) * (n - 1) * n, FERN_MAX_POINT_PRODUCTS, "orbit",
                what=f"each half-diagram orbit of {what}", unit="point-products")
    rows, cols = _least_halves(range(n - 1), n, n - 2 * position, side)

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
    step = kernels._CHUNK_BYTES // max(1, 3 * starts.nbytes)
    for part in kernels._spans(side, step):
        u, out = up[part].ravel(), mask[part]
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


def idempotent_cells(rows, cols):
    """Whether x*x == x for the diagram x of every cell: the check of the
    fern, which multiplies the diagrams and reads no code of the mask."""
    n = rows.shape[1]
    mask = np.empty((len(rows), len(cols)), dtype=bool)
    step = kernels._CHUNK_BYTES // (len(cols) * n * _CHECK_CELL_BYTES)
    for part in kernels._spans(len(rows), step):
        x = tl_cell_diagrams(rows[part], cols)
        mask[part] = (tl_products(x, x) == x).all(axis=1).reshape(-1, len(cols))
    return mask
