"""Hot kernels for the subsemigroup census.

Subsets of an enumerated semigroup are bitmasks over element indices,
held as plain python ints of any width; the ambient multiplication is
an int32 N x N table.
"""

# Read by the benchmark's host record; no kernel here is JIT-compiled.
numba = None


def _closure(table, mask, first):
    """Closure of the closed set ``mask`` after adjoining element ``first``."""
    m = mask | (1 << first)
    stack = [first]
    while stack:
        x = stack.pop()
        rest = m
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            rest ^= low
            for p in (int(table[x, y]), int(table[y, x])):
                b = 1 << p
                if not m & b:
                    m |= b
                    stack.append(p)
    return m


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Backend:
    """The census mask kernels; masks are python ints at the boundary.

    ``census`` calls them through one module-level instance, so patching
    these methods on the class reaches every kernel call."""

    def extend_window(self, table, mask, lo, hi):
        """``(e, closure of mask + e)`` for each e in [lo, hi) not in mask."""
        out = []
        for e in range(lo, hi):
            if not mask >> e & 1:
                out.append((e, _closure(table, mask, e)))
        return out

    def min_image(self, mask, perms):
        """Minimal image of ``mask`` under the rows of ``perms``, and the
        number of distinct images (the orbit size)."""
        images = set()
        for row in perms:
            im = 0
            for i in _bits(mask):
                im |= 1 << int(row[i])
            images.add(im)
        return min(images), len(images)

    def count_idempotents(self, table, mask):
        return sum(1 for i in _bits(mask) if int(table[i, i]) == i)

    def count_dclasses(self, table, mask):
        """Number of distinct principal two-sided ideals inside ``mask``."""
        elems = list(_bits(mask))
        ideals = set()
        for t in elems:
            ideal = 1 << t
            stack = [t]
            while stack:
                x = stack.pop()
                for u in elems:
                    for p in (int(table[x, u]), int(table[u, x])):
                        if not ideal >> p & 1:
                            ideal |= 1 << p
                            stack.append(p)
            ideals.add(ideal)
        return len(ideals)
