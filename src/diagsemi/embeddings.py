"""Conversions between the diagram families.

Most supported pairs are genuine monoid embeddings (products commute
with the conversion).  The one exception is PT -> P: a partial
transformation can be drawn as a partition diagram, but the partition
product then disagrees with composition, so that conversion is offered
as a realization with homomorphism flag False.
"""

from .elements import MAP_KIND, Bipartition, MapElement, PBR

# (source, target) -> homomorphism flag.  Sources/targets are family codes.
SUPPORTED = {
    ("S", "T"): True,
    ("S", "I"): True,
    ("S", "PT"): True,
    ("S", "B"): True,
    ("S", "P"): True,
    ("S", "IS"): True,
    ("S", "Br"): True,
    ("S", "PB"): True,
    ("T", "PT"): True,
    ("T", "B"): True,
    ("T", "P"): True,
    ("T", "PB"): True,
    ("I", "PT"): True,
    ("I", "B"): True,
    ("I", "P"): True,
    ("I", "PB"): True,
    ("PT", "B"): True,
    ("PT", "T"): True,  # degree grows by one
    ("PT", "PB"): True,
    ("PT", "P"): False,  # realization only; multiplication differs
    ("B", "PB"): True,
    ("TL", "Br"): True,
    ("TL", "P"): True,
    ("TL", "PB"): True,
    ("Br", "P"): True,
    ("Br", "PB"): True,
    ("IS", "P"): True,
    ("IS", "PB"): True,
    ("P", "PB"): True,
}


def source_family(x) -> str:
    """The family container an element naturally lives in."""
    if isinstance(x, MapElement):
        return next(f for f, kind in MAP_KIND.items() if kind == x.kind)
    if isinstance(x, Bipartition):
        return "P"
    if isinstance(x, PBR):
        return "PB"
    raise TypeError(f"not a diagram element: {type(x).__name__}")


def embed(x, target: str, source: str | None = None):
    """Convert x into the target family.

    Returns (element, is_homomorphism).  Raises ValueError for pairs not
    in the support matrix.
    """
    src = source or source_family(x)
    if src == target:
        return x, True
    flag = SUPPORTED.get((src, target))
    if flag is None:
        raise ValueError(f"no supported embedding {src} -> {target}")

    if isinstance(x, MapElement):
        if target == "PB":
            return x.to_pbr(), True
        if target in MAP_KIND and not (src == "PT" and target == "T"):
            kind = MAP_KIND[target]
            if kind == "relation":
                return MapElement(x.degree, "relation", x._as_rows()), True
            return MapElement(x.degree, kind, x.data), True
        if src == "PT" and target == "T":
            n = x.degree
            image = [n if v is None else v for v in x.data] + [n]
            return MapElement(n + 1, "transformation", image), True
        if target in ("P", "IS", "Br"):
            return _map_to_bipartition(x), flag
    if isinstance(x, Bipartition):
        if target == "PB":
            return x.to_pbr(), True
        if target in ("P", "IS", "Br"):
            return x, True
    raise ValueError(f"no supported embedding {src} -> {target}")


def realize(x: MapElement) -> Bipartition:
    """Partition-diagram realization of a partial transformation.

    Elementwise injective but *not* a homomorphism (see embed)."""
    return _map_to_bipartition(x)


def _map_to_bipartition(x: MapElement) -> Bipartition:
    if x.kind == "relation":
        raise ValueError("binary relations have no partition realization")
    n = x.degree
    assignment = [-1] * (2 * n)
    nxt = 0
    for j in range(n):
        members = [i for i in range(n) if x.data[i] == j]
        if members:
            for i in members:
                assignment[i] = nxt
            assignment[n + j] = nxt
            nxt += 1
    for p in range(2 * n):
        if assignment[p] == -1:
            assignment[p] = nxt
            nxt += 1
    return Bipartition(n, assignment)
