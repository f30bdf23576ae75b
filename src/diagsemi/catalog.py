"""Standard generating sets for each diagram family and degree.

The sets follow textbook presentations so that enumeration and census
outputs are reproducible bit for bit:

* S:  transposition (1 2) and the n-cycle (1 2 ... n).
* T:  the S generators plus the rank-(n-1) idempotent merging 1 into 2.
* I:  the S generators plus the partial identity undefined at 1.
* PT: the I generators plus the merge idempotent.
* TL: the hook diagrams e_1 .. e_{n-1}, in index order.
* Br: the S generators (as diagrams) plus the hook e_1.
* P:  the Br generators plus the split diagram cutting strand 1.
* IS: the S generators (as diagrams) plus the elementary block
      bijection joining strands 1 and 2.
* B, PB: the full element set (supported for n <= 2 and n = 1).

The identity is always adjoined when the monoid is enumerated, so Table
counts that include it come out exactly.
"""

from dataclasses import dataclass, field

from . import elements as el
from .elements import Bipartition, MapElement, PBR, classify


@dataclass(frozen=True)
class GeneratorSet:
    family: str
    degree: int
    elements: tuple
    labels: tuple
    identity: object = field(repr=False)

    def __post_init__(self):
        for lab, g in zip(self.labels, self.elements):
            if self.family not in classify(g):
                raise ValueError(
                    f"generator {lab!r} fails the {self.family} membership test"
                )

    def to_json(self):
        return {
            "family": self.family,
            "degree": self.degree,
            "generators": [
                {"label": lab, "element": el.element_to_json(g)}
                for lab, g in zip(self.labels, self.elements)
            ],
        }


class UnsupportedFamilyDegree(ValueError):
    pass


def family_identity(family: str, n: int):
    if family == "PB":
        return PBR.identity(n)
    if family in ("P", "IS", "Br", "TL"):
        return Bipartition.identity(n)
    return MapElement.identity(n, el.MAP_KIND[family])


def _perm_images(n):
    """Images of the standard symmetric-group generators, deduplicated."""
    if n == 1:
        return []
    swap = [1, 0] + list(range(2, n))
    if n == 2:
        return [("s", swap)]
    cycle = list(range(1, n)) + [0]
    return [("s", swap), ("c", cycle)]


def _perm_bipartition(n, image):
    blocks = [(i, n + image[i]) for i in range(n)]
    return Bipartition.from_blocks(n, blocks)


def hook(n, i):
    """The Temperley-Lieb generator e_{i+1}: cup {i, i+1} over cap {i', (i+1)'}."""
    blocks = [(i, i + 1), (n + i, n + i + 1)]
    blocks += [(j, n + j) for j in range(n) if j not in (i, i + 1)]
    return Bipartition.from_blocks(n, blocks)


def _split(n):
    blocks = [(0,), (n,)] + [(j, n + j) for j in range(1, n)]
    return Bipartition.from_blocks(n, blocks)


def _join(n):
    blocks = [(0, 1, n, n + 1)] + [(j, n + j) for j in range(2, n)]
    return Bipartition.from_blocks(n, blocks)


def _skew_join(n):
    """Non-uniform block bijection {1,2,1'} / {3,2',3'}: together with the
    permutations and the uniform join it reaches past the factorizable part
    of the dual symmetric inverse monoid."""
    blocks = [(0, 1, n), (2, n + 1, n + 2)] + [(j, n + j) for j in range(3, n)]
    return Bipartition.from_blocks(n, blocks)


def standard_generators(family: str, n: int) -> GeneratorSet:
    if n < 1:
        raise UnsupportedFamilyDegree("degree must be >= 1")
    gens, labels = [], []

    if family == "S":
        for lab, img in _perm_images(n):
            gens.append(MapElement(n, "permutation", img))
            labels.append(lab)
    elif family == "T":
        for lab, img in _perm_images(n):
            gens.append(MapElement(n, "transformation", img))
            labels.append(lab)
        if n >= 2:
            gens.append(MapElement(n, "transformation", [1] + list(range(1, n))))
            labels.append("e")
    elif family == "I":
        for lab, img in _perm_images(n):
            gens.append(MapElement(n, "partial_perm", img))
            labels.append(lab)
        gens.append(MapElement(n, "partial_perm", [None] + list(range(1, n))))
        labels.append("t")
    elif family == "PT":
        for lab, img in _perm_images(n):
            gens.append(MapElement(n, "partial", img))
            labels.append(lab)
        gens.append(MapElement(n, "partial", [None] + list(range(1, n))))
        labels.append("t")
        if n >= 2:
            gens.append(MapElement(n, "partial", [1] + list(range(1, n))))
            labels.append("e")
    elif family == "TL":
        for i in range(n - 1):
            gens.append(hook(n, i))
            labels.append(f"e{i + 1}")
    elif family == "Br":
        for lab, img in _perm_images(n):
            gens.append(_perm_bipartition(n, img))
            labels.append(lab)
        if n >= 2:
            gens.append(hook(n, 0))
            labels.append("e1")
    elif family == "P":
        for lab, img in _perm_images(n):
            gens.append(_perm_bipartition(n, img))
            labels.append(lab)
        if n >= 2:
            gens.append(_join(n))
            labels.append("t")
        gens.append(_split(n))
        labels.append("f")
    elif family == "IS":
        for lab, img in _perm_images(n):
            gens.append(_perm_bipartition(n, img))
            labels.append(lab)
        if n >= 2:
            gens.append(_join(n))
            labels.append("t")
        if n >= 3:
            gens.append(_skew_join(n))
            labels.append("u")
    elif family == "B":
        if n > 2:
            raise UnsupportedFamilyDegree(
                "binary relations are supported by full element set only (n <= 2)"
            )
        ident = family_identity("B", n)
        for r in el.all_relations(n):
            if r != ident:
                gens.append(r)
                labels.append(f"r{len(labels)}")
    elif family == "PB":
        if n > 1:
            raise UnsupportedFamilyDegree(
                "partitioned binary relations are supported by full element set "
                "only (n = 1)"
            )
        ident = family_identity("PB", n)
        for p in el.all_pbrs(n):
            if p != ident:
                gens.append(p)
                labels.append(f"p{len(labels)}")
    else:
        raise UnsupportedFamilyDegree(f"unknown family {family!r}")

    return GeneratorSet(
        family=family,
        degree=n,
        elements=tuple(gens),
        labels=tuple(labels),
        identity=family_identity(family, n),
    )


def supports(family: str, n: int) -> bool:
    try:
        standard_generators(family, n)
        return True
    except UnsupportedFamilyDegree:
        return False
