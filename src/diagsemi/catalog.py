"""Standard generating sets for each diagram family and degree.

The sets follow textbook presentations so that enumeration and census
outputs are reproducible bit for bit.  They are data read by one builder:

* ``_LETTERS``: S, T, I, PT, Br, P and IS are generated by the
  transposition s = (1 2) and the n-cycle c = (1 2 ... n), as elements
  of the family's type, then by the extra letters of the family's row,
  each with its label and the least degree that has it.  T adds the
  merge idempotent e [2,2,3,...]; I the partial identity t undefined at
  1; PT both; Br the hook e1; P the join t {1,2,1',2'} and the split f
  {1}/{1'}; IS the join and, from degree 3, the non-uniform block
  bijection u {1,2,1'}/{3,2',3'}.
* ``_FULL_SETS``: B and PB are generated by every element but the
  identity, up to their largest supported degree (2 and 1).
* TL: the hooks e_1 .. e_{n-1}, in index order.

So a new generating set is one table row.  The identity is always
adjoined when the monoid is enumerated, so Table counts that include it
come out exactly.
"""

from dataclasses import dataclass, field
from functools import partial

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


def _merge(n):
    """Image of the rank-(n-1) idempotent merging 1 into 2."""
    return [1] + list(range(1, n))


def _undefined_at_first(n):
    """Image of the partial identity undefined at 1."""
    return [None] + list(range(1, n))


# The letters each family adds after s and c: (label, least degree, letter).
# A letter maps n to an image for a map family and to the diagram otherwise.
_LETTERS = {
    "S": (),
    "T": (("e", 2, _merge),),
    "I": (("t", 1, _undefined_at_first),),
    "PT": (("t", 1, _undefined_at_first), ("e", 2, _merge)),
    "Br": (("e1", 2, partial(hook, i=0)),),
    "P": (("t", 2, _join), ("f", 1, _split)),
    "IS": (("t", 2, _join), ("u", 3, _skew_join)),
}

# Families generated by every element but the identity:
# (largest degree, element iterator, label prefix, refusal past that degree).
_FULL_SETS = {
    "B": (2, el.all_relations, "r",
          "binary relations are supported by full element set only (n <= 2)"),
    "PB": (1, el.all_pbrs, "p",
           "partitioned binary relations are supported by full element set "
           "only (n = 1)"),
}


def standard_generators(family: str, n: int) -> GeneratorSet:
    if n < 1:
        raise UnsupportedFamilyDegree("degree must be >= 1")
    if family in _FULL_SETS:
        top, every, prefix, refusal = _FULL_SETS[family]
        if n > top:
            raise UnsupportedFamilyDegree(refusal)
        ident = family_identity(family, n)
        gens = [x for x in every(n) if x != ident]
        labels = [f"{prefix}{i}" for i in range(len(gens))]
    elif family == "TL":
        gens = [hook(n, i) for i in range(n - 1)]
        labels = [f"e{i + 1}" for i in range(n - 1)]
    elif family in _LETTERS:
        kind = el.MAP_KIND.get(family)
        from_image = partial(MapElement, n, kind) if kind else partial(_perm_bipartition, n)
        letters = [(lab, from_image(img)) for lab, img in _perm_images(n)]
        letters += [(lab, from_image(letter(n)) if kind else letter(n))
                    for lab, least, letter in _LETTERS[family] if n >= least]
        labels = [lab for lab, _ in letters]
        gens = [g for _, g in letters]
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
