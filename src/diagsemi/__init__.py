"""diagsemi: computational algebra for the ten diagram-semigroup families."""

from .elements import (
    Bipartition,
    MapElement,
    PBR,
    PointPermutation,
    bipartition_from_pbr,
    classify,
    conjugate,
    is_planar,
    rank,
)
from .embeddings import embed, realize
from .formulas import family_order
from .catalog import standard_generators
from .engine import enumerate_family, enumerate_semigroup, green_structure, idempotents
from .census import all_subsemigroup_masks, census_up_to_conjugacy, subgroup_census, symmetry_group

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "MapElement", "PBR", "PointPermutation",
    "bipartition_from_pbr", "classify", "conjugate", "is_planar", "rank",
    "embed", "realize", "family_order",
    "standard_generators", "enumerate_family", "enumerate_semigroup",
    "green_structure", "idempotents", "all_subsemigroup_masks",
    "census_up_to_conjugacy", "subgroup_census", "symmetry_group",
]
