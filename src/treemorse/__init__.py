"""Discrete Morse functions on trees: merge trees, equivalences, stars."""

from . import errors
from .complexes import (
    Edge,
    Simplex,
    SimplicialTree,
    Vertex,
    build_tree,
    edge,
    is_edge,
)
from .documents import parse_morse_document, parse_tree_document, star_document
from .equivalence import (
    HomologicalSequence,
    PersistenceDiagram,
    forman_equivalent,
    homological_sequence,
    homologically_equivalent,
    persistence_diagram,
    persistence_equivalent,
)
from .merge_tree import (
    MergeTree,
    induce_merge_tree,
    merge_equivalent,
    parse_shape_code,
)
from .morse import GradientVectorField, MorseFunction, validate
from .oracle import (
    DEFAULT_SIMPLEX_BUDGET,
    InvariantReport,
    check_invariants,
    count_merge_classes,
    enumerate_critical_dmfs,
)
from .stars import (
    StarGraph,
    count_realizable_on_star,
    enumerate_thin,
    lr_sequence,
    realize_on_star,
    star_graph,
    thin_from_lr,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "GradientVectorField",
    "HomologicalSequence",
    "InvariantReport",
    "MergeTree",
    "MorseFunction",
    "PersistenceDiagram",
    "Simplex",
    "SimplicialTree",
    "StarGraph",
    "Vertex",
    "DEFAULT_SIMPLEX_BUDGET",
    "build_tree",
    "check_invariants",
    "count_merge_classes",
    "count_realizable_on_star",
    "edge",
    "enumerate_critical_dmfs",
    "enumerate_thin",
    "errors",
    "forman_equivalent",
    "homological_sequence",
    "homologically_equivalent",
    "induce_merge_tree",
    "is_edge",
    "lr_sequence",
    "merge_equivalent",
    "parse_morse_document",
    "parse_shape_code",
    "parse_tree_document",
    "persistence_diagram",
    "persistence_equivalent",
    "realize_on_star",
    "star_document",
    "star_graph",
    "thin_from_lr",
    "validate",
]
