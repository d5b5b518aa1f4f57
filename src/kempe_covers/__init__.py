"""Edge Kempe switches on colored regular multigraphs, with finite covers.

Two legal edge colorings of a finite d-regular graph need not be related by
Kempe switches on the graph itself, but they always are after pulling both
back through a suitable finite cover, of degree at most beta(d). This
package builds such covers and replayable switch sequences explicitly,
verifies them, and provides a brute-force oracle for small instances.
"""

from importlib.resources import files as _files

from .alignment import (
    AlignColorResult,
    AlignmentData,
    ColorDSplit,
    align_color,
    alignment_data,
    build_alignment_cover,
    default_orientation,
    split_color_d,
)
from .coloring import (
    BichromaticCycle,
    EdgeColoring,
    SwitchSequence,
    apply_sequence,
    bichromatic_cycles,
    common_degree,
    is_legal,
    kempe_switch,
)
from .covering import (
    CoveringMap,
    Verdict,
    compose,
    copies_cover,
    extend_subgraph_cover,
    lift_sequence,
    pullback_coloring,
    verify_covering,
)
from .equivalence import (
    EquivalenceWitness,
    beta,
    kempe_cover_witness,
    verify_witness,
)
from .errors import (
    ColoringError,
    CoveringError,
    EnumerationLimitError,
    FormatError,
    GraphStructureError,
    IllegalColoringError,
    KempeCoversError,
    LoopEdgeError,
    RegularityError,
    StaleSwitchError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .graph import (
    Multigraph,
    connected_components,
    is_regular,
    spanning_subgraph,
)
from .oracle import (
    ColoringCensus,
    enumerate_legal_colorings,
    equivalent_without_cover,
    kempe_class_partition,
    random_colored_instance,
)
from .serialize import (
    instance_from_json,
    instance_to_json,
    witness_from_json,
    witness_to_json,
)


def bundled_instance_path(name: str):
    """Filesystem path of a bundled example instance (k33, theta, petersen)."""
    return _files("kempe_covers").joinpath("data", f"{name}.json")


__all__ = [
    "AlignColorResult",
    "AlignmentData",
    "BichromaticCycle",
    "ColorDSplit",
    "ColoringCensus",
    "ColoringError",
    "CoveringError",
    "CoveringMap",
    "EdgeColoring",
    "EnumerationLimitError",
    "EquivalenceWitness",
    "FormatError",
    "GraphStructureError",
    "IllegalColoringError",
    "KempeCoversError",
    "LoopEdgeError",
    "Multigraph",
    "RegularityError",
    "StaleSwitchError",
    "SwitchSequence",
    "UnknownEdgeError",
    "UnknownVertexError",
    "Verdict",
    "align_color",
    "alignment_data",
    "apply_sequence",
    "beta",
    "bichromatic_cycles",
    "build_alignment_cover",
    "bundled_instance_path",
    "common_degree",
    "compose",
    "connected_components",
    "copies_cover",
    "default_orientation",
    "enumerate_legal_colorings",
    "equivalent_without_cover",
    "extend_subgraph_cover",
    "instance_from_json",
    "instance_to_json",
    "is_legal",
    "is_regular",
    "kempe_class_partition",
    "kempe_cover_witness",
    "kempe_switch",
    "lift_sequence",
    "pullback_coloring",
    "random_colored_instance",
    "spanning_subgraph",
    "split_color_d",
    "verify_covering",
    "verify_witness",
    "witness_from_json",
    "witness_to_json",
]
