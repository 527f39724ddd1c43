"""Tagged probe interval graphs whose probe part is proper.

Recognition in near-linear time with interval-representation certificates,
an independent brute-force oracle, planted instance generation, and a small
command-line front end.
"""

from .generate import GenSpec, generate
from .graph import (
    GraphFormatError,
    ProbeGraph,
    TaggedGraph,
    compute_blocks,
    connected_components,
    parse_tagged_graph,
    probe_subgraph,
    serialize_tagged_graph,
    tagged_graph,
    two_stretch_filter,
    validate_nonprobe_independence,
)
from .oracle import OracleBudgetExceeded, oracle_recognize
from .pqtree import PQTree
from .proper import (
    CanonicalSequence,
    canonical_sequence,
    recognize_proper_interval,
    sequence_from_iterable,
    stair_sequence,
)
from .recognize import (
    RecognitionResult,
    build_certificate,
    check_perfect_substrings,
    perfect_substring_bounds,
    recognize,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalSequence",
    "GenSpec",
    "GraphFormatError",
    "OracleBudgetExceeded",
    "PQTree",
    "ProbeGraph",
    "RecognitionResult",
    "TaggedGraph",
    "build_certificate",
    "canonical_sequence",
    "check_perfect_substrings",
    "compute_blocks",
    "connected_components",
    "generate",
    "oracle_recognize",
    "parse_tagged_graph",
    "perfect_substring_bounds",
    "probe_subgraph",
    "recognize",
    "recognize_proper_interval",
    "sequence_from_iterable",
    "serialize_tagged_graph",
    "stair_sequence",
    "tagged_graph",
    "two_stretch_filter",
    "validate_nonprobe_independence",
    "verify_certificate",
]
