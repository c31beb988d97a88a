"""Partitions and covers of discrete cubes by axis-aligned sub-boxes.

Construction, verification, bound evaluation and search for partitions of
[n_1] x ... x [n_d] into boxes: odd/proper partitions, k-piercing brick and
box partitions, multiplicity covers, and the two-colored graph reduction
for the 2D piercing problem.
"""

from .geometry import (
    Ambient,
    BoxFamily,
    BoxFlags,
    CornerSpec,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    VerificationReport,
    boxes_disjoint,
    classify_box,
    piercing_number,
    verify_cover,
    weighted_piercing_ok,
)
from .formats import (
    ParseError,
    PartitionDocument,
    parse_partition_structured,
    parse_partition_text,
    write_partition_structured,
    write_partition_text,
)
from .constructions import (
    APPENDIX_25_LISTING,
    grid_partition,
    intermediate_library,
    lift,
    partition_25,
    predicted_size,
    product,
    quadrant_construction,
    realize,
    stack_lemma,
    trivial_odd_partition,
)
from .bounds import (
    BoundValue,
    ParityTally,
    growth_root,
    kp_box_exponential_lower,
    kp_trivial_bounds,
    lower_odd_basic,
    lower_odd_proper,
    parity_count,
)
from .search import (
    CoverInstance,
    SearchBudget,
    SearchResult,
    anneal_cover,
    enumerate_candidates,
    export_model,
    solve_cover,
)
from .graphq import (
    CliquePropertyReport,
    TwoColoredGraph,
    clique_property_check,
    fig9_graph,
    partition_to_graph,
    prop43_lower,
)
from .render import render

__version__ = "0.1.0"
