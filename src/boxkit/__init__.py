"""Partitions and covers of discrete cubes by axis-aligned sub-boxes.

Construction, verification, bound evaluation and search for partitions of
[n_1] x ... x [n_d] into boxes: odd/proper partitions, k-piercing brick and
box partitions, multiplicity covers, and the two-colored graph reduction
for the 2D piercing problem.

``import boxkit`` loads no submodule: each public name below is imported
from its submodule on first use (PEP 562), so a command pays only for the
modules it reads.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "geometry": """Ambient BoxFamily BoxFlags CornerSpec DiscreteBox GeometryError
        IntermediatePartition PiercingVector VerificationReport boxes_disjoint
        classify_box piercing_number verify_cover weighted_piercing_ok""",
    "formats": """ParseError PartitionDocument parse_partition_structured
        parse_partition_text write_partition_structured write_partition_text""",
    "constructions": """APPENDIX_25_LISTING grid_partition intermediate_library lift
        partition_25 predicted_size product quadrant_construction realize
        stack_lemma trivial_odd_partition""",
    "bounds": """BoundValue ParityTally growth_root kp_box_exponential_lower
        kp_trivial_bounds lower_odd_basic lower_odd_proper parity_count""",
    "search": """CoverInstance SearchBudget SearchResult anneal_cover
        enumerate_candidates export_model solve_cover""",
    "graphq": """CliquePropertyReport TwoColoredGraph clique_property_check
        fig9_graph partition_to_graph prop43_lower""",
    "render": "render",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Importing the submodule ``boxkit.render`` binds it on the package; the
    name ``boxkit.render`` stays the function, as ``__all__`` says."""

    def __setattr__(self, name: str, value) -> None:
        if name != "render" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
