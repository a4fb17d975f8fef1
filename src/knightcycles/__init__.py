"""Enumeration, classification and rendering of closed knight's paths."""

from .board import (
    BoardSpec,
    DIHEDRAL_ELEMENTS,
    apply_dihedral,
    coord_of,
    index_of,
    is_knight_move,
    normalize_translation,
)
from .cycles import (
    CycleSeq,
    CycleValidationError,
    canonical_cell_set,
    canonical_key,
    canonicalize,
    is_minimal,
    validate_cycle,
)
from .geometry import orientation, segments_cross, is_simple
from .search import (
    EnumerationSummary,
    ShardLostError,
    enumerate_cycles,
)
from .analysis import (
    EXPECTED_COUNTS,
    CycleFileWriter,
    ParseError,
    TwinGroup,
    group_geometric_twins,
    read_cycles,
    render,
    write_cycles,
)

__version__ = "0.1.0"
