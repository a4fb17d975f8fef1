"""The package root exports the entry points; every other name is imported
from its module."""

import importlib
import types

import knightcycles

ENTRY_POINTS = {"enumerate_cycles", "EnumerationSummary", "ShardLostError",
                "CycleFileWriter", "write_cycles", "read_cycles", "BoardSpec"}
ELSEWHERE = {
    "board": ["DIHEDRAL_ELEMENTS", "apply_dihedral", "coord_of", "index_of",
              "is_knight_move", "normalize_translation"],
    "cycles": ["CycleSeq", "CycleValidationError", "canonical_cell_set",
               "canonical_key", "canonicalize", "is_minimal", "validate_cycle"],
    "geometry": ["orientation", "segments_cross", "is_simple"],
    "analysis": ["EXPECTED_COUNTS", "ParseError", "TwinGroup",
                 "group_geometric_twins", "render"],
}


def test_root_exports_only_the_entry_points():
    public = {name for name, value in vars(knightcycles).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ENTRY_POINTS
    assert knightcycles.__version__ == "0.1.0"
    for module, names in ELSEWHERE.items():
        module = importlib.import_module(f"knightcycles.{module}")
        assert [name for name in names if not hasattr(module, name)] == []
