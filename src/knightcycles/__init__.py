"""Enumeration, classification and rendering of closed knight's paths.

The package root exports the entry points; every other name is imported
from its module (``knightcycles.cycles``, ``knightcycles.analysis``, ...)."""

from .board import BoardSpec
from .search import EnumerationSummary, ShardLostError, enumerate_cycles
from .analysis import CycleFileWriter, read_cycles, write_cycles

__version__ = "0.1.0"
