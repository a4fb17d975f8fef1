"""Cycle representation and canonical forms.

A closed knight's path is stored as the sequence of cell numbers it visits.
Two cycles are equivalent when one maps onto the other by any combination of
board translation, quarter-turn rotation, mirroring, choice of starting cell,
and traversal direction.  Each equivalence class is represented by its
canonical form: the lexicographically smallest index sequence over all of
those re-expressions.  The enumeration engines only ever keep a cycle whose
own sequence already is the canonical one, which classifies without storing
previously seen solutions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .board import (
    BoardSpec,
    DIHEDRAL_ELEMENTS,
    Coord,
    adjacency,
    apply_dihedral,
    coord_of,
    index_of,
    normalize_translation,
)


class CycleValidationError(ValueError):
    """A cell sequence that is not a closed knight cycle (see validate_cycle)."""


@dataclass(frozen=True)
class CycleSeq:
    """A closed knight cycle: k distinct cells, consecutive cells (and the
    last-to-first pair) a knight move apart on ``board``."""

    cells: tuple[int, ...]
    board: BoardSpec

    def __len__(self) -> int:
        return len(self.cells)

    def coords(self) -> list[Coord]:
        return [coord_of(i, self.board) for i in self.cells]


def validate_cycle(cells, board: BoardSpec) -> CycleSeq:
    """Check every cycle invariant and return the validated CycleSeq.

    Raises CycleValidationError naming the first offending position:
    bad length, out-of-range index, repeated cell, a step that is not a
    knight move, or endpoints that do not close up.
    """
    cells = tuple(cells)
    k = len(cells)
    if k % 2 != 0:
        raise CycleValidationError(f"cycle length must be even, got {k}")
    if k < 4:
        raise CycleValidationError(f"cycle length must be at least 4, got {k}")
    size, adj = board.size, adjacency(board)
    seen: set[int] = set()
    for pos, cell in enumerate(cells):
        if not (1 <= cell <= size):
            raise CycleValidationError(
                f"cell {cell} at position {pos} outside board 1..{size}")
        if pos and cell not in adj[cells[pos - 1]]:
            raise CycleValidationError(
                f"step {cells[pos - 1]}->{cell} at position {pos - 1} "
                "is not a knight move")
        if cell in seen:
            raise CycleValidationError(f"cell {cell} repeated at position {pos}")
        seen.add(cell)
    if cells[0] not in adj[cells[-1]]:
        raise CycleValidationError(
            f"endpoints {cells[-1]} and {cells[0]} do not close the cycle")
    return CycleSeq(cells, board)


@lru_cache(maxsize=None)
def knight_moves(board: BoardSpec) -> frozenset[tuple[int, int]]:
    """Every (cell, next cell) pair one knight move apart, from ``adjacency``."""
    return frozenset((cell, nxt) for cell, nbrs in enumerate(adjacency(board)) for nxt in nbrs)


def _canonical_coords(coords: list[Coord]) -> tuple[Coord, ...]:
    """Canonical placement of a cycle, as coordinates.

    Minimum over the 8 dihedral images (each translation-normalized) of the
    smallest traversal of that image.  Within one image only the traversals
    starting at the minimal coordinate can win, so 2 candidates (one per
    direction) suffice per image; comparing (row, col) pairs lexicographically
    matches comparing cell indices on any board the placement fits.
    """
    candidates = []
    for element in DIHEDRAL_ELEMENTS:
        pts = normalize_translation(apply_dihedral(coords, element))
        j = pts.index(min(pts))
        ring = pts[j:] + pts[:j]
        candidates.append(tuple(ring))
        candidates.append(tuple(ring[:1] + ring[:0:-1]))
    return min(candidates)


def canonicalize(cycle: CycleSeq) -> CycleSeq:
    """Canonical form of ``cycle`` on the same board.

    The result is a valid cycle, is a fixed point of canonicalize, starts at
    its smallest cell, and touches both the top row and leftmost column.
    """
    coords = list(_canonical_coords(cycle.coords()))
    return CycleSeq(tuple(index_of(p, cycle.board) for p in coords), cycle.board)


def canonical_key(cycle: CycleSeq) -> CycleSeq:
    """Canonical form re-encoded on the standard (k+1) x (k+1) board, the
    representation used by listings regardless of the input decode width."""
    board = BoardSpec.for_cycle_length(len(cycle))
    coords = list(_canonical_coords(cycle.coords()))
    return CycleSeq(tuple(index_of(p, board) for p in coords), board)


def is_minimal(cycle: CycleSeq) -> bool:
    """True iff the cycle's own sequence is the canonical one for its class,
    on any board it fits: the reversal and start checks, then the core on
    the side extremes read off the cells.  Returns False for a placement
    that is not translation-normalized."""
    cells, side = cycle.cells, cycle.board.width
    if cells[1] > cells[-1] or cells[0] > side or min(cells) != cells[0]:
        return False
    return _is_minimal_given(cells, side, _side_extremes(cells, side))


def canonical_cell_set(cells: tuple[int, ...]) -> tuple[int, ...]:
    """The visited cells of a k-cell sequence on the (k+1) x (k+1) board,
    ascending and minimized over symmetry: the least of the 8 images' sorted
    cell sets under _symmetry_tables, each shifted by the least image of the
    placement's 4 box corners.  Twin detection groups cycles by this key."""
    side = len(cells) + 1
    tables, image_of = _symmetry_tables(side), itemgetter(*cells)
    by_col = image_of(tables[3])  # the transpose numbers the cells by column
    corners = [(row - 1) // side * side + (col - 1) // side + 1
               for row in (min(cells), max(cells)) for col in (min(by_col), max(by_col))]
    images = []
    for table in (range(side * side + 1),) + tables:
        shift = min(map(table.__getitem__, corners)) - 1
        images.append(tuple(map(shift.__rsub__, sorted(image_of(table)))))
    return min(images)


# The non-identity symmetries, in the order of _is_minimal_given's images.
_IMAGE_ORDER = ("mirror", "mirror_rot180", "rot180", "mirror_rot90", "rot90",
                "rot270", "mirror_rot270")


@lru_cache(maxsize=16)
def _symmetry_tables(side: int) -> tuple[tuple[int, ...], ...]:
    """The 7 non-identity symmetries of a side x side board as cell
    permutations (slot 0 unused), in _IMAGE_ORDER; the fourth, the
    transpose, is also the column-major numbering of the cells."""
    cells = [divmod(i, side) for i in range(side * side)]
    images = (normalize_translation(apply_dihedral(cells, element))
              for element in _IMAGE_ORDER)
    return tuple((0,) + tuple(r * side + c + 1 for r, c in image) for image in images)


# Beyond any row or column of a for_cycle_length board (k <= 16, side <= 17).
_FAR = 1 << 10


def _side_extremes(cells, side: int) -> tuple[int, ...]:
    """Where cells on a side x side board touch the sides of their bounding
    box [0, R] x [0, C], given that some cell lies on row 0: (R, C, max
    column on row 0, min and max row on column 0, min and max column on row
    R, min and max row on column C).  Cells missing column 0 get (_FAR,
    -_FAR) there.  The extremes are read off the cells sorted row by row and
    column by column."""
    by_row = sorted(cells)
    by_col = sorted(itemgetter(*cells)(_symmetry_tables(side)[3]))
    last = by_row[-1] - 1
    last_row = last // side
    bottom = last_row * side
    right_end = by_col[-1] - 1
    last_col = right_end // side
    right = last_col * side
    if by_col[0] <= side:
        left_min = by_col[0] - 1
        left_max = by_col[bisect_right(by_col, side) - 1] - 1
    else:
        left_min, left_max = _FAR, -_FAR
    return (last_row, last_col, by_row[bisect_right(by_row, side) - 1] - 1,
            left_min, left_max,
            by_row[bisect_right(by_row, bottom)] - bottom - 1, last - bottom,
            by_col[bisect_right(by_col, right)] - right - 1, right_end - right)


def _is_minimal_given(cells, side: int, extremes) -> bool:
    """The canonicity core: True iff ``cells`` on the side x side board is
    the canonical sequence of its class, given its side extremes in the order
    of _side_extremes.  The caller has checked that cells[0] is the smallest
    cell, on row 0, and that cells[1] < cells[-1]; both engines guarantee
    that by construction and hand over the extremes their own bounding box
    already holds, so only is_minimal reads them off the cells.

    Each of the 8 symmetry images of the placement, translation-normalized,
    starts at an extreme cell of one side of the bounding box [0, R] x [0, C]:
    the identity at the leftmost cell of row 0, the others at the rightmost
    cell of row 0, either end of row R, or either end of column 0 or C.  The
    image's start index is 1 plus that cell's distance to the image's corner,
    so the side extremes settle every image whose start differs from
    cells[0]: a smaller start rejects at once, a larger one loses.  Only the
    tied images are compared sequence-wise, lazily from their start cell in
    both directions; the identity needs nothing beyond the reversal check.
    A placement off column 0 is not translation-normalized and is rejected.
    """
    (last_row, last_col, top_max, left_min, left_max, bottom_min, bottom_max,
     right_min, right_max) = extremes
    if left_min == _FAR:
        return False
    low = cells[0] - 1
    # The start offset of each image, in the order of _symmetry_tables.
    top = last_col - top_max
    bottom_hi = last_col - bottom_max
    left_hi = last_row - left_max
    right_hi = last_row - right_max
    if (top < low or bottom_min < low or bottom_hi < low or left_min < low
            or left_hi < low or right_min < low or right_hi < low):
        return False
    # Only a tied image is read, from its start cell in both directions.
    tables = _symmetry_tables(side)
    bottom = last_row * side + 1
    right = last_col + 1
    return not (
        top == low and _image_below(cells, tables[0], top_max + 1)
        or bottom_min == low and _image_below(cells, tables[1], bottom + bottom_min)
        or bottom_hi == low and _image_below(cells, tables[2], bottom + bottom_max)
        or left_min == low and _image_below(cells, tables[3], left_min * side + 1)
        or left_hi == low and _image_below(cells, tables[4], left_max * side + 1)
        or right_min == low and _image_below(cells, tables[5], right_min * side + right)
        or right_hi == low and _image_below(cells, tables[6], right_max * side + right))


def _image_below(cells, table, start: int) -> bool:
    """True iff the image of ``cells`` under the symmetry ``table``, read
    from ``start`` in either direction, is below ``cells``.  The whole-board
    symmetry moves the placement by a constant index shift away from its
    normalized image, whose start is cells[0]."""
    shift = table[start] - cells[0]
    pos = cells.index(start)
    ring = cells[pos:] + cells[:pos]
    for step in (1, -1):
        for off in range(1, len(cells)):
            image = table[ring[step * off]] - shift
            if image != cells[off]:
                if image < cells[off]:
                    return True
                break
    return False
