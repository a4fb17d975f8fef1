"""Board model: row-major 1-based cell indexing, knight adjacency, and the
dihedral-symmetry / translation machinery used for canonical forms.

Coordinates are ``(row, col)`` tuples with row 0 at the top.  They may go
negative while a symmetry transform is in flight; board membership is only
enforced when converting to a cell index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Coord = tuple[int, int]

KNIGHT_OFFSETS = (
    (-2, -1), (-2, 1), (-1, -2), (-1, 2),
    (1, -2), (1, 2), (2, -1), (2, 1),
)


@dataclass(frozen=True)
class BoardSpec:
    """A square board of side ``width`` whose cells are numbered
    1..width*width, row by row from the top-left corner."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"board must be at least 1x1, got {self.width}x{self.width}")

    @property
    def size(self) -> int:
        return self.width * self.width

    @classmethod
    def for_cycle_length(cls, k: int) -> "BoardSpec":
        """The (k+1) x (k+1) board (k knight moves span at most k+1 rows), for
        the one rule on cycle lengths: k even within 4..16."""
        if k % 2 or not 4 <= k <= 16:
            raise ValueError(f"no cycle length k={k}: want an even k within 4..16")
        return cls(k + 1)


def index_of(coord: Coord, board: BoardSpec) -> int:
    """Cell number of (row, col): row*width + col + 1."""
    r, c = coord
    if not (0 <= r < board.width and 0 <= c < board.width):
        raise ValueError(f"coordinate {coord} is outside the {board.width}x{board.width} board")
    return r * board.width + c + 1


def coord_of(index: int, board: BoardSpec) -> Coord:
    """Inverse of index_of."""
    if not (1 <= index <= board.size):
        raise ValueError(f"cell index {index} out of range 1..{board.size}")
    return divmod(index - 1, board.width)


def is_knight_move(a: Coord, b: Coord) -> bool:
    return (b[0] - a[0], b[1] - a[1]) in KNIGHT_OFFSETS


@lru_cache(maxsize=None)
def adjacency(board: BoardSpec) -> tuple[tuple[int, ...], ...]:
    """Knight adjacency for every cell, as a tuple indexed by cell number
    (slot 0 unused).  Neighbor lists are ascending, which makes every search
    that walks them deterministic.  Computed once per board and reused."""
    adj: list[tuple[int, ...]] = [()] * (board.size + 1)
    for r in range(board.width):
        for c in range(board.width):
            nbrs = []
            for dr, dc in KNIGHT_OFFSETS:
                rr, cc = r + dr, c + dc
                if 0 <= rr < board.width and 0 <= cc < board.width:
                    nbrs.append(rr * board.width + cc + 1)
            adj[r * board.width + c + 1] = tuple(sorted(nbrs))
    return tuple(adj)


# The 8 elements of the square's symmetry group, as named coordinate maps.
# rot* are counter-clockwise; mirror flips about the vertical axis.
_DIHEDRAL_MAPS = {
    "identity": lambda r, c: (r, c),
    "rot90": lambda r, c: (c, -r),
    "rot180": lambda r, c: (-r, -c),
    "rot270": lambda r, c: (-c, r),
    "mirror": lambda r, c: (r, -c),
    "mirror_rot90": lambda r, c: (c, r),
    "mirror_rot180": lambda r, c: (-r, c),
    "mirror_rot270": lambda r, c: (-c, -r),
}

DIHEDRAL_ELEMENTS: tuple[str, ...] = tuple(_DIHEDRAL_MAPS)


def apply_dihedral(points: list[Coord], element: str) -> list[Coord]:
    """Pointwise image of ``points`` under one of the 8 symmetry elements.
    Results usually need normalize_translation before re-indexing."""
    try:
        f = _DIHEDRAL_MAPS[element]
    except KeyError:
        raise ValueError(f"unknown dihedral element {element!r}") from None
    return [f(r, c) for r, c in points]


def normalize_translation(points: list[Coord]) -> list[Coord]:
    """Shift all points by a common offset so that min row = min col = 0
    (the placement touches the top row and the leftmost column)."""
    if not points:
        raise ValueError("cannot normalize an empty point list")
    min_r = min(p[0] for p in points)
    min_c = min(p[1] for p in points)
    return [(r - min_r, c - min_c) for r, c in points]
