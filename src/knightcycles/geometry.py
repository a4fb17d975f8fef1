"""Exact integer geometry for the self-intersection test.

A cycle drawn as a polygon joins the centers of consecutive cells with
straight segments.  It is simple (uncrossed) when no two edges share any
point beyond the single vertex that consecutive edges have in common.  All
predicates work in exact integer arithmetic; cell coordinates never exceed
17, so nothing here can overflow.
"""

from __future__ import annotations

from functools import lru_cache

from .board import KNIGHT_OFFSETS, BoardSpec, Coord, adjacency, coord_of
from .cycles import CycleSeq

Segment = tuple[Coord, Coord]


def orientation(p: Coord, q: Coord, r: Coord) -> int:
    """Sign of the cross product (q - p) x (r - p): 0 for collinear points,
    opposite signs for the two turning directions."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def _within_box(p: Coord, q: Coord, r: Coord) -> bool:
    # q assumed collinear with p-r; is it inside the closed bounding box?
    return (min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
            and min(p[1], r[1]) <= q[1] <= max(p[1], r[1]))


def segments_cross(s1: Segment, s2: Segment) -> bool:
    """True iff the two segments share at least one point that is not an
    endpoint common to both.

    Proper interior crossings, an endpoint of one lying on the other, and
    collinear overlap all count; merely sharing an endpoint does not.
    """
    a, b = s1
    c, d = s2
    if {a, b} == {c, d}:
        return True
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    shared = {a, b} & {c, d}
    for p, u, v, o in ((c, a, b, o1), (d, a, b, o2), (a, c, d, o3), (b, c, d, o4)):
        if o == 0 and p not in shared and _within_box(u, p, v):
            return True
    return False


def is_simple(cycle: CycleSeq) -> bool:
    """True iff the cycle's polygon is non-self-intersecting: non-adjacent
    edges never touch, adjacent edges share only their common vertex."""
    pts = cycle.coords()
    k = len(pts)
    edges = [(pts[i], pts[(i + 1) % k]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if segments_cross(edges[i], edges[j]):
                return False
    return True


# The knight moves down the board, from an edge's upper cell to its lower one.
_DOWN_MOVES = KNIGHT_OFFSETS[4:]


@lru_cache(maxsize=None)
def _crossing_stencil() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each move m of _DOWN_MOVES, the (row offset, column offset, move)
    of every other edge that crosses the edge from (0, 0) by m.  Crossing is
    translation-invariant, and a crosser's upper cell lies within 2 rows and
    4 columns of (0, 0)."""
    return tuple(
        tuple((dr, dc, j) for dr in range(-2, 3) for dc in range(-4, 5)
              for j, (jr, jc) in enumerate(_DOWN_MOVES)
              if (dr, dc, j) != (0, 0, m)
              and segments_cross(((0, 0), move), ((dr, dc), (dr + jr, dc + jc))))
        for m, move in enumerate(_DOWN_MOVES))


class CrossingTable:
    """Precomputed pairwise crossings of every knight-move segment on one
    board, for the enumeration hot path.

    Knight segments have no interior lattice points, so a vertex of one edge
    can never sit inside another edge of the same cycle; between *distinct*
    knight edges the only possible conflict is a proper crossing or a shared
    endpoint touch, and those are exactly what the table records.
    """

    def __init__(self, board: BoardSpec):
        adj = adjacency(board)
        edges = [(u, v) for u in range(1, board.size + 1)
                 for v in adj[u] if v > u]
        # Edge e, bit e, is keyed by its upper cell and its move down from it.
        keys = []
        for u, v in edges:
            (r, c), (r2, c2) = coord_of(u, board), coord_of(v, board)
            keys.append((r, c, _DOWN_MOVES.index((r2 - r, c2 - c))))
        bits = {key: 1 << e for e, key in enumerate(keys)}
        # Both orientations of edge e map to (bit e, crossing mask): the
        # stencil translated to e, less the crossers that leave the board.
        self._edges: dict[tuple[int, int], tuple[int, int]] = {}
        for (u, v), (r, c, m) in zip(edges, keys):
            crossing = sum(bits.get((r + dr, c + dc, j), 0)
                           for dr, dc, j in _crossing_stencil()[m])
            self._edges[(u, v)] = self._edges[(v, u)] = (bits[r, c, m], crossing)

    def is_simple_cells(self, cells) -> bool:
        """is_simple for a raw index sequence already known to be a cycle:
        one walk over its edges, each checked against the ones before it."""
        edges = self._edges
        seen = 0
        u = cells[-1]
        for v in cells:
            bit, crossing = edges[(u, v)]
            if crossing & seen:
                return False
            seen |= bit
            u = v
        return True

    def path_masks(self, cells) -> tuple[int, int]:
        """An open path's edge mask and the union of its edges' crossing
        masks.  Paths that close a cycle, each edge once, give a simple one
        iff the union of their crossing masks misses that of their edges."""
        edges = self._edges
        seen = crossed = 0
        for u, v in zip(cells, cells[1:]):
            bit, crossing = edges[(u, v)]
            seen |= bit
            crossed |= crossing
        return seen, crossed


@lru_cache(maxsize=8)
def crossing_table(board: BoardSpec) -> CrossingTable:
    return CrossingTable(board)
