import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knightcycles.board import BoardSpec, DIHEDRAL_ELEMENTS, KNIGHT_OFFSETS, \
    adjacency, apply_dihedral, coord_of, index_of, normalize_translation
from knightcycles.cycles import CycleSeq, validate_cycle
from knightcycles.geometry import crossing_table, is_simple, orientation, \
    segments_cross
from conftest import CROSSING_K6, MINIMAL_K8_W5


class TestOrientation:
    def test_collinear(self):
        assert orientation((0, 0), (1, 0), (2, 0)) == 0
        assert orientation((0, 0), (1, 2), (2, 4)) == 0

    def test_antisymmetry(self):
        assert orientation((0, 0), (1, 2), (2, 1)) == \
            -orientation((0, 0), (2, 1), (1, 2))
        assert orientation((0, 0), (1, 2), (2, 1)) != 0

    def test_antisymmetry_random_triples(self):
        pts = [(0, 0), (3, 1), (1, 4), (2, 2), (-1, 3), (5, 0)]
        for p in pts:
            for q in pts:
                for r in pts:
                    assert orientation(p, q, r) == -orientation(p, r, q)


class TestSegmentsCross:
    def test_proper_crossing(self):
        # the two knight moves out of adjacent corners cut at (1/2, 1)
        assert segments_cross(((0, 0), (1, 2)), ((1, 0), (0, 2)))

    def test_shared_endpoint_collinear_no_overlap(self):
        assert not segments_cross(((0, 0), (1, 2)), ((1, 2), (2, 4)))

    def test_disjoint(self):
        assert not segments_cross(((0, 0), (1, 2)), ((3, 3), (4, 1)))

    def test_shared_endpoint_transversal(self):
        assert not segments_cross(((0, 0), (1, 2)), ((0, 0), (2, 1)))

    def test_endpoint_on_interior(self):
        assert segments_cross(((0, 0), (2, 4)), ((1, 2), (3, 0)))

    def test_collinear_overlap(self):
        assert segments_cross(((0, 0), (2, 4)), ((1, 2), (3, 6)))
        assert segments_cross(((0, 0), (3, 0)), ((1, 0), (2, 0)))

    def test_identical_segments(self):
        assert segments_cross(((0, 0), (1, 2)), ((0, 0), (1, 2)))
        assert segments_cross(((0, 0), (1, 2)), ((1, 2), (0, 0)))

    def test_symmetric(self):
        cases = [(((0, 0), (1, 2)), ((1, 0), (0, 2))),
                 (((0, 0), (2, 4)), ((1, 2), (3, 6))),
                 (((0, 0), (1, 2)), ((3, 3), (4, 1)))]
        for s1, s2 in cases:
            assert segments_cross(s1, s2) == segments_cross(s2, s1)


class TestIsSimple:
    def test_every_length4_cycle_is_simple(self, keys_by_k):
        board = BoardSpec(5)
        for key in keys_by_k(4):
            assert is_simple(CycleSeq(key, board))

    def test_exactly_13_of_25_length6(self, keys_by_k):
        board = BoardSpec(7)
        simple = [key for key in keys_by_k(6) if is_simple(CycleSeq(key, board))]
        assert len(simple) == 13

    def test_crossing_sample(self):
        assert not is_simple(CycleSeq(CROSSING_K6, BoardSpec(7)))

    def test_invariant_under_symmetry(self, keys_by_k):
        board = BoardSpec(7)
        for key in keys_by_k(6):
            cycle = CycleSeq(key, board)
            expect = is_simple(cycle)
            coords = [coord_of(i, board) for i in key]
            for elem in DIHEDRAL_ELEMENTS:
                pts = normalize_translation(apply_dihedral(coords, elem))
                image = validate_cycle([index_of(p, board) for p in pts], board)
                assert is_simple(image) == expect

    def test_nonadjacent_pair_count(self):
        # the non-adjacent pair loop is what distinguishes k(k-3)/2 pairs
        for k in (4, 6, 8, 12):
            nonadjacent = sum(
                1 for i in range(k) for j in range(i + 1, k)
                if j != i + 1 and not (i == 0 and j == k - 1))
            assert nonadjacent == k * (k - 3) // 2


class TestKnightSegmentLatticeProperty:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_no_interior_lattice_points(self, n):
        board = BoardSpec(n)
        adj = adjacency(board)
        for u in range(1, board.size + 1):
            for v in adj[u]:
                if v > u:
                    (r1, c1), (r2, c2) = coord_of(u, board), coord_of(v, board)
                    assert math.gcd(abs(r2 - r1), abs(c2 - c1)) == 1


# Rational-arithmetic reference: solve the two supporting lines exactly and
# classify every shared point, entirely independent of the sign predicates.

def _oracle_segments_share_noncommon_point(s1, s2) -> bool:
    (a, b), (c, d) = s1, s2
    shared = {a, b} & {c, d}
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det != 0:
        # unique line crossing at a + t*d1 = c + u*d2
        rhs = (c[0] - a[0], c[1] - a[1])
        t = Fraction(rhs[0] * d2[1] - rhs[1] * d2[0], det)
        u = Fraction(rhs[0] * d1[1] - rhs[1] * d1[0], det)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return False
        point = (a[0] + t * d1[0], a[1] + t * d1[1])
        return point not in {tuple(map(Fraction, p)) for p in shared}
    # parallel: distinct lines never meet
    if (c[0] - a[0]) * d1[1] - (c[1] - a[1]) * d1[0] != 0:
        return False
    # same line: project onto it and intersect parameter intervals
    def param(p):
        if d1[0] != 0:
            return Fraction(p[0] - a[0], d1[0])
        return Fraction(p[1] - a[1], d1[1])
    lo1, hi1 = sorted((Fraction(0), Fraction(1)))
    lo2, hi2 = sorted((param(c), param(d)))
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return False
    if lo < hi:
        return True
    point = (a[0] + lo * d1[0], a[1] + lo * d1[1])
    return point not in {tuple(map(Fraction, p)) for p in shared}


def _oracle_is_simple(cycle: CycleSeq) -> bool:
    pts = cycle.coords()
    k = len(pts)
    edges = [(pts[i], pts[(i + 1) % k]) for i in range(k)]
    return not any(
        _oracle_segments_share_noncommon_point(edges[i], edges[j])
        for i in range(k) for j in range(i + 1, k))


_points = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _segments_from(p):
    """A knight move or any other non-degenerate segment starting at p."""
    knight = st.sampled_from(KNIGHT_OFFSETS).map(
        lambda d: (p, (p[0] + d[0], p[1] + d[1])))
    other = _points.filter(lambda q: q != p).map(lambda q: (p, q))
    return st.one_of(knight, other)


_segments = _points.flatmap(_segments_from)
# Independent pairs, and pairs whose second segment leaves from an endpoint
# of the first.
_segment_pairs = st.one_of(
    st.tuples(_segments, _segments),
    _segments.flatmap(lambda s1: st.sampled_from(s1).flatmap(
        _segments_from).map(lambda s2: (s1, s2))))


class TestOracleAgreement:
    @settings(derandomize=True, database=None, max_examples=500,
              deadline=None)
    @given(_segment_pairs)
    def test_segments_cross_against_oracle_random(self, pair):
        s1, s2 = pair
        assert segments_cross(s1, s2) == \
            _oracle_segments_share_noncommon_point(s1, s2)
        assert segments_cross(s2, s1) == segments_cross(s1, s2)

    def test_segments_cross_against_oracle_grid(self):
        pts = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (1, 3)]
        segs = [(p, q) for p in pts for q in pts if p < q]
        for s1 in segs:
            for s2 in segs:
                assert segments_cross(s1, s2) == \
                    _oracle_segments_share_noncommon_point(s1, s2), (s1, s2)

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_is_simple_against_oracle_all_classes(self, k, keys_by_k):
        board = BoardSpec.for_cycle_length(k)
        for key in keys_by_k(k):
            cycle = CycleSeq(key, board)
            assert is_simple(cycle) == _oracle_is_simple(cycle)


class TestCrossingTable:
    def test_matches_is_simple(self, keys_by_k):
        """Every class up to k=10; at k=8 also every start and both
        directions, so that non-canonical orderings are covered."""
        for k in (6, 8, 10):
            board = BoardSpec.for_cycle_length(k)
            table = crossing_table(board)
            for key in keys_by_k(k):
                expected = is_simple(CycleSeq(key, board))
                orderings = [key]
                if k == 8:
                    orderings = [key[i:] + key[:i] for i in range(k)]
                    orderings += [seq[::-1] for seq in orderings]
                for seq in orderings:
                    assert table.is_simple_cells(seq) == expected

    @pytest.mark.parametrize("side", [
        3, 4, 5, 9, 13, pytest.param(17, marks=pytest.mark.slow)])
    def test_equals_the_all_pairs_table(self, side):
        """The build translates one stencil of crossing edges to every edge
        and drops the crossers that leave the board; its masks equal those
        from testing every pair of edges, on small boards where most of the
        stencil falls off as on the k=16 board."""
        board = BoardSpec(side)
        table = crossing_table(board)
        adj = adjacency(board)
        edges = [(u, v) for u in range(1, board.size + 1)
                 for v in adj[u] if v > u]
        segs = {e: (coord_of(e[0], board), coord_of(e[1], board))
                for e in edges}
        for e in edges:
            expected = 0
            for f in edges:
                if f != e and segments_cross(segs[e], segs[f]):
                    expected |= table._edges[f][0]
            assert table._edges[e][1] == expected
            assert table._edges[e[::-1]] == table._edges[e]

    def test_cached_per_board(self):
        board = BoardSpec(7)
        assert crossing_table(board) is crossing_table(board)

    def test_minimal_sample(self, board5):
        table = crossing_table(board5)
        assert table.is_simple_cells(MINIMAL_K8_W5) == \
            is_simple(validate_cycle(MINIMAL_K8_W5, board5))
