import pytest

from knightcycles.analysis import EXPECTED_COUNTS
from knightcycles.board import (
    BoardSpec,
    DIHEDRAL_ELEMENTS,
    adjacency,
    apply_dihedral,
    coord_of,
    index_of,
    is_knight_move,
    normalize_translation,
)


class TestIndexing:
    def test_index_of_corners(self, board5):
        assert index_of((0, 0), board5) == 1
        assert index_of((4, 4), board5) == 25

    def test_index_of_interior(self, board5):
        assert index_of((1, 3), board5) == 9

    def test_index_of_rejects_off_board(self, board5):
        with pytest.raises(ValueError):
            index_of((-1, 0), board5)
        with pytest.raises(ValueError):
            index_of((0, 5), board5)

    def test_coord_of(self, board5, board6):
        assert coord_of(1, board5) == (0, 0)
        assert coord_of(18, board5) == (3, 2)
        assert coord_of(28, board6) == (4, 3)

    def test_coord_of_rejects_out_of_range(self, board5):
        for bad in (0, 26, -3):
            with pytest.raises(ValueError):
                coord_of(bad, board5)

    @pytest.mark.parametrize("n", [3, 5, 6, 9], ids=lambda n: f"{n}-{n}")
    def test_round_trip_every_cell(self, n):
        board = BoardSpec(n)
        for i in range(1, board.size + 1):
            assert index_of(coord_of(i, board), board) == i

    def test_degenerate_board_rejected(self):
        with pytest.raises(ValueError):
            BoardSpec(0)
        with pytest.raises(TypeError):  # square boards only
            BoardSpec(5, 7)

    def test_cycle_lengths_are_those_of_the_reference_table(self):
        """for_cycle_length is the one rule for k: it builds the (k+1)x(k+1)
        board exactly for the lengths of the reference count table."""
        accepted = []
        for k in range(-2, 41):
            try:
                board = BoardSpec.for_cycle_length(k)
            except ValueError as exc:
                assert str(exc) == (
                    f"no cycle length k={k}: want an even k within 4..16")
            else:
                assert board == BoardSpec(k + 1)
                accepted.append(k)
        assert accepted == sorted(EXPECTED_COUNTS)


class TestKnightMoves:
    def test_basic_offsets(self):
        assert is_knight_move((0, 0), (1, 2))
        assert is_knight_move((0, 0), (2, 1))
        assert not is_knight_move((0, 0), (1, 1))
        assert not is_knight_move((0, 0), (2, 2))
        assert not is_knight_move((0, 0), (0, 2))
        assert not is_knight_move((3, 3), (3, 3))

    def test_move_from_decoded_cells(self):
        # 17 -> 6 on a 5-wide board is (3,1) -> (1,0)
        assert is_knight_move((3, 1), (1, 0))

    def test_symmetric(self):
        pts = [(0, 0), (1, 2), (2, 4), (-1, 3), (5, 5)]
        for a in pts:
            for b in pts:
                assert is_knight_move(a, b) == is_knight_move(b, a)

    def test_invariant_under_symmetry_and_translation(self):
        pairs = [((0, 0), (1, 2)), ((0, 0), (2, 2)), ((3, 1), (1, 0)),
                 ((2, 5), (4, 4)), ((1, 1), (3, 2))]
        for elem in DIHEDRAL_ELEMENTS:
            for a, b in pairs:
                ta, tb = apply_dihedral([a, b], elem)
                assert is_knight_move(ta, tb) == is_knight_move(a, b)
        for dr, dc in ((3, -2), (-5, 11), (0, 1)):
            for a, b in pairs:
                sa = (a[0] + dr, a[1] + dc)
                sb = (b[0] + dr, b[1] + dc)
                assert is_knight_move(sa, sb) == is_knight_move(a, b)


class TestNeighbors:
    def test_corner_degree_two(self, board5):
        assert adjacency(board5)[1] == (8, 12)

    def test_center_degree_eight(self, board5):
        assert adjacency(board5)[13] == (2, 4, 6, 10, 16, 20, 22, 24)

    def test_ascending_and_consistent_with_predicate(self):
        """Each neighbour list is ascending and holds exactly the cells a
        knight move away, with no move wrapping across a row."""
        for board in (BoardSpec(6), BoardSpec(3), BoardSpec(7)):
            cells = range(1, board.size + 1)
            for i in cells:
                nbrs = adjacency(board)[i]
                assert list(nbrs) == sorted(nbrs)
                assert set(nbrs) == {
                    v for v in cells
                    if is_knight_move(coord_of(i, board), coord_of(v, board))}

    def test_degree_bounds_on_big_enough_boards(self):
        for n in range(5, 10):
            board = BoardSpec(n)
            degrees = [len(adjacency(board)[i])
                       for i in range(1, board.size + 1)]
            assert min(degrees) >= 2
            assert max(degrees) <= 8

    @pytest.mark.parametrize("n", range(3, 13))
    def test_edge_count_formula(self, n):
        board = BoardSpec(n)
        directed = sum(len(adjacency(board)[i]) for i in range(1, board.size + 1))
        assert directed == 2 * 4 * (n - 2) * (n - 1)


ASYMMETRIC = [(0, 0), (0, 3), (1, 0), (2, 2), (4, 1)]


class TestDihedral:
    def test_identity(self):
        assert apply_dihedral(ASYMMETRIC, "identity") == ASYMMETRIC

    def test_rot180_negates(self):
        assert apply_dihedral([(0, 0), (1, 2)], "rot180") == [(0, 0), (-1, -2)]

    def test_order_preserved(self):
        out = apply_dihedral(ASYMMETRIC, "rot90")
        assert len(out) == len(ASYMMETRIC)
        assert out[0] == (0, 0)
        assert out[1] == (3, 0)

    def test_unknown_element(self):
        with pytest.raises(ValueError):
            apply_dihedral(ASYMMETRIC, "rot45")

    def test_eight_distinct_images(self):
        images = {tuple(normalize_translation(apply_dihedral(ASYMMETRIC, e)))
                  for e in DIHEDRAL_ELEMENTS}
        assert len(images) == 8

    def test_group_closure(self):
        # applying any two elements in sequence matches some single element
        for e1 in DIHEDRAL_ELEMENTS:
            for e2 in DIHEDRAL_ELEMENTS:
                composed = apply_dihedral(apply_dihedral(ASYMMETRIC, e1), e2)
                assert any(composed == apply_dihedral(ASYMMETRIC, e)
                           for e in DIHEDRAL_ELEMENTS)

    def test_every_element_has_inverse(self):
        for e in DIHEDRAL_ELEMENTS:
            image = apply_dihedral(ASYMMETRIC, e)
            assert any(apply_dihedral(image, f) == ASYMMETRIC
                       for f in DIHEDRAL_ELEMENTS)


class TestNormalizeTranslation:
    def test_already_normalized(self):
        assert normalize_translation([(0, 0), (1, 2)]) == [(0, 0), (1, 2)]

    def test_subtracts_componentwise_minima(self):
        assert normalize_translation([(2, 3), (3, 5), (4, 3)]) == \
            [(0, 0), (1, 2), (2, 0)]

    def test_handles_negatives(self):
        assert normalize_translation([(-1, 4), (1, 3)]) == [(0, 1), (2, 0)]

    def test_idempotent_and_touches_axes(self):
        samples = [ASYMMETRIC, [(5, 5)], [(-3, -7), (-3, 2), (0, -7)],
                   [(1, 1), (2, 9), (7, 4)]]
        for pts in samples:
            out = normalize_translation(pts)
            assert normalize_translation(out) == out
            assert min(p[0] for p in out) == 0
            assert min(p[1] for p in out) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_translation([])
