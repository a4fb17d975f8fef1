import pytest
from hypothesis import given, settings, strategies as st

from knightcycles.board import BoardSpec, DIHEDRAL_ELEMENTS, apply_dihedral, \
    coord_of, index_of, normalize_translation
from knightcycles.cycles import (
    CycleSeq,
    CycleValidationError,
    _canonical_coords,
    canonical_cell_set,
    canonical_key,
    canonicalize,
    is_minimal,
    validate_cycle,
)
from conftest import CROSSING_K6, EQUIVALENT_K8_W5, MINIMAL_K8_W5, TWIN_K8_W6


class TestValidation:
    def test_known_good_w5(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        assert cycle.cells == MINIMAL_K8_W5

    def test_known_good_w6(self, board6):
        for seq in TWIN_K8_W6:
            assert validate_cycle(seq, board6).cells == seq

    def test_width_changes_validity(self):
        # the same numbers decoded 9-wide put 3 and 7 on one row
        with pytest.raises(CycleValidationError) as err:
            validate_cycle(TWIN_K8_W6[0], BoardSpec.square(9))
        assert "3->7" in str(err.value)
        assert err.value.position == 0

    def test_odd_length(self, board5):
        with pytest.raises(CycleValidationError, match="even"):
            validate_cycle((1, 8, 15, 24, 13), board5)

    def test_too_short(self, board5):
        with pytest.raises(CycleValidationError, match="at least 4"):
            validate_cycle((8, 1), board5)

    def test_duplicate_cell_names_position(self, board5):
        with pytest.raises(CycleValidationError) as err:
            validate_cycle((2, 9, 2, 9), board5)
        assert err.value.position == 2

    def test_bad_step_names_position(self, board5):
        # (3,2) -> (4,3) is a diagonal step, not a knight move
        with pytest.raises(CycleValidationError) as err:
            validate_cycle((2, 9, 18, 24), board5)
        assert err.value.position == 2
        # 4 -> 11 adds 7 = width + 2, a (1,2) move in index terms, but it
        # wraps from (0,3) to (2,0)
        with pytest.raises(CycleValidationError) as err:
            validate_cycle((4, 11, 2, 9), board5)
        assert err.value.position == 0

    def test_open_endpoints(self, board5):
        # 1-8-15-4 walks fine but 4 is not a knight move from 1
        with pytest.raises(CycleValidationError, match="close"):
            validate_cycle((1, 8, 15, 4), board5)

    def test_out_of_range_cell(self, board5):
        with pytest.raises(CycleValidationError) as err:
            validate_cycle((2, 9, 18, 26), board5)
        assert err.value.position == 3

    def test_first_fault_wins(self, board5):
        # 1 -> 2 is not a knight move, two positions before 30 leaves the board
        with pytest.raises(CycleValidationError) as err:
            validate_cycle((1, 2, 13, 30), board5)
        assert str(err.value) == "step 1->2 at position 0 is not a knight move"
        assert err.value.position == 0


class TestCanonicalize:
    def test_all_equivalent_placements_share_canonical(self, board5):
        for seq in EQUIVALENT_K8_W5:
            cycle = validate_cycle(seq, board5)
            assert canonicalize(cycle).cells == MINIMAL_K8_W5

    def test_minimal_is_fixed_point(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        assert canonicalize(cycle).cells == MINIMAL_K8_W5

    def test_rotated_start(self, board5):
        rotated = MINIMAL_K8_W5[-1:] + MINIMAL_K8_W5[:-1]
        cycle = validate_cycle(rotated, board5)
        assert canonicalize(cycle).cells == MINIMAL_K8_W5

    def test_fixed_point_for_every_small_class(self, keys_by_k):
        for k in (4, 6):
            board = BoardSpec.for_cycle_length(k)
            for key in keys_by_k(k):
                canon = canonicalize(CycleSeq(key, board))
                assert canon.cells == key
                assert canonicalize(canon).cells == key

    def test_orbit_soundness_exhaustive_k6(self, keys_by_k):
        """Every one of the 16k re-expressions of every length-6 class
        canonicalizes back to the class key."""
        k = 6
        board = BoardSpec.for_cycle_length(k)
        for key in keys_by_k(k):
            coords = [coord_of(i, board) for i in key]
            for elem in DIHEDRAL_ELEMENTS:
                pts = normalize_translation(apply_dihedral(coords, elem))
                idx = tuple(index_of(p, board) for p in pts)
                for start in range(k):
                    rotated = idx[start:] + idx[:start]
                    for variant in (rotated, rotated[:1] + rotated[1:][::-1]):
                        cycle = validate_cycle(variant, board)
                        assert canonicalize(cycle).cells == key

    def test_canonical_key_reencodes_on_standard_board(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        key = canonical_key(cycle)
        assert key.board == BoardSpec.square(9)
        # same placement, different numbering
        assert [coord_of(i, key.board) for i in key.cells] == \
            [coord_of(i, board5) for i in MINIMAL_K8_W5]

    def test_canonical_key_starts_at_minimum_touching_axes(self, keys_by_k):
        for k in (4, 6, 8):
            board = BoardSpec.for_cycle_length(k)
            for key in keys_by_k(k):
                assert key[0] == min(key)
                coords = [coord_of(i, board) for i in key]
                assert min(r for r, _ in coords) == 0
                assert min(c for _, c in coords) == 0


class TestIsMinimal:
    def test_minimal_placement(self, board5):
        assert is_minimal(validate_cycle(MINIMAL_K8_W5, board5))

    def test_equivalent_placements_are_not(self, board5):
        for seq in EQUIVALENT_K8_W5:
            assert not is_minimal(validate_cycle(seq, board5))

    def test_off_column_zero_is_never_minimal(self):
        # the minimal figure shifted one column right on a wider board
        board9 = BoardSpec.square(9)
        shifted = tuple(i + (i - 1) // 5 * 4 + 1 for i in MINIMAL_K8_W5)
        cycle = validate_cycle(shifted, board9)
        assert not is_minimal(cycle)
        assert min(c for _, c in cycle.coords()) > 0

    @pytest.mark.parametrize("k", [6, 8])
    def test_core_matches_oracle_on_every_reencoding(self, k, keys_by_k):
        """Every re-encoding of every class (8 symmetries x k starts x 2
        directions), on the standard board and shifted by one row or one
        column on a one-cell-larger board: is_minimal accepts exactly the
        oracle's canonical sequence (the same for every
        re-encoding, so computed once per class), once per class."""
        standard = BoardSpec.for_cycle_length(k)
        larger = BoardSpec.square(k + 2)
        placements = ((standard, (0, 0)), (larger, (0, 0)),
                      (larger, (1, 0)), (larger, (0, 1)))
        stabilizers = set()
        for key in keys_by_k(k):
            coords = [coord_of(i, standard) for i in key]
            oracle_coords = _canonical_coords(coords)
            for board, (dr, dc) in placements:
                oracle = tuple(index_of(p, board) for p in oracle_coords)
                accepted = set()
                fixed = 0
                for elem in DIHEDRAL_ELEMENTS:
                    pts = [(r + dr, c + dc) for r, c in
                           normalize_translation(apply_dihedral(coords, elem))]
                    idx = tuple(index_of(p, board) for p in pts)
                    for start in range(k):
                        rotated = idx[start:] + idx[:start]
                        for seq in (rotated, rotated[:1] + rotated[1:][::-1]):
                            ok = is_minimal(CycleSeq(seq, board))
                            assert ok == (seq == oracle), (seq, oracle)
                            if ok:
                                accepted.add(seq)
                                fixed += 1
                shifted = (dr, dc) != (0, 0)
                assert len(accepted) == (0 if shifted else 1)
                if not shifted:
                    stabilizers.add(fixed)
        # Classes with a non-trivial symmetry tie on a second image all the
        # way to the end of the sequence.
        assert stabilizers & {2, 4}


    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(data=st.data())
    def test_core_matches_oracle_on_random_reencodings(self, keys_by_k, data):
        """A random k=10 class on a random square board up to 3 cells larger
        than the standard one, in every symmetry, start and direction, both
        in the board's corner and translated by a random offset: is_minimal
        accepts exactly the oracle's canonical sequence, which only the
        corner placement holds; a random one of those
        re-encodings has the class's canonical form."""
        k = 10
        keys = keys_by_k(k)
        standard = BoardSpec.for_cycle_length(k)
        coords = [coord_of(i, standard)
                  for i in keys[data.draw(st.integers(0, len(keys) - 1))]]
        span = max(max(p) for p in coords)
        side = data.draw(st.integers(k + 1, k + 4))
        shift = (data.draw(st.integers(0, side - 1 - span)),
                 data.draw(st.integers(0, side - 1 - span)))
        board = BoardSpec.square(side)
        canonical = _canonical_coords(coords)
        oracle = tuple(index_of(p, board) for p in canonical)
        reencodings = []
        for dr, dc in {(0, 0), shift}:
            accepted = 0
            for elem in DIHEDRAL_ELEMENTS:
                pts = [(r + dr, c + dc) for r, c in
                       normalize_translation(apply_dihedral(coords, elem))]
                for start in range(k):
                    rotated = pts[start:] + pts[:start]
                    for moved in (rotated, rotated[:1] + rotated[:0:-1]):
                        seq = tuple(index_of(p, board) for p in moved)
                        ok = is_minimal(CycleSeq(seq, board))
                        assert ok == (seq == oracle), (seq, oracle)
                        accepted += ok
                        reencodings.append(moved)
            assert (accepted > 0) == ((dr, dc) == (0, 0))
        moved = data.draw(st.sampled_from(reencodings))
        assert _canonical_coords(moved) == canonical


class TestEquivalence:
    def test_all_eight_placements_equivalent(self, board5):
        cycles = [validate_cycle(s, board5)
                  for s in (MINIMAL_K8_W5,) + EQUIVALENT_K8_W5]
        for a in cycles:
            for b in cycles:
                assert canonical_key(a) == canonical_key(b)

    def test_twins_are_not_equivalent(self, board6):
        cycles = [validate_cycle(s, board6) for s in TWIN_K8_W6]
        for i in range(3):
            for j in range(3):
                assert ((canonical_key(cycles[i]) == canonical_key(cycles[j]))
                        == (i == j))

    def test_direction_reversal_is_equivalent(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        reverse = validate_cycle(MINIMAL_K8_W5[:1] + MINIMAL_K8_W5[1:][::-1],
                                 board5)
        assert canonical_key(cycle) == canonical_key(reverse)

    def test_different_lengths_never_equivalent(self, keys_by_k):
        a = CycleSeq(keys_by_k(4)[0], BoardSpec.square(5))
        b = CycleSeq(keys_by_k(6)[0], BoardSpec.square(7))
        assert canonical_key(a) != canonical_key(b)

    def test_equivalence_relation_on_k6_classes(self, keys_by_k):
        board = BoardSpec.square(7)
        cycles = [CycleSeq(key, board) for key in keys_by_k(6)]
        for c in cycles:
            assert canonical_key(c) == canonical_key(c)
        for a in cycles:
            for b in cycles:
                if a is not b:
                    assert canonical_key(a) != canonical_key(b)
                    assert canonical_key(b) != canonical_key(a)


class TestCellSet:
    def test_twins_share_cell_set_key(self, board6):
        keys = {canonical_cell_set(validate_cycle(s, board6)) for s in TWIN_K8_W6}
        assert len(keys) == 1

    def test_key_is_ascending_on_standard_board(self, board6):
        key = canonical_cell_set(validate_cycle(TWIN_K8_W6[0], board6))
        assert list(key) == sorted(key)
        assert all(1 <= i <= 81 for i in key)

    def test_invariant_under_canonicalization(self, board6):
        for seq in TWIN_K8_W6:
            cycle = validate_cycle(seq, board6)
            assert canonical_cell_set(canonicalize(cycle)) == \
                canonical_cell_set(cycle)
            assert canonical_cell_set(canonical_key(cycle)) == \
                canonical_cell_set(cycle)

    def test_all_k6_classes_have_distinct_keys(self, keys_by_k):
        board = BoardSpec.square(7)
        keys = {canonical_cell_set(CycleSeq(key, board)) for key in keys_by_k(6)}
        assert len(keys) == len(keys_by_k(6)) == 25

    def test_crossing_sample_is_a_valid_class(self, keys_by_k):
        assert CROSSING_K6 in keys_by_k(6)


class TestStartBound:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_canonical_start_within_bound(self, k, keys_by_k):
        for key in keys_by_k(k):
            assert key[0] <= k // 2 + 1
