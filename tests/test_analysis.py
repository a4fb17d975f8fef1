import os
import shutil
import stat

import pytest

from knightcycles.analysis import (
    EXPECTED_COUNTS,
    CycleFileWriter,
    ParseError,
    TwinGroup,
    group_geometric_twins,
    read_cycle_header,
    read_cycles,
    render,
    verify_tables,
    write_cycles,
)
from knightcycles.board import BoardSpec
from knightcycles.cycles import canonical_key, validate_cycle
from conftest import CROSSING_K6, MINIMAL_K8_W5, TWIN_K8_W6


class TestTwins:
    def test_no_twins_at_length6(self, keys_by_k):
        assert group_geometric_twins(keys_by_k(6)) == []

    def test_single_input_gives_nothing(self, keys_by_k):
        assert group_geometric_twins([keys_by_k(6)[0]]) == []

    def test_length8_has_exactly_the_known_family(self, keys_by_k, board6):
        groups = group_geometric_twins(keys_by_k(8))
        assert len(groups) == 1
        expected_members = tuple(sorted(
            canonical_key(validate_cycle(seq, board6)).cells
            for seq in TWIN_K8_W6))
        assert groups[0].members == expected_members
        assert len(groups[0].members) == 3

    def test_twin_totals_account_for_every_class(self, keys_by_k):
        keys = keys_by_k(8)
        groups = group_geometric_twins(keys)
        grouped = sum(len(g.members) for g in groups)
        from knightcycles.cycles import CycleSeq, canonical_cell_set
        board = BoardSpec.square(9)
        all_sets = {canonical_cell_set(CycleSeq(key, board)) for key in keys}
        singletons = len(all_sets) - len(groups)
        assert grouped + singletons == 480

    def test_mixed_lengths_rejected(self, keys_by_k):
        with pytest.raises(ValueError, match="length"):
            group_geometric_twins([keys_by_k(6)[0], keys_by_k(8)[0]])

    def test_groups_sorted_by_key(self, keys_by_k):
        groups = group_geometric_twins(keys_by_k(8))
        keys = [g.key for g in groups]
        assert keys == sorted(keys)


class TestVerifyTables:
    def test_passes_up_to_length8(self):
        rows = []
        report = verify_tables(8, "both", on_row=rows.append)
        assert report.passed
        assert len(rows) == 6  # three lengths x two engines
        assert {r.k for r in rows} == {4, 6, 8}
        assert report.failures() == []

    def test_single_algorithm(self):
        report = verify_tables(6, "mitm")
        assert [r.algorithm for r in report.rows] == ["mitm", "mitm"]
        assert report.passed

    def test_corrupted_expectation_is_named(self, monkeypatch):
        monkeypatch.setitem(EXPECTED_COUNTS, 6, (26, 13))
        report = verify_tables(6, "dfs")
        assert not report.passed
        failures = report.failures()
        assert any("k=6" in f and "26" in f and "25" in f for f in failures)

    @pytest.mark.parametrize("bad", [3, 18, 7])
    def test_rejects_bad_max_length(self, bad):
        with pytest.raises(ValueError):
            verify_tables(bad)


class TestCycleFiles:
    def test_round_trip(self, tmp_path, keys_by_k):
        path = tmp_path / "k4.cycles"
        count = write_cycles(keys_by_k(4), path)
        assert count == 3
        back = [c.cells for c in read_cycles(path)]
        assert back == list(keys_by_k(4))

    def test_exact_bytes(self, tmp_path, keys_by_k):
        path = tmp_path / "k4.cycles"
        write_cycles(keys_by_k(4), path)
        expected = (
            "KNIGHT-CYCLES v1 k=4 board=5x5 count=3 filter=all\n"
            "1 8 19 12\n"
            "2 9 18 11\n"
            "2 11 22 13\n"
        )
        assert path.read_bytes() == expected.encode()

    def test_header_carries_count_25(self, tmp_path, keys_by_k):
        path = tmp_path / "k6.cycles"
        write_cycles(keys_by_k(6), path)
        header = read_cycle_header(path.read_text().splitlines()[0])
        assert header.count == 25
        assert header.k == 6
        assert header.board == BoardSpec.square(7)

    def test_count_mismatch_detected(self, tmp_path, keys_by_k):
        path = tmp_path / "bad.cycles"
        write_cycles(keys_by_k(4), path)
        text = path.read_text().replace("count=3", "count=2")
        path.write_text(text)
        with pytest.raises(ParseError, match="count"):
            list(read_cycles(path))

    def test_truncated_body_detected(self, tmp_path, keys_by_k):
        path = tmp_path / "short.cycles"
        write_cycles(keys_by_k(4), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError, match="count"):
            list(read_cycles(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.cycles"
        path.write_text("SOMETHING ELSE\n")
        with pytest.raises(ParseError) as err:
            list(read_cycles(path))
        assert err.value.line == 1

    def test_non_cycle_line_reported_with_number(self, tmp_path, keys_by_k):
        path = tmp_path / "broken.cycles"
        write_cycles(keys_by_k(4), path)
        lines = path.read_text().splitlines()
        lines[2] = "1 2 3 4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_cycles(path))
        assert err.value.line == 3

    def test_out_of_range_index(self, tmp_path, keys_by_k):
        path = tmp_path / "range.cycles"
        write_cycles(keys_by_k(4), path)
        lines = path.read_text().splitlines()
        lines[1] = "1 8 15 99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_cycles(path))
        assert err.value.line == 2

    def test_writer_rejects_unsorted(self, tmp_path, keys_by_k):
        keys = list(keys_by_k(4))
        with pytest.raises(ValueError, match="ascending"):
            write_cycles([keys[1], keys[0]], tmp_path / "x.cycles")
        assert not (tmp_path / "x.cycles").exists()

    def test_empty_listing_needs_length(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_cycles([], tmp_path / "empty.cycles")
        count = write_cycles([], tmp_path / "empty.cycles", k=6)
        assert count == 0
        assert list(read_cycles(tmp_path / "empty.cycles")) == []

    def test_writer_abort_leaves_no_temp_files(self, tmp_path, keys_by_k):
        writer = CycleFileWriter(tmp_path / "a.cycles", 4)
        writer.write(keys_by_k(4)[0])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_failed_close_keeps_previous_listing(self, tmp_path, keys_by_k,
                                                 monkeypatch):
        path = tmp_path / "x.cycles"
        write_cycles(keys_by_k(6), path)
        previous = path.read_bytes()

        def copy_then_fail(src, dst):
            dst.write(src.read(10))
            raise OSError("disk full")

        monkeypatch.setattr(shutil, "copyfileobj", copy_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_cycles(keys_by_k(8), path)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["x.cycles"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_listing_mode_follows_umask(self, tmp_path, keys_by_k, umask):
        old = os.umask(umask)
        try:
            write_cycles(keys_by_k(4), tmp_path / "x.cycles")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "x.cycles").stat().st_mode) == 0o666 & ~umask


class TestRender:
    def test_ascii_golden(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        expected = (
            ". 1 . . .\n"
            "7 . . 2 .\n"
            ". . 8 . 4\n"
            ". 6 3 . .\n"
            ". . . 5 .\n"
        )
        assert render(cycle, "ascii") == expected

    def test_svg_polyline_closed(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        svg = render(cycle, "svg")
        assert svg.startswith("<svg ")
        (points,) = [line for line in svg.splitlines() if "polyline" in line]
        coords = points.split('points="')[1].split('"')[0].split()
        assert len(coords) == 9
        assert coords[0] == coords[-1]

    def test_svg_affine_relation_under_rot180(self, board5):
        from knightcycles.board import apply_dihedral, normalize_translation, index_of

        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        pts = normalize_translation(apply_dihedral(cycle.coords(), "rot180"))
        image = validate_cycle([index_of(p, board5) for p in pts], board5)

        def polyline(doc):
            (line,) = [l for l in doc.splitlines() if "polyline" in l]
            raw = line.split('points="')[1].split('"')[0].split()
            return [tuple(float(v) for v in p.split(",")) for p in raw]

        base = polyline(render(cycle, "svg"))
        flipped = polyline(render(image, "svg"))
        # rot180 on a 5x5 board maps center (x, y) to (5-x, 5-y)
        assert flipped == [(5.0 - x, 5.0 - y) for x, y in base]

    def test_crossing_cycle_renders(self):
        cycle = validate_cycle(CROSSING_K6, BoardSpec.square(7))
        assert "polyline" in render(cycle, "svg")
        assert render(cycle, "ascii").count("\n") == 7

    def test_length4_segments(self, keys_by_k):
        cycle = validate_cycle(keys_by_k(4)[0], BoardSpec.square(5))
        svg = render(cycle, "svg")
        (line,) = [l for l in svg.splitlines() if "polyline" in l]
        assert len(line.split('points="')[1].split('"')[0].split()) == 5

    def test_unknown_format(self, board5):
        with pytest.raises(ValueError):
            render(validate_cycle(MINIMAL_K8_W5, board5), "png")

    def test_deterministic(self, board5):
        cycle = validate_cycle(MINIMAL_K8_W5, board5)
        assert render(cycle, "svg") == render(cycle, "svg")
        assert render(cycle, "ascii") == render(cycle, "ascii")
