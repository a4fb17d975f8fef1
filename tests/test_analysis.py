import os
import shutil
import stat

import pytest

from knightcycles import analysis, cli
from knightcycles.analysis import (
    EXPECTED_COUNTS,
    CycleFileWriter,
    ParseError,
    TwinGroup,
    group_geometric_twins,
    read_cycle_header,
    read_cycles,
    render,
    write_cycles,
)
from knightcycles.board import BoardSpec
from knightcycles.cycles import CycleSeq, canonical_key, knight_moves, validate_cycle
from knightcycles.geometry import is_simple
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
        from knightcycles.cycles import canonical_cell_set
        all_sets = {canonical_cell_set(key) for key in keys}
        singletons = len(all_sets) - len(groups)
        assert grouped + singletons == 480

    def test_length10_group_sizes(self, keys_by_k):
        groups = group_geometric_twins(keys_by_k(10))
        sizes = [len(g.members) for g in groups]
        assert (len(groups), sum(sizes), max(sizes)) == (492, 1067, 6)

    def test_mixed_lengths_group_each_length_on_its_own(self, keys_by_k):
        """The k=6 classes have no twins, so with the k=8 classes they give
        the k=8 groups alone, whichever length comes first."""
        alone = group_geometric_twins(keys_by_k(8))
        assert group_geometric_twins([*keys_by_k(6), *keys_by_k(8)]) == alone
        assert group_geometric_twins([*keys_by_k(8), *keys_by_k(6)]) == alone

    def test_groups_sorted_by_key(self, keys_by_k):
        groups = group_geometric_twins(keys_by_k(8))
        keys = [g.key for g in groups]
        assert keys == sorted(keys)


class TestVerifyTables:
    """`verify` compares both engines with EXPECTED_COUNTS."""

    def test_corrupted_expectation_is_named(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPECTED_COUNTS, 6, (26, 13))
        assert cli.main(["verify", "--max-length", "6"]) == 1
        assert capsys.readouterr().err == (
            "MISMATCH: k=6 dfs: expected 26 classes, got 25\n"
            "MISMATCH: k=6 mitm: expected 26 classes, got 25\n")
        monkeypatch.setitem(EXPECTED_COUNTS, 6, (25, 14))
        assert cli.main(["verify", "--max-length", "6"]) == 1
        assert capsys.readouterr().err == (
            "MISMATCH: k=6 dfs: expected 14 simple, got 13\n"
            "MISMATCH: k=6 mitm: expected 14 simple, got 13\n")

    @pytest.mark.parametrize("bad", [3, 18, 7])
    def test_rejects_bad_max_length(self, bad, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError(f"enumerated for --max-length {bad}")

        monkeypatch.setattr(cli, "enumerate_cycles", never)
        assert cli.main(["verify", "--max-length", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: no cycle length k={bad}: want an even k within 4..16\n")


class TestCycleFiles:
    def test_round_trip(self, tmp_path, keys_by_k):
        path = tmp_path / "k4.cycles"
        count = write_cycles(keys_by_k(4), path, 4)
        assert count == 3
        back = [c.cells for c in read_cycles(path)]
        assert back == list(keys_by_k(4))

    def test_exact_bytes(self, tmp_path, keys_by_k):
        path = tmp_path / "k4.cycles"
        write_cycles(keys_by_k(4), path, 4)
        expected = (
            "KNIGHT-CYCLES v1 k=4 board=5x5 count=3 filter=all\n"
            "1 8 19 12\n"
            "2 9 18 11\n"
            "2 11 22 13\n"
        )
        assert path.read_bytes() == expected.encode()

    def test_header_carries_count_25(self, tmp_path, keys_by_k):
        path = tmp_path / "k6.cycles"
        write_cycles(keys_by_k(6), path, 6)
        header = read_cycle_header(path.read_text().splitlines()[0])
        assert header.count == 25
        assert header.k == 6
        assert header.board == BoardSpec(7)

    def test_count_mismatch_detected(self, tmp_path, keys_by_k):
        path = tmp_path / "bad.cycles"
        write_cycles(keys_by_k(4), path, 4)
        text = path.read_text().replace("count=3", "count=2")
        path.write_text(text)
        with pytest.raises(ParseError, match="count"):
            list(read_cycles(path))

    def test_truncated_body_detected(self, tmp_path, keys_by_k):
        path = tmp_path / "short.cycles"
        write_cycles(keys_by_k(4), path, 4)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError, match="count"):
            list(read_cycles(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.cycles"
        for header in ("SOMETHING ELSE",
                       # a board other than the (k+1) x (k+1) one for k
                       "KNIGHT-CYCLES v1 k=12 board=40x40 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=4 board=6x5 count=0 filter=simple",
                       # lengths outside the even 4..16 of the count table
                       "KNIGHT-CYCLES v1 k=18 board=19x19 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=2 board=3x3 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=5 board=6x6 count=0 filter=all",
                       # fields the writer never writes that way
                       "KNIGHT-CYCLES v1 k=+4 board=5x5 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=4 board=05x5 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=4  board=5x5 count=0 filter=all",
                       "KNIGHT-CYCLES v1 board=5x5 k=4 count=0 filter=all",
                       "KNIGHT-CYCLES v1 k=4 board=5x5 count=00 filter=all",
                       "KNIGHT-CYCLES v1 k=4 board=5x5 count=-1 filter=all",
                       "KNIGHT-CYCLES v1 k=4 board=5x5 count=0 filter=all\r"):
            path.write_bytes(header.encode() + b"\n")
            with pytest.raises(ParseError) as err:
                list(read_cycles(path))
            assert str(err.value).startswith("line 1: ")

    def test_non_cycle_line_reported_with_number(self, tmp_path, keys_by_k):
        path = tmp_path / "broken.cycles"
        write_cycles(keys_by_k(4), path, 4)
        lines = path.read_text().splitlines()
        assert lines[2] == "2 9 18 11"
        for bad in ("1 2 3 4", "1 8 x 12",
                    # 2 9 18 11 in forms the writer never writes
                    "2 9 18 11 ", "2 9  18 11", "2\t9 18 11", "+2 9 18 11",
                    "02 9 18 11", "2 9 1_8 11", "2 9 18 11\r",
                    # Arabic-Indic digits
                    "\u0662 \u0669 \u0661\u0668 \u0661\u0661",
                    # in the writer's form, but with a 0 or a negative cell
                    "0 9 18 11", "-2 9 18 11",
                    # one cell too few or too many
                    "2 9 18", "2 9 18 11 4"):
            lines[2] = bad
            path.write_bytes(("\n".join(lines) + "\n").encode())
            with pytest.raises(ParseError) as err:
                list(read_cycles(path))
            assert str(err.value).startswith("line 3: ")

    def test_only_the_writers_bytes_are_read(self, tmp_path, keys_by_k, monkeypatch):
        """Every one-place edit of the k=4 listing, a byte replaced by or an
        insertion of one of these near misses, is rejected with ParseError
        or leaves the bytes the writer wrote.  Read one line a chunk, each edit
        yields the same cycles, and fails with the same message and line, as
        at the default chunk size."""
        path = tmp_path / "k4.cycles"
        write_cycles(keys_by_k(4), path, 4)
        original = path.read_bytes()
        edits = (b" ", b"  ", b"\r", b"\t", b"0", b"+", b"_", b"\n", b"",
                 b"\xff", "\u0662".encode(), b"1", b"9")

        def outcome():
            cells = []
            try:
                cells.extend(cycle.cells for cycle in read_cycles(path))
            except ParseError as exc:
                return cells, str(exc)
            return cells, None

        for at in range(len(original) + 1):
            for edit in edits:
                for data in (original[:at] + edit + original[at:],
                             original[:at] + edit + original[at + 1:]):
                    path.write_bytes(data)
                    chunked = outcome()
                    with monkeypatch.context() as patch:
                        patch.setattr(analysis, "_CHUNK", 1)
                        assert outcome() == chunked
                    if chunked[1] is not None:  # rejected with ParseError
                        continue
                    assert data == original

    def test_simple_claim_names_the_crossing_line(self, tmp_path, keys_by_k,
                                                  monkeypatch):
        """The 13 simple k=6 classes and, in its sorted place, the crossing
        CROSSING_K6, tagged filter=simple: the reader yields the cycles above
        it and names its line, at the default chunk size and one line a
        chunk.  So it does for CROSSING_K6 walked back, which is not
        canonical either: the crossing is named first.  Tagged filter=all,
        the body with CROSSING_K6 reads whole."""
        board = BoardSpec.for_cycle_length(6)
        simple = [cells for cells in keys_by_k(6)
                  if is_simple(CycleSeq(cells, board))]
        assert len(simple) == 13
        path = tmp_path / "k6.cycles"
        for crossed in ((1, 16, 3, 18, 5, 10), CROSSING_K6):  # CROSSING_K6's body last
            body = sorted([*simple, crossed])
            at, flawed = body.index(crossed), ",".join(map(str, crossed))
            write_cycles(body, path, 6, filter_tag="simple")
            for chunk in (analysis._CHUNK, 1):
                read = []
                with monkeypatch.context() as patch:
                    patch.setattr(analysis, "_CHUNK", chunk)
                    with pytest.raises(ParseError, match=f"not simple: {flawed}$") as err:
                        read.extend(cycle.cells for cycle in read_cycles(path))
                assert str(err.value).startswith(f"line {at + 2}: ")
                assert read == body[:at]
        write_cycles(body, path, 6, filter_tag="all")
        assert [cycle.cells for cycle in read_cycles(path)] == body

    def test_out_of_range_index(self, tmp_path, keys_by_k):
        path = tmp_path / "range.cycles"
        write_cycles(keys_by_k(4), path, 4)
        lines = path.read_text().splitlines()
        lines[1] = "1 8 15 99"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            list(read_cycles(path))
        assert str(err.value).startswith("line 2: ")

    @pytest.mark.parametrize("edit", ["swapped pair", "repeated line"])
    def test_unordered_body_reported_with_number(self, tmp_path, keys_by_k, edit):
        path = tmp_path / "order.cycles"
        write_cycles(keys_by_k(4), path, 4)
        lines = path.read_text().splitlines()
        if edit == "swapped pair":
            lines[2], lines[3] = lines[3], lines[2]
        else:
            lines[3] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="ascending") as err:
            list(read_cycles(path))
        assert str(err.value).startswith("line 4: ")

    def test_writer_rejects_unsorted(self, tmp_path, keys_by_k):
        keys = list(keys_by_k(4))
        with pytest.raises(ValueError, match="ascending"):
            write_cycles([keys[1], keys[0]], tmp_path / "x.cycles", 4)
        assert not (tmp_path / "x.cycles").exists()
        with pytest.raises(ValueError, match="filter tag"):
            CycleFileWriter(tmp_path / "x.cycles", 4, "both")
        assert not (tmp_path / "x.cycles").exists()
        with pytest.raises(ValueError, match="expected 4 cells per cycle, got 3"):
            with CycleFileWriter(tmp_path / "x.cycles", 4) as writer:
                writer.write(keys[0][:3])
        assert list(tmp_path.iterdir()) == []

    def test_empty_listing_needs_length(self, tmp_path):
        with pytest.raises(TypeError):  # k is never guessed
            write_cycles([], tmp_path / "empty.cycles")
        for k in (2, 3, 18):  # lengths the reader refuses: nothing is written
            with pytest.raises(ValueError, match="length"):
                write_cycles([], tmp_path / "empty.cycles", k=k)
            assert list(tmp_path.iterdir()) == []
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
        write_cycles(keys_by_k(6), path, 6)
        previous = path.read_bytes()

        def copy_then_fail(src, dst):
            dst.write(src.read(10))
            raise OSError("disk full")

        monkeypatch.setattr(shutil, "copyfileobj", copy_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_cycles(keys_by_k(8), path, 8)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["x.cycles"]

    @pytest.mark.parametrize("fail", [False, True])
    def test_abort_after_close_is_a_no_op(self, tmp_path, keys_by_k, monkeypatch,
                                          fail):
        def copy_then_fail(src, dst):
            dst.write(src.read(10))
            raise OSError("disk full")

        if fail:
            monkeypatch.setattr(shutil, "copyfileobj", copy_then_fail)
        writer = CycleFileWriter(tmp_path / "x.cycles", 4)
        writer.write(keys_by_k(4)[0])
        if fail:
            with pytest.raises(OSError, match="disk full"):
                writer.close()
        else:
            writer.close()
        writer.abort()
        expected = [] if fail else ["x.cycles"]
        assert [p.name for p in tmp_path.iterdir()] == expected

    def test_close_inside_with_publishes_once(self, tmp_path, keys_by_k):
        path = tmp_path / "x.cycles"
        with CycleFileWriter(path, 6) as writer:
            for cells in keys_by_k(6):
                writer.write(cells)
            writer.close()
        assert read_cycle_header(path.read_text().split("\n")[0]).count == 25
        assert [p.name for p in tmp_path.iterdir()] == ["x.cycles"]

    def test_close_after_abort_is_a_no_op(self, tmp_path, keys_by_k):
        writer = CycleFileWriter(tmp_path / "x.cycles", 6)
        writer.write(keys_by_k(6)[0])
        writer.abort()
        writer.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_listing_mode_follows_umask(self, tmp_path, keys_by_k, umask):
        old = os.umask(umask)
        try:
            write_cycles(keys_by_k(4), tmp_path / "x.cycles", 4)
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "x.cycles").stat().st_mode) == 0o666 & ~umask


class TestChunkBoundaries:
    """The reader tests the body a chunk of lines at a time.  A flaw at the
    first, middle or last line of a chunk, or in a pair of lines across two
    chunks, is named at its own line after exactly the cycles before it, and
    the outcome does not depend on the chunk size."""

    K = 10  # 12,000 lines, ~84 chunks

    @pytest.fixture(scope="class")
    def listing(self, keys_by_k, tmp_path_factory):
        """The k=10 listing's header, its body lines with their LFs, and the
        index of each chunk's first line."""
        path = tmp_path_factory.mktemp("chunks") / "k10.cycles"
        write_cycles(keys_by_k(self.K), path, self.K)
        with open(path) as fh:
            header = fh.readline()
            starts = [0]
            for text in analysis._line_chunks(fh, 1 << 20):
                starts.append(starts[-1] + text.count("\n"))
        body = path.read_text().splitlines(keepends=True)[1:]
        assert len(starts) > 75 and starts[-1] == len(body)
        return header, body, starts[:-1]

    @staticmethod
    def positions(starts, body):
        """First, middle and last line of the first, a middle and the last
        chunk."""
        ends = [*starts[1:], len(body)]
        for c in (0, len(starts) // 2, len(starts) - 1):
            yield from (starts[c], (starts[c] + ends[c]) // 2, ends[c] - 1)

    @staticmethod
    def outcome(path, monkeypatch, chunk):
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        cells = []
        with pytest.raises(ParseError) as err:
            cells.extend(cycle.cells for cycle in read_cycles(path))
        return cells, str(err.value)

    def assert_flaw_at(self, tmp_path, monkeypatch, header, body, flaw, message):
        """The edited listing yields body[:flaw], then fails at line flaw + 2
        with ``message``, for the default, a one-line and a whole-file chunk."""
        path = tmp_path / "edited.cycles"
        path.write_text(header + "".join(body))
        cells, error = self.outcome(path, monkeypatch, analysis._CHUNK)
        assert cells == [tuple(map(int, text.split())) for text in body[:flaw]]
        assert error.startswith(f"line {flaw + 2}: {message}"), error
        for chunk in (1, 1 << 20):
            assert self.outcome(path, monkeypatch, chunk) == (cells, error)

    @pytest.mark.parametrize("edit", ["malformed", "too long", "out of range",
                                      "not a move", "not closed", "repeated",
                                      "not canonical"])
    def test_one_line_edit(self, listing, tmp_path, monkeypatch, edit):
        header, body, starts = listing
        size = (self.K + 1) ** 2
        moves = knight_moves(BoardSpec(self.K + 1))
        for at in self.positions(starts, body):
            cells = list(map(int, body[at].split()))
            if edit == "malformed":
                text, message = body[at].replace(" ", "  ", 1), "malformed line"
            elif edit == "too long":  # 2k cells: named, cut to the longest line
                text = body[at][:-1] + " " + body[at]
                message = f"malformed line {text[:4 * self.K]!r}"
            else:
                if edit == "out of range":
                    cells[-1] = size + 1
                    message = f"cell {size + 1} at position {self.K - 1} outside board"
                elif edit == "not a move":  # a larger last cell keeps the order
                    cells[-1] = min(c for c in range(cells[-1] + 1, size + 1)
                                    if (cells[-2], c) not in moves and c not in cells)
                    message = "step"
                elif edit == "not closed":  # the last step holds, the closing one not
                    cells[-1] = max(c for c in range(1, size + 1)
                                    if (cells[-2], c) in moves
                                    and (c, cells[0]) not in moves and c not in cells)
                    message = "endpoints"
                elif edit == "not canonical":  # its class walked back: cells[1] > cells[-1]
                    cells[1:] = cells[:0:-1]
                    message = f"not canonical: {','.join(map(str, cells))}"
                else:  # the cell two back is a knight move from the one before
                    cells[-1] = cells[-3]
                    message = f"cell {cells[-3]} repeated at position {self.K - 1}"
                text = " ".join(map(str, cells)) + "\n"
            tail = body[at + 1:]
            if edit == "not canonical":  # drop the lines it sorts above
                tail = [line for line in tail if list(map(int, line.split())) > cells]
            edited = body[:at] + [text] + tail
            self.assert_flaw_at(tmp_path, monkeypatch, header, edited, at,
                                message)

    @pytest.mark.parametrize("edit", ["swapped pair", "duplicated line"])
    def test_pair_edit(self, listing, tmp_path, monkeypatch, edit):
        """Two lines out of order, the first ending one chunk and the second
        starting the next, or both within a chunk."""
        header, body, starts = listing
        for at in (starts[1] - 1, starts[len(starts) // 2] - 1, starts[-1] - 1,
                   starts[2]):
            if edit == "swapped pair":
                edited = body[:at] + [body[at + 1], body[at]] + body[at + 2:]
            else:
                edited = body[:at + 1] + [body[at]] + body[at + 1:]
            self.assert_flaw_at(tmp_path, monkeypatch, header, edited, at + 1,
                                "cycles must be strictly ascending")

    def test_dropped_final_lf(self, listing, tmp_path, monkeypatch):
        header, body, _ = listing
        edited = body[:-1] + [body[-1].rstrip("\n")]
        self.assert_flaw_at(tmp_path, monkeypatch, header, edited, len(body) - 1,
                            "malformed line")

    @pytest.mark.parametrize("off", [1, -1])
    def test_count_off_by_one(self, listing, tmp_path, monkeypatch, off):
        header, body, _ = listing
        count = len(body)
        edited_header = header.replace(f"count={count}", f"count={count + off}")
        assert edited_header != header
        if off > 0:  # every line passes, and the count fails after the last
            flaw, message = count, f"header advertises count={count + off}"
        else:
            flaw, message = count - 1, "more cycles than the advertised count"
        self.assert_flaw_at(tmp_path, monkeypatch, edited_header, body, flaw,
                            message)


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
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                              'width="200" height="200" viewBox="0 0 5 5">\n')
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
        cycle = validate_cycle(CROSSING_K6, BoardSpec(7))
        assert "polyline" in render(cycle, "svg")
        assert render(cycle, "ascii").count("\n") == 7

    def test_length4_segments(self, keys_by_k):
        cycle = validate_cycle(keys_by_k(4)[0], BoardSpec(5))
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
