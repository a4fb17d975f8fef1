import gc
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import textwrap

import pytest

import knightcycles
from knightcycles.board import BoardSpec, adjacency, coord_of
from knightcycles.cycles import (
    CycleSeq,
    _canonical_coords,
    _is_minimal_given,
    _side_extremes,
    is_minimal,
    validate_cycle,
)
from knightcycles import cycles, search
from knightcycles.geometry import crossing_table
from knightcycles.search import (
    _dfs_one_start,
    _half_paths_raw,
    _join_index,
    _mitm_one_pair,
    _mitm_pairs_for_start,
    enumerate_cycles,
)
from conftest import EXPECTED_SMALL

# The pinned values live here, keyed by k, and the test ids name k alone, so
# an intended change of a value does not rename its test.
# Closures the join hands the canonicity test (a count, not a speed): 3159 at
# k=8 and 89268 at k=10 without the start test.
JOIN_CANDIDATES = {8: 795, 10: 20315}
# What the join hands the core, in order (TestJoinPrefilter).
JOIN_STREAM_SHA256 = {
    6: "63a856f45bd26fcaa185334b46d61db7fdda5a9595b7d2ce2b72c4bf56921a10",
    8: "46088d6e1cacc81396b254854ce3e564ddb55b6b5ce083049e0ad966c0f65d3d",
    10: "ad776226d0bedb0117d26a9bc8e88e5e675776e116d21eb2862d9df2a7fb7471",
}
# Classes that start at cell 4, the last start the bound allows.
START_4_CLASSES = {8: 6, 10: 63}
# Closures the dfs hands the canonicity test: 254 at k=6, 6318 at k=8 and
# 178536 at k=10 with the unpruned cuts.
DFS_CANDIDATES = {6: 47, 8: 1002, 10: 25206}
# The sorted set the dfs hands the core (TestDfsPrefilter).
DFS_SET_SHA256 = {
    6: "065eab3d4165e14df75a3b20d40df6f96bc88cdbef4075a58d11b3b038fc7885",
    8: "34581b753d1d5f7a05df55d8c001c82781949a25bc4bd60670e5eef48cb8177f",
    10: "9b0b54ba5dbe3ea1231455762d6b2127f21d1e17b5041aac8c2c23444caa31e2",
}


def _mask(cells) -> int:
    return sum(1 << c for c in cells)


def _pair_emissions(board, k, s, t) -> list[tuple[int, ...]]:
    """Every closure one mitm (s, t) shard emits, before the canonical test."""
    out: list[tuple[int, ...]] = []
    _mitm_one_pair(board, k, s, t, lambda seq, extremes, simple: out.append(seq))
    return out


def _dfs_emissions(board, k, s) -> list[tuple[int, ...]]:
    """Every closure one dfs start shard emits, before the canonical test."""
    out: list[tuple[int, ...]] = []
    _dfs_one_start(board, k, s,
                   lambda path, extremes: out.append(tuple(path)))
    return out


def _unpruned_dfs(board, k, s) -> list[tuple[int, ...]]:
    """Every closed path of k cells from s over cells >= s, in both
    directions, cut only where it can no longer get back to s or touch
    column 0 in the moves left."""
    side = board.width
    adj = [tuple(v for v in nbrs if v >= s) for nbrs in adjacency(board)]

    def moves_to(sources):
        dist = dict.fromkeys(sources, 0)
        queue = list(sources)
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    far = k + 1
    to_s = moves_to([s])
    to_col0 = moves_to([c for c in range(1, board.size + 1, side) if c >= s])
    out: list[tuple[int, ...]] = []
    path = [s]

    def extend(u, col0_seen):
        left = k - len(path)
        if left == 0:
            if s in adj[u]:
                out.append(tuple(path))
            return
        for v in adj[u]:
            if (v not in path and to_s.get(v, far) <= left
                    and (col0_seen or to_col0.get(v, far) < left)):
                path.append(v)
                extend(v, col0_seen or v % side == 1)
                path.pop()

    extend(s, s % side == 1)
    return out


def _run_child(script: str, tmp_path, timeout: float = 60):
    """Run a script in a child interpreter and its own process group, with
    tmp_path as sys.argv[1].  Past the timeout the whole group is killed and
    the test fails, so that a hang cannot stall the suite."""
    src = os.path.dirname(os.path.dirname(knightcycles.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"child still running after {timeout} s")
    return proc.returncode, out, err


# The start of both Ctrl-C children, with tmp_path as TMPDIR: the engine sends
# SIGINT to the process group as start 2 begins, then sleeps.
CTRL_C_CHILD = """
import os, signal, sys, tempfile, time
from knightcycles import cli, search

tempfile.tempdir = sys.argv[1]

def slow(board, k, s, emit):
    if s == 2:
        os.killpg(0, signal.SIGINT)
    time.sleep(60)

search._dfs_one_start = slow
# Python installs this handler at start-up only when SIGINT is
# not ignored, and a background job of a shell starts ignoring it.
signal.signal(signal.SIGINT, signal.default_int_handler)
"""


class TestStartSet:
    """The per-start counts are keyed by the planned starts 1..3k/8+1
    (search._last_start), for an even k within 4..16, the one length rule
    of BoardSpec.for_cycle_length."""

    def test_values(self):
        assert tuple(enumerate_cycles(4).per_start) == (1, 2)
        assert tuple(enumerate_cycles(6).per_start) == (1, 2, 3)
        assert tuple(enumerate_cycles(8, "mitm").per_start) == (1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [3, 5, 2, 0, -4])
    def test_rejects_bad_lengths(self, bad):
        with pytest.raises(ValueError):
            enumerate_cycles(bad)

    def test_within_top_row(self, keys_by_k):
        for k in (4, 6, 8):
            starts = enumerate_cycles(k, "mitm").per_start
            assert max(starts) <= k + 1
            assert {key[0] for key in keys_by_k(k)} <= set(starts)


class TestHalfPaths:
    def test_single_path(self, board5):
        assert _half_paths_raw(board5, 4, 1, 15) == [(1, 8, 15)]

    def test_no_path(self, board5):
        assert _half_paths_raw(board5, 4, 1, 25) == []

    def test_two_paths(self, board5):
        got = _half_paths_raw(board5, 4, 2, 18)
        assert (2, 9, 18) in got
        assert (2, 11, 18) in got

    def test_deterministic_ascending_order(self, board5):
        got = _half_paths_raw(board5, 4, 2, 18)
        assert got == sorted(got)

    def test_invariants(self):
        board = BoardSpec(9)
        for t in (12, 20, 30):
            for cells in _half_paths_raw(board, 8, 2, t):
                assert len(cells) == 5
                assert len(set(cells)) == 5
                assert cells[0] == 2 and cells[-1] == t
                assert all(c >= 2 for c in cells)
                assert t not in cells[1:-1]
                coords = [coord_of(i, board) for i in cells]
                for a, b in zip(coords, coords[1:]):
                    dr, dc = abs(a[0] - b[0]), abs(a[1] - b[1])
                    assert {dr, dc} == {1, 2}


class TestAssemble:
    """One mitm (s, t) shard glues pairs of s -> t halves."""

    def test_glues_two_halves(self, board5):
        assert _pair_emissions(board5, 4, 2, 18) == [(2, 9, 18, 11)]
        validate_cycle((2, 9, 18, 11), board5)

    def test_rejects_same_half(self, board5):
        assert _half_paths_raw(board5, 4, 1, 15) != []
        assert _pair_emissions(board5, 4, 1, 15) == []

    def test_rejects_shared_interior(self):
        board = BoardSpec(9)
        masks = [_mask(cells) for cells in _half_paths_raw(board, 8, 1, 25)]
        base = _mask((1, 25))
        assert any(a & b != base for a in masks for b in masks if a != b)
        emitted = _pair_emissions(board, 8, 1, 25)
        assert emitted
        assert all(len(set(seq)) == 8 for seq in emitted)

    def test_emissions_keep_pair_endpoints(self, board5):
        board9 = BoardSpec(9)
        for board, k, s, t in ((board5, 4, 2, 18), (board9, 8, 1, 25),
                               (board9, 8, 2, 20), (board9, 8, 2, 30)):
            for seq in _pair_emissions(board, k, s, t):
                assert len(seq) == k
                assert seq[0] == s and seq[k // 2] == t


class TestJoinPrefilter:
    """The join's start test only drops pairs the canonicity test rejects."""

    @pytest.mark.parametrize("k", sorted(JOIN_CANDIDATES))
    def test_same_survivors_as_every_glued_pair(self, k):
        board = BoardSpec.for_cycle_length(k)
        side = board.width
        col0 = _mask(range(1, board.size + 1, side))
        emitted_total = 0
        for s in range(1, k // 2 + 2):
            for t in _mitm_pairs_for_start(board, k, s):
                halves = [(cells, _mask(cells))
                          for cells in _half_paths_raw(board, k, s, t)]
                base = _mask((s, t))
                brute = set()
                for i, (a, a_mask) in enumerate(halves):
                    for j, (b, b_mask) in enumerate(halves):
                        if (i != j and a_mask & b_mask == base
                                and (a_mask | b_mask) & col0):
                            seq = a + b[-2:0:-1]
                            if is_minimal(CycleSeq(seq, board)):
                                brute.add(seq)
                emitted = _pair_emissions(board, k, s, t)
                assert len(set(emitted)) == len(emitted)
                assert {seq for seq in emitted
                        if is_minimal(CycleSeq(seq, board))} == brute
                emitted_total += len(emitted)
        assert emitted_total == JOIN_CANDIDATES[k]

    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_start1_drops_only_transpose_losers(self, k):
        """The join emits the dfs closures, less the start-1 ones whose
        transpose image, read from cell 1, is below them; the canonicity
        core rejects every one of those."""
        board = BoardSpec.for_cycle_length(k)
        side = board.width
        transpose = cycles._symmetry_tables(side)[3]
        joined: set = set()
        walked: set = set()
        for s in range(1, search._last_start(k) + 1):
            _dfs_one_start(board, k, s, lambda path, extremes: walked.add(
                (tuple(path), extremes)))
            for t in _mitm_pairs_for_start(board, k, s):
                _mitm_one_pair(board, k, s, t, lambda seq, extremes, simple:
                               joined.add((seq, extremes)))
        dropped = {(seq, extremes) for seq, extremes in walked
                   if seq[0] == 1 and cycles._image_below(seq, transpose, 1)}
        assert dropped
        assert joined == walked - dropped
        assert not any(_is_minimal_given(seq, side, extremes)
                       for seq, extremes in dropped)

    @pytest.mark.parametrize("k", sorted(JOIN_STREAM_SHA256))
    def test_emission_stream_is_pinned(self, k):
        """What the join hands the canonicity core, in the order it does:
        the sha256 of one line per emission, its sequence, side extremes
        and simple flag, shard by shard in plan order."""
        board = BoardSpec.for_cycle_length(k)
        table = crossing_table(board)
        lines: list[str] = []
        for s in range(1, k // 2 + 2):
            for t in _mitm_pairs_for_start(board, k, s):
                _mitm_one_pair(board, k, s, t, lambda seq, extremes, simple:
                               lines.append(f"{seq} {extremes} {simple}\n"),
                               table)
        assert (hashlib.sha256("".join(lines).encode()).hexdigest()
                == JOIN_STREAM_SHA256[k])


class TestJoinIndex:
    """Every field of the join's index against its definition, brute-forced
    over the raw halves of every planned shard."""

    @pytest.mark.parametrize("with_table", [False, True])
    @pytest.mark.parametrize("k", [6, 8])
    def test_fields_match_their_definitions(self, k, with_table):
        board = BoardSpec.for_cycle_length(k)
        side = board.width
        table = crossing_table(board) if with_table else None
        sentinel = ((cycles._FAR,), 0)
        dropped = short = narrow = swept = False
        for s in range(1, search._last_start(k) + 1):
            low = s - 1
            for t in _mitm_pairs_for_start(board, k, s):
                (halves, tails, b_extremes, b_masks, holders, above, col0,
                 tall, wide, flips) = _join_index(board, k, s, t, table)
                raw = _half_paths_raw(board, k, s, t)
                kept = [cells for cells in raw
                        if _side_extremes(cells, side)[3] >= low]
                assert [cells for cells, _, _ in halves] == sorted(kept)
                for cells, extremes, masks in halves:
                    assert extremes == _side_extremes(cells, side)
                    assert masks == (table.path_masks(cells) if table
                                     else (0, 0))
                b = sorted(kept, key=lambda cells: cells[::-1])
                assert tails == [cells[-2:0:-1] for cells in b]
                assert b_extremes == [_side_extremes(cells, side)
                                      for cells in b]
                assert b_masks == [table.path_masks(cells) if table
                                   else (0, 0) for cells in b]

                def bits(holds):
                    return sum(1 << j for j, cells in enumerate(b)
                               if holds(cells))

                for c in range(board.size + 1):
                    assert holders[c] == bits(lambda cells: c in cells[1:-1])
                assert set(above) == {cells[1] for cells in b}
                for c, partners in above.items():
                    assert partners == bits(lambda cells: cells[1] > c)
                coords = {cells: [coord_of(c, board) for c in cells]
                          for cells in b}
                assert col0 == bits(lambda cells: any(
                    col == 0 for _, col in coords[cells]))
                assert tall == bits(lambda cells: max(
                    row for row, _ in coords[cells]) >= 2 * low)
                assert wide == bits(lambda cells: max(
                    col for _, col in coords[cells]) >= 2 * low)
                assert flips == sorted(flips)
                assert flips[-1] == sentinel
                if s == 1:
                    swept |= len(flips) > 1
                    assert flips[:-1] == sorted(
                        (tuple(col * side + row + 1
                               for row, col in coords[cells][1:]), 1 << j)
                        for j, cells in enumerate(b))
                else:
                    assert flips == [sentinel]
                dropped |= len(kept) < len(raw)
                short |= tall != bits(bool)
                narrow |= wide != bits(bool)
        # Each field is put to the test: the filter, tall and wide each
        # leave out some half, and some start-1 shard has halves to sweep.
        assert dropped and short and narrow and swept


class TestStartBound:
    """No canonical cycle of length k starts beyond cell 3k/8 + 1, and the
    plan holds no shard there."""

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_every_class_starts_within_the_bound(self, k, keys_by_k):
        assert all(8 * (key[0] - 1) <= 3 * k for key in keys_by_k(k))

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
    def test_no_shards_past_the_bound(self, k, monkeypatch):
        """The plan holds every start within the bound and none past it, and
        past it neither engine would emit anything."""
        shards: list[tuple[int, ...]] = []

        def recording(*args):
            shards.append(args[-1])
            return 0, 0, None

        monkeypatch.setattr(search, "_run_shard", recording)
        for algorithm in ("dfs", "mitm"):
            shards.clear()
            enumerate_cycles(k, algorithm, jobs=1)
            assert {shard[0] for shard in shards} == {
                s for s in range(1, k // 2 + 2) if 8 * (s - 1) <= 3 * k}
        board = BoardSpec.for_cycle_length(k)
        for s in range(1, k // 2 + 2):
            if 8 * (s - 1) > 3 * k:
                assert _dfs_emissions(board, k, s) == []
                assert all(_pair_emissions(board, k, s, t) == []
                           for t in _mitm_pairs_for_start(board, k, s))

    @pytest.mark.parametrize("k", sorted(START_4_CLASSES))
    def test_tight_at_start_4(self, k, keys_by_k):
        assert 8 * (4 - 1) <= 3 * k < 8 * (5 - 1)
        assert sum(key[0] == 4 for key in keys_by_k(k)) == START_4_CLASSES[k]


class TestHalfMaskSimplicity:
    """With a crossing table, the join flags each closure simple from the
    masks of its two halves, and the flag is the crossing test's."""

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_flag_matches_the_crossing_test(self, k):
        board = BoardSpec.for_cycle_length(k)
        table = crossing_table(board)
        flags: list[tuple[tuple[int, ...], bool]] = []
        for s in range(1, k // 2 + 2):
            for t in _mitm_pairs_for_start(board, k, s):
                _mitm_one_pair(
                    board, k, s, t,
                    lambda seq, extremes, simple: flags.append((seq, simple)),
                    table)
        assert flags
        assert [simple for _, simple in flags] == [
            table.is_simple_cells(seq) for seq, _ in flags]
        if k >= 6:
            assert {simple for _, simple in flags} == {True, False}


class TestEmissionOrder:
    """Both engines emit every shard in ascending order, so a shard file
    needs no sort."""

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_every_shard_emits_ascending(self, k):
        board = BoardSpec.for_cycle_length(k)
        for s in range(1, k // 2 + 2):
            shards = [_dfs_emissions(board, k, s)]
            shards += [_pair_emissions(board, k, s, t)
                       for t in _mitm_pairs_for_start(board, k, s)]
            for emitted in shards:
                assert all(a < b for a, b in zip(emitted, emitted[1:]))


class TestDfsPrefilter:
    """The dfs cuts only drop closures the canonicity test rejects."""

    @pytest.mark.parametrize("k", sorted(DFS_CANDIDATES))
    def test_same_survivors_as_the_unpruned_recursion(self, k):
        board = BoardSpec.for_cycle_length(k)
        emitted_total = 0
        for s in range(1, k // 2 + 2):
            emitted = _dfs_emissions(board, k, s)
            assert len(set(emitted)) == len(emitted)
            assert all(seq[1] < seq[-1] for seq in emitted)
            reference = {seq for seq in _unpruned_dfs(board, k, s)
                         if is_minimal(CycleSeq(seq, board))}
            assert {seq for seq in emitted
                    if is_minimal(CycleSeq(seq, board))} == reference
            emitted_total += len(emitted)
        assert emitted_total == DFS_CANDIDATES[k]

    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_emissions_are_the_offset_passing_closures(self, k):
        """Once its box is final the walk keeps only what the core's start
        test would pass: its (sequence, extremes) emissions are the
        closures, walked one way, whose seven start offsets are >= s - 1."""
        board = BoardSpec.for_cycle_length(k)
        side = board.width
        for s in range(1, k // 2 + 2):
            emitted: set = set()
            _dfs_one_start(board, k, s, lambda path, extremes: emitted.add(
                (tuple(path), extremes)))
            reference = set()
            for seq in _unpruned_dfs(board, k, s):
                (rows, cols, top, left_min, left_max, bottom_min, bottom_max,
                 right_min, right_max) = extremes = _side_extremes(seq, side)
                if seq[1] < seq[-1] and min(
                        cols - top, left_min, rows - left_max, bottom_min,
                        cols - bottom_max, right_min, rows - right_max) >= s - 1:
                    reference.add((seq, extremes))
            assert emitted == reference

    @pytest.mark.parametrize("k", sorted(DFS_SET_SHA256))
    def test_emitted_set_is_pinned(self, k):
        """The closures handed to the canonicity test, not only their count
        and survivors: the sha256 of their sorted listing, one per line."""
        board = BoardSpec.for_cycle_length(k)
        emitted = sorted(seq for s in range(1, k // 2 + 2)
                         for seq in _dfs_emissions(board, k, s))
        text = "".join(" ".join(map(str, seq)) + "\n" for seq in emitted)
        assert hashlib.sha256(text.encode()).hexdigest() == DFS_SET_SHA256[k]

    def test_largest_second_cell_is_never_entered(self, monkeypatch):
        """No neighbour of s lies above the largest one, so no path through
        it can close: the walk asks for closing distances to the neighbours
        above each other second cell, and never to an empty set."""
        k = 8
        board = BoardSpec.for_cycle_length(k)
        distances = search._distances
        requested: list[list[int]] = []

        def recording(adj, sources, size):
            sources = sorted(sources)
            requested.append(sources)
            return distances(adj, sources, size)

        monkeypatch.setattr(search, "_distances", recording)
        for s in range(1, k // 2 + 2):
            requested.clear()
            _dfs_one_start(board, k, s, lambda path, extremes: None)
            seconds = sorted(v for v in adjacency(board)[s] if v > s)
            assert [] not in requested
            for i in range(len(seconds) - 1):
                assert seconds[i + 1:] in requested


class TestShardMemory:
    """The engines' recursive walks refer to themselves; a shard breaks
    those cycles itself, so its state is freed when it returns, not when
    the cyclic garbage collector next runs."""

    @pytest.mark.parametrize("algorithm, shard", [("dfs", (2,)),
                                                  ("mitm", (2, 13)),
                                                  ("mitm", (1, 16))])
    def test_a_shard_leaves_no_cyclic_garbage(self, algorithm, shard):
        gc.collect()
        gc.disable()
        try:
            search._run_shard(algorithm, 10, False, False, None, shard)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEngineExtremes:
    """Both engines hand the canonicity core their own side extremes, so
    the core never reads them off the cells on the engines' path."""

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_engine_extremes_are_the_true_extremes(self, k):
        board = BoardSpec.for_cycle_length(k)
        side = board.width
        emitted: list = []

        def record(seq, extremes, simple=None):
            emitted.append((tuple(seq), extremes))

        for s in range(1, k // 2 + 2):
            _dfs_one_start(board, k, s, record)
            for t in _mitm_pairs_for_start(board, k, s):
                _mitm_one_pair(board, k, s, t, record)
        assert emitted
        for seq, extremes in emitted:
            assert extremes == _side_extremes(seq, side), seq
            assert (_is_minimal_given(seq, side, extremes)
                    == is_minimal(CycleSeq(seq, board))), seq

    @pytest.mark.parametrize("algorithm", ["dfs", "mitm"])
    def test_side_extremes_only_for_half_paths(self, algorithm, monkeypatch):
        """dfs never derives the extremes from cells, and mitm only once
        per half path, never per candidate."""
        k = 8
        calls = 0
        real = cycles._side_extremes

        def counting(cells, side):
            nonlocal calls
            calls += 1
            return real(cells, side)

        monkeypatch.setattr(cycles, "_side_extremes", counting)
        monkeypatch.setattr(search, "_side_extremes", counting)
        assert enumerate_cycles(k, algorithm, jobs=1).total == 480
        board = BoardSpec.for_cycle_length(k)
        half_paths = sum(len(_half_paths_raw(board, k, s, t))
                         for s in range(1, search._last_start(k) + 1)
                         for t in _mitm_pairs_for_start(board, k, s))
        assert calls == (0 if algorithm == "dfs" else half_paths)


class TestEngineCounts:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_dfs(self, k):
        summary = enumerate_cycles(k, "dfs", simple_filter=True, jobs=1)
        assert (summary.total, summary.simple) == EXPECTED_SMALL[k]
        assert sum(summary.per_start.values()) == summary.total

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_mitm(self, k):
        summary = enumerate_cycles(k, "mitm", simple_filter=True, jobs=1)
        assert (summary.total, summary.simple) == EXPECTED_SMALL[k]
        assert sum(summary.per_start.values()) == summary.total

    def test_simple_none_without_filter(self):
        assert enumerate_cycles(4, "dfs", jobs=1).simple is None
        assert enumerate_cycles(4, "mitm", jobs=1).simple is None

    @pytest.mark.parametrize("bad", [3, 2, 0, 18, 100000])
    def test_bad_length(self, bad, monkeypatch):
        """Refused before any shard is planned or run (k=18 would run for
        days, k=100000 out of memory)."""
        def never(*args):
            raise AssertionError(f"planned or ran a shard for k={bad}")

        monkeypatch.setattr(search, "_run_shard", never)
        monkeypatch.setattr(search, "_mitm_pairs_for_start", never)
        for algorithm in ("dfs", "mitm"):
            with pytest.raises(ValueError, match=(
                    f"^no cycle length k={bad}: want an even k within 4..16$")):
                enumerate_cycles(bad, algorithm, jobs=1)


class TestEngineAgreement:
    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_identical_sorted_listings(self, k):
        got_dfs: list[tuple[int, ...]] = []
        got_mitm: list[tuple[int, ...]] = []
        enumerate_cycles(k, "dfs", sink=got_dfs.append)
        enumerate_cycles(k, "mitm", sink=got_mitm.append)
        assert got_dfs == got_mitm
        assert got_dfs == sorted(got_dfs)

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_no_duplicate_emissions(self, k, keys_by_k):
        keys = keys_by_k(k)
        assert len(set(keys)) == len(keys)

    def test_monotone_embedding(self, keys_by_k):
        for k in (4, 6, 8):
            board = BoardSpec.for_cycle_length(k)
            for key in keys_by_k(k):
                for r, c in (coord_of(i, board) for i in key):
                    assert 0 <= r <= k and 0 <= c <= k


def _all_classes_bruteforce(k: int) -> set[tuple[tuple[int, int], ...]]:
    """Independent count: plain DFS over every start with no sub-s prune and
    no minimality check; canonicalize every closure and deduplicate."""
    board = BoardSpec.for_cycle_length(k)
    adj = adjacency(board)
    classes: set[tuple[tuple[int, int], ...]] = set()
    visited = bytearray(board.size + 1)

    def extend(path, u):
        if len(path) == k:
            if path[0] in adj[u]:
                coords = [coord_of(i, board) for i in path]
                classes.add(_canonical_coords(coords))
            return
        for v in adj[u]:
            if not visited[v]:
                visited[v] = 1
                path.append(v)
                extend(path, v)
                path.pop()
                visited[v] = 0

    for s in range(1, board.size + 1):
        visited[s] = 1
        extend([s], s)
        visited[s] = 0
    return classes


class TestPruneSoundness:
    @pytest.mark.parametrize("k", [4, 6])
    def test_pruned_engines_match_unpruned_bruteforce(self, k, keys_by_k):
        classes = _all_classes_bruteforce(k)
        assert len(classes) == EXPECTED_SMALL[k][0]
        board = BoardSpec.for_cycle_length(k)
        engine_classes = {
            tuple(coord_of(i, board) for i in key) for key in keys_by_k(k)}
        assert engine_classes == classes


class TestParallelDriver:
    @pytest.mark.parametrize("algorithm", ["dfs", "mitm"])
    def test_jobs_do_not_change_results(self, algorithm):
        k = 6
        for emit_only_simple in (False, True):
            reference = None
            for jobs in (1, 2, 3):
                listing: list[tuple[int, ...]] = []
                summary = enumerate_cycles(k, algorithm, simple_filter=True,
                                           emit_only_simple=emit_only_simple,
                                           jobs=jobs, sink=listing.append)
                outcome = (summary.total, summary.simple, summary.per_start, listing)
                if reference is None:
                    reference = outcome
                else:
                    assert outcome == reference
            assert len(reference[3]) == (13 if emit_only_simple else 25)

    def test_sink_receives_sorted_stream(self):
        listing: list[tuple[int, ...]] = []
        enumerate_cycles(8, "mitm", jobs=2, sink=listing.append)
        assert listing == sorted(listing)
        assert len(listing) == 480

    @pytest.mark.parametrize("cores, workers", [(3, 3), (None, 1)])
    def test_workers_are_capped_at_the_core_count(
            self, cores, workers, monkeypatch):
        """--jobs 1000 asks for no more workers than the host has cores; the
        stand-in pool records its size and raises, so no process starts."""
        import concurrent.futures

        asked = []

        class NoPool:
            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)
                raise OSError("no pool in this test")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        with pytest.raises(OSError, match="no pool"):
            enumerate_cycles(12, "mitm", jobs=1000)  # 414 shards
        assert asked == [workers]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_cycles(6, "bogus")
        with pytest.raises(ValueError):
            enumerate_cycles(6, "dfs", jobs=0)

    def test_emit_only_simple(self):
        """emit_only_simple alone feeds the sink the simple cycles and turns
        on their count."""
        listing: list[tuple[int, ...]] = []
        summary = enumerate_cycles(6, "dfs", emit_only_simple=True, sink=listing.append)
        assert summary.total == 25
        assert summary.simple == 13
        assert len(listing) == 13
        board = BoardSpec(7)
        from knightcycles.geometry import is_simple
        assert all(is_simple(CycleSeq(key, board)) for key in listing)


class TestStreaming:
    """Each start cell reaches the sink as soon as all of its shards are in,
    while later shards still run, and its shard files go once drained."""

    def test_sink_is_fed_while_the_pool_runs(self, tmp_path):
        """The last start's shard waits for a file that only the sink
        creates, so the run completes only if the sink is fed before every
        shard is done."""
        code, out, err = _run_child("""
            import os, sys, tempfile, time
            from knightcycles import search

            tempfile.tempdir = sys.argv[1]
            flag = os.path.join(sys.argv[1], "sink-called")
            engine = search._dfs_one_start

            def waiting(board, k, s, emit):
                deadline = time.monotonic() + 20
                while s == 5 and not os.path.exists(flag):
                    if time.monotonic() > deadline:
                        raise RuntimeError("no sink call while start 5 ran")
                    time.sleep(0.01)
                engine(board, k, s, emit)

            search._dfs_one_start = waiting
            out = []

            def sink(seq):
                if not out:
                    open(flag, "w").close()
                out.append(seq)

            search.enumerate_cycles(8, "dfs", jobs=2, sink=sink)
            print(len(out), out == sorted(set(out)))
        """, tmp_path)
        assert (code, out) == (0, "480 True\n"), err

    def test_shards_finishing_out_of_order_are_read_in_plan_order(self, tmp_path):
        """Start 1's shard sleeps, so the later starts' shards finish before
        it; the stream, total and per_start still equal the jobs=1 run's."""
        code, out, err = _run_child("""
            import os, sys, tempfile, time
            from knightcycles import search

            tempfile.tempdir = sys.argv[1]
            finished = os.path.join(sys.argv[1], "finished")
            engine = search._dfs_one_start

            def slow_start_1(board, k, s, emit):
                if s == 1:
                    time.sleep(1)
                engine(board, k, s, emit)
                with open(finished, "a") as fh:
                    fh.write(f"{s}\\n")

            search._dfs_one_start = slow_start_1
            runs = []
            for jobs in (1, 2):
                out = []
                summary = search.enumerate_cycles(8, "dfs", jobs=jobs,
                                                  sink=out.append)
                runs.append((summary.total, summary.per_start, out))
            # The second half of the file is the jobs=2 run's finishing order.
            with open(finished) as fh:
                order = [int(line) for line in fh][4:]
            print(order != sorted(order), runs[0] == runs[1], runs[1][0])
        """, tmp_path)
        assert (code, out) == (0, "True True 480\n"), err

    def test_jobs_1_feeds_a_start_before_running_the_next(self, monkeypatch):
        events: list[tuple] = []
        run_shard = search._run_shard

        def recording(*args):
            events.append(("shard", args[-1]))
            return run_shard(*args)

        monkeypatch.setattr(search, "_run_shard", recording)
        summary = enumerate_cycles(
            8, "dfs", sink=lambda seq: events.append(("seq", seq[0])))
        second = events.index(("shard", (2,)))
        assert events[:second].count(("seq", 1)) == summary.per_start[1] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_drained_shard_files_are_deleted(self, jobs, tmp_path, monkeypatch):
        """When start s + 1 reaches the sink no shard file of start s is left,
        so a listing holds one start's shard files on disk, not all of them."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        seen: list[int] = []

        def sink(seq):
            if seen and seq[0] == seen[-1]:
                return
            if seen:
                assert not list(tmp_path.glob(f"*/mitm-{seen[-1]}-*.shard"))
            assert list(tmp_path.glob(f"*/mitm-{seq[0]}-*.shard"))
            seen.append(seq[0])

        enumerate_cycles(10, "mitm", jobs=jobs, sink=sink)
        assert seen == [1, 2, 3, 4]

    def test_sink_error_mid_pool_stops_the_workers(self, tmp_path, monkeypatch):
        """A sink that fails on start 1 while later shards still run ends the
        run with its error, no worker left and no shard directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def sink(_):
            raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed") as failure:
            enumerate_cycles(10, "mitm", jobs=2, sink=sink)
        # The traceback keeps the driver's frame alive, so garbage collection
        # cannot stand in for shutting the pool down.
        assert failure.tb is not None
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_sink_error_ends_the_running_shards(self, tmp_path):
        """A sink that fails on start 1 while start 2's shard sleeps 60 s ends
        the run with its error at once: the workers are terminated, not
        waited for, and none is left alive."""
        code, out, err = _run_child("""
            import multiprocessing, os, sys, tempfile, time
            from knightcycles import search

            tempfile.tempdir = sys.argv[1]
            engine = search._dfs_one_start

            def slow_start_2(board, k, s, emit):
                if s == 2:
                    time.sleep(60)
                engine(board, k, s, emit)

            def sink(_):
                raise RuntimeError("sink failed")

            search._dfs_one_start = slow_start_2
            try:
                search.enumerate_cycles(10, "dfs", jobs=2, sink=sink)
            finally:
                print(multiprocessing.active_children(), os.listdir(sys.argv[1]))
        """, tmp_path, timeout=20)
        assert (code, out) == (1, "[] []\n"), err
        assert err.rstrip().endswith("RuntimeError: sink failed")

    def test_a_run_that_reads_every_result_shuts_the_pool_down_gracefully(
            self, monkeypatch):
        terminated = []
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate",
                            terminated.append)
        enumerate_cycles(8, "mitm", jobs=2, sink=lambda seq: None)
        enumerate_cycles(8, "dfs", jobs=2)
        assert terminated == []
        assert multiprocessing.active_children() == []


class TestFailureModes:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("algorithm", ["dfs", "mitm"])
    def test_leaves_no_temp_files(self, algorithm, jobs, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        made: list[str] = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        enumerate_cycles(6, algorithm, jobs=jobs)
        assert made == []

        listing: list[tuple[int, ...]] = []
        enumerate_cycles(6, algorithm, jobs=jobs, sink=listing.append)
        assert len(listing) == 25

        def failing_sink(_):
            raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            enumerate_cycles(6, algorithm, jobs=jobs, sink=failing_sink)
        assert len(made) == 2
        assert all(d.startswith(str(tmp_path)) for d in made)
        assert list(tmp_path.iterdir()) == []

    def test_killed_worker_fails_instead_of_hanging(self, tmp_path):
        """A worker killed mid-shard ends the run with an error naming the
        unread tail of the plan, in plan order, the lost shard among them,
        and removes the shard directory; the CLI prints one error line and
        exits 1."""
        code, out, err = _run_child("""
            import os, signal, sys, tempfile
            from knightcycles import cli, search

            tempfile.tempdir = sys.argv[1]
            engine = search._dfs_one_start

            def dying(board, k, s, emit):
                if s == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
                engine(board, k, s, emit)

            search._dfs_one_start = dying
            try:
                search.enumerate_cycles(8, "dfs", jobs=2, sink=lambda seq: None)
            except search.ShardLostError as exc:
                lost = str(exc).split(" lost: ")[1].split()
                plan = [str(s) for s in range(1, 5)]
                print(lost == plan[len(plan) - len(lost):] and "2" in lost,
                      os.listdir(sys.argv[1]))
            sys.exit(cli.main(["count", "--length", "8", "--jobs", "2"]))
        """, tmp_path)
        assert out == "True []\n"
        assert code == 1
        errors = err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith("error: a worker process died")

    def test_ctrl_c_stops_the_workers_at_once(self, tmp_path):
        """Ctrl-C (SIGINT to the process group) ends a jobs=2 run with
        KeyboardInterrupt and no shard directory left, without running the
        shards still queued behind the interrupted ones."""
        code, _, err = _run_child(CTRL_C_CHILD + textwrap.dedent("""
            search.enumerate_cycles(8, "dfs", jobs=2, sink=lambda seq: None)
        """), tmp_path)
        assert code == -signal.SIGINT
        assert "KeyboardInterrupt" in err
        assert os.listdir(tmp_path) == []

    def test_ctrl_c_ends_the_cli_with_one_line_and_exit_130(self, tmp_path):
        """The same Ctrl-C under `list --jobs 2` prints `error: interrupted`
        and exits 130, leaving nothing at --out, beside it or in TMPDIR."""
        (tmp_path / "out").mkdir()
        code, out, err = _run_child(CTRL_C_CHILD + textwrap.dedent("""
            sys.exit(cli.main(["list", "--length", "8", "--jobs", "2", "--out",
                               os.path.join(sys.argv[1], "out", "x.cycles")]))
        """), tmp_path)
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert os.listdir(tmp_path / "out") == []
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("hook", ["before", "after_in_child"])
    def test_ctrl_c_while_the_pool_starts_is_never_lost(self, hook, tmp_path):
        """SIGINT sent to the group as the pool forks its workers, from an
        at-fork hook, still ends `list --jobs 2` with one line and exit 130,
        leaving nothing at --out or in TMPDIR: it is neither swallowed by
        the hook nor taken by a worker before its initializer runs."""
        (tmp_path / "out").mkdir()
        code, out, err = _run_child(f"""
            import os, signal, sys, tempfile
            from knightcycles import cli

            tempfile.tempdir = sys.argv[1]
            signal.signal(signal.SIGINT, signal.default_int_handler)
            sent = []

            def interrupt():
                if not sent:
                    sent.append(True)
                    os.killpg(0, signal.SIGINT)

            os.register_at_fork({hook}=interrupt)
            sys.exit(cli.main(["list", "--length", "8", "--jobs", "2", "--out",
                               os.path.join(sys.argv[1], "out", "x.cycles")]))
        """, tmp_path)
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert os.listdir(tmp_path / "out") == []
        assert os.listdir(tmp_path) == ["out"]

    def test_exhausted_memory_is_one_line_and_exit_1(self, tmp_path):
        """`twins --length 12` in a child whose address space may grow by
        only 60 MiB exits 1 with `error: out of memory`, and leaves nothing
        at --out or in TMPDIR."""
        (tmp_path / "out").mkdir()
        code, out, err = _run_child("""
            import os, resource, sys, tempfile
            from knightcycles import cli

            tempfile.tempdir = sys.argv[1]
            with open("/proc/self/status") as fh:
                size = next(int(line.split()[1]) for line in fh
                            if line.startswith("VmSize:")) * 1024
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (size + 60 * 2**20, hard))
            sys.exit(cli.main(["twins", "--length", "12", "--out",
                               os.path.join(sys.argv[1], "out", "tw.txt")]))
        """, tmp_path)
        assert (code, out, err) == (1, "", "error: out of memory\n")
        assert os.listdir(tmp_path / "out") == []
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("command", ["count", "list"])
    def test_a_worker_out_of_memory_is_one_line_and_exit_1(self, command,
                                                           tmp_path):
        """A worker's MemoryError ends `count` or `list` at jobs=2 with exit
        1 and one line, and leaves nothing at --out or in TMPDIR."""
        (tmp_path / "out").mkdir()
        code, out, err = _run_child(f"""
            import os, sys, tempfile
            from knightcycles import cli, search

            tempfile.tempdir = sys.argv[1]
            engine = search._dfs_one_start

            def exhausted(board, k, s, emit):
                if s == 2:
                    raise MemoryError
                engine(board, k, s, emit)

            search._dfs_one_start = exhausted
            argv = ["{command}", "--length", "8", "--jobs", "2"]
            if argv[0] == "list":
                argv += ["--out", os.path.join(sys.argv[1], "out", "x.cycles")]
            sys.exit(cli.main(argv))
        """, tmp_path)
        assert (code, out, err) == (1, "", "error: out of memory\n")
        assert os.listdir(tmp_path / "out") == []
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("failure, code, line", [
        ("raise MemoryError", 1, "error: out of memory"),
        ("os.kill(os.getppid(), signal.SIGINT)", 130, "error: interrupted"),
    ], ids=["worker_error", "sigint_to_the_driver"])
    def test_an_early_end_stops_the_running_shards(self, failure, code, line,
                                                   tmp_path):
        """Start 1 raises in its worker, or sends SIGINT to the driver alone,
        while start 2 sleeps 60 s: `list --jobs 2` ends within 15 s with one
        line and its exit code, because the workers are terminated, not
        waited for.  Nothing is left at --out or in TMPDIR."""
        (tmp_path / "out").mkdir()
        result = _run_child(f"""
            import os, signal, sys, tempfile, time
            from knightcycles import cli, search

            tempfile.tempdir = sys.argv[1]
            signal.signal(signal.SIGINT, signal.default_int_handler)
            engine = search._dfs_one_start

            def failing(board, k, s, emit):
                if s == 1:
                    {failure}
                if s == 2:
                    time.sleep(60)
                engine(board, k, s, emit)

            search._dfs_one_start = failing
            sys.exit(cli.main(["list", "--length", "8", "--jobs", "2", "--out",
                               os.path.join(sys.argv[1], "out", "x.cycles")]))
        """, tmp_path, timeout=15)
        assert result == (code, "", line + "\n")
        assert os.listdir(tmp_path / "out") == []
        assert os.listdir(tmp_path) == ["out"]

    def test_merge_fits_a_low_open_file_limit(self, tmp_path):
        """The k=10 mitm listing merges 115 shard files; with at most 64
        open files it still reaches the sink whole, because the merge opens
        one start cell's files at a time."""
        code, out, err = _run_child("""
            import resource, sys, tempfile
            from knightcycles import search

            tempfile.tempdir = sys.argv[1]
            hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            out = []
            search.enumerate_cycles(10, "mitm", sink=out.append)
            print(len(out), out == sorted(set(out)))
        """, tmp_path)
        assert (code, out) == (0, "12000 True\n"), err

    def test_out_of_order_shard_stops_a_listing(self, tmp_path, monkeypatch):
        """An engine that emits out of order fails a run with a sink through
        the shard writer's ordering check and leaves no temp files; a count
        needs no order and still succeeds."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        engine = search._dfs_one_start

        def reversed_engine(board, k, s, emit):
            emitted: list = []
            engine(board, k, s, lambda path, extremes:
                   emitted.append((tuple(path), extremes)))
            for seq, extremes in reversed(emitted):
                emit(seq, extremes)

        monkeypatch.setattr(search, "_dfs_one_start", reversed_engine)
        assert enumerate_cycles(8, "dfs", jobs=1).total == 480
        with pytest.raises(RuntimeError, match="shard dfs-1 .* out of order"):
            enumerate_cycles(8, "dfs", jobs=1, sink=lambda seq: None)
        assert list(tmp_path.iterdir()) == []

    def test_a_shard_file_cut_mid_record_raises(self, tmp_path):
        """A shard file cut mid-record raises from the reader, after only
        whole, correct records, instead of yielding a short one."""
        *_, path = search._run_shard("dfs", 10, False, False, str(tmp_path), (2,))
        records = list(search._read_shard(path, 10))
        assert len(records) == 7242
        os.truncate(path, os.path.getsize(path) - 3)
        read: list[tuple[int, ...]] = []
        with pytest.raises(RuntimeError, match="ends mid-record"):
            read.extend(search._read_shard(path, 10))
        assert read == records[:len(read)]

    @pytest.mark.parametrize("algorithm", ["dfs", "mitm"])
    def test_sink_errors_propagate(self, algorithm):
        class SinkError(RuntimeError):
            pass

        def sink(_):
            raise SinkError("stop")

        with pytest.raises(SinkError):
            enumerate_cycles(6, algorithm, jobs=1, sink=sink)
