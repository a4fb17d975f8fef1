"""The two construction engines and the one shard driver that runs them.

Both engines produce, for one admissible start cell s, closed knight
sequences that begin at s and never visit a cell numbered below s.  Dropping
sub-s cells is safe: a completed sequence through a smaller cell can always
be rotated to start there, which is lexicographically smaller, so such
sequences are never canonical.

The exhaustive engine extends one path cell by cell.  It walks each cycle
in one direction only, and cuts a path as soon as its running bounding box
shows that a symmetry image will start below s.  The assembly engine builds
all half-length paths from s to one possible opposite cell t and glues
disjoint pairs; each closed sequence arises from exactly one ordered pair of
halves, so canonical filtering again counts every class exactly once, with
no memory of previously found solutions in either engine.  It finds the
disjoint partners of a half through per-cell bitsets, and skips a pair whose
symmetry images already start below s, judged from the two halves' bounding
box extremes, before building its sequence.

``enumerate_cycles`` is the only driver.  It splits the work into shards,
one start cell ``(s,)`` for dfs and one pair ``(s, t)`` for mitm, and runs
each through ``_run_shard``: inline when jobs=1, in a process pool
otherwise.  The engines only hand closures to an ``emit`` callback;
``_run_shard`` keeps the canonical ones, counts them and their simple subset
and, when the caller gave a sink, writes the kept sequences sorted to a shard
file.  The sink receives the heap merge of those files, so the summary and
the stream are the same for every jobs value.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache, partial

from .board import BoardSpec, adjacency
from .cycles import _FAR, _is_minimal_square, _side_extremes
from .geometry import crossing_table

UNREACHED = 255


@dataclass
class EnumerationSummary:
    k: int
    algorithm: str
    total: int
    simple: int | None
    per_start: dict[int, int]
    elapsed: float


class HalfPathBudgetError(RuntimeError):
    """Half-path storage for one (s, t) pair exceeded the configured budget."""

    def __init__(self, s: int, t: int, limit: int):
        super().__init__(
            f"more than {limit} half paths for start={s} end={t}; "
            f"raise the budget or use the dfs engine")
        self.s = s
        self.t = t
        self.limit = limit

    def __reduce__(self):
        return (type(self), (self.s, self.t, self.limit))


class ShardLostError(RuntimeError):
    """A worker process died, and the shards whose results never came back
    (the one it was running among them) are lost."""

    def __init__(self, shards: list[tuple[int, ...]]):
        names = ["-".join(map(str, shard)) for shard in shards]
        shown = " ".join(names[:8]) + (" ..." if len(names) > 8 else "")
        super().__init__(
            f"a worker process died; {len(names)} shard(s) lost: {shown}")
        self.shards = shards


def _check_length(k: int) -> None:
    if k % 2 != 0 or k < 4:
        raise ValueError(f"cycle length must be an even number >= 4, got {k}")


@lru_cache(maxsize=64)
def _filtered_adjacency(board: BoardSpec, s: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency restricted to cells >= s (the canonical-start prune)."""
    return tuple(tuple(v for v in nbrs if v >= s) for nbrs in adjacency(board))


def _distances(adj: list[tuple[int, ...]], sources, size: int) -> list[int]:
    """BFS move counts to the nearest source, over the filtered adjacency."""
    dist = [UNREACHED] * (size + 1)
    queue = list(sources)
    for c in queue:
        dist[c] = 0
    for u in queue:  # grows while iterated, so this visits in FIFO order
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHED:
                dist[v] = du
                queue.append(v)
    return dist


def _dfs_one_start(board: BoardSpec, k: int, s: int, emit) -> None:
    """Exhaustive backtracking from one start cell: emit the closed paths of
    k cells from s that may be canonical (one list object, reused between
    calls).  The caller runs the full canonicity test on every emission.

    Beyond the >= s rule, a child v is cut when its path can no longer
    - close on a neighbour of s above its second cell in the moves left (a
      canonical sequence has cells[1] < cells[-1], so each cycle is walked
      in one direction only);
    - touch column 0 in the moves left (a canonical placement always does);
    - give every symmetry image a start offset of at least s - 1 (see
      cycles._is_minimal_square).  The path carries the side extremes that
      cycles._side_extremes reads at the end: the max row and column, the
      max column on row 0 and the max row on column 0.  Every later cell
      must still get back to s, at row 0, so the final max row is at most
      row(v) // 2 + remaining and the final max column at most
      (col(v) + col(s)) // 2 + remaining.  A column-0 cell on a row below
      s - 1 fails at once.
    """
    side = board.width
    size = board.size
    adj_s = _filtered_adjacency(board, s)
    low = s_col = s - 1
    rows = [0] + [(c - 1) // side for c in range(1, size + 1)]
    cols = [0] + [(c - 1) % side for c in range(1, size + 1)]
    # Column-0 cells on rows below s - 1 are cut, so only the others count.
    dist_col0 = _distances(adj_s, range(low * side + 1, size + 1, side), size)
    # closing[c]: distances to the neighbours of s above c, the cells that
    # may end a path whose second cell is c.
    closing = {c: _distances(adj_s, [n for n in adj_s[s] if n > c], size)
               for c in adj_s[s]}
    # A candidate second cell is judged by its own table.
    second = [UNREACHED] * (size + 1)
    for c, dist in closing.items():
        second[c] = dist[c]
    visited = bytearray(size + 1)
    visited[s] = 1
    path = [s]

    def extend(u: int, depth: int, dist, last_row: int, last_col: int,
               top_max: int, left_max: int) -> None:
        if depth == 2:  # u is the second cell: it fixes the closing cells
            dist = closing[u]
        remaining = k - depth
        for v in adj_s[u]:
            if visited[v] or dist[v] >= remaining:
                continue
            r = rows[v]
            c = cols[v]
            top = top_max
            left = left_max
            if c == 0:
                if r < low:
                    continue
                if r > left:
                    left = r
            else:
                if left < 0 and dist_col0[v] >= remaining:
                    continue
                if r == 0 and c > top:
                    top = c
            # Conditional expressions: builtin min/max calls cost more here.
            row = r if r > last_row else last_row
            col = c if c > last_col else last_col
            row_up = r // 2 + remaining
            col_up = (c + s_col) // 2 + remaining
            if ((col_up if col_up > col else col) - top < low
                    or (row_up if row_up > row else row) - left < low):
                continue
            path.append(v)
            if remaining == 1:
                emit(path)
            else:
                visited[v] = 1
                extend(v, depth + 1, dist, row, col, top, left)
                visited[v] = 0
            path.pop()

    # left_max stays -_FAR until the path touches column 0.
    extend(s, 1, second, 0, s_col, s_col, 0 if s_col == 0 else -_FAR)


def _half_paths_raw(board: BoardSpec, k: int, s: int, t: int,
                    budget: int | None):
    """All simple knight paths s -> t of exactly k/2 edges over cells >= s,
    as (cells, visited-bitmask) pairs in ascending path order.  t is never
    used as an interior cell."""
    m = k // 2
    adj_s = _filtered_adjacency(board, s)
    dist_t = _distances(adj_s, (t,), board.size)
    if dist_t[s] > m:
        return []
    out: list[tuple[tuple[int, ...], int]] = []
    visited = bytearray(board.size + 1)
    visited[s] = 1
    visited[t] = 1
    path = [s]

    def extend(u: int, edges_left: int, mask: int) -> None:
        if edges_left == 1:
            if dist_t[u] == 1:
                path.append(t)
                out.append((tuple(path), mask | (1 << t)))
                path.pop()
                if budget is not None and len(out) > budget:
                    raise HalfPathBudgetError(s, t, budget)
            return
        for v in adj_s[u]:
            if not visited[v] and dist_t[v] < edges_left:
                visited[v] = 1
                path.append(v)
                extend(v, edges_left - 1, mask | (1 << v))
                path.pop()
                visited[v] = 0

    extend(s, m, 1 << s)
    return out


def _mitm_one_pair(board: BoardSpec, k: int, s: int, t: int,
                   budget: int | None, emit) -> None:
    """Emit the closures with start s and opposite cell t that two s -> t
    halves with disjoint interiors glue into, less those whose start test
    already fails.

    A glued sequence starts at s, its smallest cell, so it can only be
    canonical when every symmetry image of it starts at an offset of at least
    s - 1 (see cycles._is_minimal_square).  Those offsets are extremes of the
    sides of the pair's bounding box, and each side's extremes come from the
    half (or both halves) reaching that side, so the two halves' summaries
    decide the test before the sequence is built.  The caller still runs the
    full canonicity test on every emission.
    """
    halves = _half_paths_raw(board, k, s, t, budget)
    if len(halves) < 2:
        return
    low = s - 1
    extremes = [_side_extremes(cells, board.width) for cells, _ in halves]
    # holders[c]: the halves whose interior holds cell c, as a bitset over
    # half indices.  A half whose own column-0 cells start an image below s
    # fails in every pair and joins nothing.
    holders = [0] * (board.size + 1)
    col0 = 0
    usable = 0
    for i, (cells, _) in enumerate(halves):
        left_min = extremes[i][3]
        if left_min < low:
            continue
        bit = 1 << i
        usable |= bit
        for c in cells[1:-1]:
            holders[c] |= bit
        if left_min != _FAR:
            col0 |= bit
    # Halves are in ascending order, so runs of equal second cell are
    # contiguous; a glued sequence reads a's second cell at position 1 and
    # b's at position k-1, and only pairs with the former smaller can be
    # canonical, so b always comes from a strictly later run.
    n = len(halves)
    later = [0] * n
    for i in range(n - 2, -1, -1):
        if halves[i + 1][0][1] != halves[i][0][1]:
            later[i] = usable >> (i + 1) << (i + 1)
        else:
            later[i] = later[i + 1]
    for i, (a_cells, _) in enumerate(halves):
        if not (usable >> i) & 1:
            continue
        clash = 0
        for c in a_cells[1:-1]:
            clash |= holders[c]
        partners = later[i] & ~clash
        (a_rows, a_cols, a_top, a_left_min, a_left_max, a_bottom_min,
         a_bottom_max, a_right_min, a_right_max) = extremes[i]
        if a_left_min == _FAR:
            partners &= col0
        while partners:
            bit = partners & -partners
            partners ^= bit
            j = bit.bit_length() - 1
            (b_rows, b_cols, b_top, _, b_left_max, b_bottom_min,
             b_bottom_max, b_right_min, b_right_max) = extremes[j]
            # Conditional expressions: builtin min/max calls cost more here.
            last_row = a_rows if a_rows > b_rows else b_rows
            last_col = a_cols if a_cols > b_cols else b_cols
            if (last_col - (a_top if a_top > b_top else b_top) < low
                    or last_row - (a_left_max if a_left_max > b_left_max
                                   else b_left_max) < low):
                continue
            if a_rows == b_rows:
                bottom_min = (a_bottom_min if a_bottom_min < b_bottom_min
                              else b_bottom_min)
                bottom_max = (a_bottom_max if a_bottom_max > b_bottom_max
                              else b_bottom_max)
            elif a_rows > b_rows:
                bottom_min, bottom_max = a_bottom_min, a_bottom_max
            else:
                bottom_min, bottom_max = b_bottom_min, b_bottom_max
            if bottom_min < low or last_col - bottom_max < low:
                continue
            if a_cols == b_cols:
                right_min = (a_right_min if a_right_min < b_right_min
                             else b_right_min)
                right_max = (a_right_max if a_right_max > b_right_max
                             else b_right_max)
            elif a_cols > b_cols:
                right_min, right_max = a_right_min, a_right_max
            else:
                right_min, right_max = b_right_min, b_right_max
            if right_min < low or last_row - right_max < low:
                continue
            emit(a_cells + halves[j][0][-2:0:-1])


def _mitm_pairs_for_start(board: BoardSpec, k: int, s: int):
    """Opposite cells worth trying for start s: reachable in at most k/2
    moves of matching parity, above s.  Pure pre-filter; the half-path
    search is exact regardless."""
    adj_s = _filtered_adjacency(board, s)
    dist_s = _distances(adj_s, (s,), board.size)
    m = k // 2
    return [t for t in range(s + 1, board.size + 1)
            if dist_s[t] <= m and (dist_s[t] - m) % 2 == 0]


def _run_shard(algorithm: str, k: int, simple_filter: bool,
               emit_only_simple: bool, half_path_budget: int | None,
               shard_dir: str | None, shard: tuple[int, ...]):
    """Run one shard, a start cell (dfs) or an (s, t) pair (mitm), and keep
    the canonical closures its engine emits.

    Returns (shard, count, simple, shard_file).  Kept sequences are held only
    when shard_dir is given; they then go, sorted, to a shard file there.  A
    shard that keeps nothing writes no file and returns None for it.
    """
    board = BoardSpec.for_cycle_length(k)
    side = board.width
    table = crossing_table(board) if simple_filter else None
    kept: list[tuple[int, ...]] | None = [] if shard_dir is not None else None
    count = 0
    simple = 0

    def emit(seq) -> None:
        nonlocal count, simple
        if not _is_minimal_square(seq, side):
            return
        count += 1
        if table is not None:
            if table.is_simple_cells(seq):
                simple += 1
            elif emit_only_simple:
                return
        if kept is not None:
            kept.append(tuple(seq))

    if algorithm == "dfs":
        _dfs_one_start(board, k, *shard, emit)
    else:
        _mitm_one_pair(board, k, *shard, half_path_budget, emit)
    if not kept:
        return shard, count, simple, None
    shard_file = os.path.join(
        shard_dir, f"{algorithm}-{'-'.join(map(str, shard))}.shard")
    kept.sort()
    with open(shard_file, "w") as fh:
        for seq in kept:
            fh.write(" ".join(map(str, seq)))
            fh.write("\n")
    return shard, count, simple, shard_file


def _run_in_pool(run, shards, workers: int) -> list:
    """run(shard) for every shard in a pool of worker processes.  A worker
    that dies (killed, out of memory) breaks the pool; that surfaces as
    ShardLostError naming the shards whose results never came back."""
    # Imported on first use: it loads logging and multiprocessing, which the
    # package import and jobs=1 runs do without.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    # Workers die at once on Ctrl-C (SIGINT reaches the whole process group)
    # instead of raising KeyboardInterrupt and running on into queued shards.
    with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_DFL)) as pool:
        futures = {pool.submit(run, shard): shard for shard in shards}
        results = []
        try:
            for future in as_completed(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    done = {result[0] for result in results}
                    lost = sorted(set(shards) - done)
                    raise ShardLostError(lost) from exc
        finally:
            # After a failure, shards that have not started never will.
            pool.shutdown(cancel_futures=True)
    return results


def _read_shard(path: str):
    with open(path) as fh:
        for line in fh:
            yield tuple(map(int, line.split()))


def enumerate_cycles(k: int, algorithm: str = "dfs", *,
                     simple_filter: bool = False, emit_only_simple: bool = False,
                     jobs: int = 1, sink=None,
                     half_path_budget: int | None = None) -> EnumerationSummary:
    """Count (and optionally emit) every nonequivalent cycle of length k.

    Work is partitioned by start cell (dfs) or by (s, t) pair (mitm) and run
    inline (jobs=1) or in a pool of ``jobs`` processes.  A count-only call
    holds no sequences and writes no files.  With a sink, every shard's kept
    sequences go sorted to a file in a temporary directory and the sink
    receives their merge: canonical sequences in strictly ascending order,
    identical for every jobs value.
    """
    _check_length(k)
    if algorithm not in ("dfs", "mitm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if emit_only_simple and not simple_filter:
        raise ValueError("emit_only_simple requires simple_filter")

    board = BoardSpec.for_cycle_length(k)
    started = time.perf_counter()
    # A canonical sequence of length k starts in the top-row prefix 1..k/2+1.
    starts = range(1, k // 2 + 2)
    if algorithm == "dfs":
        shards = [(s,) for s in starts]
    else:
        shards = [(s, t) for s in starts for t in _mitm_pairs_for_start(board, k, s)]
    with (tempfile.TemporaryDirectory(prefix="knightcycles-") if sink is not None
          else contextlib.nullcontext()) as shard_dir:
        run = partial(_run_shard, algorithm, k, simple_filter, emit_only_simple,
                      half_path_budget, shard_dir)
        if jobs == 1:
            results = [run(shard) for shard in shards]
        else:
            results = _run_in_pool(run, shards, min(jobs, len(shards)))
        if sink is not None:
            shard_files = [f for *_, f in results if f is not None]
            for seq in heapq.merge(*map(_read_shard, shard_files)):
                sink(seq)
    per_start = dict.fromkeys(starts, 0)
    simple = 0
    for shard, shard_count, shard_simple, _ in results:
        per_start[shard[0]] += shard_count
        simple += shard_simple
    return EnumerationSummary(
        k=k, algorithm=algorithm, total=sum(per_start.values()),
        simple=simple if simple_filter else None,
        per_start=per_start, elapsed=time.perf_counter() - started)
