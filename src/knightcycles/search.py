"""The two construction engines and the one shard driver that runs them.

Both engines produce, for one admissible start cell s, closed knight
sequences that begin at s and never visit a cell numbered below s.  Dropping
sub-s cells is safe: a completed sequence through a smaller cell can always
be rotated to start there, which is lexicographically smaller, so such
sequences are never canonical.

The exhaustive engine extends one path cell by cell.  The assembly engine
builds all half-length paths from s to one possible opposite cell t and
glues disjoint pairs; each closed sequence arises from exactly one ordered
pair of halves, so canonical filtering again counts every class exactly once,
with no memory of previously found solutions in either engine.

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
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import Pool

from .board import BoardSpec, adjacency
from .cycles import _is_minimal_square
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


def _col0_cells(board: BoardSpec, s: int) -> list[int]:
    return [c for c in range(1, board.size + 1, board.width) if c >= s]


def _dfs_one_start(board: BoardSpec, k: int, s: int, emit) -> None:
    """Exhaustive backtracking from one start cell: emit every closed path
    of k cells from s (one list object, reused between calls).

    Two sound cuts beyond the >= s rule: a partial path is dropped when the
    closing cell is no longer reachable in the remaining moves, or when the
    leftmost column can no longer be visited (a canonical placement always
    touches column 0, so such paths cannot produce a canonical sequence).
    """
    side = board.width
    adj_s = _filtered_adjacency(board, s)
    dist_s = _distances(adj_s, (s,), board.size)
    dist_col0 = _distances(adj_s, _col0_cells(board, s), board.size)
    visited = bytearray(board.size + 1)
    visited[s] = 1
    path = [s]

    def extend(u: int, depth: int, col0_seen: bool) -> None:
        if depth == k:
            if dist_s[u] == 1:
                emit(path)
            return
        remaining = k - depth
        for v in adj_s[u]:
            if not visited[v] and dist_s[v] <= remaining and (
                col0_seen or dist_col0[v] < remaining or v % side == 1
            ):
                visited[v] = 1
                path.append(v)
                extend(v, depth + 1, col0_seen or v % side == 1)
                path.pop()
                visited[v] = 0

    extend(s, 1, s % side == 1)


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
    """Emit every closure with start s and opposite cell t that two s -> t
    halves with disjoint interiors glue into."""
    halves = _half_paths_raw(board, k, s, t, budget)
    if len(halves) < 2:
        return
    col0_mask = 0
    for c in _col0_cells(board, s):
        col0_mask |= 1 << c
    base = (1 << s) | (1 << t)
    n = len(halves)
    # Halves are in ascending order, so runs of equal second cell are
    # contiguous; a glued sequence reads a's second cell at position 1 and
    # b's at position k-1, and only pairs with the former smaller can be
    # canonical, so b always comes from a strictly later run.
    run_start: list[int] = []
    prev = None
    for i, (cells, _) in enumerate(halves):
        if cells[1] != prev:
            run_start.append(i)
            prev = cells[1]
    run_start.append(n)
    run_index = 0
    for i, (a_cells, a_mask) in enumerate(halves):
        if i == run_start[run_index + 1]:
            run_index += 1
        for j in range(run_start[run_index + 1], n):
            b_cells, b_mask = halves[j]
            if a_mask & b_mask != base:
                continue
            if not ((a_mask | b_mask) & col0_mask):
                continue
            emit(a_cells + b_cells[-2:0:-1])


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


def _read_shard(path: str):
    with open(path) as fh:
        for line in fh:
            yield tuple(int(x) for x in line.split())


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
            with Pool(processes=min(jobs, len(shards))) as pool:
                results = list(pool.imap_unordered(run, shards))
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
