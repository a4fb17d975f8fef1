"""The two construction engines and the one shard driver that runs them.

Both engines produce, for one admissible start cell s, closed knight
sequences that begin at s and never visit a cell numbered below s.  Dropping
sub-s cells is safe: a completed sequence through a smaller cell can always
be rotated to start there, which is lexicographically smaller, so such
sequences are never canonical.

The exhaustive engine extends one path cell by cell.  It walks each cycle
in one direction only, reads each cell's children from tables that already
hold every cut the path does not decide, and cuts a path as soon as its
running bounding box shows that a symmetry image will start below s.  The
assembly engine builds all half-length paths from s to one possible
opposite cell t and glues disjoint pairs; each closed sequence arises from
exactly one ordered pair of halves, so canonical filtering again counts
every class exactly once, with no memory of previously found solutions in
either engine.  ``_join_index`` indexes the halves of one (s, t) pair in
per-cell bitsets, and the pair loop of ``_mitm_one_pair`` reads it: it finds
a half's disjoint partners and, before building a pair, skips it when the
halves' box extremes put an image below s, or at s = 1 its transpose wins.

``enumerate_cycles`` is the only driver.  It splits the work into shards,
one start cell ``(s,)`` for dfs and one pair ``(s, t)`` for mitm, and runs
each through ``_run_shard``: inline when jobs=1, in a process pool
otherwise.  The engines only hand closures, with the side extremes of
their bounding boxes, to an ``emit`` callback; ``_run_shard`` keeps the
canonical ones, counts them and their simple subset and, when the caller
gave a sink, streams them to a shard file in the order both engines emit
them: ascending, k unsigned 16-bit cells per record.  The driver reads the
results in plan order, start by start, ascending; as soon as the last shard
of a start is in, the sink receives the heap merge of that start's files,
which are then deleted, while the pool runs on.  So the summary and the
stream are the same for every jobs value.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import struct
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

from .board import BoardSpec, adjacency
from .cycles import _FAR, _is_minimal_given, _side_extremes, _symmetry_tables
from .geometry import CrossingTable, crossing_table

UNREACHED = 255


@dataclass
class EnumerationSummary:
    k: int
    total: int
    simple: int | None
    per_start: dict[int, int]
    elapsed: float


class EnumerationError(RuntimeError):
    """A run failed after it started: a shard lost, cut short or out of order."""


class ShardLostError(EnumerationError):
    """A worker process died, and the shards whose results were not yet read
    (the one it was running among them) are lost: a tail of the plan, in
    plan order, which may hold shards that finished but were never read."""

    def __init__(self, shards: list[tuple[int, ...]]):
        names = ["-".join(map(str, shard)) for shard in shards]
        shown = " ".join(names[:8]) + (" ..." if len(names) > 8 else "")
        super().__init__(
            f"a worker process died; {len(names)} shard(s) lost: {shown}")


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


def _last_start(k: int) -> int:
    """The largest start cell of a canonical cycle of length k.  Its images
    start at offsets >= s - 1 (cycles._is_minimal_given), so its box
    [0, R] x [0, C] has C >= top_max + s - 1 >= 2(s - 1) and R >= left_max +
    s - 1 >= 2(s - 1); k knight moves, 3 rows and columns each, cross the
    box both ways and back, so 3k >= 2(R + C) >= 8(s - 1)."""
    return 3 * k // 8 + 1


def _dfs_one_start(board: BoardSpec, k: int, s: int, emit) -> None:
    """Exhaustive backtracking from one start cell: emit(path, extremes) for
    the closed paths of k cells from s that may be canonical (one list
    object, reused between calls), with the path's side extremes in the
    order of cycles._side_extremes.  The caller runs the canonicity core on
    every emission.

    The walk takes the second cells of s one at a time, ascending.  A
    canonical sequence has cells[1] < cells[-1], so each cycle is walked in
    one direction only: with second cell c, the path may close only on a
    neighbour of s above c.  For each c the walk first builds child tables.
    The row of a cell u, for the moves left and for whether the path has
    touched column 0, lists u's neighbours v, ascending, that pass every
    cut the path itself does not decide.  v is cut when
    - v is below s, is s, or is c (both lie on every path; from s the only
      child is c);
    - v is a column-0 cell on a row below s - 1 (see below);
    - v cannot reach one of the closing cells in the moves left;
    - the path is not yet on column 0 and v cannot reach it in the moves
      left (a canonical placement always touches column 0).
    Rows exist only for the states that such children reach from c.  Per
    child the walk keeps the two tests that depend on the path: v already
    visited, and the running box.  Every symmetry image must start at an
    offset of at least s - 1 (see cycles._is_minimal_given), so the path
    carries its side extremes: the max row and column, the max column on
    row 0, the min and max row on column 0, the min and max column on its
    last row and the min and max row on its last column.  Every later cell
    must still get back to s, at row 0, so the final max row is at most
    row(v) // 2 + remaining and the final max column at most
    (col(v) + col(s)) // 2 + remaining; each child comes with its row,
    column and both halves.  Once that bound is the path's own max row, its
    last row is the final bottom one, whose offsets can only fall: a child
    is cut once one is below s - 1, and so for the last column.  The box is
    final at the leaf, so the walk emits the closures whose offsets pass.
    """
    side = board.width
    size = board.size
    adj_s = _filtered_adjacency(board, s)
    low = s_col = s - 1
    rows = [0] + [(c - 1) // side for c in range(1, size + 1)]
    cols = [0] + [(c - 1) % side for c in range(1, size + 1)]
    # Column-0 cells on rows below s - 1 are cut, so only the others count.
    dist_col0 = _distances(adj_s, range(low * side + 1, size + 1, side), size)
    cells = [(v, rows[v], cols[v], rows[v] // 2, (cols[v] + s_col) // 2)
             for v in range(size + 1)]
    visited = bytearray(size + 1)
    visited[s] = 1
    path = [s]

    def extend(u: int, remaining: int, kids, last_row: int, last_col: int,
               top_max: int, left_min: int, left_max: int, bottom_min: int,
               bottom_max: int, right_min: int, right_max: int) -> None:
        for v, r, c, r_half, c_half in kids[remaining][u]:
            if visited[v]:
                continue
            top = top_max
            left_lo = left_min
            left = left_max
            if c == 0:
                if r < left_lo:
                    left_lo = r
                if r > left:
                    left = r
            elif r == 0 and c > top:
                top = c
            # Conditional expressions: builtin min/max calls cost more here.
            if r > last_row:
                row, b_lo, b_hi = r, c, c
            elif r == last_row:
                row, b_lo = r, c if c < bottom_min else bottom_min
                b_hi = c if c > bottom_max else bottom_max
            else:
                row, b_lo, b_hi = last_row, bottom_min, bottom_max
            if c > last_col:
                col, r_lo, r_hi = c, r, r
            elif c == last_col:
                col, r_lo = c, r if r < right_min else right_min
                r_hi = r if r > right_max else right_max
            else:
                col, r_lo, r_hi = last_col, right_min, right_max
            # The final box: once row_up == row, row is its last row.
            row_up = r_half + remaining if r_half + remaining > row else row
            col_up = c_half + remaining if c_half + remaining > col else col
            if (col_up - top < low or row_up - left < low
                    or row_up == row and (b_lo < low or col_up - b_hi < low)
                    or col_up == col and (r_lo < low or row_up - r_hi < low)):
                continue
            path.append(v)
            if remaining == 1:
                emit(path, (row, col, top, left_lo, left, b_lo, b_hi, r_lo,
                            r_hi))
            else:
                visited[v] = 1
                extend(v, remaining - 1, on_col0 if c == 0 else kids, row, col,
                       top, left_lo, left, b_lo, b_hi, r_lo, r_hi)
                visited[v] = 0
            path.pop()

    # The column-0 extremes are (_FAR, low) until the path touches it: no
    # column-0 cell on a row below low passes the tables.
    left = (0, 0) if s_col == 0 else (_FAR, low)
    # No neighbour of s lies above the largest: a path through it cannot close.
    for second in adj_s[s][:-1]:
        closing = _distances(adj_s, [n for n in adj_s[s] if n > second], size)
        # tables[touched][remaining][u]: the children of u with remaining
        # moves left, on a path that has (1) or has not (0) touched column 0.
        tables = tuple([[()] * (size + 1) for _ in range(k)] for _ in range(2))
        on_col0 = tables[1]
        states = {(s, s_col == 0)}
        for remaining in range(k - 1, 0, -1):
            reached = set()
            for u, touched in states:
                # A list, not a tuple: freed tuples wait on the interpreter's
                # free lists, which raised a worker's peak RSS.
                # From s only second: s and second lie on every path.
                children = tables[touched][remaining][u] = [
                    cells[v] for v in adj_s[u]
                    if v > s and (v == second) == (u == s)
                    and closing[v] < remaining
                    and (rows[v] >= low if cols[v] == 0
                         else touched or dist_col0[v] < remaining)]
                reached.update((v, touched or cols[v] == 0)
                               for v, *_ in children)
            states = reached
        extend(s, k - 1, tables[s_col == 0], 0, s_col, s_col, *left, s_col, s_col,
               0, 0)
    del extend  # it refers to itself: free the walk's state without the gc


def _half_paths_raw(board: BoardSpec, k: int, s: int, t: int):
    """All simple knight paths s -> t of exactly k/2 edges over cells >= s,
    as cell tuples in ascending order.  t is never used as an interior
    cell."""
    m = k // 2
    adj_s = _filtered_adjacency(board, s)
    dist_t = _distances(adj_s, (t,), board.size)
    out: list[tuple[int, ...]] = []
    visited = bytearray(board.size + 1)
    visited[s] = 1
    visited[t] = 1
    path = [s]

    def extend(u: int, edges_left: int) -> None:
        if edges_left == 1:
            if dist_t[u] == 1:
                out.append((*path, t))
            return
        for v in adj_s[u]:
            if not visited[v] and dist_t[v] < edges_left:
                visited[v] = 1
                path.append(v)
                extend(v, edges_left - 1)
                path.pop()
                visited[v] = 0

    extend(s, m)
    del extend  # it refers to itself: free the walk's state without the gc
    return out


def _join_index(board: BoardSpec, k: int, s: int, t: int,
                table: CrossingTable | None):
    """The index _mitm_one_pair's pair loop reads: (halves, tails, b_extremes,
    b_masks, holders, above, col0, tall, wide, flips).  The start test needs
    a box 2(s - 1) rows deep and wide (see _last_start), so a half short of
    either keeps only the partners in tall or wide.  At s = 1 every closure
    ties with its transpose image; flips drops the pairs whose image wins."""
    low = s - 1
    # A half whose own column-0 cells start an image below s joins nothing.
    halves = [(cells, extremes, table.path_masks(cells) if table else (0, 0))
              for cells in _half_paths_raw(board, k, s, t)
              if (extremes := _side_extremes(cells, board.width))[3] >= low]
    # A closure reads half a forwards, then half b's interior backwards.  The
    # a side goes in ascending order and the b side is sorted by reversed
    # halves, so one a's partners, lowest bit first, glue in ascending order.
    b_side = sorted(halves, key=lambda half: half[0][::-1])
    tails = [cells[-2:0:-1] for cells, _, _ in b_side]
    b_extremes = [extremes for _, extremes, _ in b_side]
    b_masks = [masks for _, _, masks in b_side]
    # Bitsets over the b order: holders[c] and seconds[c] hold the halves
    # with c in the interior and as the second cell, col0, tall and wide
    # those on column 0 and at least 2 * low rows and columns deep.
    holders = [0] * (board.size + 1)
    seconds: dict[int, int] = {}
    col0 = tall = wide = 0
    for j, (cells, extremes, _) in enumerate(b_side):
        bit = 1 << j
        for c in cells[1:-1]:
            holders[c] |= bit
        seconds[cells[1]] = seconds.get(cells[1], 0) | bit
        if extremes[3] != _FAR:
            col0 |= bit
        if extremes[0] >= 2 * low:
            tall |= bit
        if extremes[1] >= 2 * low:
            wide |= bit
    # A glued sequence reads a's second cell at position 1 and b's at
    # position k-1, and only pairs with the former smaller can be canonical:
    # above[c] holds the halves whose second cell lies above c (the seconds
    # bitsets are disjoint, so their sum is their union).
    above = {c: sum(bits for d, bits in seconds.items() if d > c)
             for c in seconds}
    # At s = 1 every closure ties with its transpose T, which fixes cell 1.
    # Read from cell 1 forwards, T is never below it (a[1] < b[1] = T(a[1])),
    # backwards exactly when T(b)[1:] < a[1:]: as the a side ascends, a sweep
    # over the b halves sorted by T(b)[1:] grows each a's losers.
    transpose = _symmetry_tables(board.width)[3]
    flips = sorted((tuple(map(transpose.__getitem__, cells[1:])), 1 << j)
                   for j, (cells, _, _) in enumerate(b_side)) if s == 1 else []
    flips.append(((_FAR,), 0))  # a sentinel above every a[1:]
    return (halves, tails, b_extremes, b_masks, holders, above, col0, tall,
            wide, flips)


def _mitm_one_pair(board: BoardSpec, k: int, s: int, t: int, emit,
                   table: CrossingTable | None = None) -> None:
    """emit(sequence, extremes, simple), in ascending order of the sequences,
    for the closures with start s and opposite cell t that two s -> t halves
    with disjoint interiors glue into, less those whose start test already
    fails.  simple comes from the halves' CrossingTable.path_masks; without
    a table every half has the masks (0, 0), and simple means nothing.

    A glued sequence starts at s, its smallest cell, so it can only be
    canonical when every symmetry image of it starts at an offset of at least
    s - 1 (see cycles._is_minimal_given).  Those offsets are extremes of the
    sides of the pair's bounding box, and each side's extremes come from the
    half (or both halves) reaching that side, so the two halves' summaries
    decide the test before the sequence is built.  The pair's combined side
    extremes, in the order of cycles._side_extremes, go out with the
    sequence, and the caller runs the canonicity core on every emission.

    The join tests the offsets inline, side by side with early exits, and
    does not share the core's offset computation: a helper call on a 9-tuple
    for every pair tried took the k=12 join from 2.0-2.3 s to 3.3-3.9 s of
    CPU.
    """
    low = s - 1
    (halves, tails, b_extremes, b_masks, holders, above, col0, tall, wide,
     flips) = _join_index(board, k, s, t, table)
    losers = flip = 0
    for (a_cells, (a_rows, a_cols, a_top, a_left_min, a_left_max, a_bottom_min,
                   a_bottom_max, a_right_min, a_right_max),
         (a_edges, a_crossed)) in halves:
        clash = 0
        for c in a_cells[1:-1]:
            clash |= holders[c]
        while flips[flip][0] < a_cells[1:]:
            losers |= flips[flip][1]
            flip += 1
        partners = above[a_cells[1]] & ~(clash | losers)
        if a_left_min == _FAR:
            partners &= col0
        if a_rows < 2 * low:
            partners &= tall
        if a_cols < 2 * low:
            partners &= wide
        while partners:
            bit = partners & -partners
            partners ^= bit
            j = bit.bit_length() - 1
            (b_rows, b_cols, b_top, b_left_min, b_left_max, b_bottom_min,
             b_bottom_max, b_right_min, b_right_max) = b_extremes[j]
            # Conditional expressions: builtin min/max calls cost more here.
            last_row = a_rows if a_rows > b_rows else b_rows
            last_col = a_cols if a_cols > b_cols else b_cols
            top = a_top if a_top > b_top else b_top
            left_max = a_left_max if a_left_max > b_left_max else b_left_max
            if last_col - top < low or last_row - left_max < low:
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
            extremes = (last_row, last_col, top,
                        a_left_min if a_left_min < b_left_min else b_left_min,
                        left_max, bottom_min, bottom_max, right_min, right_max)
            b_edges, b_crossed = b_masks[j]
            emit(a_cells + tails[j], extremes,
                 not (a_crossed | b_crossed) & (a_edges | b_edges))


def _mitm_pairs_for_start(board: BoardSpec, k: int, s: int):
    """Opposite cells for start s: those above s of the colour k/2 knight
    moves reach.  The board's side k+1 is odd, so colour is the parity of
    the cell number.  A cell out of reach is an empty shard:
    _half_paths_raw's distance cut fails at its root."""
    return range(s + 2 - k // 2 % 2, board.size + 1, 2)


def _run_shard(algorithm: str, k: int, simple_filter: bool,
               emit_only_simple: bool, shard_dir: str | None,
               shard: tuple[int, ...]):
    """Run one shard, a start cell (dfs) or an (s, t) pair (mitm), and keep
    the canonical closures its engine emits.  Each emission carries the
    closure's side extremes (and, from mitm, its simple flag), so the
    canonicity core reads nothing off the cells; the engines guarantee its
    preconditions (smallest cell first, cells[1] < cells[-1]).

    Returns (count, simple, shard_file).  Kept sequences stream to a
    file in shard_dir, if given, and one not above the previous raises
    EnumerationError.  A shard that keeps nothing writes no file (None).
    """
    board = BoardSpec.for_cycle_length(k)
    side = board.width
    table = crossing_table(board) if simple_filter else None
    name = f"{algorithm}-{'-'.join(map(str, shard))}"
    record = struct.Struct(f"{k}H")
    out = None
    last: tuple[int, ...] = ()
    count = 0
    simple = 0

    def emit(seq, extremes, is_simple=None) -> None:
        nonlocal count, simple, out, last
        if not _is_minimal_given(seq, side, extremes):
            return
        count += 1
        if table is not None:
            if table.is_simple_cells(seq) if is_simple is None else is_simple:
                simple += 1
            elif emit_only_simple:
                return
        if shard_dir is None:
            return
        seq = tuple(seq)
        if seq <= last:
            raise EnumerationError(
                f"shard {name} emitted {seq} after {last}, out of order")
        last = seq
        if out is None:
            out = open(os.path.join(shard_dir, f"{name}.shard"), "wb")
        out.write(record.pack(*seq))

    try:
        if algorithm == "dfs":
            _dfs_one_start(board, k, *shard, emit)
        else:
            _mitm_one_pair(board, k, *shard, emit, table)
    finally:
        if out is not None:
            out.close()
    return count, simple, None if out is None else out.name


def _worker_init() -> None:
    """Workers die at once on Ctrl-C (SIGINT reaches the whole process group)
    instead of raising KeyboardInterrupt and running on into queued shards."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _run_in_pool(run, shards, workers: int):
    """Yield run(shard) for every shard, in the order of shards, from a pool
    of worker processes.  A worker that dies (killed, out of memory) breaks
    the pool; that surfaces as ShardLostError naming the shards whose
    results were not yet read.  Any other early end while results are left
    unread (a shard's exception, Ctrl-C, closing the generator) terminates
    the workers, so the shards they run stop as well as those still queued."""
    # Imported on first use: it loads logging and multiprocessing, which the
    # package import and jobs=1 runs do without.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init) as pool:
        # The first submit forks the workers.  SIGINT waits until every shard
        # is in, so that no at-fork hook and no worker before its initializer
        # can take it; it then raises here, and queued shards are cancelled.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        i = 0  # a pool that breaks while shards go in has read no result
        try:
            # Not pool.map: before Python 3.12, its cancels crash the pool's manager thread.
            futures = [pool.submit(run, shard) for shard in shards]
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for i, future in enumerate(futures):
                yield future.result()
        except BrokenProcessPool as exc:
            raise ShardLostError(shards[i:]) from exc
        except BaseException:
            if i + 1 < len(shards):  # results left unread
                # Python 3.14 has terminate_workers(); before it the pool's
                # _processes map is the only handle on the workers.
                for process in list(pool._processes.values()):
                    process.terminate()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            # After a failure, shards that have not started never will.
            pool.shutdown(cancel_futures=True)


def _read_shard(path: str, k: int):
    """The records of a shard file, read a fixed number at a time."""
    record = struct.Struct(f"{k}H")
    with open(path, "rb") as fh:
        while chunk := fh.read(4096 * record.size):
            if len(chunk) % record.size:
                raise EnumerationError(f"shard file {path} ends mid-record")
            yield from record.iter_unpack(chunk)


def enumerate_cycles(k: int, algorithm: str = "dfs", *,
                     simple_filter: bool = False, emit_only_simple: bool = False,
                     jobs: int = 1, sink=None) -> EnumerationSummary:
    """Count (and optionally emit) every nonequivalent cycle of length k.

    Work is partitioned by start cell (dfs) or by (s, t) pair (mitm) and run
    inline (jobs=1) or in a pool of ``jobs`` processes.  A count-only call
    holds no sequences and writes no files.  With a sink, every shard streams
    its kept sequences, in order, to a file in a temporary directory.  Shard
    results are read in plan order, and the sink receives their merge one
    start at a time, as soon as its last shard is in: canonical sequences in
    strictly ascending order, identical for every jobs value.  simple_filter
    counts the simple ones too; emit_only_simple also feeds the sink only those.
    """
    board = BoardSpec.for_cycle_length(k)
    if algorithm not in ("dfs", "mitm"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    simple_filter = simple_filter or emit_only_simple

    started = time.perf_counter()
    starts = range(1, _last_start(k) + 1)
    per_start = dict.fromkeys(starts, 0)
    plan = {s: [(s,)] if algorithm == "dfs"
            else [(s, t) for t in _mitm_pairs_for_start(board, k, s)]
            for s in starts}
    shards = [shard for s in starts for shard in plan[s]]
    simple = 0
    with (tempfile.TemporaryDirectory(prefix="knightcycles-") if sink is not None
          else contextlib.nullcontext()) as shard_dir:
        run = partial(_run_shard, algorithm, k, simple_filter, emit_only_simple,
                      shard_dir)
        workers = min(jobs, len(shards), os.cpu_count() or 1)
        with contextlib.closing(
                (run(shard) for shard in shards) if jobs == 1
                else _run_in_pool(run, shards, workers)) as results:
            # Results come in plan order and all of start s sorts below start
            # s + 1, so each start drains as soon as its last shard is in.
            for s in starts:
                paths = []
                for count, shard_simple, path in islice(results, len(plan[s])):
                    per_start[s] += count
                    simple += shard_simple
                    if path is not None:
                        paths.append(path)
                for seq in heapq.merge(*(_read_shard(f, k) for f in paths)):
                    sink(seq)
                for f in paths:
                    os.unlink(f)
    return EnumerationSummary(
        k=k, total=sum(per_start.values()),
        simple=simple if simple_filter else None,
        per_start=per_start, elapsed=time.perf_counter() - started)
