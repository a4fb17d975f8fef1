"""One fresh interpreter of the benchmark: set-up probe, timed command, listing
build or traced step.  run.py starts it and reads the JSON record it writes.

    python3 -I perfbench/child.py ROOT K RESULT setup
    python3 -I perfbench/child.py ROOT K RESULT cli ARGV...
    python3 -I perfbench/child.py ROOT K RESULT listing OUT
    python3 -I perfbench/child.py ROOT K RESULT trace SEED LISTING ARGV...

In trace mode the command line ARGV is parsed with the CLI's own parser and
its step is re-run through the public functions that command calls.

Only public functions of the package are called, and every span is timed
here, around those calls; nothing in src/ is patched.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT, K, RESULT, MODE = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
ARGS = sys.argv[5:]
sys.path.insert(0, os.path.join(ROOT, "src"))

# Set-up: the import plus the (k+1) x (k+1) board tables every command uses.
from knightcycles import analysis, board, cycles, geometry, search  # noqa: E402
from knightcycles import cli  # noqa: E402

BOARD = board.BoardSpec.for_cycle_length(K)
board.adjacency(BOARD)
geometry.crossing_table(BOARD)
# Any cycle on the board builds the canonicity transform tables.
cycles.is_minimal(cycles.CycleSeq(
    tuple(board.index_of(p, BOARD) for p in ((0, 1), (2, 0), (3, 2), (1, 3))), BOARD))
T1 = time.perf_counter()

# Listing entries drawn for the is_minimal replay, each with its own random
# symmetry, start offset and direction.
REPLAY_SAMPLES = 50_000


def cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def rusage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def cpu_since(before) -> float:
    self_now, children_now = rusage()
    return (cpu(self_now) - cpu(before[0])) + (cpu(children_now) - cpu(before[1]))


def run_cli() -> dict:
    before = rusage()
    started = time.perf_counter()
    try:
        code = cli.main(ARGS)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - started
    self_now, children_now = rusage()
    return {
        "rc": code,
        "wall_s": wall,
        "cpu_s": cpu_since(before),
        "peak_rss_kb": self_now.ru_maxrss,
        "worker_peak_rss_kb": children_now.ru_maxrss,
        "start_method": multiprocessing.get_start_method(),
    }


def build_listing(out: str) -> dict:
    jobs = min(2, os.cpu_count() or 1)
    writer = analysis.CycleFileWriter(out, K, filter_tag="all")
    try:
        summary = search.enumerate_cycles(K, "dfs", jobs=jobs, sink=writer.write)
        writer.close()
    except BaseException:
        writer.abort()
        raise
    return {"total": summary.total}


def load_listing(path: str) -> list:
    with open(path) as fh:
        fh.readline()
        return [tuple(map(int, line.split())) for line in fh]


class Step:
    """Spans of one traced step: the enumerate call, its sink calls, and
    every other public call, summed per name."""

    def __init__(self):
        self.ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.first_sink = None
        self.last_sink = None
        self.cpu_at_first_sink = None

    def add(self, name: str, ns: int) -> None:
        self.ns[name] = self.ns.get(name, 0) + ns
        self.calls[name] = self.calls.get(name, 0) + 1

    def sink(self, fn, cpu_base):
        """Wrap a sink; record when it is first and last entered."""
        clock = time.perf_counter_ns

        def traced(seq):
            t = clock()
            if self.first_sink is None:
                self.first_sink = t
                self.cpu_at_first_sink = cpu_since(cpu_base)
            fn(seq)
            done = clock()
            self.last_sink = t
            self.add("sink", done - t)

        return traced

    def s(self, name: str) -> float:
        return self.ns.get(name, 0) / 1e9


def enumerate_metrics(step: Step, summary, started: int, ended: int, cpu_total: float,
                      jobs: int) -> dict:
    span = (ended - started) / 1e9
    emitting = step.first_sink is not None
    compute = (step.first_sink - started) / 1e9 if emitting else span
    compute_cpu = step.cpu_at_first_sink if emitting else cpu_total
    return {
        "search.enumerate_s": span,
        "search.ns_per_class": span * 1e9 / summary.total,
        "search.self_s": span - step.s("sink"),
        "search.first_emit_s": compute if emitting else 0.0,
        "search.emit_s": (step.last_sink - step.first_sink) / 1e9 if emitting else 0.0,
        "search.parallel_eff": compute_cpu / (jobs * compute),
        "search.classes": summary.total,
        "search.simple": summary.simple or 0,
    }


def traced_count(step: Step, args) -> tuple[dict, dict]:
    before = rusage()
    started = time.perf_counter_ns()
    summary = search.enumerate_cycles(args.length, args.algorithm,
                                      simple_filter=args.simple_only, jobs=args.jobs)
    ended = time.perf_counter_ns()
    metrics = enumerate_metrics(step, summary, started, ended, cpu_since(before), args.jobs)
    return metrics, {"total": summary.total, "simple": summary.simple,
                     "traced_s": (ended - started) / 1e9}


def traced_list(step: Step, args) -> tuple[dict, dict]:
    writer = analysis.CycleFileWriter(args.out, args.length,
                                      filter_tag="simple" if args.simple_only else "all")
    before = rusage()
    started = time.perf_counter_ns()
    try:
        summary = search.enumerate_cycles(
            args.length, args.algorithm, jobs=args.jobs,
            simple_filter=args.simple_only, emit_only_simple=args.simple_only,
            sink=step.sink(writer.write, before))
        ended = time.perf_counter_ns()
        writer.close()
    except BaseException:
        writer.abort()
        raise
    closed = time.perf_counter_ns()
    metrics = enumerate_metrics(step, summary, started, ended, cpu_since(before),
                                args.jobs)
    metrics.update({
        "analysis.writer.calls": step.calls.get("sink", 0),
        "analysis.writer.write_s": step.s("sink"),
        "analysis.writer.close_s": (closed - ended) / 1e9,
        "analysis.writer.bytes": os.path.getsize(args.out),
    })
    return metrics, {"total": summary.total, "written": writer.count,
                     "traced_s": (closed - started) / 1e9}


def traced_check(step: Step, path: str) -> tuple[dict, dict]:
    """The check command's loop, with read_cycles and is_minimal timed apart."""
    clock = time.perf_counter_ns
    started = clock()
    with open(path) as fh:
        header = analysis.read_cycle_header(fh.readline().rstrip("\n"))
    previous = None
    count = 0
    rejected = 0
    unordered = 0
    cycles_iter = iter(analysis.read_cycles(path))
    while True:
        t = clock()
        cycle = next(cycles_iter, None)
        t_read = clock()
        step.add("read", t_read - t)
        if cycle is None:
            break
        ok = cycles.is_minimal(cycle)
        step.add("is_minimal.accept" if ok else "is_minimal.reject", clock() - t_read)
        rejected += not ok
        if previous is not None and cycle.cells <= previous:
            unordered += 1
        previous = cycle.cells
        count += 1
    ended = clock()
    metrics = {
        "analysis.read_cycles_s": step.s("read"),
        "analysis.read.ns_per_cycle": step.ns["read"] / max(count, 1),
        "analysis.read.bytes": os.path.getsize(path),
    }
    return metrics, {"count": count, "k": header.k, "rejected": rejected,
                     "unordered": unordered, "traced_s": (ended - started) / 1e9}


def replay_is_minimal(step: Step, listing: list, seed: int) -> dict:
    """Re-encode sampled listing entries under a random symmetry, start offset
    and direction.  The verdict is known: canonical iff the draw reproduces
    the source sequence."""
    rng = random.Random(seed)
    side = BOARD.width
    drawn = []
    for cells in rng.choices(listing, k=REPLAY_SAMPLES):
        element = rng.choice(board.DIHEDRAL_ELEMENTS)
        offset = rng.randrange(K)
        direction = rng.choice((1, -1))
        coords = [divmod(c - 1, side) for c in cells]
        pts = board.normalize_translation(board.apply_dihedral(coords, element))
        seq = tuple(board.index_of(pts[(offset + direction * i) % K], BOARD)
                    for i in range(K))
        drawn.append((cycles.CycleSeq(seq, BOARD), seq == cells))
    clock = time.perf_counter_ns
    wrong = 0
    accepted = 0
    for cycle, expected in drawn:
        t = clock()
        ok = cycles.is_minimal(cycle)
        step.add("is_minimal.accept" if ok else "is_minimal.reject", clock() - t)
        wrong += ok != expected
        accepted += ok
    return {"replay_wrong": wrong, "replay_accepted": accepted}


def replay_is_simple(step: Step, listing: list) -> int:
    table = geometry.crossing_table(BOARD)
    clock = time.perf_counter_ns
    simple = 0
    for cells in listing:
        t = clock()
        ok = table.is_simple_cells(cells)
        step.add("is_simple_cells", clock() - t)
        simple += ok
    return simple


def cold_build_s(fn, repeats: int) -> float:
    """Median time of an uncached table build (lru_cache bypassed)."""
    build = getattr(fn, "__wrapped__", fn)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        build(BOARD)
        times.append(time.perf_counter() - t)
    return sorted(times)[len(times) // 2]


def run_trace(seed: int, listing_path: str, argv: list) -> dict:
    step = Step()
    metrics = dict.fromkeys((
        "search.enumerate_s", "search.ns_per_class", "search.self_s",
        "search.first_emit_s", "search.emit_s", "search.parallel_eff",
        "search.classes", "search.simple",
        "analysis.writer.calls", "analysis.writer.write_s", "analysis.writer.close_s",
        "analysis.writer.bytes", "analysis.read_cycles_s", "analysis.read.ns_per_cycle",
        "analysis.read.bytes"), 0)
    args = cli.build_parser().parse_args(argv)
    if args.command == "count":
        step_metrics, checks = traced_count(step, args)
    elif args.command == "list":
        step_metrics, checks = traced_list(step, args)
    elif args.command == "check":
        step_metrics, checks = traced_check(step, args.infile)
    else:
        raise SystemExit(f"no traced step for {args.command!r}")
    metrics.update(step_metrics)

    listing = load_listing(listing_path)
    checks.update(replay_is_minimal(step, listing, seed))
    checks["replay_simple"] = replay_is_simple(step, listing)
    accept_ns, reject_ns = step.ns.get("is_minimal.accept", 0), step.ns.get("is_minimal.reject", 0)
    accepts, rejects = step.calls.get("is_minimal.accept", 0), step.calls.get("is_minimal.reject", 0)
    metrics.update({
        "cycles.is_minimal.calls": accepts + rejects,
        "cycles.is_minimal_s": (accept_ns + reject_ns) / 1e9,
        "cycles.is_minimal.ns_accept": accept_ns / max(accepts, 1),
        "cycles.is_minimal.ns_reject": reject_ns / max(rejects, 1),
        "cycles.is_minimal.accept_ratio": checks["replay_accepted"] / REPLAY_SAMPLES,
        "geometry.is_simple_cells.ns_per_call": step.ns["is_simple_cells"] / len(listing),
        "geometry.is_simple_cells_s": step.s("is_simple_cells"),
        "geometry.simple_ratio": checks["replay_simple"] / len(listing),
        "geometry.crossing_table_s": cold_build_s(geometry.crossing_table, 3),
        "board.adjacency_s": cold_build_s(board.adjacency, 21),
    })
    checks["replay_samples"] = REPLAY_SAMPLES
    checks["listing_size"] = len(listing)
    return {"metrics": metrics, "checks": checks}


def main() -> None:
    record = {"setup_s": T1 - T0}
    if MODE == "cli":
        record.update(run_cli())
    elif MODE == "listing":
        record.update(build_listing(ARGS[0]))
    elif MODE == "trace":
        record.update(run_trace(int(ARGS[0]), ARGS[1], ARGS[2:]))
    elif MODE != "setup":
        raise SystemExit(f"unknown mode {MODE!r}")
    with open(RESULT, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
