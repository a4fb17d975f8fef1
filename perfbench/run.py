"""Benchmark of the knight-cycles commands at cycle length 12.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/.  One client runs one command at a time (a closed loop), each
in a fresh interpreter, until --seconds have passed, and checks every output.
--trace 0 prints the end-to-end metrics, --trace 1 one untraced command plus
one traced re-run of the same step through the package's public functions,
and the per-layer metrics.  The last line of stdout is the JSON result; the
line before it records the run environment.  The exit code is 0 only when
every output passed its check.  See perfbench/README.md for the workloads
and for which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
# Fresh-interpreter set-up probes before and again after a run's commands,
# besides each command's own set-up, so the median spans the whole run.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Expected:
    """What a correct program prints and writes for one cycle length."""

    k: int
    total: int
    simple: int
    listing_bytes: int
    listing_sha256: str


EXPECTED = {
    12: Expected(12, 350286, 64877, 12_223_919,
                 "2e3217483997cf12035d461b3683fb2751527271b6a8d32dc4d51656d03b9f42"),
    # The k=8 variant the benchmark's own tests run.
    8: Expected(8, 480, 178, 10_947,
                "c08fc21955d4b6094ee9cadf4429787994f21d95de58553153148975b5c3831d"),
}

# Workload -> knight-cycles command line, given k, the output file and the
# full listing.  Why each is here is in README.md and BENCHMARK.json.
WORKLOADS = {
    "count-mitm-k12": lambda k, out, listing: [
        "count", "--length", str(k), "--algorithm", "mitm", "--simple-only",
        "--jobs", "1"],
    "list-dfs-k12-j2": lambda k, out, listing: [
        "list", "--length", str(k), "--algorithm", "dfs", "--jobs", "2",
        "--out", out],
    "check-k12": lambda k, out, listing: ["check", "--in", listing],
}

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("classes_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("worker_peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better).  README.md maps each to the end-to-end metric it
# should move and the workloads it moves it on.  A metric of a layer the
# workload's command never calls reads 0.
PER_LAYER = (
    ("search.enumerate_s", "s", "lower"),
    ("search.ns_per_class", "ns", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.first_emit_s", "s", "lower"),
    ("search.emit_s", "s", "lower"),
    ("search.parallel_eff", "ratio", "higher"),
    ("search.classes", "count", "higher"),
    ("search.simple", "count", "higher"),
    ("cycles.is_minimal.calls", "count", "lower"),
    ("cycles.is_minimal_s", "s", "lower"),
    ("cycles.is_minimal.ns_accept", "ns", "lower"),
    ("cycles.is_minimal.ns_reject", "ns", "lower"),
    ("cycles.is_minimal.accept_ratio", "ratio", "higher"),
    ("geometry.crossing_table_s", "s", "lower"),
    ("geometry.is_simple_cells.ns_per_call", "ns", "lower"),
    ("geometry.is_simple_cells_s", "s", "lower"),
    ("geometry.simple_ratio", "ratio", "higher"),
    ("analysis.writer.calls", "count", "lower"),
    ("analysis.writer.write_s", "s", "lower"),
    ("analysis.writer.close_s", "s", "lower"),
    ("analysis.writer.bytes", "bytes", "lower"),
    ("analysis.read_cycles_s", "s", "lower"),
    ("analysis.read.ns_per_cycle", "ns", "lower"),
    ("analysis.read.bytes", "bytes", "lower"),
    ("board.adjacency_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class ChildFailed(Exception):
    """A child interpreter exited badly, timed out or wrote no record."""


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def listing_error(path: str, expected: Expected) -> str | None:
    """Why the file at path is not the expected full listing, or None."""
    if not os.path.isfile(path):
        return f"{path}: missing"
    size = os.path.getsize(path)
    if size != expected.listing_bytes:
        return f"{path}: {size} bytes, expected {expected.listing_bytes}"
    digest = file_sha256(path)
    if digest != expected.listing_sha256:
        return f"{path}: sha256 {digest}, expected {expected.listing_sha256}"
    return None


def command_error(argv: list, rc: int, stdout: str, expected: Expected) -> str | None:
    """The correctness gate for one finished command, or None when it passed."""
    if rc != 0:
        return f"exit code {rc}"
    command = argv[0]
    if command == "count":
        m = re.fullmatch(r"k=(\d+) total=(\d+) simple=(\d+) elapsed=\d+\.\d+\n", stdout)
        if not m or (int(m[2]), int(m[3])) != (expected.total, expected.simple):
            return f"count printed {stdout!r}, expected total={expected.total} simple={expected.simple}"
        return None
    if command == "list":
        out = argv[argv.index("--out") + 1]
        if stdout != f"wrote {expected.total} cycles to {out}\n":
            return f"list printed {stdout!r}, expected {expected.total} cycles"
        return listing_error(out, expected)
    if command == "check":
        infile = argv[argv.index("--in") + 1]
        if stdout != f"{infile}: OK, {expected.total} cycles of length {expected.k}, filter=all\n":
            return f"check printed {stdout!r}, expected {expected.total} cycles"
        return None
    return f"no gate for command {command!r}"


def run_child(k: int, deadline: float, mode: str, *args: str) -> tuple[dict, str]:
    """Run child.py in a fresh interpreter; return its record and stdout.
    The child and anything it started are killed at the deadline."""
    tmpdir = os.path.join(WORK, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    result = os.path.join(WORK, f"record-{os.getpid()}.json")
    if os.path.exists(result):
        os.unlink(result)
    cmd = [sys.executable, "-I", CHILD, ROOT, str(k), result, mode, *args]
    # TMPDIR keeps the engine's shard files inside the checkout.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env={**os.environ, "TMPDIR": tmpdir})
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if timed_out:
        proc.communicate()
        raise ChildFailed(f"{mode} {' '.join(args)}: timed out")
    if not os.path.exists(result):
        raise ChildFailed(f"{mode} {' '.join(args)}: exit {proc.returncode}, "
                          f"no record; stderr: {stderr.strip()[-2000:]}")
    with open(result) as fh:
        record = json.load(fh)
    os.unlink(result)
    if stderr.strip():
        print(stderr.rstrip(), file=sys.stderr)
    return record, stdout


def ensure_listing(k: int, deadline: float) -> str:
    """The full length-k listing, built once per checkout through the public
    API and checked against the expected digest on every use."""
    path = os.path.join(WORK, f"listing-k{k}.txt")
    if listing_error(path, EXPECTED[k]) is None:
        return path
    tmp = f"{path}.{os.getpid()}.tmp"
    run_child(k, deadline, "listing", tmp)
    error = listing_error(tmp, EXPECTED[k])
    if error:
        raise ChildFailed(f"input listing: {error}")
    os.replace(tmp, path)
    return path


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            digest.update(file_sha256(path).encode())
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Attempts and failures of one benchmark run, never retried or dropped."""

    def __init__(self, k: int, deadline: float):
        self.k = k
        self.expected = EXPECTED[k]
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, *errors: str) -> None:
        self.failed += 1
        self.errors.extend(errors)

    def command(self, argv: list) -> dict | None:
        """One timed command; its record when it passed the gate."""
        self.attempted += 1
        try:
            record, stdout = run_child(self.k, self.deadline, "cli", *argv)
        except ChildFailed as exc:
            self.fail(str(exc))
            return None
        error = command_error(argv, record["rc"], stdout, self.expected)
        if error:
            self.fail(error)
            return None
        return record


def setup_probes(run: Run) -> list[float]:
    return [run_child(run.k, run.deadline, "setup")[0]["setup_s"]
            for _ in range(SETUP_REPEATS)]


def end_to_end(run: Run, workload: str, seconds: float) -> tuple[dict, dict]:
    out = os.path.join(WORK, f"out-k{run.k}-{os.getpid()}.txt")
    listing = ensure_listing(run.k, run.deadline) if workload == "check-k12" else ""
    argv = WORKLOADS[workload](run.k, out, listing)
    setups = setup_probes(run)
    records = []
    started = time.monotonic()
    while run.attempted == 0 or (time.monotonic() - started < seconds
                                 and time.monotonic() < run.deadline):
        record = run.command(argv)
        if record is not None:
            records.append(record)
            setups.append(record["setup_s"])
        if os.path.exists(out):
            os.unlink(out)
    setups += setup_probes(run)
    wall = median([r["wall_s"] for r in records])
    # With --jobs 1 the driver does the work, so it is its own largest worker.
    worker_kb = [r["worker_peak_rss_kb"] or r["peak_rss_kb"] for r in records]
    metrics = {
        "wall_s": wall,
        "classes_per_s": run.expected.total / wall if wall else 0.0,
        "cpu_s": median([r["cpu_s"] for r in records]),
        "peak_rss_mb": median([r["peak_rss_kb"] for r in records]) / 1024,
        "worker_peak_rss_mb": median(worker_kb) / 1024,
        "setup_s": median(setups),
    }
    detail = {"commands": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_kb",
                                              "worker_peak_rss_kb", "setup_s")}
                           for r in records],
              "setup_samples_s": setups,
              "start_method": records[0]["start_method"] if records else None}
    return metrics, detail


def trace_errors(argv: list, checks: dict, expected: Expected) -> list[str]:
    """The correctness gate for the traced step and the replays."""
    errors = []
    command = argv[0]
    if command == "count" and (checks["total"], checks["simple"]) != (expected.total,
                                                                      expected.simple):
        errors.append(f"traced count: total={checks['total']} simple={checks['simple']}")
    if command == "list":
        if checks["total"] != expected.total or checks["written"] != expected.total:
            errors.append(f"traced list: total={checks['total']} written={checks['written']}")
        error = listing_error(argv[argv.index("--out") + 1], expected)
        if error:
            errors.append(f"traced list: {error}")
    if command == "check" and (checks["count"], checks["rejected"], checks["unordered"]) != (
            expected.total, 0, 0):
        errors.append(f"traced check: {checks}")
    if checks["replay_wrong"]:
        errors.append(f"is_minimal replay: {checks['replay_wrong']} wrong verdicts")
    if checks["replay_simple"] != expected.simple:
        errors.append(f"is_simple_cells replay: {checks['replay_simple']} simple")
    if checks["listing_size"] != expected.total:
        errors.append(f"replay listing has {checks['listing_size']} entries")
    return errors


def per_layer(run: Run, workload: str, seed: int) -> tuple[dict, dict]:
    listing = ensure_listing(run.k, run.deadline)
    out = os.path.join(WORK, f"out-k{run.k}-{os.getpid()}.txt")
    argv = WORKLOADS[workload](run.k, out, listing)
    untraced = run.command(argv)
    if os.path.exists(out):
        os.unlink(out)
    run.attempted += 1
    try:
        record, _ = run_child(run.k, run.deadline, "trace", str(seed), listing, *argv)
    except ChildFailed as exc:
        run.fail(str(exc))
        return {}, {}
    errors = trace_errors(argv, record["checks"], run.expected)
    if os.path.exists(out):
        os.unlink(out)
    if errors:
        run.fail(*errors)
    metrics = record["metrics"]
    untraced_s = untraced["wall_s"] if untraced else 0.0
    metrics["cli.main_s"] = untraced_s
    metrics["trace.overhead_frac"] = (
        (record["checks"]["traced_s"] - untraced_s) / untraced_s if untraced_s else 0.0)
    return metrics, {"checks": record["checks"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--length", type=int, default=12, choices=sorted(EXPECTED),
                        help="cycle length (default 12; 8 is the quick test variant)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "knightcycles", "cli.py")):
        print(f"error: no knightcycles sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.monotonic()
    run = Run(args.length, start + RUN_BUDGET_S)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "length": args.length,
        "git_sha": git_sha(), "src_sha256": src_digest(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "loadavg_start": loadavg(),
    }
    names = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            measured, detail = per_layer(run, args.workload, args.seed)
        else:
            measured, detail = end_to_end(run, args.workload, args.seconds)
    except ChildFailed as exc:
        run.fail(str(exc))
        measured, detail = {}, {}
    env.update(detail, loadavg_end=loadavg(), errors=run.errors,
               elapsed_s=time.monotonic() - start)
    correct = run.failed == 0 and all(name in measured for name, *_ in names)
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit, *_ in names}
    print(json.dumps({"record": env}))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, run.failed, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
