"""Command-line interface.

Exit codes: 0 success; 2 a refused argument, found before any work; 1 a
failure after that: a flaw check or verify finds, a lost worker, a failed
write (a full disk, a closed output pipe) or exhausted memory; 130 Ctrl-C.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .analysis import (
    EXPECTED_COUNTS,
    CycleFileWriter,
    ParseError,
    check_output_path,
    group_geometric_twins,
    publish,
    read_listing,
    render,
)
from .board import BoardSpec
from .cycles import validate_cycle
from .search import EnumerationError, enumerate_cycles

USAGE_ERROR = 2
FAILURE = 1
INTERRUPTED = 130


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel workers (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knight-cycles",
        description="Construct, classify and count closed knight's paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count nonequivalent cycles of one length")
    p.add_argument("--length", type=int, required=True, metavar="K")
    p.add_argument("--algorithm", choices=("dfs", "mitm"), default="dfs")
    p.add_argument("--simple-only", action="store_true",
                   help="also count non-self-intersecting cycles")
    _add_jobs_flag(p)

    p = sub.add_parser("list", help="write the sorted cycle listing to a file")
    p.add_argument("--length", type=int, required=True, metavar="K")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--algorithm", choices=("dfs", "mitm"), default="dfs")
    p.add_argument("--simple-only", action="store_true",
                   help="list only non-self-intersecting cycles")
    _add_jobs_flag(p)

    p = sub.add_parser("verify", help="re-enumerate and compare against the "
                                      "reference count table")
    p.add_argument("--max-length", type=int, required=True, metavar="K")
    p.add_argument("--algorithm", choices=("dfs", "mitm", "both"), default="both")
    _add_jobs_flag(p)

    p = sub.add_parser("twins", help="find cycles sharing a cell set without "
                                     "being equivalent")
    p.add_argument("--length", type=int, required=True, metavar="K")
    p.add_argument("--out", metavar="FILE")
    _add_jobs_flag(p)

    p = sub.add_parser("render", help="draw one cycle as SVG or ASCII")
    p.add_argument("--seq", required=True, metavar="C1,C2,...",
                   help="comma-separated cell numbers")
    p.add_argument("--width", type=int, required=True, metavar="W",
                   help="side of the square board the cells are numbered on")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("check", help="validate a cycle listing file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")

    return parser


def _cmd_count(args) -> int:
    summary = enumerate_cycles(
        args.length, args.algorithm,
        simple_filter=args.simple_only, jobs=args.jobs)
    line = f"k={summary.k} total={summary.total}"
    if summary.simple is not None:
        line += f" simple={summary.simple}"
    line += f" elapsed={summary.elapsed:.2f}"
    print(line)
    return 0


def _cmd_list(args) -> int:
    filter_tag = "simple" if args.simple_only else "all"
    with CycleFileWriter(args.out, args.length, filter_tag) as writer:
        enumerate_cycles(
            args.length, args.algorithm, jobs=args.jobs,
            emit_only_simple=args.simple_only, sink=writer.write)
    print(f"wrote {writer.count} cycles to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    BoardSpec.for_cycle_length(args.max_length)  # refused before any enumeration
    algorithms = ("dfs", "mitm") if args.algorithm == "both" else (args.algorithm,)
    failures = []
    for k in range(4, args.max_length + 2, 2):
        expected_total, expected_simple = EXPECTED_COUNTS[k]
        for alg in algorithms:
            summary = enumerate_cycles(k, alg, simple_filter=True, jobs=args.jobs)
            row_failures = []
            if summary.total != expected_total:
                row_failures.append(f"k={k} {alg}: expected {expected_total} "
                                    f"classes, got {summary.total}")
            if summary.simple != expected_simple:
                row_failures.append(f"k={k} {alg}: expected {expected_simple} "
                                    f"simple, got {summary.simple}")
            print(f"k={k:<3d} {alg:<4s} total={summary.total} (expect {expected_total})  "
                  f"simple={summary.simple} (expect {expected_simple})  "
                  f"elapsed={summary.elapsed:.2f}s  "
                  f"{'FAIL' if row_failures else 'PASS'}", flush=True)
            failures += row_failures
    if not failures:
        print("all counts match")
        return 0
    for failure in failures:
        print(f"MISMATCH: {failure}", file=sys.stderr)
    return FAILURE


def _output_to(out):
    """Check --out now; the output goes to stdout, or to a file published there."""
    return (contextlib.nullcontext(sys.stdout) if out is None
            else publish(check_output_path(out)))


def _cmd_twins(args) -> int:
    output = _output_to(args.out)
    collected: list[tuple[int, ...]] = []
    enumerate_cycles(args.length, "mitm", jobs=args.jobs,
                     sink=collected.append)
    groups = group_geometric_twins(collected)
    with output as out:
        for group in groups:
            out.write("cells " + " ".join(map(str, group.key)) + "\n")
            for member in group.members:
                out.write("  " + " ".join(map(str, member)) + "\n")
            out.write("\n")
        out.write(f"{len(groups)} twin groups among {len(collected)} cycles "
                  f"of length {args.length}\n")
    return 0


def _cmd_render(args) -> int:
    output = _output_to(args.out)
    try:
        cells = tuple(int(x) for x in args.seq.replace(",", " ").split())
    except ValueError:
        raise ValueError(
            f"--seq must be comma-separated integers, got {args.seq!r}") from None
    if args.width > 64:  # the largest listing board is 17; tables grow as W^2
        raise ValueError(f"--width must be at most 64, got {args.width}")
    board = BoardSpec(args.width)
    cycle = validate_cycle(cells, board)
    document = render(cycle, args.format)
    with output as out:
        out.write(document)
    return 0


def _cmd_check(args) -> int:
    try:
        with read_listing(args.infile) as (header, cycles):
            for _ in cycles:  # the reader tests every line
                pass
    except (ParseError, OSError) as exc:
        print(f"{args.infile}: {exc}", file=sys.stderr)
        return FAILURE
    print(f"{args.infile}: OK, {header.count} cycles of length {header.k}, "
          f"filter={header.filter_tag}")
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "list": _cmd_list,
    "verify": _cmd_verify,
    "twins": _cmd_twins,
    "render": _cmd_render,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ValueError, EnumerationError, OSError) as exc:
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed (a closed pipe, a full disk) and keeps its
            # unwritten bytes: devnull takes them, so the exit flush cannot fail
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        # a ValueError is a refused argument, always raised before any work
        return USAGE_ERROR if isinstance(exc, ValueError) else FAILURE
    except MemoryError:  # its str() is empty
        print("error: out of memory", file=sys.stderr)
        return FAILURE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
