"""Command-line interface.

Exit codes: 0 success, 1 verification/validation failure or a lost worker,
2 usage error.
KNIGHT_CYCLES_JOBS sets the default worker count; --jobs wins.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from .analysis import (
    CycleFileWriter,
    ParseError,
    group_geometric_twins,
    open_listing,
    read_cycle_header,
    read_cycles,
    render,
    verify_tables,
)
from .board import BoardSpec
from .cycles import is_minimal, validate_cycle
from .geometry import crossing_table
from .search import ShardLostError, enumerate_cycles

USAGE_ERROR = 2
FAILURE = 1


def _default_jobs() -> int:
    env = os.environ.get("KNIGHT_CYCLES_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=_default_jobs(), metavar="N",
                        help="parallel workers (default: KNIGHT_CYCLES_JOBS or 1)")


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
            simple_filter=args.simple_only, emit_only_simple=args.simple_only,
            sink=writer.write)
    print(f"wrote {writer.count} cycles to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    failures = []
    for row in verify_tables(args.max_length, args.algorithm, jobs=args.jobs):
        row_failures = row.failures()
        print(f"k={row.k:<3d} {row.algorithm:<4s} "
              f"total={row.total} (expect {row.expected_total})  "
              f"simple={row.simple} (expect {row.expected_simple})  "
              f"elapsed={row.elapsed:.2f}s  {'FAIL' if row_failures else 'PASS'}",
              flush=True)
        failures += row_failures
    if not failures:
        print("all counts match")
        return 0
    for failure in failures:
        print(f"MISMATCH: {failure}", file=sys.stderr)
    return FAILURE


def _cmd_twins(args) -> int:
    if args.out:
        # Refuse now what open() would refuse after the enumeration, without
        # opening the path: a failed run leaves an earlier report intact.
        if os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    collected: list[tuple[int, ...]] = []
    enumerate_cycles(args.length, "dfs", jobs=args.jobs,
                     sink=collected.append)
    groups = group_geometric_twins(collected)
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        for group in groups:
            out.write("cells " + " ".join(map(str, group.key)) + "\n")
            for member in group.members:
                out.write("  " + " ".join(map(str, member)) + "\n")
            out.write("\n")
        out.write(f"{len(groups)} twin groups among {len(collected)} cycles "
                  f"of length {args.length}\n")
    return 0


def _cmd_render(args) -> int:
    try:
        cells = tuple(int(x) for x in args.seq.replace(",", " ").split())
    except ValueError:
        print(f"--seq must be comma-separated integers, got {args.seq!r}",
              file=sys.stderr)
        return USAGE_ERROR
    if args.width > 64:  # the largest listing board is 17; tables grow as W^2
        raise ValueError(f"--width must be at most 64, got {args.width}")
    board = BoardSpec.square(args.width)
    cycle = validate_cycle(cells, board)
    document = render(cycle, args.format)
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(document)
    return 0


def _cmd_check(args) -> int:
    try:
        with open_listing(args.infile) as fh:
            header = read_cycle_header(fh.readline().rstrip("\n"))
        table = (crossing_table(header.board) if header.filter_tag == "simple"
                 else None)
        for number, cycle in enumerate(read_cycles(args.infile), start=1):
            if not is_minimal(cycle):
                flaw = "canonical"
            elif table is not None and not table.is_simple_cells(cycle.cells):
                flaw = "simple"
            else:
                continue
            print(f"not {flaw} at cycle {number}: "
                  f"{','.join(map(str, cycle.cells))}", file=sys.stderr)
            return FAILURE
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
        return _COMMANDS[args.command](args)
    except ShardLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
