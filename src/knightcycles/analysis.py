"""Twin detection, the reference count table, the cycle file format, and
grid rendering."""

from __future__ import annotations

import contextlib
import errno
import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from itertools import repeat

from .board import BoardSpec, coord_of
from .cycles import (CycleSeq, CycleValidationError, canonical_cell_set, is_minimal,
                     knight_moves, validate_cycle)
from .geometry import crossing_table

# Reference counts per cycle length: (nonequivalent classes, non-self-
# intersecting among them).  Kept verbatim from the table this tool checks
# against.  Length 12: this enumerator counts 350286 classes, not 350256
# (three independent cross-validations agree; the simple count 64877 does
# match), so `verify` flags length 12 by design.
EXPECTED_COUNTS: dict[int, tuple[int, int]] = {
    4: (3, 3),
    6: (25, 13),
    8: (480, 178),
    10: (12000, 3034),
    12: (350256, 64877),
    14: (10780549, 1503790),
    16: (344680960, 36930111),
}

_SVG_SCALE = 40  # pixels per board cell in rendered SVG
_CHUNK = 1 << 12  # body chars a read; 64 KiB checked k=12 no faster, at +3.9 MB peak RSS
_HEADER_MAX = 128  # line 1 chars read at most: the writer's longest, LF included, is 75


@dataclass(frozen=True)
class TwinGroup:
    """Cycles that visit the same cell set (up to symmetry) without being
    equivalent: congruent footprints, non-congruent polygons."""

    key: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def group_geometric_twins(cycles) -> list[TwinGroup]:
    """Group canonical sequences by symmetry-minimized cell set and return
    the groups with at least two members, sorted by key.

    ``cycles`` must already be canonical (as emitted by the engines); keys of
    different lengths never meet, so each length is grouped on its own.
    Members within a group come out sorted.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cells in map(tuple, cycles):
        groups.setdefault(canonical_cell_set(cells), []).append(cells)
    return [TwinGroup(key, tuple(sorted(members)))
            for key, members in sorted(groups.items())
            if len(members) >= 2]


class ParseError(ValueError):
    """A flaw in a listing; its message starts with ``line N: ``, N 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


def check_output_path(path: str) -> str:
    """Refuse now, by a ValueError naming ``path``, an empty path, a directory
    (a path ending in /, /. or /.. too), a missing parent directory or any other
    non-regular file (a pipe, a device, a symlink loop).
    Return the file to replace: the one a symlink names, so the link survives."""
    target = os.path.realpath(path) if path else ""
    if os.path.isdir(target) or (path and os.path.basename(path) in ("", ".", "..")):
        raise ValueError(f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}")
    if not os.path.isdir(os.path.dirname(target)):
        raise ValueError(f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}")
    if os.path.lexists(target) and not os.path.isfile(target):
        raise ValueError(f"not a regular file: {path!r}")
    return target


@contextlib.contextmanager
def publish(target: str):
    """Yield a text file staged beside ``target``, new under mktemp's name
    (O_EXCL) with the mode open(target, "w") gives.  A clean exit renames it
    over target in one step; an error removes it, keeping any earlier file."""
    staged = tempfile.mktemp(prefix=".knightcycles-", dir=os.path.dirname(target))
    fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="\n") as out:
            yield out
        os.replace(staged, target)
    except BaseException:
        os.unlink(staged)
        raise


class CycleFileWriter:
    """Streaming writer for the cycle file format.

    Body lines are spooled to an unnamed file beside the target so the header
    can carry the final count; cycles must arrive strictly ascending.  Use as
    a context manager and feed ``write`` (it is sink-compatible with the engines).
    """

    def __init__(self, path, k: int, filter_tag: str = "all"):
        BoardSpec.for_cycle_length(k)  # the reader's rule: fail before enumerating
        if filter_tag not in ("all", "simple"):
            raise ValueError(f"filter tag must be 'all' or 'simple', got {filter_tag!r}")
        self._target = check_output_path(os.fspath(path))
        self.k = k
        self.filter_tag = filter_tag
        self.count = 0
        self._last: tuple[int, ...] | None = None
        self._line = _body_format(k)
        self._body = tempfile.TemporaryFile("w+", dir=os.path.dirname(self._target))

    def write(self, cells) -> None:
        cells = tuple(cells)
        if len(cells) != self.k:
            raise ValueError(f"expected {self.k} cells per cycle, got {len(cells)}")
        if self._last is not None and cells <= self._last:
            raise ValueError(
                f"cycles must be strictly ascending: {cells} after {self._last}")
        self._last = cells
        self.count += 1
        self._body.write(self._line % cells)

    def close(self) -> None:
        """Publish header and body through publish(): a failure part-way
        leaves any earlier listing at the path intact.  A no-op after close()
        or abort()."""
        if self._body.closed:
            return
        with self._body:
            self._body.seek(0)
            with publish(self._target) as out:
                out.write(_header_line(self.k, self.count, self.filter_tag) + "\n")
                shutil.copyfileobj(self._body, out)

    def abort(self) -> None:
        """Drop the spooled body unpublished; a no-op after close() or abort()."""
        self._body.close()

    def __enter__(self) -> "CycleFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_cycles(cycles, path, k: int, filter_tag: str = "all") -> int:
    """Write a listing of k-cell cycles, sorted ascending; return the count."""
    with CycleFileWriter(path, k, filter_tag) as writer:
        for cells in cycles:
            writer.write(cells)
        return writer.count


@dataclass(frozen=True)
class CycleFileHeader:
    k: int
    board: BoardSpec
    count: int
    filter_tag: str


def _header_line(k: int, count: int, filter_tag: str) -> str:
    """Line 1 of a listing, without its LF: the one definition of the header."""
    side = BoardSpec.for_cycle_length(k).width
    return f"KNIGHT-CYCLES v1 k={k} board={side}x{side} count={count} filter={filter_tag}"


def _body_format(k: int) -> str:
    return " ".join(["%s"] * k) + "\n"  # % cells: a body line (%s is str())


def read_cycle_header(line: str) -> CycleFileHeader:
    """Parse line 1, without its LF: only a line the writer writes passes."""
    fields = dict(part.partition("=")[::2] for part in line.split(" "))
    with contextlib.suppress(KeyError, ValueError):  # a field missing or not a number
        k, count, tag = int(fields["k"]), int(fields["count"]), fields["filter"]
        if (count >= 0 and tag in ("all", "simple")
                and line == _header_line(k, count, tag)):
            return CycleFileHeader(k, BoardSpec.for_cycle_length(k), count, tag)
    raise ParseError(f"bad header {line!r}: want the writer's header for an "
                     f"even k within 4..16 and the (k+1)x(k+1) board", line=1)


@contextlib.contextmanager
def read_listing(path):
    """Read a listing once, front to back (a pipe serves), and yield (header,
    cycles): line 1 parsed and an iterator of validated, canonical CycleSeqs.
    Only the writer's bytes pass (ASCII, LF: a CR or stray byte stays in its
    line), and only a body that keeps every claim of the header (see
    _read_body); else ParseError names the line of the first flaw."""
    with open(path, encoding="ascii", errors="surrogateescape", newline="\n") as fh:
        header_line = fh.readline(_HEADER_MAX)
        if not header_line.endswith("\n"):
            raise ParseError(f"bad header {header_line!r}: want a final LF", line=1)
        header = read_cycle_header(header_line[:-1])
        yield header, _read_body(fh, header)


def _read_body(fh, header: CycleFileHeader):
    """Test the body a chunk at a time, each test one pass in C: the writer's
    own bytes, knight moves (the closing one too), no repeat, ascending, the
    count, under filter=simple no crossing, and each line the canonical
    sequence of its class.  A failed chunk is read again line by line: its
    cycles before the first flaw are yielded, and ParseError names the flawed
    line.  A line past the writer's longest is malformed."""
    k, board = header.k, header.board
    line_format, moves = _body_format(k), knight_moves(board)
    number = {str(cell): cell for cell in range(1, board.size + 1)}  # parse and range test
    table = crossing_table(board) if header.filter_tag == "simple" else None
    longest = k * (len(str(board.size)) + 1)  # the writer's longest line, LF included
    seen, previous = 0, ()
    for text in _line_chunks(fh, longest):
        n = text.count("\n") or 1  # the last line may lack its LF
        try:
            cells = tuple(map(number.__getitem__, text.split()))
        except KeyError:
            cells = ()
        if len(cells) == k * n and (line_format * n) % cells == text:
            following = [*cells[1:], 0]
            following[k - 1::k] = cells[::k]  # each cycle's last cell closes on its first
            cycles = list(zip(*[iter(cells)] * k))
            chunk = list(map(CycleSeq, cycles, repeat(board)))
            if (moves.issuperset(zip(cells, following))
                    and min(map(len, map(set, cycles))) == k
                    and all(map(tuple.__lt__, [previous, *cycles], cycles))
                    and seen + n <= header.count
                    and (table is None or all(map(table.is_simple_cells, cycles)))
                    and all(map(is_minimal, chunk))):
                yield from chunk
                previous, seen = cycles[-1], seen + n
                continue
        for lineno, line in enumerate(io.StringIO(text, newline="\n"), start=seen + 2):
            try:
                cells = tuple(map(int, line.split()))
            except ValueError:
                cells = ()  # not numbers: malformed, as an empty line is
            if (not cells or len(line) > longest
                    or len(cells) == k and line != line_format % cells):
                raise ParseError(f"malformed line {line[:longest]!r}", line=lineno)
            if len(cells) != k:
                raise ParseError(
                    f"expected {k} cells, got {len(cells)}", line=lineno)
            if cells <= previous:
                raise ParseError(
                    f"cycles must be strictly ascending: {cells} after {previous}",
                    line=lineno)
            previous, seen = cells, seen + 1
            if seen > header.count:
                raise ParseError(
                    f"more cycles than the advertised count={header.count}",
                    line=lineno)
            try:
                cycle = validate_cycle(cells, board)
            except CycleValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if table is not None and not table.is_simple_cells(cells):
                raise ParseError(f"not simple: {','.join(map(str, cells))}", line=lineno)
            if not is_minimal(cycle):
                raise ParseError(f"not canonical: {','.join(map(str, cells))}", line=lineno)
            yield cycle
    if seen != header.count:
        raise ParseError(
            f"header advertises count={header.count} but body has {seen}",
            line=seen + 2)


def _line_chunks(fh, longest: int):
    """Yield the whole lines of fh, ~_CHUNK characters at a time, then a last
    line that lacks its LF, if any.  A line that reaches ``longest``
    characters with no LF is malformed at once, so an endless one is too."""
    carry, lines = "", 0
    while data := fh.read(_CHUNK):
        text = carry + data
        end = text.rfind("\n") + 1
        if end:
            lines += text.count("\n")
            yield text[:end]
        carry = text[end:]
        if len(carry) >= longest:
            raise ParseError(f"malformed line {carry[:longest]!r}", line=lines + 2)
    if carry:
        yield carry


def read_cycles(path):
    """Yield each listed cycle of the listing at ``path`` as read_listing does."""
    with read_listing(path) as (_, cycles):
        yield from cycles


def render(cycle: CycleSeq, format: str = "svg") -> str:
    """Draw the cycle on its board: an SVG grid with the closed polyline
    through cell centers, or an ASCII grid with visit order numbers."""
    if format == "svg":
        return _render_svg(cycle)
    if format == "ascii":
        return _render_ascii(cycle)
    raise ValueError(f"unknown render format {format!r}")


def _render_ascii(cycle: CycleSeq) -> str:
    board = cycle.board
    width = len(str(len(cycle)))
    grid = [["." for _ in range(board.width)] for _ in range(board.width)]
    for pos, cell in enumerate(cycle.cells, start=1):
        r, c = coord_of(cell, board)
        grid[r][c] = str(pos)
    lines = [" ".join(f"{mark:>{width}}" for mark in row) for row in grid]
    return "\n".join(lines) + "\n"


def _render_svg(cycle: CycleSeq) -> str:
    board = cycle.board
    side = board.width
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side * _SVG_SCALE}" '
        f'height="{side * _SVG_SCALE}" viewBox="0 0 {side} {side}">',
        f'  <rect x="0" y="0" width="{side}" height="{side}" fill="white"/>',
    ]
    for r in range(side):
        for c in range(side):
            out.append(f'  <rect x="{c}" y="{r}" width="1" height="1" '
                       f'fill="none" stroke="#999" stroke-width="0.02"/>')
    points = []
    for cell in cycle.cells:
        r, c = coord_of(cell, board)
        points.append(f"{c + 0.5},{r + 0.5}")
    points.append(points[0])
    out.append(f'  <polyline points="{" ".join(points)}" fill="none" '
               f'stroke="#c00" stroke-width="0.08" stroke-linejoin="round"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
