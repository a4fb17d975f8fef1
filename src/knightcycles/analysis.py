"""Twin detection, reference-count verification, the cycle file format, and
grid rendering."""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from .board import BoardSpec, coord_of
from .cycles import CycleSeq, CycleValidationError, canonical_cell_set, validate_cycle
from .search import enumerate_cycles

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

FORMAT_MAGIC = "KNIGHT-CYCLES"
FORMAT_VERSION = "v1"
_SVG_SCALE = 40  # pixels per board cell in rendered SVG


@dataclass(frozen=True)
class TwinGroup:
    """Cycles that visit the same cell set (up to symmetry) without being
    equivalent: congruent footprints, non-congruent polygons."""

    key: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def group_geometric_twins(cycles) -> list[TwinGroup]:
    """Group canonical sequences by symmetry-minimized cell set and return
    the groups with at least two members, sorted by key.

    ``cycles`` must all have one length and already be canonical (as emitted
    by the engines); members within a group come out sorted.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    length: int | None = None
    for cells in cycles:
        cells = tuple(cells)
        if length is None:
            length = len(cells)
        elif len(cells) != length:
            raise ValueError(
                f"mixed cycle lengths: expected {length}, got {len(cells)}")
        cycle = CycleSeq(cells, BoardSpec.for_cycle_length(len(cells)))
        groups.setdefault(canonical_cell_set(cycle), []).append(cells)
    return [TwinGroup(key, tuple(sorted(members)))
            for key, members in sorted(groups.items())
            if len(members) >= 2]


@dataclass
class VerificationRow:
    k: int
    algorithm: str
    expected_total: int
    total: int
    expected_simple: int
    simple: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.total == self.expected_total and self.simple == self.expected_simple


@dataclass
class VerificationReport:
    rows: list[VerificationRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[str]:
        out = []
        for row in self.rows:
            if row.total != row.expected_total:
                out.append(f"k={row.k} {row.algorithm}: expected "
                           f"{row.expected_total} classes, got {row.total}")
            if row.simple != row.expected_simple:
                out.append(f"k={row.k} {row.algorithm}: expected "
                           f"{row.expected_simple} simple, got {row.simple}")
        return out


def verify_tables(k_max: int, algorithm: str = "both", jobs: int = 1,
                  on_row=None) -> VerificationReport:
    """Re-enumerate every length up to k_max and compare against the
    reference counts.  ``on_row`` sees each VerificationRow as it finishes."""
    if k_max % 2 != 0 or not 4 <= k_max <= 16:
        raise ValueError(f"max length must be even and within 4..16, got {k_max}")
    algorithms = ("dfs", "mitm") if algorithm == "both" else (algorithm,)
    report = VerificationReport()
    for k in range(4, k_max + 2, 2):
        expected_total, expected_simple = EXPECTED_COUNTS[k]
        for alg in algorithms:
            summary = enumerate_cycles(k, alg, simple_filter=True, jobs=jobs)
            row = VerificationRow(
                k=k, algorithm=alg,
                expected_total=expected_total, total=summary.total,
                expected_simple=expected_simple, simple=summary.simple,
                elapsed=summary.elapsed)
            report.rows.append(row)
            if on_row is not None:
                on_row(row)
    return report


class ParseError(ValueError):
    """Malformed cycle file; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CycleFileWriter:
    """Streaming writer for the cycle file format.

    Body lines are spooled to a temporary file so the header can carry the
    final count; cycles must arrive strictly ascending.  Use as a context
    manager and feed ``write`` (it is sink-compatible with the engines).
    """

    def __init__(self, path, k: int, filter_tag: str = "all"):
        if filter_tag not in ("all", "simple"):
            raise ValueError(f"filter tag must be 'all' or 'simple', got {filter_tag!r}")
        self.path = os.fspath(path)
        if os.path.isdir(self.path):  # fail before the enumeration, not after
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), self.path)
        self.k = k
        self.filter_tag = filter_tag
        self.count = 0
        self._last: tuple[int, ...] | None = None
        self._body = tempfile.NamedTemporaryFile(
            "w+", dir=os.path.dirname(self.path) or ".",
            prefix=".knightcycles-body-", delete=False)

    def write(self, cells) -> None:
        cells = tuple(cells)
        if len(cells) != self.k:
            raise ValueError(f"expected {self.k} cells per cycle, got {len(cells)}")
        if self._last is not None and cells <= self._last:
            raise ValueError(
                f"cycles must be strictly ascending: {cells} after {self._last}")
        self._last = cells
        self.count += 1
        self._body.write(" ".join(map(str, cells)))
        self._body.write("\n")

    def close(self) -> None:
        """Publish the listing.  Header and body go to a staging file beside
        the target, which then replaces it in one step, so a failure part-way
        leaves any earlier listing at the path intact."""
        # Unique while the body file exists; O_EXCL refuses a stray file.
        staged = self._body.name + ".listing"
        board = BoardSpec.for_cycle_length(self.k)
        try:
            self._body.flush()
            self._body.seek(0)
            # Mode 0o666 less the umask, as open(path, "w") would create it.
            fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                with open(fd, "w", newline="\n") as out:
                    out.write(f"{FORMAT_MAGIC} {FORMAT_VERSION} k={self.k} "
                              f"board={board.width}x{board.height} "
                              f"count={self.count} filter={self.filter_tag}\n")
                    shutil.copyfileobj(self._body, out)
                os.replace(staged, self.path)
            except BaseException:
                os.unlink(staged)
                raise
        finally:
            self.abort()

    def abort(self) -> None:
        """Drop the spooled body without publishing; a no-op once close()
        or abort() has run, whether close() succeeded or not."""
        if not self._body.closed:
            self._body.close()
            os.unlink(self._body.name)

    def __enter__(self) -> "CycleFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_cycles(cycles, path, k: int | None = None, filter_tag: str = "all") -> int:
    """Write a listing (already sorted ascending) and return the count."""
    cycles = iter(cycles)
    first = next(cycles, None)
    if first is None and k is None:
        raise ValueError("cannot infer cycle length from an empty listing; pass k")
    if k is None:
        k = len(tuple(first))
    with CycleFileWriter(path, k, filter_tag) as writer:
        if first is not None:
            writer.write(first)
        for cells in cycles:
            writer.write(cells)
        return writer.count


@dataclass(frozen=True)
class CycleFileHeader:
    k: int
    board: BoardSpec
    count: int
    filter_tag: str


def read_cycle_header(line: str) -> CycleFileHeader:
    parts = line.split()
    if len(parts) != 6 or parts[0] != FORMAT_MAGIC or parts[1] != FORMAT_VERSION:
        raise ParseError(f"bad header {line!r}", line=1)
    fields = {}
    for part in parts[2:]:
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        k = int(fields["k"])
        width, _, height = fields["board"].partition("x")
        board = BoardSpec(int(width), int(height))
        count = int(fields["count"])
        filter_tag = fields["filter"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header {line!r}: {exc}", line=1) from None
    if filter_tag not in ("all", "simple"):
        raise ParseError(f"bad filter tag {filter_tag!r}", line=1)
    return CycleFileHeader(k, board, count, filter_tag)


def read_cycles(path):
    """Yield each listed cycle as a validated CycleSeq.

    Raises ParseError (with the line number) for a malformed header, body
    lines that are not valid cycles of the advertised length, a body that
    is not strictly ascending, or a count that does not match the body.
    """
    with open(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError("empty file", line=1)
        header = read_cycle_header(header_line.rstrip("\n"))
        seen = 0
        previous: tuple[int, ...] = ()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                raise ParseError("blank line in body", line=lineno)
            try:
                cells = tuple(map(int, line.split()))
            except ValueError:
                raise ParseError(f"non-integer cell in {line!r}", line=lineno) from None
            if len(cells) != header.k:
                raise ParseError(
                    f"expected {header.k} cells, got {len(cells)}", line=lineno)
            if cells <= previous:
                raise ParseError(
                    f"cycles must be strictly ascending: {cells} after {previous}",
                    line=lineno)
            previous = cells
            seen += 1
            if seen > header.count:
                raise ParseError(
                    f"more cycles than the advertised count={header.count}",
                    line=lineno)
            try:
                yield validate_cycle(cells, header.board)
            except CycleValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
        if seen != header.count:
            raise ParseError(
                f"header advertises count={header.count} but body has {seen}",
                line=seen + 2)


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
    grid = [["." for _ in range(board.width)] for _ in range(board.height)]
    for pos, cell in enumerate(cycle.cells, start=1):
        r, c = coord_of(cell, board)
        grid[r][c] = str(pos)
    lines = [" ".join(f"{mark:>{width}}" for mark in row) for row in grid]
    return "\n".join(lines) + "\n"


def _render_svg(cycle: CycleSeq) -> str:
    board = cycle.board
    w, h = board.width, board.height
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * _SVG_SCALE}" '
        f'height="{h * _SVG_SCALE}" viewBox="0 0 {w} {h}">',
        f'  <rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    for r in range(h):
        for c in range(w):
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
