"""Tile structures on an m x n grid and the ``.tile`` text format.

A tile is a (possibly separated) combinatorial rectangle: a set of row
indices R and column indices C whose cell set is exactly R x C.  A tile
structure partitions the whole grid into such tiles, numbered 1..s, and
is stored as its grid of tile ids alone: every tile's index sets are
read off that grid, and construction refuses a grid that is not one.

The text format is line based: optional comment lines starting with '#',
then a header line "m n", then exactly m lines of n whitespace-separated
tile ids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product

__all__ = [
    "MAX_DIM",
    "Tile",
    "TileGridContentError",
    "TileGridFormatError",
    "TileStructure",
    "ValidationReport",
    "parse_tile_grid",
    "serialize",
    "validate",
]

MAX_DIM = 64


class TileGridFormatError(ValueError):
    """Raised when a .tile text cannot be tokenized into an id grid."""


class TileGridContentError(ValueError):
    """Raised when a parsed id grid violates tile-structure invariants."""

    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(report.problems))
        self.report = report


@dataclass(frozen=True)
class Tile:
    """One tile: its 1-based id and sorted row/column index sets."""

    id: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class TileStructure:
    """An m x n grid partitioned into tiles, stored as its grid of ids.

    ``cell_map`` is the row-major id grid and the only stored field;
    ``m``, ``n`` and the index-set form ``tiles`` (sorted by id) are read
    off it.  Construction raises TileGridContentError, reporting that one
    problem, for a side outside 1..MAX_DIM or ragged rows before it reads
    any cell; then TypeError for a non-integral id (1.9 is not truncated)
    and TileGridContentError, with the ``validate`` report, for a grid
    that is not a tile structure.
    """

    cell_map: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(self.cell_map)
        m = len(rows)
        n = len(rows[0]) if m else 0
        if shape := (f"grid dimensions must be positive, got {m}x{n}" if min(m, n) < 1 else
                     f"grid dimensions exceed the supported maximum {MAX_DIM}"
                     if max(m, n) > MAX_DIM else
                     "cell_map rows differ in length" if any(len(r) != n for r in rows) else None):
            raise TileGridContentError(ValidationReport((shape,)))
        object.__setattr__(self, "cell_map", tuple(tuple(map(operator.index, r)) for r in rows))
        if (report := validate(self)).problems:
            raise TileGridContentError(report)

    @classmethod
    def from_grid(cls, grid) -> TileStructure:
        return cls(grid)

    @property
    def m(self) -> int:
        return len(self.cell_map)

    @property
    def n(self) -> int:
        return len(self.cell_map[0])

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        """Each id's sorted row and column index sets, in id order."""
        by_id: dict[int, tuple[set[int], set[int]]] = {}
        for r, row in enumerate(self.cell_map):
            for c, tid in enumerate(row):
                rows, cols = by_id.setdefault(tid, (set(), set()))
                rows.add(r)
                cols.add(c)
        return tuple(Tile(tid, tuple(sorted(rows)), tuple(sorted(cols)))
                     for tid, (rows, cols) in sorted(by_id.items()))

    @property
    def tile_count(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class ValidationReport:
    """Plain list of invariant violations; empty means valid."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(ts: TileStructure) -> ValidationReport:
    """Check id contiguity (ids must be exactly 1..s) and that every
    tile's cell set is exactly rows x cols, and report all violations
    (each names the offending id, the first cell of rows x cols that
    another tile owns, and that tile).  Construction checks the shape
    first and refuses any grid this faults, so a built structure's
    report is empty."""
    problems: list[str] = []
    s = ts.tile_count
    ids = [t.id for t in ts.tiles]
    if ids != list(range(1, s + 1)):
        problems.append(f"tile ids are not contiguous 1..{s}: {ids}")
    for t in ts.tiles:
        for r, c in product(t.rows, t.cols):
            if ts.cell_map[r][c] != t.id:
                problems.append(
                    f"tile {t.id} is not a separated rectangle: cell {(r, c)} of "
                    f"rows x cols belongs to tile {ts.cell_map[r][c]}"
                )
                break
    return ValidationReport(tuple(problems))


def _ascii_int(token: str) -> int | None:
    """The value of a token of ASCII digits, else None (also for digit
    runs beyond Python's int-string conversion limit)."""
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


def parse_tile_grid(text: str) -> TileStructure:
    """Parse .tile text into a TileStructure.

    Numbers are runs of ASCII digits.  Raises TileGridFormatError for
    token or shape problems; construction raises TileGridContentError
    when the grid is well formed but not a valid tile structure.
    """
    lines = [line for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise TileGridFormatError("empty input: expected an 'm n' header line")
    header = [_ascii_int(tok) for tok in lines[0].split()]
    if len(header) != 2 or None in header:
        raise TileGridFormatError(f"header must be two integers 'm n', got {lines[0]!r}")
    m, n = header
    if not (1 <= m <= MAX_DIM and 1 <= n <= MAX_DIM):
        raise TileGridFormatError(f"dimensions must lie in 1..{MAX_DIM}, got m={m}, n={n}")
    body = lines[1:]
    if len(body) != m:
        raise TileGridFormatError(f"expected {m} grid rows, found {len(body)}")
    grid: list[list[int]] = []
    for r, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise TileGridFormatError(f"row {r} has {len(tokens)} entries, expected {n}")
        row = [_ascii_int(tok) for tok in tokens]
        for tok, tid in zip(tokens, row):
            if tid is None or tid < 1:
                raise TileGridFormatError(f"row {r}: tile ids must be positive integers, got {tok!r}")
        grid.append(row)
    return TileStructure.from_grid(grid)


def serialize(ts: TileStructure) -> str:
    """Canonical .tile text: header line then the id grid, LF terminated.

    Round-trips: parse_tile_grid(serialize(ts)) == ts.
    """
    width = max(len(str(tid)) for row in ts.cell_map for tid in row)
    rows = (" ".join(str(tid).rjust(width) for tid in row) for row in ts.cell_map)
    return "\n".join([f"{ts.m} {ts.n}", *rows]) + "\n"
