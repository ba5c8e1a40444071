"""Parametric tile-structure generators.

Five families are provided:

* ``example1`` and ``fig2``: two fixed 4x4 reference structures.  The
  first is U-tile (its basis is unextendible); the second fails the
  U-tile test and is the canonical counterexample.
* ``prop2(m, n)``: concentric windmill rings with a two-row core (even
  m) or a five-tile core (odd m); 2m-3 or 2m-1 tiles.
* ``prop3(m, t)``: square structures realizing every tile count
  5 <= t <= 2m, grown inductively from four hardcoded 4x4 seeds.
* ``five_tile(m, n)``: four boundary tiles around one interior tile,
  realizing the maximal basis size mn - 4.
"""

from __future__ import annotations

from .grid import TileStructure

__all__ = [
    "example1",
    "fig2",
    "prop2",
    "prop3",
    "five_tile",
]


def example1() -> TileStructure:
    """Fixed 4x4 structure with six tiles; passes the U-tile test."""
    return TileStructure.from_grid(
        [
            [1, 1, 2, 3],
            [6, 4, 6, 3],
            [6, 4, 6, 3],
            [5, 4, 2, 5],
        ]
    )


def fig2() -> TileStructure:
    """Fixed 4x4 structure with six tiles; fails the U-tile test (its
    top-row tiles {1, 2} split column-disjointly)."""
    return TileStructure.from_grid(
        [
            [1, 1, 2, 2],
            [3, 4, 4, 3],
            [5, 4, 4, 5],
            [6, 6, 6, 6],
        ]
    )


def _paint(grid: list[list[int]], tid: int, rows, cols) -> None:
    for r in rows:
        for c in cols:
            grid[r][c] = tid


def prop2(m: int, n: int) -> TileStructure:
    """Ring structure on m x n with 2m-3 (even m) or 2m-1 (odd m) tiles.

    Ring r (0-based, counted from the border) lays four tiles windmill
    fashion: top row minus its last cell, right column minus its bottom
    cell, bottom row minus its first cell, left column minus its top
    cell.  Even m finishes with a central 2 x (n-m+2) tile; odd m
    finishes with a five-tile core on the central three rows.
    """
    if not (3 <= m <= n):
        raise ValueError(f"prop2 requires 3 <= m <= n, got m={m}, n={n}")
    grid = [[0] * n for _ in range(m)]
    rings = (m - 2) // 2 if m % 2 == 0 else (m - 3) // 2
    for r in range(rings):
        _paint(grid, 4 * r + 1, [r], range(r, n - 1 - r))
        _paint(grid, 4 * r + 2, range(r, m - 1 - r), [n - 1 - r])
        _paint(grid, 4 * r + 3, [m - 1 - r], range(r + 1, n - r))
        _paint(grid, 4 * r + 4, range(r + 1, m - r), [r])
    if m % 2 == 0:
        a = (m - 2) // 2
        _paint(grid, 2 * m - 3, [a, a + 1], range(a, n - a))
    else:
        a = (m - 3) // 2
        _paint(grid, 2 * m - 5, [a], range(a, n - 1 - a))
        _paint(grid, 2 * m - 4, [a, a + 1], [n - 1 - a])
        _paint(grid, 2 * m - 3, [a + 2], range(a + 1, n - a))
        _paint(grid, 2 * m - 2, [a + 1, a + 2], [a])
        _paint(grid, 2 * m - 1, [a + 1], range(a + 1, n - 1 - a))
    return TileStructure.from_grid(grid)


_PROP3_SEEDS = {
    5: [
        [1, 1, 1, 2],
        [4, 5, 5, 2],
        [4, 5, 5, 2],
        [4, 3, 3, 3],
    ],
    6: [
        [1, 1, 6, 2],
        [4, 5, 5, 2],
        [4, 5, 5, 2],
        [4, 3, 6, 3],
    ],
    7: [
        [1, 1, 6, 2],
        [7, 5, 5, 7],
        [4, 5, 5, 2],
        [4, 3, 6, 3],
    ],
    8: [
        [1, 1, 7, 8],
        [5, 2, 2, 8],
        [5, 6, 3, 3],
        [4, 6, 7, 4],
    ],
}


def prop3(m: int, t: int) -> TileStructure:
    """Square m x m structure with exactly t tiles, 5 <= t <= 2m.

    m=4 returns one of four hardcoded seeds.  For larger m with
    t <= 2(m-1) the (m-1)-grid is extended by duplicating its first row
    on top and then its last column on the right, which changes no tile
    count.  The two remaining counts add a fresh border: a new column
    tile 2m-1 plus either an extension of existing border tiles
    (t = 2m-1) or a second fresh tile 2m.  Only the final grid is built.
    """
    if m < 4:
        raise ValueError(f"prop3 requires m >= 4, got m={m}")
    if not (5 <= t <= 2 * m):
        raise ValueError(f"prop3 requires 5 <= t <= 2m, got t={t} for m={m}")
    return TileStructure.from_grid(_prop3_grid(m, t))


def _prop3_grid(m: int, t: int) -> list[list[int]]:
    if m == 4:
        return [list(row) for row in _PROP3_SEEDS[t]]
    if t <= 2 * (m - 1):
        grid = _prop3_grid(m - 1, t)
        grid.insert(0, list(grid[0]))
        for row in grid:
            row.append(row[-1])
        return grid
    base = _prop3_grid(m - 1, 2 * (m - 1))
    if m % 2 == 0:
        # Corner joins the left-column tile 5; the rest of the new top
        # row is tile 2m-1.  The new right column copies its left
        # neighbor (t = 2m-1) or becomes tile 2m.
        for row in base:
            row.append(row[-1] if t == 2 * m - 1 else 2 * m)
        return [[5] + [2 * m - 1] * (m - 1)] + base
    # The new top row copies the base first row and ends with the new
    # column tile 2m-1 (t = 2m-1) or is tile 2m throughout but for that
    # corner (t = 2m); the new right column is tile 2m-1 except the
    # bottom cell, which joins the bottom-row tile 4.
    first = list(base[0]) if t == 2 * m - 1 else [2 * m] * (m - 1)
    for i, row in enumerate(base):
        row.append(4 if i == m - 2 else 2 * m - 1)
    return [first + [2 * m - 1]] + base


def five_tile(m: int, n: int) -> TileStructure:
    """Four boundary tiles plus one (m-2) x (n-2) interior tile."""
    if not (3 <= m <= n):
        raise ValueError(f"five_tile requires 3 <= m <= n, got m={m}, n={n}")
    grid = [[0] * n for _ in range(m)]
    _paint(grid, 1, [0], range(0, n - 1))
    _paint(grid, 2, range(0, m - 1), [n - 1])
    _paint(grid, 3, [m - 1], range(1, n))
    _paint(grid, 4, range(1, m), [0])
    _paint(grid, 5, range(1, m - 1), range(1, n - 1))
    return TileStructure.from_grid(grid)
