"""Parametric tile-structure generators.

Five families are provided:

* ``example1`` and ``fig2``: two fixed 4x4 reference structures.  The
  first is U-tile (its basis is unextendible); the second fails the
  U-tile test and is the canonical counterexample.
* ``prop2(m, n)``: floor((m-1)/2) nested windmill rings around one
  interior tile; 2m-3 (even m) or 2m-1 (odd m) tiles.
* ``prop3(m, t)``: square structures realizing every tile count
  5 <= t <= 2m, grown inductively from four 4x4 seeds.
* ``five_tile(m, n)``: one windmill ring around one interior tile,
  realizing the maximal basis size mn - 4.
"""

from __future__ import annotations

import operator

from .grid import MAX_DIM, TileStructure

__all__ = [
    "example1",
    "fig2",
    "prop2",
    "prop3",
    "five_tile",
]


def example1() -> TileStructure:
    """Fixed 4x4 structure with six tiles; passes the U-tile test."""
    return TileStructure.from_grid([[1, 1, 2, 3],
                                    [6, 4, 6, 3],
                                    [6, 4, 6, 3],
                                    [5, 4, 2, 5]])


def fig2() -> TileStructure:
    """Fixed 4x4 structure with six tiles; fails the U-tile test (its
    top-row tiles {1, 2} split column-disjointly)."""
    return TileStructure.from_grid([[1, 1, 2, 2],
                                    [3, 4, 4, 3],
                                    [5, 4, 4, 5],
                                    [6, 6, 6, 6]])


def _rings(m: int, n: int, count: int) -> list[list[int]]:
    """Id grid of ``count`` windmill rings around one interior tile.

    Ring r (0-based, from the border) holds tiles 4r+1..4r+4: its top
    row minus the last cell, right column minus the bottom cell, bottom
    row minus the first cell, left column minus the top cell.  Tile
    4*count+1 fills every cell the rings leave.
    """
    grid = [[4 * count + 1] * n for _ in range(m)]
    for r in range(count):
        grid[r][r:n - 1 - r] = [4 * r + 1] * (n - 1 - 2 * r)
        grid[m - 1 - r][r + 1:n - r] = [4 * r + 3] * (n - 1 - 2 * r)
        for i in range(r, m - 1 - r):
            grid[i][n - 1 - r] = 4 * r + 2
            grid[i + 1][r] = 4 * r + 4
    return grid


def prop2(m: int, n: int) -> TileStructure:
    """Ring structure on m x n, 3 <= m <= n <= MAX_DIM, with 2m-3 (even m)
    or 2m-1 (odd m) tiles; other sizes are refused before any cell is built.

    floor((m-1)/2) windmill rings around one interior tile: a 2 x (n-m+2)
    block for even m, a 1 x (n-m+1) strip for odd m.  Dropping the
    border ring and renumbering tile t as t-4 leaves prop2(m-2, n-2).
    """
    m, n = operator.index(m), operator.index(n)
    if not (3 <= m <= n <= MAX_DIM):
        raise ValueError(f"prop2 requires 3 <= m <= n <= {MAX_DIM}, got m={m}, n={n}")
    return TileStructure.from_grid(_rings(m, n, (m - 1) // 2))


_PROP3_SEEDS = {
    5: _rings(4, 4, 1),
    6: [[1, 1, 6, 2],
        [4, 5, 5, 2],
        [4, 5, 5, 2],
        [4, 3, 6, 3]],
    7: [[1, 1, 6, 2],
        [7, 5, 5, 7],
        [4, 5, 5, 2],
        [4, 3, 6, 3]],
    8: [[1, 1, 7, 8],
        [5, 2, 2, 8],
        [5, 6, 3, 3],
        [4, 6, 7, 4]],
}


def prop3(m: int, t: int) -> TileStructure:
    """Square m x m structure with exactly t tiles, 5 <= t <= 2m.

    m=4 returns one of four seeds, the t=5 one being the 4x4 ring.  For
    larger m with t <= 2(m-1) the (m-1)-grid is extended by duplicating
    its first row on top and then its last column on the right, which
    changes no tile count.  The two remaining counts add a fresh border:
    a new column tile 2m-1 plus either an extension of existing border
    tiles (t = 2m-1) or a second fresh tile 2m.  Only the final grid is built.
    """
    m, t = operator.index(m), operator.index(t)
    if not (4 <= m <= MAX_DIM):
        raise ValueError(f"prop3 requires 4 <= m <= {MAX_DIM}, got m={m}")
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
    """One windmill ring around one (m-2) x (n-2) interior tile, for
    3 <= m <= n <= MAX_DIM; other sizes are refused before any cell is built."""
    m, n = operator.index(m), operator.index(n)
    if not (3 <= m <= n <= MAX_DIM):
        raise ValueError(f"five_tile requires 3 <= m <= n <= {MAX_DIM}, got m={m}, n={n}")
    return TileStructure.from_grid(_rings(m, n, 1))
