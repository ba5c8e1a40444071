"""Special rectangles and the U-tile decision.

A special rectangle is a union of at least two tiles whose cells form a
combinatorial rectangle.  A structure is U-tile when no special
rectangle can be split into two parts whose row index sets (or column
index sets) are disjoint; by the paper's main theorem that is exactly
when the product basis the structure induces is unextendible.
``is_u_tile`` decides it by a joint closure over per-tile row and
column bitmasks, polynomial in the tile count, without listing special
rectangles.  A failing structure comes with an explicit two-part
witness, from which ``extension_witness`` builds a product state
orthogonal to the whole kept set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TileStructure
from .states import ProductState

__all__ = [
    "SpecialRectangle",
    "UTileWitness",
    "UTileVerdict",
    "is_u_tile",
    "extension_witness",
]


@dataclass(frozen=True)
class SpecialRectangle:
    """A set of >= 2 tile ids whose cell union is exactly rows x cols."""

    tile_ids: tuple[int, ...]
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class UTileWitness:
    """A failing split: two nonempty tile groups of a special rectangle
    whose unions of row sets (axis="row") or column sets
    (axis="column") are disjoint."""

    rectangle: SpecialRectangle
    axis: str
    part1: tuple[int, ...]
    part2: tuple[int, ...]

    def to_json_dict(self, state: ProductState) -> dict:
        """The split with its extension state (``extension_witness``)."""
        return {
            "tiles": list(self.rectangle.tile_ids),
            "rows": list(self.rectangle.rows),
            "cols": list(self.rectangle.cols),
            "axis": self.axis,
            "part1": list(self.part1),
            "part2": list(self.part2),
            "state": state.to_json_dict(),
        }


@dataclass(frozen=True)
class UTileVerdict:
    is_u_tile: bool
    witness: UTileWitness | None = None


def _bit_indices(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _tile_masks(ts: TileStructure) -> tuple[list[int], list[int]]:
    """Per-tile row and column index sets as bitmasks, in tile order."""
    rows = [sum(1 << r for r in tile.rows) for tile in ts.tiles]
    cols = [sum(1 << c for c in tile.cols) for tile in ts.tiles]
    return rows, cols


def _split(shared: list[int], split: list[int]) -> tuple[int, int, int] | None:
    """Least (S, B1, B2) with B1, B2 disjoint and nonempty and both
    S x B1 and S x B2 unions of tiles, for the first seed pair that has
    one; masks are per-tile sets along the shared and split axes.

    Every such triple holds a tile t1 in S x B1 and a tile t2 in S x B2
    with a shared index, so each tile pair with meeting ``shared`` and
    disjoint ``split`` masks seeds S = shared(t1) | shared(t2),
    B1 = split(t1), B2 = split(t2).  Any tile that meets S x B1 must lie
    in it (likewise for B2), so the seed grows to its least fixpoint;
    once B1 and B2 meet, no triple holds that seed.
    """
    s = len(shared)
    for i in range(s):
        for j in range(i + 1, s):
            if not shared[i] & shared[j] or split[i] & split[j]:
                continue
            base, one, two = shared[i] | shared[j], split[i], split[j]
            while not one & two:
                before = (base, one, two)
                for k in range(s):
                    if shared[k] & base:
                        if split[k] & one:
                            base |= shared[k]
                            one |= split[k]
                        if split[k] & two:
                            base |= shared[k]
                            two |= split[k]
                if (base, one, two) == before:
                    return base, one, two
    return None


def is_u_tile(ts: TileStructure) -> UTileVerdict:
    """Decide the U-tile property, with a witness on failure.

    A column-axis failure is a row set R and disjoint nonempty column
    sets C1, C2 with R x C1 and R x C2 both unions of tiles; the row
    axis is the same with rows and columns swapped.  Each is found by
    joint closure from tile pairs (``_split``), in O(s^4) mask tests
    whatever the grid size.  The witness is the least rectangle of the
    first failing tile pair in tile order, column axis first.
    """
    rows, cols = _tile_masks(ts)
    for axis, shared, split in (("column", rows, cols), ("row", cols, rows)):
        found = _split(shared, split)
        if found is None:
            continue
        base, one, two = found
        inside = [k for k in range(ts.tile_count) if shared[k] & base and split[k] & (one | two)]
        part1 = tuple(ts.tiles[k].id for k in inside if split[k] & one)
        part2 = tuple(ts.tiles[k].id for k in inside if split[k] & two)
        base_idx, split_idx = tuple(_bit_indices(base)), tuple(_bit_indices(one | two))
        rect = SpecialRectangle(
            tile_ids=tuple(ts.tiles[k].id for k in inside),
            rows=base_idx if axis == "column" else split_idx,
            cols=split_idx if axis == "column" else base_idx,
        )
        return UTileVerdict(False, UTileWitness(rect, axis, part1, part2))
    return UTileVerdict(True, None)


def extension_witness(ts: TileStructure, verdict: UTileVerdict) -> ProductState:
    """Product state orthogonal to every kept state of build_upb(ts).

    For a column split with part column counts l and h - l, the state is
    sum_i a_i |phi_i^(0,0)> with a_i = 1 on the first part and
    a_i = -l/(h-l) on the second; since the parts tile the rectangle
    column-disjointly this collapses to the rank-1 matrix
    (indicator of the rectangle's rows) x (columnwise coefficients).
    Row splits use the transposed construction.
    """
    if verdict.is_u_tile or verdict.witness is None:
        raise ValueError("verdict carries no witness: the structure is U-tile")
    w = verdict.witness
    part1_tiles = [ts.tile(tid) for tid in w.part1]
    part2_tiles = [ts.tile(tid) for tid in w.part2]
    a = np.zeros(ts.m, dtype=complex)
    b = np.zeros(ts.n, dtype=complex)
    if w.axis == "column":
        cols1 = sorted({c for t in part1_tiles for c in t.cols})
        cols2 = sorted({c for t in part2_tiles for c in t.cols})
        ell, h = len(cols1), len(cols1) + len(cols2)
        a[list(w.rectangle.rows)] = 1.0
        b[cols1] = 1.0
        b[cols2] = -ell / (h - ell)
    else:
        rows1 = sorted({r for t in part1_tiles for r in t.rows})
        rows2 = sorted({r for t in part2_tiles for r in t.rows})
        ell, h = len(rows1), len(rows1) + len(rows2)
        a[rows1] = 1.0
        a[rows2] = -ell / (h - ell)
        b[list(w.rectangle.cols)] = 1.0
    return ProductState(a, b)
