"""Special rectangles and the U-tile decision.

A special rectangle is a union of at least two tiles whose cells form a
combinatorial rectangle.  A structure is U-tile when no special
rectangle can be split into two parts whose row index sets (or column
index sets) are disjoint; by the paper's main theorem that is exactly
when the product basis the structure induces is unextendible.
``is_u_tile`` decides it by a joint closure over per-tile row and
column bitmasks, polynomial in the tile count, without listing special
rectangles.  The verdict is its witness: none for a U-tile structure,
and otherwise an explicit two-part split that carries its extension
state, a product state orthogonal to the whole kept set, read off the
same fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import TileStructure
from .states import ProductState

__all__ = [
    "UTileWitness",
    "UTileVerdict",
    "is_u_tile",
]


@dataclass(frozen=True)
class UTileWitness:
    """A failing split: a special rectangle rows x cols, tiled by the
    nonempty groups ``part1`` and ``part2`` (their sorted union is
    ``tile_ids``) whose unions of row sets (axis="row") or column sets
    (axis="column") are disjoint, and its extension ``state``.

    For a column split whose parts cover column sets C1 and C2 of the
    rectangle's rows R, the state is sum_i c_i |phi_i^(0,0)> with
    c_i = 1 on the first part and -|C1|/|C2| on the second; as the parts
    tile R x (C1 + C2) column-disjointly it is the product of the
    indicator of R and the columnwise coefficients, orthogonal to every
    kept state of ``build_upb``.  Row splits are the transpose.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    axis: str
    part1: tuple[int, ...]
    part2: tuple[int, ...]
    state: ProductState = field(compare=False)

    @property
    def tile_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.part1 + self.part2))


@dataclass(frozen=True)
class UTileVerdict:
    """U-tile, and true, exactly when there is no failing split ``witness``."""

    witness: UTileWitness | None = None

    @property
    def is_u_tile(self) -> bool:
        return self.witness is None

    def __bool__(self) -> bool:
        return self.is_u_tile


def _bit_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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
    first failing tile pair in tile order, column axis first, and its
    extension state is built from the fixpoint's masks: the indicator of
    the shared set, and 1 on B1, -|B1|/|B2| on B2 along the split axis.
    """
    rows = [sum(1 << r for r in tile.rows) for tile in ts.tiles]
    cols = [sum(1 << c for c in tile.cols) for tile in ts.tiles]
    for axis, shared, split, dims in (("column", rows, cols, (ts.m, ts.n)),
                                      ("row", cols, rows, (ts.n, ts.m))):
        found = _split(shared, split)
        if found is None:
            continue
        base, one, two = found
        inside = [k for k in range(ts.tile_count) if shared[k] & base and split[k] & (one | two)]
        part1 = tuple(ts.tiles[k].id for k in inside if split[k] & one)
        part2 = tuple(ts.tiles[k].id for k in inside if split[k] & two)
        base_idx, split_idx = tuple(_bit_indices(base)), tuple(_bit_indices(one | two))
        shared_vec = np.zeros(dims[0], dtype=complex)
        shared_vec[list(base_idx)] = 1.0
        split_vec = np.zeros(dims[1], dtype=complex)
        split_vec[_bit_indices(one)] = 1.0
        split_vec[_bit_indices(two)] = -one.bit_count() / two.bit_count()
        pair = (shared_vec, split_vec) if axis == "column" else (split_vec, shared_vec)
        rect = (base_idx, split_idx) if axis == "column" else (split_idx, base_idx)
        return UTileVerdict(UTileWitness(*rect, axis, part1, part2, ProductState(*pair)))
    return UTileVerdict()
