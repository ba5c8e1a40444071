"""Product states, tile bases, and UPB assembly.

Every state a tile structure induces is a product |a>|b>, so
<a b|a' b'> = <a|a'><b|b'> and its m x n coefficient matrix is the
outer product a b^T.  ``build_upb`` stacks the factors of the candidate
set of any tile structure (``UPBSet``), and that stack is the one form
its states take downstream: ``verify.certify_upb`` decides from it
whether the set is unextendible, ``locc.attach_resource`` lifts it to
the protocol's cut factors, and a state is named, not stored, by its
``upb_state_labels`` entry (tile, k, l).  States are deliberately left
unnormalized; modules that need probabilities normalize locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Tile, TileStructure

__all__ = [
    "STOPPER_LABEL",
    "UPBSet",
    "build_upb",
    "upb_state_labels",
]

STOPPER_LABEL = ("stopper",)


def dft(size: int) -> np.ndarray:
    """Every Fourier row: the DFT table w^(k e), w = exp(2 pi i / size), k, e < size."""
    return np.exp(2j * np.pi * np.arange(size)[:, None] * np.arange(size) / size)


def _tile_factors(tile: Tile, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor stacks (pq x m, pq x n) of a tile's p*q orthogonal product
    states, from one DFT table per tile axis.

    With rows r_0 < ... < r_{p-1} and cols c_0 < ... < c_{q-1}, state
    (k, l) has factors sum_e w_p^{ke} |r_e> and sum_e w_q^{le} |c_e>
    where w_k = exp(2 pi i / k).  States come in row-major (k, l) order;
    (0, 0) is the all-ones state on the tile.
    """
    p, q = len(tile.rows), len(tile.cols)
    a = np.zeros((p * q, m), dtype=complex)
    b = np.zeros((p * q, n), dtype=complex)
    a[:, list(tile.rows)] = np.repeat(dft(p), q, axis=0)
    b[:, list(tile.cols)] = np.tile(dft(q), (p, 1))
    return a, b


def factor_stacks(a, b, axes: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Complex factor stacks a (N x m) and b (N x n), or with axes=3 cut
    stacks a (N x m x r) and b (N x n x r) of equal ranks r, else ValueError."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if not (a.ndim == b.ndim == axes and len(a) == len(b) and a.shape[2:] == b.shape[2:]):
        raise ValueError(f"factor stacks of shapes {a.shape} and {b.shape} need {axes} axes "
                         "with equal state counts" + (" and ranks" if axes == 3 else ""))
    return a, b


def pow2_scaled(stack: np.ndarray) -> np.ndarray:
    """Each state (all axes but the first) of a complex stack times the power
    of two that puts its largest real or imaginary part in [1, 2): exact, so
    no norm over- or underflows; a stack already in range is not copied."""
    parts = np.ascontiguousarray(stack, dtype=complex).view(float)
    peak = np.max(np.abs(parts), axis=tuple(range(1, parts.ndim)), keepdims=True, initial=0.0)
    shift = 1 - np.frexp(peak)[1]
    return (np.ldexp(parts, shift) if shift.any() else parts).view(complex)


@dataclass(frozen=True, eq=False)
class UPBSet:
    """An ordered product-state set on the grid of a tile structure,
    stored as its factor stack: row i of ``a`` (N x m) and ``b`` (N x n)
    holds the two factors of state i.  Raises ValueError for stacks that
    ``factor_stacks`` refuses, that do not fit the origin's m x n grid,
    or that hold a NaN or infinite entry.
    """

    a: np.ndarray
    b: np.ndarray
    origin: TileStructure

    def __post_init__(self):
        a, b = factor_stacks(self.a, self.b)
        m, n = self.m, self.n
        if (a.shape[1], b.shape[1]) != (m, n):
            raise ValueError(
                f"stacks of shapes {a.shape}, {b.shape} do not fit the {m} x {n} origin")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("the factor stacks hold a non-finite entry")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.origin.m

    @property
    def n(self) -> int:
        return self.origin.n

    @cached_property
    def states(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The (a, b) row pairs of the stack, in ``upb_state_labels`` order
        for a set from ``build_upb``; unread by the library, kept for the
        benchmark tracer, which counts ``len(build_upb(...).states)``."""
        return tuple(zip(self.a, self.b))


def upb_state_labels(ts: TileStructure) -> list[tuple]:
    """Labels of build_upb(ts).states in order: (tile_id, k, l) for each
    kept state, then the stopper sentinel."""
    labels: list[tuple] = []
    for tile in ts.tiles:
        p, q = len(tile.rows), len(tile.cols)
        for k in range(p):
            for l in range(q):
                if (k, l) != (0, 0):
                    labels.append((tile.id, k, l))
    labels.append(STOPPER_LABEL)
    return labels


def build_upb(ts: TileStructure) -> UPBSet:
    """Assemble the UPB candidate of a tile structure.

    Stacks every tile-basis state except each tile's (0,0) state, tile
    by tile, then the stopper, for mn - s + 1 states in total.  The set
    is unextendible exactly when ts is U-tile (``verify.certify_upb``).
    """
    stacks = [_tile_factors(tile, ts.m, ts.n) for tile in ts.tiles]
    a = np.concatenate([tile_a[1:] for tile_a, _ in stacks] + [np.ones((1, ts.m))])
    b = np.concatenate([tile_b[1:] for _, tile_b in stacks] + [np.ones((1, ts.n))])
    return UPBSet(a, b, ts)
