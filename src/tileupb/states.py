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

from .grid import TileStructure

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
    """Labels of the build_upb(ts) states in order: (tile_id, *divmod(j, q))
    for j = 1 .. pq - 1 of each p x q tile, then the stopper sentinel."""
    return [(tile.id, *divmod(j, len(tile.cols))) for tile in ts.tiles
            for j in range(1, len(tile.rows) * len(tile.cols))] + [STOPPER_LABEL]


def build_upb(ts: TileStructure) -> UPBSet:
    """Assemble the UPB candidate of a tile structure: stacks of
    mn - s + 1 rows holding, tile by tile, the states j = 1 .. pq - 1 of
    each p x q tile, then the all-ones stopper.  State j puts rows k and l
    of ``dft(p)`` and ``dft(q)``, (k, l) = divmod(j, q), on the tile's rows
    and columns; the omitted j = 0 is the tile's indicator.  The set is
    unextendible exactly when ts is U-tile (``verify.certify_upb``).
    """
    a = np.zeros((ts.m * ts.n - ts.tile_count + 1, ts.m), dtype=complex)
    b = np.zeros((len(a), ts.n), dtype=complex)
    a[-1], b[-1] = 1, 1
    first = 0  # the stack row of the tile's state j = 1
    for tile in ts.tiles:
        p, q = len(tile.rows), len(tile.cols)
        k, l = np.divmod(np.arange(1, p * q), q)
        a[first : first + len(k), list(tile.rows)] = dft(p)[k]
        b[first : first + len(k), list(tile.cols)] = dft(q)[l]
        first += len(k)
    return UPBSet(a, b, ts)
