"""Numerical verification: a counted orthogonality check, the one
verdict on a tile basis (``certify_upb``), and a seesaw search for
product states inside the complement.

The basis a tile structure induces is made of products |a>|b>, stored
as the factor stacks A and B of a ``UPBSet``; the orthogonality count
works from them, and the complement of the basis is span{tile
indicators} minus the stopper direction, never materialized as a basis:
its certificate reads each state's s tile coordinates.  Once it holds,
the paper's main theorem makes the U-tile decision of the origin exact:
the complement holds a product state iff the origin is not U-tile, and
then the verdict's witness carries one, checked against every state.
``certify_upb`` makes all of these decisions on the set's stack, and
its ``UPBCertificate`` is the library's one verdict on a basis.

The seesaw search is a numerical probe, never part of that verdict: it
maximizes the squared norm of the projection of a (x) b onto the
complement over unit product vectors.  Every complement vector is
constant on each tile, and rows (columns) lying in the same set of
tiles form one class, so it works in the p row-class and q column-class
coordinates instead of the mn amplitudes.  Each half-step is an exact
top-eigenvector update, so the objective never decreases, and all
restarts take it together as one stacked p x p (or q x q) eigh.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .grid import TileStructure
from .rectangles import UTileVerdict, is_u_tile
from .states import UPBSet, factor_stacks, pow2_scaled

__all__ = [
    "SearchResult",
    "UPBCertificate",
    "check_orthogonal_set",
    "certify_upb",
    "seesaw_search",
]

DEFAULT_RESTARTS = 200
DEFAULT_MAX_ITERS = 500
DEFAULT_CONV_TOL = 1e-12
DEFAULT_ORTH_TOL = 1e-12  # relative: |<a|b>| / (|a| |b|)
GRAM_BLOCK = 128  # Gram rows formed at once, so memory stays O(GRAM_BLOCK * N)
SEESAW_BLOCK = 256  # restarts advanced together: memory O(SEESAW_BLOCK * (m + n + p^2)); it, not
# SEESAW_ELEMENTS, bounds test_memory_does_not_grow_with_restarts (104 MB at 20,000 unblocked)
SEESAW_ELEMENTS = 2**22  # cap on a block's (restarts, p, s) gain temporary, 32 MiB
MONOTONE_SLACK = 1e-9  # seesaw objective drops below this count as violations
PRODUCT_THRESHOLD = 1e-9  # a best overlap above 1 - this certifies a product state


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_overlap: float
    best_product: tuple[np.ndarray, np.ndarray]  # its (a, b) factor vectors
    restarts_run: int
    converged_restarts: int
    monotonicity_violations: int


def check_orthogonal_set(a: np.ndarray, b: np.ndarray) -> tuple[int, float]:
    """(violating_pairs, max_offdiagonal): the count of pairs i < j with
    |<psi_i|psi_j>| / (|psi_i| |psi_j|) not within DEFAULT_ORTH_TOL (a NaN
    one too), and the largest, for the product states psi_i with factors
    row i of the stacks A (N x m) and B (N x n), each row scaled first by
    ``pow2_scaled``; a zero overlaps nothing.  Raises ValueError for
    stacks that ``factor_stacks`` refuses.

    The Gram (A* A^T) o (B* B^T), in complex, is formed GRAM_BLOCK rows
    at a time over the columns j >= the block's first row, so memory
    stays O(GRAM_BLOCK * N) however many pairs violate.
    """
    a, b = map(pow2_scaled, factor_stacks(a, b))
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    scale = np.where(norms > 0, norms, 1.0)
    violating, worst = 0, 0.0
    for start in range(0, len(a) - 1, GRAM_BLOCK):
        stop = min(start + GRAM_BLOCK, len(a))
        gram = a[start:stop].conj() @ a[start:].T
        gram *= b[start:stop].conj() @ b[start:].T
        rel = np.triu(np.abs(gram) / np.outer(scale[start:stop], scale[start:]), 1)
        worst = float(np.maximum(worst, rel.max()))
        violating += int(np.count_nonzero(~(rel <= DEFAULT_ORTH_TOL)))
    return violating, worst


def _tile_incidence(ts: TileStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tiles' row and column indicator matrices R (m x s) and
    C (n x s) and their cell counts |t|."""
    rows = np.zeros((ts.m, ts.tile_count))
    cols = np.zeros((ts.n, ts.tile_count))
    for k, tile in enumerate(ts.tiles):
        rows[list(tile.rows), k] = 1.0
        cols[list(tile.cols), k] = 1.0
    return rows, cols, rows.sum(axis=0) * cols.sum(axis=0)


class _Side(NamedTuple):
    """One party's tile-class coordinates: ind = lift @ basis, with the
    orthonormal class indicators ``lift`` (m x p), root = lift^T 1 and
    its outer product ``ones``, the class form of J."""

    lift: np.ndarray
    basis: np.ndarray
    root: np.ndarray
    ones: np.ndarray


def _class_side(ind: np.ndarray) -> _Side:
    """The coordinates of the p classes of equal rows of ind (m x s)."""
    keys, index, counts = np.unique(ind, axis=0, return_inverse=True, return_counts=True)
    index, root = index.ravel(), np.sqrt(counts)
    lift = np.zeros((ind.shape[0], counts.size))
    lift[np.arange(ind.shape[0]), index] = 1.0 / root[index]
    return _Side(lift, keys * root[:, None], root, np.outer(root, root))


def _class_objective(side_a, side_b, sizes, x, y) -> np.ndarray:
    """<a b|P|a b> for each row pair of class coordinates x = E_R^T a,
    y = E_C^T b, from the per-tile factor sums alpha = W_R^T x and
    beta = W_C^T y; P projects onto the complement."""
    amps = (x @ side_a.basis) * (y @ side_b.basis)
    totals = (x @ side_a.root) * (y @ side_b.root)
    return np.sum(np.abs(amps) ** 2 / sizes, axis=1) - np.abs(totals) ** 2 / sizes.sum()


def _top_factors(side, other, other_coords, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs of the stacked p x p class gains
    W diag(|beta_t|^2 / |t|) W^T - (|sum b|^2 / mn) root root^T, one per
    row of the other party's class coordinates: the best unit factor on
    this side for each fixed factor on the other."""
    weights = np.abs(other_coords @ other.basis) ** 2 / sizes
    totals = np.abs(other_coords @ other.root) ** 2 / sizes.sum()
    gain = (side.basis * weights[:, None, :]) @ side.basis.T - totals[:, None, None] * side.ones
    vals, vecs = np.linalg.eigh(gain)
    return vals[:, -1], vecs[:, :, -1]


def _check_search_settings(restarts: int, seed: int) -> tuple[int, int]:
    """restarts and seed as ints, checked before any search work."""
    restarts, seed = operator.index(restarts), operator.index(seed)
    if restarts < 1:
        raise ValueError(f"the search needs at least one restart, got {restarts}")
    if seed < 0:
        raise ValueError(f"the search seed must be non-negative, got {seed}")
    return restarts, seed


def seesaw_search(
    ts: TileStructure,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> SearchResult:
    """Best product state found in span{1_t} minus the stopper of ts, the
    complement of ``build_upb(ts).states``.

    With the per-tile factor sums alpha = R^T a, beta = C^T b (R, C the
    tiles' row and column indicators) and P the complement's projector,
    <a b|P|a b> = sum_t |alpha_t beta_t|^2 / |t| - |sum a sum b|^2 / mn.
    For fixed b the best unit a is the top eigenvector of
    R diag(|beta_t|^2 / |t|) R^T - (|sum b|^2 / mn) J = E_R G E_R^T, with
    E_R the orthonormal indicators of the p row classes (``_class_side``),
    so each half-step is a p x p eigenproblem, and q x q for b.  Seeded
    complex-Gaussian starts are projected onto the classes, which keeps
    the objective, and advance SEESAW_BLOCK at a time (fewer when a
    block's gain temporary would pass SEESAW_ELEMENTS): one stacked eigh
    per half-step over the restarts not yet converged, each with its own
    DEFAULT_MAX_ITERS cap, stopping rule (a gain below DEFAULT_CONV_TOL)
    and count of drops beyond MONOTONE_SLACK.  Restarts are ranked by
    recomputed objective, first best wins, and the winner is lifted back
    to C^m and C^n.  Deterministic for fixed inputs and seed.  Raises
    TypeError for a non-integer restarts or seed, and ValueError for
    fewer than one restart, a negative seed or a single tile (nothing
    to search).
    """
    restarts, seed = _check_search_settings(restarts, seed)
    if ts.tile_count < 2:
        raise ValueError("a single tile leaves an empty complement: nothing to search")
    rows, cols, sizes = _tile_incidence(ts)
    side_a, side_b = _class_side(rows), _class_side(cols)
    m, n = ts.m, ts.n
    width = max(len(side_a.root), len(side_b.root)) * len(sizes)
    block = max(1, min(SEESAW_BLOCK, SEESAW_ELEMENTS // width))
    rng = np.random.default_rng(seed)
    best_overlap = -1.0
    best_x = best_y = None
    converged_count = violations = 0
    for first in range(0, restarts, block):
        # The same normals, in the same order, as one start at a time.
        draws = rng.standard_normal((min(block, restarts - first), 2 * (m + n)))
        a = draws[:, :m] + 1j * draws[:, m : 2 * m]
        b = draws[:, 2 * m : 2 * m + n] + 1j * draws[:, 2 * m + n :]
        x = (a / np.linalg.norm(a, axis=1, keepdims=True)) @ side_a.lift
        y = (b / np.linalg.norm(b, axis=1, keepdims=True)) @ side_b.lift
        prev = _class_objective(side_a, side_b, sizes, x, y)
        active = np.arange(len(x))
        for _ in range(DEFAULT_MAX_ITERS):
            if not active.size:
                break
            _, x[active] = _top_factors(side_a, side_b, y[active], sizes)
            obj, y[active] = _top_factors(side_b, side_a, x[active], sizes)
            # Each half-step is an exact maximization, so the objective is
            # monotone up to rounding; a larger drop means a broken step.
            violations += int(np.sum(obj < prev[active] - MONOTONE_SLACK))
            done = obj - prev[active] < DEFAULT_CONV_TOL
            converged_count += int(np.sum(done))
            prev[active] = obj
            active = active[~done]
        overlaps = _class_objective(side_a, side_b, sizes, x, y)
        k = int(np.argmax(overlaps))
        if overlaps[k] > best_overlap:
            best_overlap = float(overlaps[k])
            best_x, best_y = x[k], y[k]
    return SearchResult(best_overlap, (side_a.lift @ best_x, side_b.lift @ best_y),
                        restarts, converged_count, violations)


@dataclass(frozen=True, eq=False)
class UPBCertificate:
    """What ``certify_upb`` decides.  ``refusal`` says why the complement
    is not certified (None when it is; one tile leaves it empty); on a
    certified nonempty complement ``verdict`` is the origin's U-tile
    decision, and a non-U-tile origin adds ``max_overlap``, the largest
    relative overlap of its witness's extension state with the states.
    ``check_orthogonal_set`` gives ``violating_pairs`` and ``max_offdiagonal``."""

    size: int
    expected_size: int
    violating_pairs: int
    max_offdiagonal: float
    stopper_law_ok: bool
    expected_complement_dim: int
    refusal: str | None = None
    verdict: UTileVerdict | None = None
    max_overlap: float | None = None

    @property
    def orthogonal(self) -> bool:
        return not self.violating_pairs

    @property
    def size_ok(self) -> bool:
        return self.size == self.expected_size

    @property
    def complement_dim(self) -> int:
        """s - 1 once the complement is certified (or empty), else 0."""
        return 0 if self.refusal else self.expected_complement_dim

    @property
    def u_tile(self) -> bool:
        return self.verdict is not None and self.verdict.is_u_tile

    @property
    def ok(self) -> bool:
        """The set is a UPB by the paper's theorem: the complement is
        certified (which takes orthogonality and the size law), the
        stopper law holds, and the origin is U-tile or the only tile."""
        return (self.stopper_law_ok and self.refusal is None
                and (self.verdict is None or self.verdict.is_u_tile))


def _all_ones(factor: np.ndarray) -> bool:
    """A nonzero factor whose component off the all-ones vector is at most
    DEFAULT_ORTH_TOL of its norm."""
    norm = np.linalg.norm(factor)
    return bool(norm > 0 and np.linalg.norm(factor - factor.mean()) <= DEFAULT_ORTH_TOL * norm)


def certify_upb(upb: UPBSet) -> UPBCertificate:
    """The verdict on a UPBSet that needs no search, read off its factor
    stack ``upb.a``, ``upb.b`` with each row scaled by ``pow2_scaled``.

    Reports pairwise orthogonality (``check_orthogonal_set``), the size
    law N = mn - s + 1 and the stopper law (the last state is the
    stopper up to scale, by ``_all_ones`` on both factors, so its
    overlap with each tile's omitted state is proportional to |t| and
    nonzero), and certifies the complement span{1_t} minus the stopper
    or names in ``refusal`` the first condition that fails.  In the
    orthonormal tile coordinates u_t = 1_t / sqrt|t| the stopper is
    u_hat = (sqrt(|t| / mn))_t and state psi_i has coordinates
    v_i = ((A* R) o (B* C)) / sqrt|t|, R and C the tiles' row and column
    indicators; its component in span{1_t} minus the stopper has norm
    ||v_i - (v_i . u_hat) u_hat|| in any basis.  Pairwise orthogonal
    states, tiles that partition the grid (as every TileStructure's do),
    the size law and every component at most DEFAULT_ORTH_TOL relative
    to |psi_i| prove that (s - 1)-dimensional space is the complement,
    whatever the origin claims; for one tile it is empty and no U-tile
    decision is made.  Otherwise the paper's theorem makes the origin's
    U-tile decision exact: a U-tile origin gives a UPB, and else the
    witness's extension state is a product state in the complement,
    checked against every state.
    """
    ts = upb.origin
    m, n, s, count = upb.m, upb.n, ts.tile_count, len(upb.a)
    a, b = pow2_scaled(upb.a), pow2_scaled(upb.b)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    violating, offdiag = check_orthogonal_set(a, b)
    stopper_ok = count > 0 and _all_ones(a[-1]) and _all_ones(b[-1])
    certificate = partial(UPBCertificate, count, m * n - s + 1, violating, offdiag,
                          stopper_ok, s - 1)
    if violating:
        return certificate(f"the states are not pairwise orthogonal: {violating} "
                           f"violating pairs, worst {offdiag:.3e}")
    if count != m * n - s + 1:
        return certificate(f"{count} states where the size law gives {m * n - s + 1}")
    if not np.all(norms > 0):
        return certificate("a state is zero")
    rows, cols, sizes = _tile_incidence(ts)
    coords = (a.conj() @ rows) * (b.conj() @ cols) / np.sqrt(sizes)
    u_hat = np.sqrt(sizes / (m * n))
    inside = coords - np.outer(coords @ u_hat, u_hat)
    worst = float(np.max(np.linalg.norm(inside, axis=1) / norms, initial=0.0))
    if not worst <= DEFAULT_ORTH_TOL:
        return certificate(f"the tile complement overlaps the states: relative component "
                           f"{worst:.3e} exceeds {DEFAULT_ORTH_TOL:.1e}")
    if s == 1:
        return certificate()
    verdict = is_u_tile(ts)
    if verdict.is_u_tile:
        return certificate(verdict=verdict)
    wa, wb = verdict.witness.state
    scale = norms * np.linalg.norm(wa) * np.linalg.norm(wb)
    overlaps = np.abs(a.conj() @ wa) * np.abs(b.conj() @ wb) / scale
    return certificate(verdict=verdict, max_overlap=float(np.max(overlaps)))
