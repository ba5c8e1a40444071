"""Numerical verification: Gram reports, complement bases, and a seesaw
search for product states inside a subspace.

The seesaw search is the refuting oracle for unextendibility claims: it
maximizes ||P(a (x) b)||^2 over unit product vectors, where P projects
onto the span of an orthonormal complement basis.  Each half-step is an
exact top-eigenvector update, so the objective never decreases.  A value
near 1 certifies a product state in the subspace; failure to reach 1 is
only heuristic evidence of absence (the exact decision belongs to the
U-tile test).

The basis a tile structure induces is made of products |a>|b>, so the
orthogonality check works from the factor matrices, and its complement
is span{tile indicators} minus the stopper direction, available in
closed form and certified against the states it serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import BipartiteState, ProductState, UPBSet, inner_product

__all__ = [
    "OrthogonalityReport",
    "SearchResult",
    "UPBCheckReport",
    "check_orthogonal_set",
    "complement_basis",
    "certified_complement",
    "seesaw_search",
    "check_upb",
]

DEFAULT_RESTARTS = 200
DEFAULT_MAX_ITERS = 500
DEFAULT_CONV_TOL = 1e-12
DEFAULT_ORTH_TOL = 1e-12  # relative: |<a|b>| / (|a| |b|)
GRAM_BLOCK = 128  # Gram rows formed at once, so memory stays O(GRAM_BLOCK * N)
MONOTONE_SLACK = 1e-9  # seesaw objective drops below this count as violations
PRODUCT_THRESHOLD = 1e-6  # a best overlap above 1 - this certifies a product state


@dataclass(frozen=True)
class OrthogonalityReport:
    """Pairs whose relative overlap |<psi_i|psi_j>| / (|psi_i| |psi_j|)
    exceeds the tolerance, plus the largest relative overlap seen."""

    violations: tuple[tuple[int, int, float], ...]
    max_offdiagonal: float
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_overlap: float
    best_product: ProductState
    restarts_run: int
    converged_restarts: int
    monotonicity_violations: int

    def to_json_dict(self) -> dict:
        return {
            "best_overlap": self.best_overlap,
            "best_product": self.best_product.to_json_dict(),
            "restarts_run": self.restarts_run,
            "converged_restarts": self.converged_restarts,
            "monotonicity_violations": self.monotonicity_violations,
        }


def _stack_matrices(states) -> np.ndarray:
    mats = [np.asarray(s.matrix if hasattr(s, "matrix") else s, dtype=complex) for s in states]
    return np.stack(mats) if mats else np.zeros((0, 1, 1), dtype=complex)


def _factor_stack(states) -> list[np.ndarray]:
    """Per-state factors as row-stacked matrices: [A, B] (N x m, N x n)
    when every state is a product a (x) b, else [M] with each
    coefficient matrix flattened to a row."""
    if all(isinstance(s, ProductState) for s in states):
        return [np.array([s.a_vec for s in states]), np.array([s.b_vec for s in states])]
    mats = _stack_matrices(states)
    return [mats.reshape(len(mats), -1)]


def _factor_norms(factors: list[np.ndarray]) -> np.ndarray:
    return np.prod([np.linalg.norm(f, axis=1) for f in factors], axis=0)


def check_orthogonal_set(states, tol: float = DEFAULT_ORTH_TOL) -> OrthogonalityReport:
    """Report every pair i < j with |<psi_i|psi_j>| / (|psi_i| |psi_j|)
    above tol; a zero state overlaps nothing.

    The Gram is the entrywise product of the factor Grams,
    (A* A^T) o (B* B^T) for product states and M* M^T otherwise, formed
    GRAM_BLOCK rows at a time over the columns j >= the block's first
    row.  Violations come in (i, j) row-major order.
    """
    count = len(states)
    if count < 2:
        return OrthogonalityReport((), 0.0, tol)
    factors = _factor_stack(states)
    norms = _factor_norms(factors)
    scale = np.where(norms > 0, norms, 1.0)
    violations = []
    worst = 0.0
    for start in range(0, count - 1, GRAM_BLOCK):
        stop = min(start + GRAM_BLOCK, count)
        gram = 1.0
        for f in factors:
            gram = gram * (f[start:stop].conj() @ f[start:].T)
        rel = np.triu(np.abs(gram) / np.outer(scale[start:stop], scale[start:]), 1)
        worst = max(worst, float(rel.max()))
        for i, j in zip(*np.nonzero(rel > tol)):
            violations.append((start + int(i), start + int(j), float(rel[i, j])))
    return OrthogonalityReport(tuple(violations), worst, tol)


def complement_basis(states, m: int | None = None, n: int | None = None) -> list[BipartiteState]:
    """Orthonormal basis of the orthogonal complement of span(states).

    Solves <psi_w|x> = 0 for all w via an SVD of the conjugated
    coefficient rows; the input states must be linearly independent.
    An empty state list yields the standard basis of the whole space,
    in which case the dimensions must be passed explicitly.
    """
    if not states:
        if m is None or n is None:
            raise ValueError("dimensions are required for an empty state list")
        eye = np.eye(m * n, dtype=complex)
        return [BipartiteState(eye[i].reshape(m, n)) for i in range(m * n)]
    mats = _stack_matrices(states)
    k, m, n = mats.shape
    rows = mats.reshape(k, m * n).conj()
    u, sv, vh = np.linalg.svd(rows)
    cutoff = max(m * n, k) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    if rank < k:
        raise ValueError(f"states are linearly dependent: rank {rank} < {k}")
    return [BipartiteState(vh[i].conj().reshape(m, n)) for i in range(k, m * n)]


def certified_complement(upb: UPBSet, tol: float = DEFAULT_ORTH_TOL) -> np.ndarray:
    """Orthonormal basis Q (real, mn x (s-1), rows indexed r * n + c) of
    span{tile indicators 1_t} orthogonal to the stopper, certified to be
    the orthogonal complement of upb.states.

    With u_t = 1_t / sqrt|t| the stopper is sum_t sqrt|t| u_t, so a
    complete QR of the s-vector (sqrt|t|) yields s - 1 orthonormal
    coefficient vectors orthogonal to it; column k of Q takes the value
    coef[t, k] on the cells of tile t.  The certificate needs nothing
    from ``origin`` but the tiles: they must partition the grid, the
    state count must obey the size law N = mn - s + 1, and every overlap
    |<psi_i|q_k>| / |psi_i|, computed for products as
    ((A* R) o (B* C)) coef from the tiles' row and column indicator
    matrices R and C, must be at most tol.  For a pairwise orthogonal
    set that proves span(Q) is the complement.  Raises ValueError naming
    the condition that fails.
    """
    ts = upb.origin
    m, n, s = upb.m, upb.n, ts.tile_count
    if len(upb.states) != m * n - s + 1:
        raise ValueError(
            f"{len(upb.states)} states where the size law gives {m * n - s + 1}"
        )
    rows = np.zeros((m, s))
    cols = np.zeros((n, s))
    owner = np.zeros((m, n), dtype=int)
    cover = np.zeros((m, n), dtype=int)
    for k, tile in enumerate(ts.tiles):
        rows[list(tile.rows), k] = 1.0
        cols[list(tile.cols), k] = 1.0
        owner[np.ix_(tile.rows, tile.cols)] = k
        cover[np.ix_(tile.rows, tile.cols)] += 1
    if np.any(cover != 1):
        raise ValueError("the origin's tiles do not partition the grid")
    root = np.sqrt([tile.size for tile in ts.tiles])
    full, _ = np.linalg.qr(root[:, None], mode="complete")
    coef = full[:, 1:] / root[:, None]
    q = coef[owner].reshape(m * n, s - 1)

    factors = _factor_stack(upb.states)
    if len(factors) == 2:
        a, b = factors
        overlaps = ((a.conj() @ rows) * (b.conj() @ cols)) @ coef
    else:
        overlaps = factors[0].conj() @ q
    norms = _factor_norms(factors)
    if not np.all(norms > 0):
        raise ValueError("a state is zero")
    worst = float(np.max(np.abs(overlaps) / norms[:, None], initial=0.0))
    if not worst <= tol:
        raise ValueError(
            f"the tile complement overlaps the states: relative overlap {worst:.3e} "
            f"exceeds {tol:.1e}"
        )
    return q


def _seesaw_objective(w_stack: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    amps = np.einsum("kij,i,j->k", w_stack.conj(), a, b)
    return float(np.sum(np.abs(amps) ** 2))


def _seesaw_restart(
    w_stack: np.ndarray, a: np.ndarray, b: np.ndarray, max_iters: int, conv_tol: float
) -> tuple[np.ndarray, np.ndarray, float, bool, int]:
    """One alternating run from the given start; returns the final unit
    factors, the recomputed objective, whether it converged, and how
    many steps lowered the objective by more than MONOTONE_SLACK."""
    prev = _seesaw_objective(w_stack, a, b)
    converged = False
    violations = 0
    for _ in range(max_iters):
        v = np.einsum("kij,j->ki", w_stack, b.conj())
        m_a = np.einsum("ki,kj->ij", v, v.conj())
        vals, vecs = np.linalg.eigh(m_a)
        a = vecs[:, -1]
        t = np.einsum("kij,i->kj", w_stack, a.conj())
        m_b = np.einsum("ki,kj->ij", t, t.conj())
        vals, vecs = np.linalg.eigh(m_b)
        b = vecs[:, -1]
        obj = float(vals[-1])
        # Each half-step is an exact maximization, so the objective is
        # monotone up to rounding; a larger drop means a broken step.
        violations += int(obj < prev - MONOTONE_SLACK)
        if obj - prev < conv_tol:
            converged = True
            break
        prev = obj
    return a, b, _seesaw_objective(w_stack, a, b), converged, violations


def seesaw_search(
    complement,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    conv_tol: float = DEFAULT_CONV_TOL,
    seed: int = 0,
) -> SearchResult:
    """Best product state found inside span(complement).

    Alternating exact eigen-steps from seeded complex-Gaussian starts:
    for fixed b the optimal a is the top eigenvector of
    A(b) = sum_w (W_w conj(b))(W_w conj(b))^dag, and symmetrically for
    b.  Deterministic for fixed inputs and seed; restarts are ranked by
    recomputed objective, first-best wins.
    """
    if len(complement) == 0:
        raise ValueError("empty complement basis: nothing to search")
    w_stack = _stack_matrices(complement)
    _, m, n = w_stack.shape
    rng = np.random.default_rng(seed)
    best_overlap = -1.0
    best_a = best_b = None
    converged_count = 0
    violations = 0
    for _ in range(restarts):
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        a, b, overlap, converged, dropped = _seesaw_restart(w_stack, a, b, max_iters, conv_tol)
        converged_count += int(converged)
        violations += dropped
        if overlap > best_overlap:
            best_overlap = overlap
            best_a, best_b = a, b
    return SearchResult(
        best_overlap=best_overlap,
        best_product=ProductState(best_a, best_b),
        restarts_run=restarts,
        converged_restarts=converged_count,
        monotonicity_violations=violations,
    )


@dataclass(frozen=True, eq=False)
class UPBCheckReport:
    """Aggregate verdict on an assembled product-state set."""

    size: int
    expected_size: int
    size_ok: bool
    orthogonality: OrthogonalityReport
    stopper_law_ok: bool
    complement_dim: int
    expected_complement_dim: int
    search: SearchResult | None
    product_found: bool
    passed: bool
    note: str
    settings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "expected_size": self.expected_size,
            "size_ok": self.size_ok,
            "orthogonal": self.orthogonality.ok,
            "max_offdiagonal": self.orthogonality.max_offdiagonal,
            "stopper_law_ok": self.stopper_law_ok,
            "complement_dim": self.complement_dim,
            "expected_complement_dim": self.expected_complement_dim,
            "search": None if self.search is None else self.search.to_json_dict(),
            "product_found": self.product_found,
            "passed": self.passed,
            "note": self.note,
            "settings": dict(self.settings),
        }


def check_upb(
    upb: UPBSet,
    restarts: int = DEFAULT_RESTARTS,
    max_iters: int = DEFAULT_MAX_ITERS,
    conv_tol: float = DEFAULT_CONV_TOL,
    seed: int = 0,
    orth_tol: float = DEFAULT_ORTH_TOL,
) -> UPBCheckReport:
    """Full numerical check of a UPBSet.

    Verifies pairwise orthogonality (relative overlaps), the size law
    mn - s + 1, the stopper overlap law (<S|phi_i^(0,0)> equals the
    tile's cell count, nonzero), certifies the closed-form complement of
    dimension s - 1 (``certified_complement``), and runs the seesaw
    search on it.  When the complement cannot be certified the check
    fails with the reason in ``note`` and no search.  Passing means no
    product state was certified in the complement; that negative is
    heuristic, the positive direction (a certificate) is conclusive.
    ``complement_dim`` counts the certified complement vectors.
    """
    ts = upb.origin
    s = ts.tile_count
    mn = upb.m * upb.n
    expected = mn - s + 1
    orth = check_orthogonal_set(upb.states, tol=orth_tol)
    size_ok = len(upb.states) == expected

    stopper_ok = True
    for tile, miss in zip(ts.tiles, upb.missing):
        overlap = inner_product(upb.stopper, miss)
        if abs(overlap - tile.size) > orth_tol * mn or abs(overlap) < 0.5:
            stopper_ok = False

    settings = {
        "restarts": restarts,
        "max_iters": max_iters,
        "conv_tol": conv_tol,
        "seed": seed,
        "orth_tol": orth_tol,
        "product_threshold": PRODUCT_THRESHOLD,
    }

    search = None
    found = False
    complement_dim = 0
    reason = None
    if expected == mn and len(upb.states) == mn:
        # Complete basis: empty complement, nothing to search.
        note = "complement is empty; unextendibility holds vacuously"
    elif not orth.ok:
        reason = "the states are not pairwise orthogonal"
    else:
        try:
            comp = certified_complement(upb, tol=orth_tol)
        except ValueError as exc:
            reason = str(exc)
        else:
            complement_dim = comp.shape[1]
            search = seesaw_search(
                comp.T.reshape(complement_dim, upb.m, upb.n),
                restarts=restarts, max_iters=max_iters, conv_tol=conv_tol, seed=seed,
            )
            found = search.best_overlap > 1.0 - PRODUCT_THRESHOLD
            note = (
                "product state found in the complement (extendibility certificate)"
                if found
                else "no product state found in the complement (heuristic negative)"
            )
    if reason is not None:
        note = f"complement not certified, search skipped: {reason}"
    return UPBCheckReport(
        size=len(upb.states),
        expected_size=expected,
        size_ok=size_ok,
        orthogonality=orth,
        stopper_law_ok=stopper_ok,
        complement_dim=complement_dim,
        expected_complement_dim=s - 1,
        search=search,
        product_found=found,
        passed=size_ok and orth.ok and stopper_ok and reason is None and not found,
        note=note,
        settings=settings,
    )
