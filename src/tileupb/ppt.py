"""The mixed state on the complement of a UPB and its positivity checks.

For an orthogonal product set of N states in dimension mn, normalizing
and projecting gives rho = (I - sum |psi_i><psi_i|) / (mn - N), the
maximally mixed state on the complement.  For the basis of a tile
structure that complement is span{tile indicators} minus the stopper,
so rho = (sum_t 1_t 1_t^T / |t| - J / mn) / (s - 1).  When the set is
unextendible the support of rho contains no product state (range
criterion), so rho is entangled, yet its partial transpose stays
positive semidefinite.

rho is never formed as an mn x mn matrix.  Group the rows by the set of
tiles that contain them into p row classes, and the columns likewise
into q classes.  Each (row class, column class) block lies in a single
tile, so every tile indicator lies in span(row-class indicators) (x)
span(column-class indicators).  With E_R and E_C the normalized class
indicators, rho = (E_R (x) E_C) rho_c (E_R (x) E_C)^T for a pq x pq
matrix rho_c, and since E_C is real the partial transpose factors the
same way through rho_c's own.  Both spectra are rho_c's, padded with
mn - pq zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TileStructure
from .states import UPBSet
from .verify import _classes, _tile_incidence, certified_complement, check_orthogonal_set

__all__ = ["PPTReport", "class_state", "partial_transpose", "ppt_report"]

PSD_TOL = -1e-10
RANK_TOL = 1e-8
ORTH_TOL = 1e-10  # relative overlap allowed between the states and the complement
TRACE_EPS_MULTIPLE = 16  # |trace - 1| may reach this many times mn * machine epsilon


def class_state(ts: TileStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho_c, the complement state of ts in tile-class coordinates, with
    the class index of every row and of every column.

    Row class i gathers the rows R_i that lie in the same set of tiles,
    column class j likewise the columns C_j; block (i, j) lies in one
    tile t_ij and has weight w_ij = sqrt(|R_i| |C_j|).  Then
    rho_c[(i,j),(k,l)] = w_ij w_kl ([t_ij = t_kl] / |t_ij| - 1/mn) / (s - 1),
    indexed i * q + j, and rho = (E_R (x) E_C) rho_c (E_R (x) E_C)^T where
    column i of E_R is the indicator of R_i over sqrt|R_i|.  Raises
    ValueError for a single tile (the complement is empty) or tiles that
    do not partition the grid.
    """
    s = ts.tile_count
    if s < 2:
        raise ValueError("a single tile leaves an empty complement: no state to build")
    rows, cols, sizes = _tile_incidence(ts)
    row_keys, row_class, row_counts = _classes(rows)
    col_keys, col_class, col_counts = _classes(cols)
    # Each block lies in exactly one tile, so the product picks out its index.
    owner = ((row_keys * np.arange(s)) @ col_keys.T).astype(int).ravel()
    weight = np.sqrt(np.outer(row_counts, col_counts)).ravel()
    rho = np.equal.outer(owner, owner) / sizes[owner]
    rho -= 1.0 / (ts.m * ts.n)
    rho *= np.outer(weight, weight)  # one product per entry keeps rho exactly symmetric
    rho /= s - 1
    return rho, row_class, col_class


def partial_transpose(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose on the second factor of an operator on C^dim_a (x) C^dim_b:
    (rho^Tb)_(i,j),(k,l) = rho_(i,l),(k,j).  Involutive, trace preserving."""
    return rho.reshape(dim_a, dim_b, dim_a, dim_b).swapaxes(1, 3).reshape(rho.shape)


@dataclass(frozen=True, eq=False)
class PPTReport:
    dim: int
    trace: float
    rank: int
    expected_rank: int
    min_eigenvalue: float
    min_eigenvalue_pt: float
    ppt: bool
    hermitian_defect: float
    entangled_certificate: str
    warning: str | None

    @property
    def ok(self) -> bool:
        return (
            abs(self.trace - 1.0) <= TRACE_EPS_MULTIPLE * self.dim * np.finfo(float).eps
            and self.rank == self.expected_rank
            and self.min_eigenvalue >= PSD_TOL
            and self.ppt
            and self.hermitian_defect < 1e-12
        )

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "trace": self.trace,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "min_eigenvalue": self.min_eigenvalue,
            "min_eigenvalue_pt": self.min_eigenvalue_pt,
            "ppt": self.ppt,
            "hermitian_defect": self.hermitian_defect,
            "entangled_certificate": self.entangled_certificate,
            "warning": self.warning,
            "ok": self.ok,
        }


def ppt_report(upb: UPBSet) -> PPTReport:
    """Spectral report on the complement state of a product set.

    The set must be pairwise orthogonal (relative overlaps) and its tile
    complement certified (``certified_complement``), else ValueError.
    The spectra are those of the class state (``class_state``), with the
    mn - pq zero eigenvalues of the lift when pq < mn.  Entanglement is
    certified by the range criterion inherited from the originating set:
    when the set is a UPB, no product state fits in the support of rho.
    A complete basis yields a degenerate rank-0 report.
    """
    mn = upb.m * upb.n
    count = len(upb.states)
    if count >= mn:
        return PPTReport(
            dim=mn,
            trace=0.0,
            rank=0,
            expected_rank=0,
            min_eigenvalue=0.0,
            min_eigenvalue_pt=0.0,
            ppt=True,
            hermitian_defect=0.0,
            entangled_certificate="none: empty complement",
            warning="degenerate input: the set spans the whole space",
        )
    orth = check_orthogonal_set(upb.states, tol=ORTH_TOL)
    if not orth.ok:
        raise ValueError(
            f"input set is not orthogonal: {len(orth.violations)} violating pairs, "
            f"worst {orth.max_offdiagonal:.3e}"
        )
    certified_complement(upb, tol=ORTH_TOL)
    rho, row_class, col_class = class_state(upb.origin)
    p, q = row_class.max() + 1, col_class.max() + 1
    lifted_zero = 0.0 if p * q < mn else np.inf
    eigs = np.linalg.eigvalsh(rho)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(rho, p, q))
    min_pt = min(float(eigs_pt[0]), lifted_zero)
    return PPTReport(
        dim=mn,
        trace=float(np.trace(rho)),
        rank=int(np.sum(eigs > RANK_TOL)),
        expected_rank=mn - count,
        min_eigenvalue=min(float(eigs[0]), lifted_zero),
        min_eigenvalue_pt=min_pt,
        ppt=bool(min_pt >= PSD_TOL),
        hermitian_defect=float(np.max(np.abs(rho - rho.T))),
        entangled_certificate=(
            "range criterion: the support is the orthogonal complement of an "
            "unextendible product set, so it contains no product state"
        ),
        warning=None,
    )
