"""The mixed state on the complement of a UPB and its positivity checks.

For an orthogonal product set of N states in dimension mn, normalizing
and projecting gives rho = (I - sum |psi_i><psi_i|) / (mn - N), the
maximally mixed state on the complement.  For the basis of a tile
structure that complement is span{tile indicators} minus the stopper,
so rho = Q Q^T / (s - 1) with Q its closed-form orthonormal basis.
When the set is unextendible the support of rho contains no product
state (range criterion), so rho is entangled, yet its partial transpose
stays positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import matrix_to_pairs
from .states import UPBSet
from .verify import certified_complement, check_orthogonal_set

__all__ = ["DensityMatrix", "PPTReport", "build_ppt_state", "partial_transpose", "ppt_report"]

PSD_TOL = -1e-10
RANK_TOL = 1e-8
ORTH_TOL = 1e-10  # relative overlap allowed between the states and the complement
TRACE_EPS_MULTIPLE = 16  # |trace - 1| may reach this many times mn * machine epsilon


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator on C^dim_a (x) C^dim_b."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def to_json_dict(self) -> dict:
        return {"dim_a": self.dim_a, "dim_b": self.dim_b, "matrix": matrix_to_pairs(self.matrix)}


def build_ppt_state(upb: UPBSet) -> DensityMatrix:
    """rho = Q Q^T / (s - 1), the normalized projector onto the
    complement of the UPB states, as a real matrix.

    The input set must be pairwise orthogonal (relative overlaps) and
    must not span the whole space; Q is the closed-form tile complement,
    which ``certified_complement`` proves to be the complement of the
    states or refuses with ValueError.  rho has rank mn - N = s - 1.
    """
    orth = check_orthogonal_set(upb.states, tol=ORTH_TOL)
    if not orth.ok:
        raise ValueError(
            f"input set is not orthogonal: {len(orth.violations)} violating pairs, "
            f"worst {orth.max_offdiagonal:.3e}"
        )
    if len(upb.states) >= upb.m * upb.n:
        raise ValueError("the set spans the whole space; the complement state is undefined")
    q = certified_complement(upb, tol=ORTH_TOL)
    return DensityMatrix(upb.m, upb.n, q @ q.T / q.shape[1])


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose on the second factor:
    (rho^Tb)_(i,j),(k,l) = rho_(i,l),(k,j).  Involutive, trace preserving."""
    a, b = rho.dim_a, rho.dim_b
    return rho.matrix.reshape(a, b, a, b).swapaxes(1, 3).reshape(a * b, a * b)


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

    Entanglement is certified by the range criterion inherited from the
    originating set: when the set is a UPB, no product state fits in the
    support of rho.  A complete basis yields a degenerate rank-0 report.
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
    rho = build_ppt_state(upb)
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(rho))
    rank = int(np.sum(eigs > RANK_TOL))
    defect = float(np.max(np.abs(rho.matrix - rho.matrix.conj().T)))
    return PPTReport(
        dim=mn,
        trace=float(np.trace(rho.matrix).real),
        rank=rank,
        expected_rank=mn - count,
        min_eigenvalue=float(eigs[0]),
        min_eigenvalue_pt=float(eigs_pt[0]),
        ppt=bool(eigs_pt[0] >= PSD_TOL),
        hermitian_defect=defect,
        entangled_certificate=(
            "range criterion: the support is the orthogonal complement of an "
            "unextendible product set, so it contains no product state"
        ),
        warning=None,
    )
