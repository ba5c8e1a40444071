"""The mixed state on the complement of a UPB and its positivity report.

For an orthogonal product set of N states in dimension mn, normalizing
and projecting gives rho = (I - sum |psi_i><psi_i|) / (mn - N), the
maximally mixed state on the complement.  When the set is unextendible
the support of rho contains no product state (range criterion), so rho
is entangled, yet its partial transpose stays positive semidefinite.

For the basis of a tile structure both spectra are known once
``certify_upb`` certifies the complement: it is span{tile indicators}
minus the stopper, of dimension s - 1, so
rho = (sum_t 1_t 1_t^T / |t| - J / mn) / (s - 1) is that projector over
s - 1.  Its eigenvalues are 1/(s - 1), s - 1 times, and 0 (s - 1 < mn),
and its trace is 1.  Each tile is a rectangle, so
1_t 1_t^T = (r r^T) (x) (c c^T) with real indicators r and c, and
J = (1 1^T) (x) (1 1^T) likewise; transposing the second factor leaves
every term unchanged, so rho^Gamma = rho.  This is the tile case of the
argument of Bennett et al. (PRL 82, 5385, 1999) and DiVincenzo et al.
(CMP 238, 379, 2003).  No state is formed and no eigensolver runs.  The
range criterion holds only for a U-tile origin: otherwise the support
contains the origin's extension state, and rho is PPT with no
entanglement certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import UPBSet
from .verify import certify_upb

__all__ = ["PPTReport", "ppt_report"]


@dataclass(frozen=True, eq=False)
class PPTReport:
    dim: int
    trace: float
    rank: int
    expected_rank: int
    min_eigenvalue: float
    min_eigenvalue_pt: float
    ppt: bool
    spectrum_certificate: str
    entangled_certificate: str | None
    warning: str | None

    @property
    def ok(self) -> bool:
        return self.rank == self.expected_rank > 0 and self.ppt


def ppt_report(upb: UPBSet) -> PPTReport:
    """Spectral report on the complement state of a tile-structure basis.

    ``certify_upb`` must certify the complement of the factor stack
    ``upb.a``, ``upb.b``, else ValueError with its refusal.  Trace, rank
    and both minimum eigenvalues are then the values the certificate
    proves (see the module docstring), named in
    ``spectrum_certificate``.  ``entangled_certificate`` names the range
    criterion when the origin is U-tile, so that the set is a UPB and no
    product state fits in the support of rho; it is None, with a
    ``warning``, when the origin is not.  A certified empty complement
    (one tile) is the same report at rank 0: trace 0, no spectrum
    certificate and a degenerate-input warning.
    """
    cert = certify_upb(upb)
    if cert.refusal:
        raise ValueError(cert.refusal)
    mn = upb.m * upb.n
    rank = cert.complement_dim
    return PPTReport(
        dim=mn,
        trace=1.0 if rank else 0.0,
        rank=rank,
        expected_rank=mn - len(upb.a),
        min_eigenvalue=0.0,
        min_eigenvalue_pt=0.0,
        ppt=True,
        spectrum_certificate=(
            "closed form: the certified complement makes rho its projector over "
            "s - 1 (eigenvalues 1/(s - 1) and 0), and real rectangular tiles "
            "give rho^Gamma = rho" if rank else "none: empty complement"
        ),
        entangled_certificate=(
            "range criterion: the support is the orthogonal complement of an "
            "unextendible product set, so it contains no product state"
            if cert.u_tile else None
        ),
        warning=(
            None if cert.u_tile else
            "the origin is not U-tile: the support contains its extension state, "
            "so the range criterion certifies no entanglement"
        ) if rank else "degenerate input: the set spans the whole space",
    )
