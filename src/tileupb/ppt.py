"""The mixed state on the complement of a UPB and why it is PPT.

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
entanglement certificate.  These values are read off ``certify_upb``
(``complement_dim`` and ``u_tile``) and printed by ``tileupb ppt``.
"""

__all__: list[str] = []
