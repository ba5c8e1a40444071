"""Entanglement-assisted LOCC discrimination protocols as measurement trees.

States live on four registers (A, B, a, b): A and a belong to Alice, B
and b to Bob, where a and b are d-level ancillas initially holding the
unnormalized maximally entangled resource sum_j |jj>.  A protocol is a
tree of local projective measurements; every branch is complete on the
acting party's joint register (A (x) a or B (x) b).  Leaves either name
the single surviving candidate or assert that one party can finish
alone: the survivors are product across the Alice/Bob cut, parallel on
the idle party, and orthogonal on the measuring party.

``build_theorem3_protocol`` constructs the tree that perfectly
discriminates the ring-structure basis of prop2(m, n) for even m with a
(m/2)-level resource, by peeling the outer ring and recursing on the
(m-2, n-2) instance; m = 4 is its base case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .families import prop2
from .states import ProductState, upb_state_labels, STOPPER_LABEL

__all__ = [
    "ALICE",
    "BOB",
    "CompositeState",
    "LocalProjector",
    "Branch",
    "Identify",
    "OnePartyFinish",
    "DiscriminationReport",
    "attach_resource",
    "build_theorem3_protocol",
    "verify_protocol",
]

ALICE = "alice"
BOB = "bob"

BRANCH_TOL = 1e-12
PRUNE_TOL = 1e-10
LEAF_TOL = 1e-8
PROB_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Amplitudes on registers (A, B, a, b), indexed in that order."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))
        if self.amplitudes.ndim != 4:
            raise ValueError("composite amplitudes must be a 4-index array")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.amplitudes.shape

    def cut_matrix(self) -> np.ndarray:
        """Matrix across the Alice/Bob cut: row index A*d_a + a, column
        index B*d_b + b."""
        m, n, da, db = self.amplitudes.shape
        return self.amplitudes.transpose(0, 2, 1, 3).reshape(m * da, n * db)


@dataclass(frozen=True, eq=False)
class LocalProjector:
    """A projector on one party's joint register (A (x) a or B (x) b)."""

    party: str
    operator: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operator", np.asarray(self.operator, dtype=complex))


@dataclass(frozen=True, eq=False)
class Branch:
    party: str
    outcomes: tuple[tuple[LocalProjector, "ProtocolNode"], ...]


@dataclass(frozen=True)
class Identify:
    candidate: int


@dataclass(frozen=True)
class OnePartyFinish:
    party: str
    candidates: tuple[int, ...]


ProtocolNode = Union[Branch, Identify, OnePartyFinish]


def attach_resource(states, d: int) -> list[CompositeState]:
    """Tensor each product state with the unnormalized d-level resource
    sum_j |jj> on the ancilla pair."""
    if d < 1:
        raise ValueError("resource dimension must be at least 1")
    eye = np.eye(d)
    out = []
    for state in states:
        if not isinstance(state, ProductState):
            raise TypeError("attach_resource expects product states")
        out.append(CompositeState(np.multiply.outer(np.outer(state.a_vec, state.b_vec), eye)))
    return out


# ---------------------------------------------------------------------------
# Tree construction helpers


def _basis_proj(dim: int, i: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[i, i] = 1.0
    return p


def _levels_proj(dim: int, levels) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    for j in levels:
        p[j, j] = 1.0
    return p


def _dft_proj(dim: int, t: int, levels: int) -> np.ndarray:
    """Normalized projector onto sum_j w^{tj} |j> over the first
    ``levels`` of a dim-level register."""
    v = np.zeros(dim, dtype=complex)
    v[:levels] = np.exp(2j * np.pi * t * np.arange(levels) / levels)
    return np.outer(v, v.conj()) / levels


def _root_projector(m: int, i: int) -> np.ndarray:
    """Alice's i-th root outcome: rows 0..iota pair with ancilla level
    i-1, row iota+j with level (j+i-1) mod iota.  Rank m."""
    iota = m // 2
    p = np.zeros((m * iota, m * iota), dtype=complex)
    for r in range(iota + 1):
        a = (i - 1) % iota
        p[r * iota + a, r * iota + a] = 1.0
    for j in range(1, iota):
        a = (j + i - 1) % iota
        row = iota + j
        p[row * iota + a, row * iota + a] = 1.0
    return p


def _shift_unitary(iota: int, i: int) -> np.ndarray:
    """Cyclic ancilla relabeling |j> -> |(j+i-1) mod iota>."""
    u = np.zeros((iota, iota), dtype=complex)
    for j in range(iota):
        u[(j + i - 1) % iota, j] = 1.0
    return u


def _branch(party: str, outcomes) -> Branch:
    return Branch(
        party, tuple((LocalProjector(party, op), child) for op, child in outcomes)
    )


def _conjugate_tree(node: ProtocolNode, u_alice: np.ndarray, u_bob: np.ndarray) -> ProtocolNode:
    """Conjugate every operator by the party-matching unitary; leaves
    are unchanged."""
    if isinstance(node, Branch):
        u = u_alice if node.party == ALICE else u_bob
        outcomes = tuple(
            (
                LocalProjector(node.party, u @ proj.operator @ u.conj().T),
                _conjugate_tree(child, u_alice, u_bob),
            )
            for proj, child in node.outcomes
        )
        return Branch(node.party, outcomes)
    return node


def _embed_tree(
    node: ProtocolNode,
    alice_map: np.ndarray,
    bob_map: np.ndarray,
    dim_alice: int,
    dim_bob: int,
    translate: dict[int, int],
) -> ProtocolNode:
    """Transplant an inner protocol into larger registers.

    Operators are carried over by the pure index maps; each branch's
    first outcome absorbs the orthocomplement of the embedded subspace
    so that completeness holds on the full register.  Surviving states
    never overlap that padding.  Leaf candidate indices are translated
    to the outer basis ordering.
    """
    if isinstance(node, Identify):
        return Identify(translate[node.candidate])
    if isinstance(node, OnePartyFinish):
        return OnePartyFinish(node.party, tuple(translate[c] for c in node.candidates))
    index = alice_map if node.party == ALICE else bob_map
    dim = dim_alice if node.party == ALICE else dim_bob
    ops = []
    for proj, _ in node.outcomes:
        op = np.zeros((dim, dim), dtype=complex)
        op[np.ix_(index, index)] = proj.operator
        ops.append(op)
    pad = np.eye(dim, dtype=complex)
    pad[np.ix_(index, index)] -= np.eye(len(index))
    ops[0] = ops[0] + pad
    outcomes = tuple(
        (op, _embed_tree(child, alice_map, bob_map, dim_alice, dim_bob, translate))
        for op, (_, child) in zip(ops, node.outcomes)
    )
    return _branch(node.party, outcomes)


def _label_index(ts) -> dict[tuple, int]:
    return {label: i for i, label in enumerate(upb_state_labels(ts))}


def _a1_subtree(m: int, n: int, idx: dict[tuple, int]) -> Branch:
    """The tree below Alice's first root outcome.

    Bob's (n+1)-outcome layer: outcomes 1..n-1 identify one bottom-row
    state each (or the stopper), outcome n isolates the right-column
    tile for Alice to finish after a resource-level rotation, and
    outcome n+1 leads to the top-row / left-column / interior stages,
    recursing on the interior for m >= 6.
    """
    iota = m // 2
    dim_a = m * iota
    dim_b = n * iota
    stop = idx[STOPPER_LABEL]

    outcomes: list[tuple[np.ndarray, ProtocolNode]] = []
    w = np.exp(2j * np.pi / (n - 1))
    for i in range(1, n):
        u = np.zeros(n, dtype=complex)
        u[1:] = w ** (i * np.arange(1, n))
        op = np.kron(np.outer(u, u.conj()) / (n - 1), _basis_proj(iota, iota - 1))
        target = idx[(3, 0, i)] if i <= n - 2 else stop
        outcomes.append((op, Identify(target)))

    tile2 = tuple(idx[(2, k, 0)] for k in range(1, m - 1)) + (stop,)
    b_n = np.kron(_basis_proj(n, n - 1), _levels_proj(iota, range(iota - 1)))
    if iota == 2:
        child_n: ProtocolNode = OnePartyFinish(ALICE, tile2)
    else:
        sub = [
            (np.kron(_basis_proj(n, n - 1), _dft_proj(iota, t, iota - 1)), OnePartyFinish(ALICE, tile2))
            for t in range(iota - 1)
        ]
        sub[0] = (sub[0][0] + np.eye(dim_b) - b_n, sub[0][1])
        child_n = _branch(BOB, sub)
    outcomes.append((b_n, child_n))

    b_rest = np.eye(dim_b, dtype=complex) - sum(op for op, _ in outcomes)

    tile1 = tuple(idx[(1, 0, l)] for l in range(1, n - 1)) + (stop,)
    tile4 = tuple(idx[(4, k, 0)] for k in range(1, m - 1)) + (stop,)
    a_corner = np.kron(_basis_proj(m, 0), _basis_proj(iota, 0))

    b_col = np.kron(_basis_proj(n, 0), np.eye(iota))
    dft4 = [
        (np.kron(_basis_proj(n, 0), _dft_proj(iota, t, iota)), OnePartyFinish(ALICE, tile4))
        for t in range(iota)
    ]
    dft4[0] = (dft4[0][0] + np.eye(dim_b) - b_col, dft4[0][1])

    if m == 4:
        half = np.zeros(m, dtype=complex)
        half[1] = half[2] = 1.0 / np.sqrt(2.0)
        a_mid = np.kron(np.outer(half, half.conj()), np.eye(iota))
        center_sym = tuple(idx[(5, 0, l)] for l in range(1, n - 3 + 1)) + (stop,)
        center_anti = tuple(idx[(5, 1, l)] for l in range(0, n - 3 + 1))
        interior: ProtocolNode = _branch(
            ALICE,
            [
                (a_mid, OnePartyFinish(BOB, center_sym)),
                (np.eye(dim_a) - a_mid, OnePartyFinish(BOB, center_anti)),
            ],
        )
    else:
        inner = _even_prop2_protocol(m - 2, n - 2)
        inner_labels = upb_state_labels(prop2(m - 2, n - 2))
        translate = {}
        for i, label in enumerate(inner_labels):
            if label == STOPPER_LABEL:
                translate[i] = stop
            else:
                tid, k, l = label
                translate[i] = idx[(tid + 4, k, l)]
        d_in = iota - 1
        alice_map = np.array(
            [(ai + 1) * iota + aa for ai in range(m - 2) for aa in range(d_in)]
        )
        bob_map = np.array(
            [(bi + 1) * iota + bb for bi in range(n - 2) for bb in range(d_in)]
        )
        interior = _embed_tree(inner, alice_map, bob_map, dim_a, dim_b, translate)

    after_corner = _branch(
        BOB,
        [
            (b_col, _branch(BOB, dft4)),
            (np.eye(dim_b) - b_col, interior),
        ],
    )
    child_rest = _branch(
        ALICE,
        [
            (a_corner, OnePartyFinish(BOB, tile1)),
            (np.eye(dim_a) - a_corner, after_corner),
        ],
    )
    outcomes.append((b_rest, child_rest))
    return _branch(BOB, outcomes)


def _even_prop2_protocol(m: int, n: int) -> Branch:
    iota = m // 2
    idx = _label_index(prop2(m, n))
    subtree = _a1_subtree(m, n, idx)
    outcomes: list[tuple[np.ndarray, ProtocolNode]] = [(_root_projector(m, 1), subtree)]
    for i in range(2, iota + 1):
        u = _shift_unitary(iota, i)
        u_alice = np.kron(np.eye(m), u)
        u_bob = np.kron(np.eye(n), u)
        outcomes.append((_root_projector(m, i), _conjugate_tree(subtree, u_alice, u_bob)))
    return _branch(ALICE, outcomes)


def build_theorem3_protocol(m: int, n: int) -> Branch:
    """Discrimination tree for the prop2(m, n) basis, even m, with an
    (m/2)-level resource.

    Odd m is rejected: the even construction peels two rows per round
    and no odd base case is built here.
    """
    if m % 2 != 0:
        raise ValueError(f"only even m is supported, got m={m}")
    if not (4 <= m <= n):
        raise ValueError(f"the protocol needs 4 <= m <= n, got m={m}, n={n}")
    return _even_prop2_protocol(m, n)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True, eq=False)
class DiscriminationReport:
    probabilities: tuple[float, ...]
    min_success_probability: float
    max_wrong_probability: float
    branch_violations: tuple[str, ...]
    leaf_violations: tuple[str, ...]
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "probabilities": list(self.probabilities),
            "min_success_probability": self.min_success_probability,
            "max_wrong_probability": self.max_wrong_probability,
            "branch_violations": list(self.branch_violations),
            "leaf_violations": list(self.leaf_violations),
            "ok": self.ok,
        }


def _apply(op: np.ndarray, mat: np.ndarray, party: str) -> np.ndarray:
    return op @ mat if party == ALICE else mat @ op.T


def _check_branch(node: Branch, dims: tuple[int, int], path: str, problems: list[str],
                  tol: float) -> bool:
    """Audit one measurement layer; False means the operators cannot
    even be applied (wrong register shape)."""
    dim = dims[0] if node.party == ALICE else dims[1]
    ops = []
    for proj, _ in node.outcomes:
        if proj.party != node.party:
            problems.append(f"{path}: projector party {proj.party} differs from branch party")
        op = proj.operator
        if op.shape != (dim, dim):
            problems.append(f"{path}: operator shape {op.shape} does not match register {dim}")
            return False
        if np.max(np.abs(op - op.conj().T)) > tol:
            problems.append(f"{path}: operator is not Hermitian")
        if np.max(np.abs(op @ op - op)) > tol:
            problems.append(f"{path}: operator is not idempotent")
        ops.append(op)
    total = sum(ops)
    if np.max(np.abs(total - np.eye(dim))) > tol:
        problems.append(f"{path}: outcomes do not sum to the identity")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if np.max(np.abs(ops[i] @ ops[j])) > tol:
                problems.append(f"{path}: outcomes {i} and {j} are not orthogonal")
    return True


def _check_finish_leaf(node: OnePartyFinish, alive, path: str, problems: list[str]) -> None:
    factors = []
    for state_index, mat in alive:
        u, sv, vh = np.linalg.svd(mat)
        if sv.size > 1 and sv[1] > LEAF_TOL * sv[0]:
            problems.append(
                f"{path}: state {state_index} is not product across the cut "
                f"(second singular value ratio {sv[1] / sv[0]:.2e})"
            )
            continue
        factors.append((state_index, u[:, 0], vh[0].conj()))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            si, ai, bi = factors[i]
            sj, aj, bj = factors[j]
            measuring = abs(np.vdot(ai, aj)) if node.party == ALICE else abs(np.vdot(bi, bj))
            idle = abs(np.vdot(bi, bj)) if node.party == ALICE else abs(np.vdot(ai, aj))
            if measuring > LEAF_TOL:
                problems.append(
                    f"{path}: states {si} and {sj} are not orthogonal on the measuring party"
                )
            if idle < 1.0 - LEAF_TOL:
                problems.append(
                    f"{path}: states {si} and {sj} differ on the idle party"
                )


def verify_protocol(protocol: ProtocolNode, states: list[CompositeState]) -> DiscriminationReport:
    """Simulate every input through the tree and audit all invariants.

    Checks projector completeness and orthogonality at every branch,
    prunes branches below squared norm 1e-10, demands that Identify
    leaves are reached only by their labeled candidate, checks the
    product / parallel / orthogonal geometry at one-party-finish leaves,
    and accumulates per-state success probability.  The report carries
    the minimum success probability over states and the largest
    probability any state lent to a wrong identification.
    """
    if not states:
        raise ValueError("no states to discriminate")
    dims = states[0].dims
    for st in states:
        if st.dims != dims:
            raise ValueError("states have inconsistent register dimensions")
    m, n, da, db = dims
    reg_dims = (m * da, n * db)

    mats = []
    for i, st in enumerate(states):
        mat = st.cut_matrix()
        norm = np.linalg.norm(mat)
        if norm == 0:
            raise ValueError(f"state {i} is zero")
        mats.append(mat / norm)

    count = len(states)
    success = np.zeros(count)
    wrong = np.zeros(count)
    branch_problems: list[str] = []
    leaf_problems: list[str] = []

    def walk(node: ProtocolNode, alive, path: str) -> None:
        if isinstance(node, Branch):
            if not _check_branch(node, reg_dims, path, branch_problems, BRANCH_TOL):
                return
            for k, (proj, child) in enumerate(node.outcomes):
                nxt = []
                for state_index, mat in alive:
                    out = _apply(proj.operator, mat, node.party)
                    if np.linalg.norm(out) ** 2 >= PRUNE_TOL:
                        nxt.append((state_index, out))
                if nxt:
                    walk(child, nxt, f"{path}.{k}")
            # Conservation: the outcomes repartition each state's norm.
            for state_index, mat in alive:
                total = sum(
                    np.linalg.norm(_apply(proj.operator, mat, node.party)) ** 2
                    for proj, _ in node.outcomes
                )
                if abs(total - np.linalg.norm(mat) ** 2) > PROB_TOL:
                    branch_problems.append(
                        f"{path}: state {state_index} loses norm across outcomes"
                    )
        elif isinstance(node, Identify):
            for state_index, mat in alive:
                p = np.linalg.norm(mat) ** 2
                if state_index == node.candidate:
                    success[state_index] += p
                else:
                    wrong[state_index] += p
                    if p > PROB_TOL:
                        leaf_problems.append(
                            f"{path}: labeled {node.candidate} but state {state_index} "
                            f"arrives with probability {p:.3e}"
                        )
        else:
            survivors = []
            for state_index, mat in alive:
                p = np.linalg.norm(mat) ** 2
                if state_index in node.candidates:
                    success[state_index] += p
                    survivors.append((state_index, mat))
                else:
                    wrong[state_index] += p
                    if p > PROB_TOL:
                        leaf_problems.append(
                            f"{path}: state {state_index} is not among the leaf candidates"
                        )
            _check_finish_leaf(node, survivors, path, leaf_problems)

    walk(protocol, list(enumerate(mats)), "root")

    min_success = float(np.min(success))
    max_wrong = float(np.max(wrong))
    ok = (
        not branch_problems
        and not leaf_problems
        and min_success >= 1.0 - PROB_TOL
        and max_wrong <= PROB_TOL
    )
    return DiscriminationReport(
        probabilities=tuple(float(p) for p in success),
        min_success_probability=min_success,
        max_wrong_probability=max_wrong,
        branch_violations=tuple(branch_problems),
        leaf_violations=tuple(leaf_problems),
        ok=ok,
    )
