"""Entanglement-assisted LOCC discrimination protocols as measurement trees.

States live on four registers (A, B, a, b): A and a belong to Alice, B
and b to Bob, where a and b are d-level ancillas initially holding the
unnormalized maximally entangled resource sum_j |jj>.  A protocol is a
tree of local projective measurements, each complete on the acting
party's joint register (A (x) a or B (x) b) and held as its diagonal plus
one dense block on the few cells of its off-diagonal entries.  Leaves
either name the single surviving candidate or assert that one party can
finish alone: the survivors are product across the Alice/Bob cut,
parallel on the idle party, and orthogonal on the measuring party.  A
state is only an exact factor pair (L, R) of its cut matrix L R^T, as
``attach_resource`` lifts it, and each local outcome acts on one factor.

``build_theorem3_protocol`` builds the tree that perfectly discriminates
the prop2(m, n) ring basis for even m with an (m/2)-level resource,
storing each ring's subtree once as ``_place`` views.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .families import prop2
from .states import STOPPER_LABEL, dft, factor_stacks, pow2_scaled, upb_state_labels

__all__ = ["ALICE", "BOB", "LocalProjector", "Branch", "Identify", "OnePartyFinish",
           "DiscriminationReport", "attach_resource", "build_theorem3_protocol",
           "verify_protocol"]

ALICE = "alice"
BOB = "bob"

BRANCH_TOL = 1e-12
PRUNE_TOL = 1e-10
LEAF_TOL = 1e-8
PROB_TOL = 1e-9
MAX_CELLS = 620  # m * n; every walk it admits peaks under 2 GiB of RSS (README)


@dataclass(frozen=True, eq=False)
class LocalProjector:
    """A projector on the joint register (A (x) a or B (x) b) of the party
    its ``Branch`` names: diag(diagonal) with ``block`` written over
    index x index, ``index`` holding distinct cells, one per block row."""

    diagonal: np.ndarray
    index: np.ndarray = ()
    block: np.ndarray = ()

    def __post_init__(self):  # frozen: the fields are set through __dict__
        index = np.asarray(self.index, dtype=np.intp)
        counts = np.bincount(index, minlength=len(self.diagonal))  # raises for a negative cell
        if len(counts) > len(self.diagonal) or counts.max(initial=0) > 1:
            raise ValueError("a projector's index must hold distinct cells of its register")
        self.__dict__.update(index=index, diagonal=np.asarray(self.diagonal, complex),
                             block=np.asarray(self.block, complex).reshape(index.size, index.size))

    @property
    def operator(self) -> np.ndarray:
        """The dense matrix, rendered anew on each access."""
        op = np.diag(self.diagonal)
        op[np.ix_(self.index, self.index)] = self.block
        return op


@dataclass(frozen=True, eq=False)
class Branch:
    party: str
    outcomes: Sequence[tuple[LocalProjector, "ProtocolNode"]]  # a tuple, or a ``_place`` view


@dataclass(frozen=True)
class Identify:
    candidate: int


@dataclass(frozen=True)
class OnePartyFinish:
    party: str
    candidates: tuple[int, ...]


ProtocolNode = Union[Branch, Identify, OnePartyFinish]


def attach_resource(a: np.ndarray, b: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor the product states with factor stacks a (N x m) and
    b (N x n) with the unnormalized d-level resource sum_j |jj> on the
    ancilla pair: the cut factor stacks kron(a_i, I_d) (N x m*d x d) and
    kron(b_i, I_d) (N x n*d x d), rows indexed A*d + a and B*d + b.
    Raises ValueError for d < 1 or stacks that ``factor_stacks`` refuses."""
    if d < 1:
        raise ValueError("resource dimension must be at least 1")
    eye = np.eye(d)
    a, b = factor_stacks(a, b)
    return ((a[:, :, None, None] * eye).reshape(len(a), -1, d),
            (b[:, :, None, None] * eye).reshape(len(b), -1, d))


# ---------------------------------------------------------------------------
# Tree construction helpers


def _levels_proj(dim: int, levels) -> LocalProjector:
    """Diagonal projector onto the given levels of a dim-level register."""
    return LocalProjector(np.isin(np.arange(dim), levels))


def _cells(rows, levels, iota: int) -> np.ndarray:
    """The cells row*iota + level of a register of iota levels per row,
    row by row: each of ``rows`` at every one of ``levels``, or at its
    own level when ``levels`` is a column holding one per row."""
    return (np.c_[rows] * iota + levels).ravel()


def _shift_index(levels: int, iota: int, i: int) -> np.ndarray:
    """The cyclic ancilla shift |r, a> -> |r, (a+i-1) mod iota>, as an index map."""
    return _cells(range(levels), (np.arange(iota) + i - 1) % iota, iota)


def _either(party: str, op: LocalProjector, inside: ProtocolNode, rest: ProtocolNode) -> Branch:
    """The two-outcome layer (op, I - op)."""
    other = LocalProjector(1 - op.diagonal, op.index, np.eye(op.index.size) - op.block)
    return Branch(party, ((op, inside), (other, rest)))


def _level_dft(cells: np.ndarray, dims: tuple[int, int], leaf: ProtocolNode) -> Branch:
    """Bob's DFT layer over his register cells c_0..c_{l-1}, placed
    (``_place``) into registers of sizes dims: outcome t projects onto
    sum_j w^{tj} |c_j>, and outcome 0 also takes the identity off them."""
    layer = Branch(BOB, tuple((LocalProjector(np.zeros(len(cells)), range(len(cells)),
                                              np.outer(v, v.conj()) / len(cells)), leaf)
                              for v in dft(len(cells))))
    return _place(layer, np.arange(dims[0]), cells, dims)


def _place(node: ProtocolNode, alice_index: np.ndarray, bob_index: np.ndarray,
           dims: tuple[int, int]) -> ProtocolNode:
    """Carry a tree into registers of sizes dims = (Alice, Bob) as a
    ``_Placed`` view: each operator entry (u, v) moves to (index[u],
    index[v]) by the acting party's index map, and each branch's first
    outcome absorbs the identity off the image, so completeness holds.
    A permutation index conjugates the tree; a partial one embeds it.
    Leaves are unchanged, and placing a view composes the index maps."""
    if not isinstance(node, Branch):
        return node
    if isinstance(node.outcomes, _Placed):
        view = node.outcomes
        node, alice_index, bob_index = (view.source, alice_index[view.alice_index],
                                        bob_index[view.bob_index])
    return Branch(node.party, _Placed(node, alice_index, bob_index, tuple(dims)))


@dataclass(frozen=True, eq=False)
class _Placed(Sequence):
    """The outcomes of ``source`` placed by ``_place``, rendered on access:
    each is the placed operator and the placed child."""

    source: Branch
    alice_index: np.ndarray
    bob_index: np.ndarray
    dims: tuple[int, int]

    def __len__(self) -> int:
        return len(self.source.outcomes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k = range(len(self))[k]  # a negative k names the same outcome, first included
        proj, child = self.source.outcomes[k]
        bob = self.source.party != ALICE
        index, dim = (self.alice_index, self.bob_index)[bob], self.dims[bob]
        diagonal = np.full(dim, float(k == 0), dtype=complex)  # outcome 0 is 1 off the image
        diagonal[index] = proj.diagonal
        return (LocalProjector(diagonal, index[proj.index], proj.block),
                _place(child, self.alice_index, self.bob_index, self.dims))


def _a1_subtree(m: int, n: int, idx: dict[tuple, int], ring: int) -> Branch:
    """The tree below Alice's first root outcome for ring ``ring`` of the
    full basis, on that ring's own m x n registers (iota = m/2 levels).

    Bob's (n+1)-outcome layer: outcomes 1..n-1 identify one bottom-row
    state each (or the stopper), outcome n isolates the right-column
    tile for Alice to finish after a resource-level rotation, and
    outcome n+1 leads to the top-row / left-column / interior stages.
    For m >= 6 the interior is the next ring's subtree, placed on rows
    1..m-2 and levels 0..iota-2.  Leaves name states of the full basis:
    ring tile t is tile t + 4*ring there, as ``idx`` labels them.
    """
    iota = m // 2
    dims = (m * iota, n * iota)
    stop = idx[STOPPER_LABEL]

    def state(tid: int, k: int, l: int) -> int:
        return idx[(tid + 4 * ring, k, l)]

    # outcome i: DFT row i mod (n-1), on level iota-1 of columns 1..n-1
    cells = _cells(range(1, n), iota - 1, iota)
    outcomes: list[tuple[LocalProjector, ProtocolNode]] = [
        (LocalProjector(np.zeros(dims[1]), cells, np.outer(u, u.conj()) / (n - 1)),
         Identify(state(3, 0, i) if i < n - 1 else stop))
        for i, u in enumerate(np.roll(dft(n - 1), -1, axis=0), 1)]

    tile2 = OnePartyFinish(ALICE, tuple(state(2, k, 0) for k in range(1, m - 1)) + (stop,))
    b_n = _cells([n - 1], range(iota - 1), iota)
    outcomes.append((_levels_proj(dims[1], b_n), tile2 if iota == 2 else
                     _level_dft(b_n, dims, tile2)))

    tile1 = tuple(state(1, 0, l) for l in range(1, n - 1)) + (stop,)
    tile4 = OnePartyFinish(ALICE, tuple(state(4, k, 0) for k in range(1, m - 1)) + (stop,))
    ring_a, ring_b = (_cells(range(1, size - 1), range(iota - 1), iota) for size in (m, n))
    if m == 4:  # |+><+| on rows 1 and 2, at both levels, with exact 1/2 entries
        core = LocalProjector(np.zeros(8), np.arange(2, 6), np.kron(np.full((2, 2), .5), np.eye(2)))
        center_sym = tuple(state(5, 0, l) for l in range(1, n - 3 + 1)) + (stop,)
        center_anti = tuple(state(5, 1, l) for l in range(0, n - 3 + 1))
        interior: ProtocolNode = _either(ALICE, core, OnePartyFinish(BOB, center_sym),
                                         OnePartyFinish(BOB, center_anti))
    else:
        interior = _place(_a1_subtree(m - 2, n - 2, idx, ring + 1), ring_a, ring_b, dims)

    col0 = _cells([0], range(iota), iota)
    after_corner = _either(BOB, _levels_proj(dims[1], col0), _level_dft(col0, dims, tile4),
                           interior)
    child_rest = _either(ALICE, _levels_proj(dims[0], [0]), OnePartyFinish(BOB, tile1),
                         after_corner)
    # the rest: column 0 at every level, and the next ring's columns 1..n-2
    outcomes.append((_levels_proj(dims[1], np.r_[col0, ring_b]), child_rest))
    return Branch(BOB, tuple(outcomes))


def build_theorem3_protocol(m: int, n: int) -> Branch:
    """Discrimination tree for the prop2(m, n) basis, even m, with an
    (m/2)-level resource.

    Alice's root layer has iota = m/2 outcomes.  The first pairs row r
    with ancilla level max(r - iota, 0) and keeps the ring-0 subtree,
    stored once; outcome i is that one-outcome layer placed (``_place``)
    by the matching cyclic shift of both ancillas (``_shift_index``), so
    one placement shifts the projector and views the subtree, and the
    shift fixes every resource state.  Below the outer ring the subtree
    goes straight on to the next ring's subtree, without that ring's own
    root layer: Alice's first root outcome already pairs each inner row
    with the level the inner first root outcome would pick, and her
    operators in between are diagonal, so the inner root would give its
    first outcome with certainty and its other outcomes would be reached
    by no state.  The tree has 5k(k-1) + 1 branches for m = 2k.

    Odd m is rejected: the even construction peels two rows per round
    and no odd base case is built here.  prop2 refuses the sizes it does
    not build (an even m it takes is at least 4); then a grid of more
    than MAX_CELLS cells is refused before any operator is built.
    """
    if m % 2 != 0:
        raise ValueError(f"only even m is supported, got m={m}")
    idx = {label: i for i, label in enumerate(upb_state_labels(prop2(m, n)))}
    if m * n > MAX_CELLS:
        raise ValueError(f"the protocol for m={m}, n={n} covers {m * n} cells, "
                         f"over the {MAX_CELLS}-cell bound")
    iota = m // 2  # the first outcome pairs row r with level max(r - iota, 0)
    paired = _cells(range(m), np.c_[np.arange(-iota, iota).clip(0)], iota)
    first = Branch(ALICE, ((_levels_proj(m * iota, paired), _a1_subtree(m, n, idx, 0)),))
    return Branch(ALICE, first.outcomes + tuple(
        _place(first, _shift_index(m, iota, i), _shift_index(n, iota, i),
               (m * iota, n * iota)).outcomes[0] for i in range(2, iota + 1)))


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True, eq=False)
class DiscriminationReport:
    """The measured probabilities and violations; the verdict is read off them."""

    probabilities: tuple[float, ...]
    max_wrong_probability: float
    branch_violations: tuple[str, ...]
    leaf_violations: tuple[str, ...]

    @property
    def min_success_probability(self) -> float:
        return min(self.probabilities)

    @property
    def ok(self) -> bool:
        return (not self.branch_violations and not self.leaf_violations
                and self.min_success_probability >= 1.0 - PROB_TOL
                and self.max_wrong_probability <= PROB_TOL)


def _gram(idle: np.ndarray) -> np.ndarray:
    """The stacked r×r Grams Yᵀ Ȳ of the factors Y_k."""
    return np.swapaxes(idle, 1, 2) @ idle.conj()


def _sq_norms(moved: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the stacked cut matrices X_k Y_kᵀ, from
    the r×r Grams of Y (``_gram``): ‖X Yᵀ‖² = Σ conj(X) ∘ (X Yᵀ Ȳ).  The
    norm is symmetric in the two factors, so either one may be X."""
    return np.einsum("kir,kir->k", moved.conj(), moved @ gram).real


def _check_branch(node: Branch, dims: tuple[int, int], path: str, problems: list[str]) -> bool:
    """Audit one measurement layer: each outcome Hermitian and idempotent,
    their sum the identity, each pair orthogonal, in that message order,
    failing a NaN entry on every count; False means the operators do not
    fit the register.  Off the union U of the block cells every operator
    is diagonal, so each check runs exactly on the stacked U x U
    restrictions and on each cell off U as a 1 x 1 matrix."""
    dim = dims[0] if node.party == ALICE else dims[1]
    projs = [proj for proj, _ in node.outcomes]
    fit = next((k for k, p in enumerate(projs) if p.diagonal.shape != (dim,)), len(projs))
    on = np.zeros(dim, dtype=bool)
    on[[cell for proj in projs[:fit] for cell in proj.index]] = True
    size, where = on.sum(), np.cumsum(on) - 1  # |U|, and each cell's place in U
    diags = np.reshape([proj.diagonal for proj in projs[:fit]], (fit, dim))
    blocks = np.zeros((fit, size, size), dtype=complex)
    blocks[:, range(size), range(size)] = diags[:, on]
    for block, proj in zip(blocks, projs):
        block[where[proj.index][:, None], where[proj.index]] = proj.block
    parts = blocks[:, None], diags[:, ~on, None, None]
    def worst(f):  # the largest |entry| of f over both parts, per outcome
        return np.maximum(*(np.abs(f(x)).max(axis=(-3, -2, -1), initial=0) for x in parts))
    hermitian = worst(lambda x: x - x.conj().swapaxes(-2, -1))
    idempotent = worst(lambda x: x @ x - x)
    for k in range(fit):
        if not hermitian[k] <= BRANCH_TOL:
            problems.append(f"{path}: operator is not Hermitian")
        if not idempotent[k] <= BRANCH_TOL:
            problems.append(f"{path}: operator is not idempotent")
    if fit < len(projs):
        shape = projs[fit].diagonal.shape * 2
        problems.append(f"{path}: operator shape {shape} does not match register {dim}")
        return False
    if not worst(lambda x: x.sum(axis=0) - np.eye(x.shape[-1])) <= BRANCH_TOL:
        problems.append(f"{path}: outcomes do not sum to the identity")
    for i in range(fit - 1):  # outcome i against outcomes i+1.. in one batched product
        for j in np.flatnonzero(~(worst(lambda x: x[i] @ x[i + 1:]) <= BRANCH_TOL)) + i + 1:
            problems.append(f"{path}: outcomes {i} and {j} are not orthogonal")
    return True


def _check_finish_leaf(node: OnePartyFinish, idx: np.ndarray, lefts: np.ndarray,
                       rights: np.ndarray, path: str, problems: list[str]) -> None:
    """Product / parallel / orthogonal geometry of the survivors.

    With L = Q_L T_L and R = Q_R T_R, the cut matrix is
    Q_L (T_L T_Rᵀ) Q_Rᵀ, so its singular triplets come from the small
    core T_L T_Rᵀ.
    """
    q_l, t_l = np.linalg.qr(lefts)
    q_r, t_r = np.linalg.qr(rights)
    u, sv, vh = np.linalg.svd(t_l @ np.swapaxes(t_r, 1, 2))
    first, second = sv[:, :1], sv[:, 1:2]  # no second column for rank-1 stacks: product
    product = ~(second > LEAF_TOL * first).any(axis=1)
    for k in np.flatnonzero(~product):
        problems.append(f"{path}: state {idx[k]} is not product across the cut "
                        f"(second singular value ratio {second[k, 0] / first[k, 0]:.2e})")
    # Unit cut factors a_k = Q_L u_k[:, 0] and b_k = conj(vh_k[0] Q_Rᵀ).
    alice_vecs = (q_l @ u[:, :, :1])[product, :, 0]
    bob_vecs = (vh[:, :1, :] @ np.swapaxes(q_r, 1, 2))[product, 0, :].conj()
    kept = idx[product]
    overlaps = [np.abs(vecs.conj() @ vecs.T) for vecs in (alice_vecs, bob_vecs)]
    measuring, idle = overlaps if node.party == ALICE else overlaps[::-1]
    for i, j in zip(*np.nonzero(np.triu((measuring > LEAF_TOL) | (idle < 1.0 - LEAF_TOL), 1))):
        if measuring[i, j] > LEAF_TOL:
            problems.append(f"{path}: states {kept[i]} and {kept[j]} are not orthogonal "
                            "on the measuring party")
        if idle[i, j] < 1.0 - LEAF_TOL:
            problems.append(f"{path}: states {kept[i]} and {kept[j]} differ on the idle party")


def _columns(lefts: np.ndarray, rights: np.ndarray) -> list[list[bytes]]:
    """Each state's factor columns, L over R, as their sorted bytes."""
    return [sorted(col.tobytes() for col in state.T)
            for state in np.concatenate((lefts, rights), axis=1)]


def _placements(node: Branch, dims: tuple[int, int]) -> dict[int, tuple[np.ndarray, ...]]:
    """The outcomes k >= 1 of a rendered branch whose subtree is a
    ``_Placed`` view of subtree 0 itself, on the same dims and party, by
    indices that permute their registers, each with that index pair.
    Walking such a view on stacks (L, R) is walking subtree 0 on
    (L[σ_A], R[σ_B]), whatever outcome k's own operator is."""
    sub, found = node.outcomes[0][1], {}
    for k, (_, child) in enumerate(node.outcomes[1:], 1):
        view = getattr(child, "outcomes", None)
        pair = (view.alice_index, view.bob_index) if isinstance(view, _Placed) else ()
        if (pair and view.source is sub and view.dims == dims and child.party == sub.party
                and all(i.shape == (d,) and i.dtype.kind in "iu"
                        and set(i.tolist()) == set(range(d)) for i, d in zip(pair, dims))):
            found[k] = pair
    return found


def verify_protocol(protocol: ProtocolNode, lefts: np.ndarray,
                    rights: np.ndarray) -> DiscriminationReport:
    """Walk every input through the tree and audit all invariants.

    State i travels as its exact cut factors L = lefts[i] and
    R = rights[i], with cut matrix L Rᵀ: Alice's outcome P maps L to P L
    and Bob's maps R to P R, by P's diagonal and then its block, for all
    states alive at the branch at once.  Every outcome is entered with
    the states that reach it at squared norm 1e-10 or more, possibly
    none, so each branch is audited once (``_check_branch``) whatever the
    inputs; a branch whose operators do not fit the registers, or a node
    of an unknown party, stops there unjudged.  Each outcome layer must
    conserve every state's norm, and each leaf must be reached only by
    its candidates (an Identify leaf is a finish leaf of one); a
    one-party-finish leaf must also hold product survivors, parallel on
    the idle party and orthogonal on the measuring one.  The report
    carries each state's success probability and the largest probability
    any state lent to a wrong identification.  An outcome whose subtree
    is a permutation view of outcome 0's (``_placements``) takes outcome
    0's weights and violations, renamed to its path, unwalked, when the
    states it hands on, gathered by the view's indices, are the states
    outcome 0 handed on, each up to the order of its factor columns
    (``_columns``): the walk below would then be outcome 0's.  Raises
    ValueError for stacks that ``factor_stacks(..., axes=3)`` refuses, or
    when there are no states or one is zero or not finite.
    """
    # pow2_scaled is exact and keeps norms2 finite
    lefts, rights = map(pow2_scaled, factor_stacks(lefts, rights, axes=3))
    count = len(lefts)
    if not count:
        raise ValueError("no states to discriminate")
    reg_dims = lefts.shape[1], rights.shape[1]
    finite = np.isfinite(lefts).all(axis=(1, 2)) & np.isfinite(rights).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"state {np.flatnonzero(~finite)[0]} is not finite")
    norms2 = _sq_norms(lefts, _gram(rights))
    zero = np.flatnonzero(norms2 == 0)
    if zero.size:
        raise ValueError(f"state {zero[0]} is zero")
    lefts = lefts / np.sqrt(norms2)[:, None, None]

    weights = np.zeros((2, count))  # each state's success and wrong-identification weight
    problems = ([], [])  # branch and leaf violations, in walk order

    def walk(node: ProtocolNode, idx, lefts, rights, norms2, path: str, acc, found) -> None:
        if not isinstance(node, Identify) and node.party not in (ALICE, BOB):
            found[not isinstance(node, Branch)].append(f"{path}: unknown party {node.party!r}")
        elif isinstance(node, Branch):
            node = Branch(node.party, tuple(node.outcomes))  # rendered once per visit
            if not _check_branch(node, reg_dims, path, found[0]):
                return
            placed = _placements(node, reg_dims)
            alice = node.party == ALICE
            moved, idle = (lefts, rights) if alice else (rights, lefts)
            gram = _gram(idle)  # the idle factors are the same for every outcome
            total = np.zeros(idx.size)
            for k, (proj, child) in enumerate(node.outcomes):
                out = moved * proj.diagonal[:, None]
                out[:, proj.index] = proj.block @ moved[:, proj.index]
                p = _sq_norms(out, gram)
                total += p
                keep = p >= PRUNE_TOL
                if keep.all():
                    keep = slice(None)  # views: nothing below writes into a state
                out = out[keep]  # the unpruned rows are freed before the descent
                pair = (out, idle[keep]) if alice else (idle[keep], out)
                args = child, idx[keep], *pair, p[keep], f"{path}.{k}"
                if k == 0 and placed:  # walked apart, for its placements to inherit
                    first = np.zeros_like(acc), ([], [])
                    walk(*args, *first)
                    reached = idx[keep].tolist(), _columns(*pair)  # read once the walk is done
                elif k not in placed or reached != (idx[keep].tolist(), _columns(
                        pair[0][:, placed[k][0]], pair[1][:, placed[k][1]])):
                    walk(*args, acc, found)
                    continue
                # outcome 0, or a placement reached as it: its weights and renamed violations
                acc += first[0]
                for mine, theirs in zip(found, first[1]):
                    mine.extend(f"{path}.{k}" + v[len(path) + 2:] for v in theirs)
            for i in np.flatnonzero(~(np.abs(total - norms2) <= PROB_TOL)):
                found[0].append(f"{path}: state {idx[i]} loses norm across outcomes")
        else:
            identify = isinstance(node, Identify)
            named = idx == node.candidate if identify else np.isin(idx, node.candidates)
            acc[0, idx[named]] += norms2[named]
            acc[1, idx[~named]] += norms2[~named]
            loud = ~named & (norms2 > PROB_TOL)
            for i, p in zip(idx[loud], norms2[loud]):
                found[1].append(f"{path}: labeled {node.candidate} but state {i} arrives with "
                                f"probability {p:.3e}" if identify
                                else f"{path}: state {i} is not among the leaf candidates")
            if not identify:
                _check_finish_leaf(node, idx[named], lefts[named], rights[named], path,
                                   found[1])

    walk(protocol, np.arange(count), lefts, rights, np.ones(count), "root", weights, problems)
    return DiscriminationReport(tuple(float(p) for p in weights[0]), float(np.max(weights[1])),
                                *map(tuple, problems))
