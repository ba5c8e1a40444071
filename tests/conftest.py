"""Shared oracles and generators.

Everything here recomputes expected values from first principles with
deliberately naive algorithms (set arithmetic, explicit loops, full
Kronecker products) so the library's vectorized implementations are
checked against independent code paths.
"""

import itertools

import numpy as np
import pytest

from tileupb import (
    SearchResult,
    TileStructure,
    UPBSet,
    build_upb,
    five_tile,
)
from tileupb.locc import (
    ALICE,
    LEAF_TOL,
    PROB_TOL,
    PRUNE_TOL,
    Branch,
    DiscriminationReport,
    Identify,
    _check_branch,
)
from tileupb.verify import DEFAULT_CONV_TOL, DEFAULT_MAX_ITERS, MONOTONE_SLACK


def structure_from_grid(grid):
    return TileStructure.from_grid(grid)


# ---------------------------------------------------------------------------
# Combinatorial oracles


def brute_special_rectangles(ts):
    """All tile unions whose cells form a full row-set x column-set
    product, as (ids, rows, cols) triples, by set arithmetic."""
    found = []
    for k in range(2, ts.tile_count + 1):
        for combo in itertools.combinations(ts.tiles, k):
            cells = set()
            for tile in combo:
                cells |= set(itertools.product(tile.rows, tile.cols))
            rows = tuple(sorted({r for r, _ in cells}))
            cols = tuple(sorted({c for _, c in cells}))
            if cells == {(r, c) for r in rows for c in cols}:
                found.append((tuple(t.id for t in combo), rows, cols))
    return found


def enumerate_special_rectangles(ts):
    """All special rectangles as (ids, rows, cols) triples, sorted by
    (tile count, lexicographic ids), by subset enumeration over tile
    bitmasks: a subset qualifies when its total cell count equals
    |union of rows| * |union of cols| (tiles are disjoint exact
    rectangles, so equality forces exact coverage).  Exponential in the
    tile count, so only for small structures."""
    row_masks = [sum(1 << r for r in tile.rows) for tile in ts.tiles]
    col_masks = [sum(1 << c for c in tile.cols) for tile in ts.tiles]
    sizes = [len(tile.rows) * len(tile.cols) for tile in ts.tiles]
    rects = []
    for mask in range(1, 1 << ts.tile_count):
        if mask.bit_count() < 2:
            continue
        rows = cols = count = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rows |= row_masks[i]
            cols |= col_masks[i]
            count += sizes[i]
            rest &= rest - 1
        if count == rows.bit_count() * cols.bit_count():
            rects.append((
                tuple(t.id for i, t in enumerate(ts.tiles) if mask >> i & 1),
                tuple(r for r in range(ts.m) if rows >> r & 1),
                tuple(c for c in range(ts.n) if cols >> c & 1),
            ))
    rects.sort(key=lambda r: (len(r[0]), r[0]))
    return rects


def brute_is_u_tile(ts):
    """Definitional check: no special rectangle may split into two
    groups of tiles with disjoint row unions or disjoint column
    unions."""
    for ids, _rows, _cols in brute_special_rectangles(ts):
        tiles = [ts.tiles[i - 1] for i in ids]
        for axis in ("row", "column"):
            sets = [set(t.rows if axis == "row" else t.cols) for t in tiles]
            k = len(tiles)
            for mask in range(1, 2 ** k - 1):
                one = set().union(*(sets[i] for i in range(k) if mask >> i & 1))
                two = set().union(*(sets[i] for i in range(k) if not mask >> i & 1))
                if not one & two:
                    return False
    return True


def _intersection_graph_connected(sets):
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for u in range(len(sets)):
            if u not in seen and sets[u] & sets[v]:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(sets)


def enumeration_is_u_tile(ts):
    """Enumerate-then-connectivity check: every special rectangle, listed
    by subset enumeration, must have connected row- and column-
    intersection graphs on its tiles."""
    for ids, _rows, _cols in enumerate_special_rectangles(ts):
        tiles = [ts.tiles[i - 1] for i in ids]
        if not _intersection_graph_connected([set(t.rows) for t in tiles]):
            return False
        if not _intersection_graph_connected([set(t.cols) for t in tiles]):
            return False
    return True


def assert_witness_split(ts, verdict):
    """By set arithmetic: the witness rectangle is exactly rows x cols,
    its two parts partition its tiles, and they are disjoint along the
    axis."""
    wit = verdict.witness
    tiles = [ts.tiles[tid - 1] for tid in wit.tile_ids]
    cells = {cell for t in tiles for cell in itertools.product(t.rows, t.cols)}
    assert cells == set(itertools.product(wit.rows, wit.cols))
    assert wit.part1 and wit.part2
    assert sorted(wit.part1 + wit.part2) == sorted(wit.tile_ids)
    assert wit.axis in ("row", "column")
    attr = "cols" if wit.axis == "column" else "rows"
    sides = [{i for tid in part for i in getattr(ts.tiles[tid - 1], attr)}
             for part in (wit.part1, wit.part2)]
    assert not sides[0] & sides[1]


# ---------------------------------------------------------------------------
# Linear-algebra oracles


def kron_vector(state):
    """Flatten a product state (a, b) to the mn-dimensional vector by
    explicit Kronecker product."""
    return np.kron(*state)


def brute_inner(s1, s2):
    return complex(np.vdot(kron_vector(s1), kron_vector(s2)))


def product_matrix(state):
    """The m x n coefficient matrix a b^T of a product state (a, b)."""
    return np.outer(*state)


def missing_states(ts):
    """Each tile's (0, 0) state, the one build_upb omits: the (a, b) pair
    of its row and column indicators."""
    return tuple((np.isin(np.arange(ts.m), t.rows).astype(complex),
                  np.isin(np.arange(ts.n), t.cols).astype(complex)) for t in ts.tiles)


def stopper_state(ts):
    """The all-ones product state (sum_e |e>)(sum_j |j>) on ts's grid, as
    its (a, b) pair."""
    return np.ones(ts.m, dtype=complex), np.ones(ts.n, dtype=complex)


def brute_tile_matrices(tile, m, n):
    """The tile's full orthogonal family as grid matrices, built cell by
    cell, in (k, l) row-major order."""
    p, q = len(tile.rows), len(tile.cols)
    out = []
    for k in range(p):
        for l in range(q):
            mat = np.zeros((m, n), dtype=complex)
            for e, r in enumerate(tile.rows):
                for f, c in enumerate(tile.cols):
                    mat[r, c] = np.exp(2j * np.pi * k * e / p) * np.exp(2j * np.pi * l * f / q)
            out.append(mat)
    return out


def brute_orthogonality(states, tol):
    """Every pair i < j with |<psi_i|psi_j>| / (|psi_i| |psi_j|) above
    tol, by an explicit loop over pairs, and the largest such value; a
    zero state overlaps nothing."""
    vecs = [kron_vector(s) for s in states]
    norms = [np.linalg.norm(v) or 1.0 for v in vecs]
    violations, worst = [], 0.0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            mag = abs(np.vdot(vecs[i], vecs[j])) / (norms[i] * norms[j])
            worst = max(worst, mag)
            if mag > tol:
                violations.append((i, j, mag))
    return violations, worst


LEMMA1_RTOL = 1e-9


def _numeric_ranks(stack):
    """Rank of each matrix in a stack, at relative tolerance LEMMA1_RTOL;
    an all-zero matrix has rank 0."""
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sv > LEMMA1_RTOL * sv[..., :1], axis=-1)


def lemma1_is_extendible(a, b):
    """Whether the orthogonal product set with nonzero factor rows a
    (N x m, m >= 2) and b (N x n) extends, by Lemma 1 of DiVincenzo, Mor,
    Shor, Smolin and Terhal (CMP 238, 379, 2003): it does iff its states
    split into S1 and S2 with rank{a_i : S1} < m and rank{b_i : S2} < n.

    If S1 works, so does the set of every state whose a_i lies in a
    hyperplane holding S1's factors: its rank stays below m and S2 only
    shrinks.  Once the a_i span C^m such a hyperplane is spanned by m - 1
    independent a_i, so only the closed flats of those sets need
    checking, one a_i per direction: S1 is every state whose unit a_i is
    orthogonal to the set's normal within LEMMA1_RTOL.  Exhaustive over
    C(N, m - 1) sets, so for grids up to about 5 x 5.
    """
    a, b = (x / np.linalg.norm(x, axis=1, keepdims=True)
            for x in (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    m, n = a.shape[1], b.shape[1]
    if m < 2:
        raise ValueError("the flat search needs m >= 2")
    if _numeric_ranks(a) < m:
        return True
    # One factor per direction: drop each a_i parallel to an earlier one.
    spread = ~np.any(np.triu(np.abs(a.conj() @ a.T) > 1 - LEMMA1_RTOL, 1), axis=0)
    combos = np.array(list(itertools.combinations(np.flatnonzero(spread), m - 1)))
    _, sv, vh = np.linalg.svd(a[combos])
    # The last right singular vector of m - 1 independent rows is their
    # normal x, and a_j lies in their span iff a_j . x = 0.
    normals = vh[sv[:, -1] > LEMMA1_RTOL * sv[:, 0], -1].conj()
    outside = np.unique(np.abs(normals @ a.T) > LEMMA1_RTOL, axis=0)
    # Zeroed rows leave the singular values of the S2 factors unchanged.
    return bool(np.any(_numeric_ranks(outside[:, :, None] * b) < n))


def brute_ppt_state(upb):
    """rho = (I - sum_i |psi_i><psi_i| / <psi_i|psi_i>) / (mn - N), one
    rank-1 update per state."""
    mn = upb.m * upb.n
    proj = np.zeros((mn, mn), dtype=complex)
    for state in upb.states:
        vec = kron_vector(state)
        vec = vec / np.linalg.norm(vec)
        proj += np.outer(vec, vec.conj())
    return (np.eye(mn) - proj) / (mn - len(upb.states))


def class_state(ts):
    """rho_c, the complement state of ts in tile-class coordinates, with
    the class index of every row and of every column.

    Row class i gathers the rows R_i that lie in the same set of tiles,
    column class j likewise the columns C_j; block (i, j) lies in one
    tile t_ij and has weight w_ij = sqrt(|R_i| |C_j|).  Then
    rho_c[(i,j),(k,l)] = w_ij w_kl ([t_ij = t_kl] / |t_ij| - 1/mn) / (s - 1),
    indexed i * q + j, and rho = (E_R (x) E_C) rho_c (E_R (x) E_C)^T where
    column i of E_R is the indicator of R_i over sqrt|R_i|.
    """
    s = ts.tile_count
    if s < 2:
        raise ValueError("a single tile leaves an empty complement: no state to build")
    rows, cols, sizes = _oracle_incidence(ts)
    row_keys, row_class, row_counts = np.unique(
        rows, axis=0, return_inverse=True, return_counts=True)
    col_keys, col_class, col_counts = np.unique(
        cols, axis=0, return_inverse=True, return_counts=True)
    # Each block lies in exactly one tile, so the product picks out its index.
    owner = ((row_keys * np.arange(s)) @ col_keys.T).astype(int).ravel()
    weight = np.sqrt(np.outer(row_counts, col_counts)).ravel()
    rho = np.equal.outer(owner, owner) / sizes[owner]
    rho -= 1.0 / (ts.m * ts.n)
    rho *= np.outer(weight, weight)  # one product per entry keeps rho exactly symmetric
    rho /= s - 1
    return rho, row_class.ravel(), col_class.ravel()


def partial_transpose(rho, da, db):
    """Transpose on the second factor of an operator on C^da (x) C^db,
    by one reshape: (rho^Tb)_(i,j),(k,l) = rho_(i,l),(k,j)."""
    return rho.reshape(da, db, da, db).swapaxes(1, 3).reshape(rho.shape)


def brute_partial_transpose(rho, da, db):
    out = np.zeros_like(rho)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + j, k * db + l] = rho[i * db + l, k * db + j]
    return out


def svd_complement(states, m=None, n=None):
    """Orthonormal basis of the orthogonal complement of span(states),
    as the rows of an array indexed r * n + c, from an SVD of the
    conjugated flattened states, which must be linearly independent.
    An empty list yields the standard basis of the whole space, for
    which m and n are required."""
    if not states:
        if m is None or n is None:
            raise ValueError("dimensions are required for an empty state list")
        return np.eye(m * n, dtype=complex)
    rows = np.array([kron_vector(s) for s in states]).conj()
    k, dim = rows.shape
    _, sv, vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > max(dim, k) * np.finfo(float).eps * sv[0]))
    if rank < k:
        raise ValueError(f"states are linearly dependent: rank {rank} < {k}")
    return vh[k:].conj()


def closed_form_projector(ts):
    """sum_t 1_t 1_t^T / |t| - J / mn, the projector onto the tile
    indicators minus the stopper, filled cell pair by cell pair."""
    mn = ts.m * ts.n
    proj = np.full((mn, mn), -1.0 / mn)
    for tile in ts.tiles:
        cells = list(itertools.product(tile.rows, tile.cols))
        for r, c in cells:
            for r2, c2 in cells:
                proj[r * ts.n + c, r2 * ts.n + c2] += 1.0 / len(cells)
    return proj


def brute_seesaw_objective(comp, a, b):
    """||comp^* (a (x) b)||^2 for complement vectors in the rows of comp."""
    ab = np.kron(a, b)
    return float(sum(abs(np.vdot(v, ab)) ** 2 for v in comp))


def _oracle_incidence(ts):
    """Row and column tile indicators R (m x s), C (n x s) and the tile
    cell counts, filled tile by tile."""
    rows = np.zeros((ts.m, ts.tile_count))
    cols = np.zeros((ts.n, ts.tile_count))
    for k, tile in enumerate(ts.tiles):
        rows[list(tile.rows), k] = 1.0
        cols[list(tile.cols), k] = 1.0
    return rows, cols, rows.sum(axis=0) * cols.sum(axis=0)


def _tile_objective(rows, cols, sizes, a, b):
    """<a b|P|a b> from the per-tile factor sums a^T R, b^T C."""
    amps = (a @ rows) * (b @ cols)
    return float(np.sum(np.abs(amps) ** 2 / sizes) - abs(a.sum() * b.sum()) ** 2 / sizes.sum())


def _top_factor(ind, other_sums, other_total, sizes):
    """Top eigenpair of the full m x m gain
    ind diag(|other_sums|^2 / |t|) ind^T - |other_total|^2 / mn."""
    gain = (ind * (np.abs(other_sums) ** 2 / sizes)) @ ind.T
    vals, vecs = np.linalg.eigh(gain - abs(other_total) ** 2 / sizes.sum())
    return float(vals[-1]), vecs[:, -1]


def _seesaw_restart(rows, cols, sizes, a, b, max_iters, conv_tol, slack):
    """One alternating run in m- and n-space from the given start: final
    unit factors, recomputed objective, convergence, objective drops."""
    prev = _tile_objective(rows, cols, sizes, a, b)
    converged = False
    violations = 0
    for _ in range(max_iters):
        _, a = _top_factor(rows, b @ cols, b.sum(), sizes)
        obj, b = _top_factor(cols, a @ rows, a.sum(), sizes)
        violations += int(obj < prev - slack)
        if obj - prev < conv_tol:
            converged = True
            break
        prev = obj
    return a, b, _tile_objective(rows, cols, sizes, a, b), converged, violations


def sequential_seesaw(ts, restarts, seed):
    """The seesaw one restart at a time, with one m x m (or n x n) eigh
    per half-step: the same seeded starts, stopping rule and first-best
    ranking as ``seesaw_search``, as a SearchResult."""
    rows, cols, sizes = _oracle_incidence(ts)
    rng = np.random.default_rng(seed)
    best = (-1.0, None, None)
    converged_count = violations = 0
    for _ in range(restarts):
        a = rng.standard_normal(ts.m) + 1j * rng.standard_normal(ts.m)
        b = rng.standard_normal(ts.n) + 1j * rng.standard_normal(ts.n)
        a, b, overlap, converged, dropped = _seesaw_restart(
            rows, cols, sizes, a / np.linalg.norm(a), b / np.linalg.norm(b),
            DEFAULT_MAX_ITERS, DEFAULT_CONV_TOL, MONOTONE_SLACK,
        )
        converged_count += int(converged)
        violations += dropped
        if overlap > best[0]:
            best = (overlap, a, b)
    return SearchResult(best[0], (best[1], best[2]), restarts,
                        converged_count, violations)


def brute_composite_apply(op, party, amps):
    """Apply a one-party operator through the full Kronecker lift on the
    (A, a, B, b) joint vector."""
    m, n, da, db = amps.shape
    vec = amps.transpose(0, 2, 1, 3).reshape(-1)
    if party == "alice":
        lifted = np.kron(op, np.eye(n * db))
    else:
        lifted = np.kron(np.eye(m * da), op)
    out = lifted @ vec
    return out.reshape(m, da, n, db).transpose(0, 2, 1, 3)


def _dense_finish_leaf(node, alive, path, problems):
    """One-party-finish geometry from a full SVD of each dense cut matrix."""
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
                    f"{path}: states {si} and {sj} are not orthogonal "
                    "on the measuring party"
                )
            if idle < 1.0 - LEAF_TOL:
                problems.append(f"{path}: states {si} and {sj} differ on the idle party")


def dense_verify_protocol(protocol, lefts, rights):
    """verify_protocol on dense cut matrices: state i is its full
    (m*d_a) x (n*d_b) matrix M = lefts[i] rights[i]^T, Alice's outcome P
    maps M to P M, Bob's maps M to M P^T, each norm is a Frobenius norm,
    and every outcome is applied a second time for the conservation
    check.  Every outcome is entered, reached or not.  Tolerances,
    pruning, branch audit and violation messages are the library's."""
    if not len(lefts):
        raise ValueError("no states to discriminate")
    reg_dims = lefts.shape[1], rights.shape[1]
    mats = []
    for i, (left, right) in enumerate(zip(lefts, rights)):
        mat = left @ right.T
        norm = np.linalg.norm(mat)
        if norm == 0:
            raise ValueError(f"state {i} is zero")
        mats.append(mat / norm)

    def apply(op, mat, party):
        return op @ mat if party == ALICE else mat @ op.T

    success = np.zeros(len(mats))
    wrong = np.zeros(len(mats))
    branch_problems, leaf_problems = [], []

    def walk(node, alive, path):
        if isinstance(node, Branch):
            if not _check_branch(node, reg_dims, path, branch_problems):
                return
            for k, (proj, child) in enumerate(node.outcomes):
                nxt = []
                for state_index, mat in alive:
                    out = apply(proj.operator, mat, node.party)
                    if np.linalg.norm(out) ** 2 >= PRUNE_TOL:
                        nxt.append((state_index, out))
                walk(child, nxt, f"{path}.{k}")
            for state_index, mat in alive:
                total = sum(
                    np.linalg.norm(apply(proj.operator, mat, node.party)) ** 2
                    for proj, _ in node.outcomes
                )
                if abs(total - np.linalg.norm(mat) ** 2) > PROB_TOL:
                    branch_problems.append(
                        f"{path}: state {state_index} loses norm across outcomes"
                    )
            return
        named = {node.candidate} if isinstance(node, Identify) else set(node.candidates)
        survivors = []
        for state_index, mat in alive:
            p = np.linalg.norm(mat) ** 2
            if state_index in named:
                success[state_index] += p
                survivors.append((state_index, mat))
                continue
            wrong[state_index] += p
            if p > PROB_TOL:
                leaf_problems.append(
                    f"{path}: labeled {node.candidate} but state {state_index} "
                    f"arrives with probability {p:.3e}"
                    if isinstance(node, Identify)
                    else f"{path}: state {state_index} is not among the leaf candidates"
                )
        if not isinstance(node, Identify):
            _dense_finish_leaf(node, survivors, path, leaf_problems)

    walk(protocol, list(enumerate(mats)), "root")
    return DiscriminationReport(
        probabilities=tuple(float(p) for p in success),
        max_wrong_probability=float(np.max(wrong)),
        branch_violations=tuple(branch_problems),
        leaf_violations=tuple(leaf_problems),
    )


# ---------------------------------------------------------------------------
# Structure generators


def _free_rect(grid, rows, cols):
    return all(grid[r][c] == 0 for r in rows for c in cols)


def _paint(grid, rows, cols, tid):
    for r in rows:
        for c in cols:
            grid[r][c] = tid


def enumerate_all_structures(m, n, max_tiles):
    """Every partition of the grid into separated rectangles with at
    most max_tiles parts, each labeled once in discovery order.

    The tile covering the first free cell (row-major) is forced to have
    that cell as its minimum row and column, so each partition appears
    exactly once.
    """
    grid = [[0] * n for _ in range(m)]
    out = []

    def first_free():
        for r in range(m):
            for c in range(n):
                if grid[r][c] == 0:
                    return r, c
        return None

    def rec(next_id):
        pos = first_free()
        if pos is None:
            out.append(tuple(tuple(row) for row in grid))
            return
        if next_id > max_tiles:
            return
        r, c = pos
        later_rows = list(range(r + 1, m))
        later_cols = list(range(c + 1, n))
        for rmask in range(2 ** len(later_rows)):
            rows = [r] + [later_rows[i] for i in range(len(later_rows)) if rmask >> i & 1]
            for cmask in range(2 ** len(later_cols)):
                cols = [c] + [later_cols[i] for i in range(len(later_cols)) if cmask >> i & 1]
                if not _free_rect(grid, rows, cols):
                    continue
                _paint(grid, rows, cols, next_id)
                rec(next_id + 1)
                _paint(grid, rows, cols, 0)

    rec(1)
    return out


def random_structure(rng, m, n, grow=0.5):
    """One random partition into separated rectangles, grown greedily
    from each first free cell."""
    grid = [[0] * n for _ in range(m)]
    tid = 0
    while True:
        pos = next(((r, c) for r in range(m) for c in range(n) if grid[r][c] == 0), None)
        if pos is None:
            break
        tid += 1
        r, c = pos
        rows, cols = [r], [c]
        options = [("r", i) for i in range(r + 1, m)] + [("c", j) for j in range(c + 1, n)]
        order = rng.permutation(len(options))
        for k in order:
            kind, index = options[k]
            if rng.random() >= grow:
                continue
            trial_rows = rows + [index] if kind == "r" else rows
            trial_cols = cols + [index] if kind == "c" else cols
            if _free_rect(grid, trial_rows, trial_cols):
                rows, cols = trial_rows, trial_cols
        _paint(grid, rows, cols, tid)
    return tuple(tuple(row) for row in grid)


def tampered_upb(upb, states=None, origin=None):
    """A UPBSet stacking the given (a, b) product states (default: upb's
    own) under the given origin (default: upb's), for tests that hand the
    verifier a set build_upb would not make."""
    states = upb.states if states is None else tuple(states)
    origin = upb.origin if origin is None else origin
    return UPBSet(np.reshape([a for a, _ in states], (len(states), origin.m)),
                  np.reshape([b for _, b in states], (len(states), origin.n)), origin)


def foreign_origin_upb():
    """The states of five_tile(4, 4) under the origin of a row-reversed
    copy: still orthogonal, still mn - s + 1 of them, but the copy's tile
    indicators are not orthogonal to them."""
    upb = build_upb(five_tile(4, 4))
    return tampered_upb(upb, origin=structure_from_grid(upb.origin.cell_map[::-1]))


@pytest.fixture(scope="session")
def all_3x3_structures():
    return enumerate_all_structures(3, 3, max_tiles=6)


SMALL_GRID_STRIDE = 12


@pytest.fixture(scope="session")
def small_structures():
    """Every partition of 3x3 (up to 9 tiles), and every
    SMALL_GRID_STRIDE-th partition of 3x4 and of 4x3 in enumeration
    order."""
    grids = enumerate_all_structures(3, 3, max_tiles=9)
    for m, n in [(3, 4), (4, 3)]:
        grids += enumerate_all_structures(m, n, max_tiles=m * n)[::SMALL_GRID_STRIDE]
    return grids
