"""Output checks made apart from the program.

Every reference here is computed from the structure's grid with the
benchmark's own code: the product states come from their factor
vectors, orthogonality from the factor Gram ``(A* A^T) o (B* B^T)``, the
complement state from its closed form, and discrimination protocols are
re-simulated by a walker of their own.  None of it compares with a
stored copy of an earlier output.

``check`` returns ``(failed, problems)``.  Any problem means the output
is wrong.  ``failed`` is true only for an operation marked as the known
fault whose output is right in every value checked here but whose
verdict flag is false: the signature of the program's absolute
tolerances misfiring on a correct result.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from workloads import SEESAW_RESTARTS, Op

REL_TOL = 1e-9      # relative overlap that counts as orthogonal
PROB_TOL = 1e-9     # success probabilities must be this close to 1
LEAK_TOL = 1e-5     # squared weight of a found product state outside the complement
WALK_MAX_M = 6      # re-simulate protocols up to this many rows


def tile_sets(grid) -> list[tuple[list[int], list[int]]]:
    """(rows, cols) of tiles 1..s, each sorted."""
    s = max(max(row) for row in grid)
    rows: list[set[int]] = [set() for _ in range(s)]
    cols: list[set[int]] = [set() for _ in range(s)]
    for r, line in enumerate(grid):
        for c, tid in enumerate(line):
            rows[tid - 1].add(r)
            cols[tid - 1].add(c)
    return [(sorted(rs), sorted(cs)) for rs, cs in zip(rows, cols)]


def kept_factors(grid) -> tuple[np.ndarray, np.ndarray]:
    """Factor matrices A (N x m) and B (N x n) of the kept states.

    Tile by tile in id order, every Fourier state (k, l) of the tile but
    (0, 0), in row-major (k, l) order, then the all-ones stopper.
    """
    m, n = len(grid), len(grid[0])
    a_rows, b_rows = [], []
    for rows, cols in tile_sets(grid):
        p, q = len(rows), len(cols)
        for k, l in product(range(p), range(q)):
            if (k, l) == (0, 0):
                continue
            a = np.zeros(m, dtype=complex)
            b = np.zeros(n, dtype=complex)
            a[rows] = np.exp(2j * np.pi * k * np.arange(p) / p)
            b[cols] = np.exp(2j * np.pi * l * np.arange(q) / q)
            a_rows.append(a)
            b_rows.append(b)
    a_rows.append(np.ones(m, dtype=complex))
    b_rows.append(np.ones(n, dtype=complex))
    return np.array(a_rows), np.array(b_rows)


def overlaps(factors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<psi_i|a b>| / (|psi_i| |a b|) for every kept state psi_i."""
    fa, fb = factors
    amp = np.abs((fa.conj() @ a) * (fb.conj() @ b))
    norms = np.linalg.norm(fa, axis=1) * np.linalg.norm(fb, axis=1)
    return amp / (norms * np.linalg.norm(a) * np.linalg.norm(b))


def max_relative_offdiagonal(factors) -> float:
    """Largest |<psi_i|psi_j>| / (|psi_i| |psi_j|), i != j, from the factor Gram."""
    fa, fb = factors
    gram = (fa.conj() @ fa.T) * (fb.conj() @ fb.T)
    norms = np.sqrt(np.abs(np.diag(gram)))
    rel = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(rel, 0.0)
    return float(rel.max())


def complement_state(grid) -> np.ndarray:
    """Closed-form rho: the normalized projector onto span{tile
    indicators} minus the stopper direction, (sum_t 1_t 1_t^T / |t| -
    J / mn) / (s - 1), indexed r * n + c."""
    m, n = len(grid), len(grid[0])
    tiles = tile_sets(grid)
    rho = np.full((m * n, m * n), -1.0 / (m * n))
    for rows, cols in tiles:
        cells = [r * n + c for r in rows for c in cols]
        rho[np.ix_(cells, cells)] += 1.0 / len(cells)
    return rho / (len(tiles) - 1)


def min_pt_eigenvalue(grid) -> float:
    m, n = len(grid), len(grid[0])
    rho = complement_state(grid)
    pt = rho.reshape(m, n, m, n).swapaxes(1, 3).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh(pt)[0])


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


# ---------------------------------------------------------------------------
# Protocol walker


def walk_protocol(tree, grid, resource_dim: int) -> tuple[np.ndarray, list[str]]:
    """Re-simulate a discrimination tree on the kept states.

    Each state a (x) b with the resource sum_j |jj> is its matrix across
    the Alice/Bob cut, kron(a b^T, I_d), normalized.  Alice's outcome P
    maps M to P M, Bob's maps M to M P^T.  Every branch must be complete;
    a one-party leaf must hold product survivors that are pairwise
    orthogonal on the measuring party.  Returns each state's probability
    of being named correctly, and the problems found.
    """
    from tileupb.locc import ALICE, Branch, Identify

    fa, fb = kept_factors(grid)
    eye = np.eye(resource_dim)
    states = []
    for a, b in zip(fa, fb):
        mat = np.kron(np.outer(a, b), eye)
        states.append(mat / np.linalg.norm(mat))
    success = np.zeros(len(states))
    problems: list[str] = []

    def visit(node, alive, path):
        if isinstance(node, Branch):
            ops = [proj.operator for proj, _ in node.outcomes]
            if np.abs(sum(ops) - np.eye(ops[0].shape[0])).max() > REL_TOL:
                problems.append(f"{path}: outcomes are not complete")
            for k, (op, (_, child)) in enumerate(zip(ops, node.outcomes)):
                nxt = []
                for i, mat in alive:
                    out = op @ mat if node.party == ALICE else mat @ op.T
                    if np.linalg.norm(out) ** 2 > 1e-12:
                        nxt.append((i, out))
                if nxt:
                    visit(child, nxt, f"{path}.{k}")
            return
        named = {node.candidate} if isinstance(node, Identify) else set(node.candidates)
        factors = []
        for i, mat in alive:
            if i not in named:
                problems.append(f"{path}: state {i} reaches a leaf that does not name it")
                continue
            success[i] += np.linalg.norm(mat) ** 2
            if isinstance(node, Identify):
                continue
            u, sv, vh = np.linalg.svd(mat)
            if sv[1] > 1e-8 * sv[0]:
                problems.append(f"{path}: state {i} is not product at a one-party leaf")
            factors.append(u[:, 0] if node.party == ALICE else vh[0])
        for x in range(len(factors)):
            for y in range(x + 1, len(factors)):
                if abs(np.vdot(factors[x], factors[y])) > 1e-8:
                    problems.append(f"{path}: survivors overlap on the measuring party")

    visit(tree, list(enumerate(states)), "root")
    return success, problems


# ---------------------------------------------------------------------------
# Per-command checks


class References:
    """Reference computations, made once per operation and kept."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def get(self, key: tuple, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def factors(self, grid):
        return self.get(("factors", grid), lambda: kept_factors(grid))


def _check_utile(op: Op, rc: int, out: dict, refs: References) -> list[str]:
    problems = []
    if out.get("is_u_tile") is not op.u_tile:
        problems.append(f"verdict is_u_tile={out.get('is_u_tile')}, built as {op.u_tile}")
        return problems
    if rc != (0 if op.u_tile else 1):
        problems.append(f"exit code {rc}")
    wit = out.get("witness")
    if op.u_tile:
        if wit is not None:
            problems.append("U-tile verdict carries a witness")
        return problems
    if wit is None:
        return problems + ["no witness for a structure that is not U-tile"]
    sets = tile_sets(op.grid)
    tiles, part1, part2 = wit["tiles"], wit["part1"], wit["part2"]
    cells = {(r, c) for t in tiles for r in sets[t - 1][0] for c in sets[t - 1][1]}
    if cells != set(product(wit["rows"], wit["cols"])):
        problems.append("witness tiles do not make up rows x cols")
    if not part1 or not part2 or sorted(part1 + part2) != sorted(tiles) or len(set(tiles)) != len(tiles):
        problems.append("witness parts do not partition its tiles")
    side = 0 if wit["axis"] == "row" else 1
    if wit["axis"] not in ("row", "column"):
        problems.append(f"unknown witness axis {wit['axis']!r}")
    else:
        one = {x for t in part1 for x in sets[t - 1][side]}
        two = {x for t in part2 for x in sets[t - 1][side]}
        if one & two:
            problems.append(f"witness parts share {wit['axis']}s")
    a, b = _vector(wit["state"]["a"]), _vector(wit["state"]["b"])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        problems.append("witness state is zero")
    elif overlaps(refs.factors(op.grid), a, b).max() > REL_TOL:
        problems.append("witness state is not orthogonal to every kept state")
    return problems


def _check_verify(op: Op, rc: int, out: dict, refs: References) -> tuple[bool, list[str]]:
    problems = []
    m, n, s = op.m, op.n, op.tiles
    if (out["size"], out["expected_size"]) != (m * n - s + 1,) * 2 or not out["size_ok"]:
        problems.append(f"size {out['size']}, expected {m * n - s + 1}")
    if (out["complement_dim"], out["expected_complement_dim"]) != (s - 1,) * 2:
        problems.append(f"complement dimension {out['complement_dim']}, expected {s - 1}")
    if not out["stopper_law_ok"]:
        problems.append("stopper law reported broken")
    factors = refs.factors(op.grid)
    truth = refs.get(("gram", op.grid), lambda: max_relative_offdiagonal(factors))
    if truth > REL_TOL:
        problems.append(f"the basis itself is not orthogonal: {truth:.2e}")
    scale = float(np.max(np.linalg.norm(factors[0], axis=1) * np.linalg.norm(factors[1], axis=1))) ** 2
    if out["max_offdiagonal"] > REL_TOL * scale:
        problems.append(f"max off-diagonal {out['max_offdiagonal']:.2e} is not small")
    search = out["search"]
    if search is None or search["restarts_run"] != SEESAW_RESTARTS:
        problems.append("seesaw did not run the requested restarts")
        return False, problems
    if op.u_tile:
        if out["product_found"]:
            problems.append("product state reported in the complement of a UPB")
    else:
        if not out["product_found"]:
            problems.append("no product state found in the complement of an extendible set")
        a = _vector(search["best_product"]["a"])
        b = _vector(search["best_product"]["b"])
        leak = float(np.sum(overlaps(factors, a, b) ** 2))
        if leak > LEAK_TOL:
            problems.append(f"best product has weight {leak:.2e} on the kept states")
    expect_pass = op.u_tile
    verdict_right = out["passed"] is expect_pass and out["orthogonal"] and rc == (0 if expect_pass else 1)
    if problems or verdict_right:
        return False, problems
    if op.known_fault and not out["orthogonal"] and not out["passed"]:
        return True, []
    return False, [f"verdict passed={out['passed']} orthogonal={out['orthogonal']} exit {rc}"]


def _check_ppt(op: Op, rc: int, out: dict, refs: References) -> tuple[bool, list[str]]:
    problems = []
    s = op.tiles
    if (out["rank"], out["expected_rank"]) != (s - 1, s - 1):
        problems.append(f"rank {out['rank']}, expected {s - 1}")
    if abs(out["trace"] - 1.0) > REL_TOL:
        problems.append(f"trace {out['trace']!r}")
    if out["min_eigenvalue"] < -1e-10 or not out["ppt"]:
        problems.append("state reported not PSD or not PPT")
    expected = refs.get(("pt", op.grid), lambda: min_pt_eigenvalue(op.grid))
    if abs(out["min_eigenvalue_pt"] - expected) > PROB_TOL:
        problems.append(f"min eigenvalue after partial transpose {out['min_eigenvalue_pt']:.3e}, "
                        f"closed form gives {expected:.3e}")
    if problems or (out["ok"] and rc == 0):
        return False, problems
    if op.known_fault and not out["ok"]:
        return True, []
    return False, [f"verdict ok={out['ok']} exit {rc}"]


def _check_distinguish(op: Op, rc: int, out: dict, refs: References) -> list[str]:
    problems = []
    m, n = op.m, op.n
    report = out["report"]
    probs = np.array(report["probabilities"])
    if (out["m"], out["n"], out["resource_dim"]) != (m, n, m // 2):
        problems.append(f"settings {out['m']}, {out['n']}, resource {out['resource_dim']}")
    if len(probs) != m * n - 4 * ((m - 1) // 2):
        problems.append(f"{len(probs)} probabilities, expected {m * n - 4 * ((m - 1) // 2)}")
    elif np.abs(probs - 1.0).max() > PROB_TOL:
        problems.append(f"success probability {probs.min():.12f}")
    if report["branch_violations"] or report["leaf_violations"] or not report["ok"] or rc != 0:
        problems.append("protocol reported violations")
    if report["max_wrong_probability"] > PROB_TOL:
        problems.append("a state is misidentified")
    if m <= WALK_MAX_M and not problems:
        def walk():
            from tileupb import build_theorem3_protocol

            return walk_protocol(build_theorem3_protocol(m, n), op.grid, m // 2)

        success, walk_problems = refs.get(("walk", m, n), walk)
        problems += walk_problems
        if np.abs(success - 1.0).max() > PROB_TOL or np.abs(success - probs).max() > PROB_TOL:
            problems.append("re-simulated success probabilities differ from 1 or from the report")
    return problems


def check(op: Op, rc: int, out: dict | None, refs: References) -> tuple[bool, list[str]]:
    """Judge one CLI output against references made apart from the program."""
    if out is None:
        return False, [f"no JSON output (exit {rc})"]
    try:
        if op.command == "check-utile":
            return False, _check_utile(op, rc, out, refs)
        if op.command == "verify-upb":
            return _check_verify(op, rc, out, refs)
        if op.command == "ppt":
            return _check_ppt(op, rc, out, refs)
        if op.command == "distinguish":
            return False, _check_distinguish(op, rc, out, refs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, [f"malformed output: {exc!r}"]
    raise ValueError(f"no check for command {op.command!r}")
