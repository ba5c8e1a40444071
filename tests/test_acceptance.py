"""Acceptance criteria.

Each test prints one live PASS/FAIL line (bypassing capture) and
enforces its own wall-clock budget, so a full run reads as a checklist.
"""

import json
import time

import numpy as np
import pytest

from tileupb import (
    attach_resource,
    build_theorem3_protocol,
    build_upb,
    certify_upb,
    check_orthogonal_set,
    example1,
    fig2,
    five_tile,
    is_u_tile,
    prop2,
    prop3,
    seesaw_search,
    validate,
    verify_protocol,
)
from tileupb.cli import main

from conftest import (
    closed_form_projector,
    enumerate_all_structures,
    lemma1_is_extendible,
    random_structure,
    structure_from_grid,
    svd_complement,
)


def _report(capsys, name, problems, t0, budget):
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < budget
    if elapsed >= budget:
        problems = list(problems) + [f"took {elapsed:.1f}s, budget {budget}s"]
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)", flush=True)
    assert not problems, problems


def test_criterion_1_reference_basis_resists_the_product_search(capsys):
    t0 = time.monotonic()
    problems = []
    upb = build_upb(example1())
    if len(upb.states) != 11:
        problems.append(f"expected 11 states, got {len(upb.states)}")
    comp = svd_complement(upb.states)
    if len(comp) != 5:
        problems.append(f"expected complement dimension 5, got {len(comp)}")
    res = seesaw_search(upb.origin, restarts=200, seed=0)
    if not res.best_overlap < 1 - 1e-3:
        problems.append(f"best overlap {res.best_overlap} reached the product regime")
    _report(capsys, "criterion 1: 4x4 six-tile basis is unextendible", problems, t0, 5.0)


def test_criterion_2_refuted_grid_is_extendible(capsys):
    t0 = time.monotonic()
    problems = []
    ts = fig2()
    verdict = is_u_tile(ts)
    wit = verdict.witness
    if verdict.is_u_tile:
        problems.append("structure was wrongly accepted as a U-tile")
    elif not (wit.tile_ids == (1, 2) and wit.axis == "column"):
        problems.append(f"unexpected witness {wit}")
    wa, wb = verdict.witness.state
    if not (np.allclose(wa, [1, 0, 0, 0]) and np.allclose(wb, [1, 1, -1, -1])):
        problems.append("witness state is not the top-row half-difference")
    upb = build_upb(ts)
    comp = svd_complement(upb.states)
    w = np.kron(wa, wb).astype(complex)
    w = w / np.linalg.norm(w)
    residual = np.linalg.norm(w - comp.T @ (comp.conj() @ w))
    if not residual < 1e-12:
        problems.append(f"witness state leaves the complement by {residual}")
    res = seesaw_search(ts, restarts=200, seed=0)
    if not res.best_overlap > 1 - 1e-9:
        problems.append(f"search missed the product state, best {res.best_overlap}")
    _report(capsys, "criterion 2: refuted 4x4 grid extends", problems, t0, 5.0)


def test_criterion_3_ring_family_table(capsys):
    t0 = time.monotonic()
    problems = []
    for m in range(3, 9):
        for n in range(m, 11):
            ts = prop2(m, n)
            upb = build_upb(ts)
            expected = m * n - 4 * ((m - 1) // 2)
            if not validate(ts).ok:
                problems.append(f"prop2({m},{n}) is invalid")
            if not is_u_tile(ts).is_u_tile:
                problems.append(f"prop2({m},{n}) is not a U-tile")
            if len(upb.states) != expected:
                problems.append(f"prop2({m},{n}) has {len(upb.states)} states, want {expected}")
            if check_orthogonal_set(upb.a, upb.b)[0]:
                problems.append(f"prop2({m},{n}) basis is not orthogonal")
    _report(capsys, "criterion 3: ring family sizes mn-4*floor((m-1)/2)", problems, t0, 30.0)


def test_criterion_4_tile_count_and_five_tile_families(capsys):
    t0 = time.monotonic()
    problems = []
    for m in range(4, 8):
        for t in range(5, 2 * m + 1):
            ts = prop3(m, t)
            upb = build_upb(ts)
            if ts.tile_count != t or len(upb.states) != m * m - t + 1:
                problems.append(f"prop3({m},{t}) size law broken")
            if not (validate(ts).ok and is_u_tile(ts).is_u_tile
                    and not check_orthogonal_set(upb.a, upb.b)[0]):
                problems.append(f"prop3({m},{t}) failed a structural check")
    for m in range(3, 9):
        for n in range(m, 9):
            ts = five_tile(m, n)
            upb = build_upb(ts)
            if len(upb.states) != m * n - 4:
                problems.append(f"five_tile({m},{n}) has {len(upb.states)} states")
            if not (validate(ts).ok and is_u_tile(ts).is_u_tile
                    and not check_orthogonal_set(upb.a, upb.b)[0]):
                problems.append(f"five_tile({m},{n}) failed a structural check")
    _report(capsys, "criterion 4: tile-count family m*m-t+1 and five-tile mn-4",
            problems, t0, 60.0)


def _sweep_structures():
    for grid in enumerate_all_structures(3, 3, max_tiles=6):
        yield grid, 32
    rng = np.random.default_rng(20240901)
    for _ in range(200):
        yield random_structure(rng, 4, 4), 48


def test_criterion_5_search_verdicts_match_the_combinatorial_decision(capsys):
    t0 = time.monotonic()
    problems = []
    checked = 0
    for grid, budget in _sweep_structures():
        ts = structure_from_grid(grid)
        combinatorial = is_u_tile(ts).is_u_tile
        upb = build_upb(ts)
        checked += 1
        if ts.tile_count == 1:
            if not combinatorial:
                problems.append(f"single tile not a U-tile: {grid}")
            continue
        # The search reads the tile structure; the complement it searches,
        # written in closed form, is checked against an SVD of the states,
        # which does not, and the certificate must accept it.
        ref = svd_complement(upb.states)
        if not np.allclose(closed_form_projector(ts), ref.T @ ref.conj(), rtol=0, atol=1e-10):
            problems.append(f"tile complement of {grid} is not the SVD complement")
        refusal = certify_upb(upb).refusal
        if refusal:
            problems.append(f"certificate refused {grid}: {refusal}")
        # Lemma 1 of DiVincenzo et al. decides extendibility exactly,
        # without the paper's theorem: no product state for a U-tile.
        if lemma1_is_extendible(upb.a, upb.b) == combinatorial:
            problems.append(f"Lemma 1 says {grid} is "
                            f"{'extendible' if combinatorial else 'unextendible'}")
        if combinatorial:
            res = seesaw_search(ts, restarts=budget, seed=0)
            if not res.best_overlap <= 1 - 1e-3:
                problems.append(f"U-tile {grid} reached overlap {res.best_overlap}")
        else:
            found = False
            for restarts, seed in ((12, 0), (64, 1), (512, 2)):
                res = seesaw_search(ts, restarts=restarts, seed=seed)
                if res.best_overlap > 1 - 1e-6:
                    found = True
                    break
            if not found:
                problems.append(f"non-U-tile {grid} hid its product state")
        if problems and len(problems) > 4:
            break
    if checked != 639 + 200:
        problems.append(f"swept {checked} structures, expected 839")
    _report(capsys, "criterion 5: unextendibility iff U-tile over 839 structures",
            problems, t0, 600.0)


def test_criterion_6_complement_states_are_ppt_entangled(capsys):
    """``tileupb ppt --json`` on every case reports trace 1, rank s - 1,
    no negative eigenvalue and ok."""
    t0 = time.monotonic()
    problems = []
    cases = [(("example1",), example1()), (("fig2",), fig2())]
    for m in range(3, 9):
        for n in range(m, 11):
            if m * n <= 49:
                cases.append((("prop2", "--m", str(m), "--n", str(n)), prop2(m, n)))
    for m in range(4, 8):
        for t in range(5, 2 * m + 1):
            cases.append((("prop3", "--m", str(m), "--tiles", str(t)), prop3(m, t)))
    for m in range(3, 9):
        for n in range(m, 9):
            if m * n <= 49:
                cases.append((("five-tile", "--m", str(m), "--n", str(n)), five_tile(m, n)))
    for family, ts in cases:
        name = " ".join(family)
        main(["ppt", "--family", *family, "--json"])
        report = json.loads(capsys.readouterr().out)
        if abs(report["trace"] - 1) > 1e-12:
            problems.append(f"{name}: trace {report['trace']}")
        if report["rank"] != ts.tile_count - 1:
            problems.append(f"{name}: rank {report['rank']}, want {ts.tile_count - 1}")
        if report["min_eigenvalue"] < -1e-10 or report["min_eigenvalue_pt"] < -1e-10:
            problems.append(f"{name}: negative eigenvalue")
        if not report["ok"]:
            problems.append(f"{name}: report not ok")
    _report(capsys, f"criterion 6: {len(cases)} complement states are PPT with rank s-1",
            problems, t0, 60.0)


def test_criterion_7_two_level_resource_protocols(capsys):
    t0 = time.monotonic()
    problems = []
    for n in (4, 5, 6):
        upb = build_upb(prop2(4, n))
        report = verify_protocol(build_theorem3_protocol(4, n), *attach_resource(upb.a, upb.b, 2))
        if abs(report.min_success_probability - 1) > 1e-9 or not report.ok:
            problems.append(
                f"n={n}: min success {report.min_success_probability}, "
                f"violations {report.branch_violations + report.leaf_violations}"
            )
    _report(capsys, "criterion 7: 4xN bases distinguished with a 2-level resource",
            problems, t0, 60.0)


def test_criterion_8_half_m_resource_protocols(capsys):
    t0 = time.monotonic()
    problems = []
    # (8, 8) and larger recurse through two or more levels of ring peeling.
    for m, n in ((4, 4), (4, 6), (6, 6), (6, 8), (8, 8), (10, 10), (12, 12)):
        upb = build_upb(prop2(m, n))
        lefts, rights = attach_resource(upb.a, upb.b, m // 2)
        if lefts.shape[2] != m // 2 or rights.shape[2] != m // 2:
            problems.append(f"({m},{n}): resource dimension is not m/2")
        report = verify_protocol(build_theorem3_protocol(m, n), lefts, rights)
        if abs(report.min_success_probability - 1) > 1e-9 or not report.ok:
            problems.append(
                f"({m},{n}): min success {report.min_success_probability}, "
                f"violations {report.branch_violations + report.leaf_violations}"
            )
    _report(capsys, "criterion 8: even-m bases distinguished with an (m/2)-level resource",
            problems, t0, 300.0)
