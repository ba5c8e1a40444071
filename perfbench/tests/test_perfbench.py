"""Tests of the benchmark itself: the instance generator, the output
checks and the tracer.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402
from tileupb import TileStructure, cli, five_tile, prop2, validate  # noqa: E402
from workloads import Op  # noqa: E402

RESTARTS = ("--restarts", str(workloads.SEESAW_RESTARTS), "--seed", "3")


def _grid(ts):
    return tuple(tuple(row) for row in ts.cell_map)


def _call(op: Op, tmp_path: Path) -> tuple[int, dict]:
    if op.file:
        (tmp_path / op.file).write_text(workloads.tile_text(op.grid, op.label))
    out = tmp_path / "out.json"
    rc = cli.main(op.argv(str(tmp_path), str(out)))
    return rc, json.loads(out.read_text())


def _judge(op, rc, out):
    return checks.check(op, rc, out, checks.References())


# ---------------------------------------------------------------------------
# Instance generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.build_ops(workload, 11) == workloads.build_ops(workload, 11)


def test_seed_changes_inputs_but_not_their_make_up():
    one, two = (workloads.build_ops("utile-sweep", s) for s in (1, 2))
    assert [op.grid for op in one] != [op.grid for op in two]
    make_up = [sorted((op.label, op.m, op.n, op.tiles, op.u_tile) for op in ops) for ops in (one, two)]
    assert make_up[0] == make_up[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 5])
def test_generator_emits_only_valid_structures(workload, seed):
    for op in workloads.build_ops(workload, seed):
        assert validate(TileStructure.from_grid(op.grid)).ok, op.label


def test_split_is_never_u_tile_and_keeps_validity():
    from tileupb import is_u_tile

    grid = workloads.split(_grid(prop2(6, 8)), 1, "column", 3)
    ts = TileStructure.from_grid(grid)
    assert validate(ts).ok and ts.tile_count == 10
    assert not is_u_tile(ts).is_u_tile


def test_only_the_five_tile_24_instance_is_a_known_fault():
    faults = {op.label for op in workloads.build_ops("upb-verify", 0) if op.known_fault}
    assert faults == {"five-tile 24x24"}


def test_run_lists_the_same_workloads():
    assert run.WORKLOADS == workloads.WORKLOADS


# ---------------------------------------------------------------------------
# check-utile


def _split_op():
    grid = workloads.split(_grid(five_tile(6, 9)), 5, "column", 3)
    return Op("split", "check-utile", grid, False, file="split.tile")


def test_utile_outputs_pass_and_a_flipped_verdict_is_rejected(tmp_path):
    op = Op("five", "check-utile", _grid(five_tile(5, 7)), True, file="five.tile")
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    out["is_u_tile"] = False
    assert _judge(op, rc, out)[1]

    op = _split_op()
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    out["is_u_tile"] = True
    assert _judge(op, rc, out)[1]


def test_a_witness_state_that_is_not_orthogonal_is_rejected(tmp_path):
    op = _split_op()
    rc, out = _call(op, tmp_path)
    out["witness"]["state"]["b"] = [[1.0, 0.0]] * op.n
    failed, problems = _judge(op, rc, out)
    assert any("orthogonal" in p for p in problems)


def test_a_witness_whose_parts_share_columns_is_rejected(tmp_path):
    op = _split_op()
    rc, out = _call(op, tmp_path)
    wit = out["witness"]
    wit["axis"] = "row" if wit["axis"] == "column" else "column"
    assert _judge(op, rc, out)[1]


# ---------------------------------------------------------------------------
# verify-upb and ppt


def _upb_op(command, known_fault=False):
    args = ("--family", "five-tile", "--m", "6", "--n", "7")
    extra = RESTARTS if command == "verify-upb" else ()
    return Op("five", command, _grid(five_tile(6, 7)), True, args + extra, known_fault=known_fault)


def test_verify_outputs_pass_and_wrong_values_are_rejected(tmp_path):
    op = _upb_op("verify-upb")
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    for key, value in (("size", out["size"] - 1), ("complement_dim", 3), ("product_found", True)):
        assert _judge(op, rc, {**out, key: value})[1], key


def test_an_extendible_set_must_yield_an_orthogonal_product(tmp_path):
    grid = workloads.split(_grid(five_tile(8, 10)), 5, "column", 4)
    op = Op("split", "verify-upb", grid, False, RESTARTS, file="split.tile")
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    best = out["search"]["best_product"]
    best["a"] = [[1.0, 0.0]] * op.m
    assert any("weight" in p for p in _judge(op, rc, out)[1])


def test_an_orthogonality_false_alarm_is_a_failure_only_where_known(tmp_path):
    op = _upb_op("verify-upb")
    rc, out = _call(op, tmp_path)
    alarm = {**out, "orthogonal": False, "passed": False}
    assert _judge(op, 1, alarm)[1]
    known = _upb_op("verify-upb", known_fault=True)
    assert _judge(known, 1, alarm) == (True, [])


def test_ppt_outputs_pass_and_a_wrong_rank_is_rejected(tmp_path):
    op = _upb_op("ppt")
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    assert _judge(op, rc, {**out, "rank": out["rank"] + 1})[1]
    assert _judge(op, rc, {**out, "trace": 1.0 + 1e-6})[1]
    assert _judge(op, rc, {**out, "min_eigenvalue_pt": out["min_eigenvalue_pt"] - 1e-3})[1]


def test_a_trace_false_alarm_is_a_failure_only_where_known(tmp_path):
    op = _upb_op("ppt")
    rc, out = _call(op, tmp_path)
    alarm = {**out, "trace": 1.0 + 2e-12, "ok": False}
    assert _judge(op, 1, alarm)[1]
    assert _judge(_upb_op("ppt", known_fault=True), 1, alarm) == (True, [])


def test_the_closed_form_state_has_unit_trace_and_rank_s_minus_1():
    import numpy as np

    grid = _grid(five_tile(5, 6))
    rho = checks.complement_state(grid)
    eigs = np.linalg.eigvalsh(rho)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert int(np.sum(eigs > 1e-9)) == 4
    assert checks.max_relative_offdiagonal(checks.kept_factors(grid)) < 1e-12


# ---------------------------------------------------------------------------
# distinguish


def _locc_op(m, n):
    return Op(f"prop2 {m}x{n}", "distinguish", _grid(prop2(m, n)), True, ("--m", str(m), "--n", str(n)))


def test_distinguish_outputs_pass_and_a_probability_of_099_is_rejected(tmp_path):
    op = _locc_op(4, 5)
    rc, out = _call(op, tmp_path)
    assert _judge(op, rc, out) == (False, [])
    out["report"]["probabilities"][3] = 0.99
    assert _judge(op, rc, out)[1]


def test_the_walker_catches_a_mislabelled_leaf():
    import dataclasses

    from tileupb import Identify, build_theorem3_protocol

    tree = build_theorem3_protocol(4, 5)
    grid = _grid(prop2(4, 5))
    success, problems = checks.walk_protocol(tree, grid, 2)
    assert not problems and abs(success - 1).max() < 1e-9

    def relabel(node):
        if isinstance(node, Identify):
            return Identify(node.candidate + 1)
        if hasattr(node, "outcomes"):
            return dataclasses.replace(
                node, outcomes=tuple((p, relabel(c)) for p, c in node.outcomes))
        return node

    success, problems = checks.walk_protocol(relabel(tree), grid, 2)
    assert problems


# ---------------------------------------------------------------------------
# Tracer


def test_tracer_counts_and_restores_bindings(tmp_path):
    import tileupb.rectangles as rect

    original = rect.enumerate_special_rectangles
    tracer = Tracer(alloc=False)
    tracer.install()
    try:
        tracer.pass_no = 0
        op = Op("fig2", "check-utile", _grid(five_tile(4, 5)), True, file="f.tile")
        (tmp_path / op.file).write_text(workloads.tile_text(op.grid, op.label))
        rc = tracer.entry("cli.main")(op.argv(str(tmp_path), str(tmp_path / "o.json")))
    finally:
        tracer.uninstall()
    assert rc == 0 and rect.enumerate_special_rectangles is original
    layers = tracer.layer_metrics({0: 1}, alloc_passes=set())
    assert set(layers) == set(METRICS)
    assert layers["rectangles.subsets_examined"] == 2**5 - 1
    assert layers["grid.calls"] == 2
    main = [s for s in tracer.spans if s.name == "cli.main"][0]
    total_self = sum(layers[f"{layer}.self_s"] for layer in ("cli", "grid", "rectangles"))
    assert total_self == pytest.approx(main.net, rel=1e-9)
    assert min(s.self_time for s in tracer.spans) >= 0


# ---------------------------------------------------------------------------
# Command


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "utile-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
