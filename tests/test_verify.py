"""Orthogonality checks, the complement certificate, the product search,
and how ``verify-upb`` composes the certificate with the search."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tileupb.cli
import tileupb.verify
from tileupb import (
    ProductState,
    SearchResult,
    UPBSet,
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
    serialize,
)
from tileupb.cli import main
from tileupb.verify import DEFAULT_ORTH_TOL, GRAM_BLOCK, PRODUCT_THRESHOLD, SEESAW_BLOCK

from conftest import (
    assert_witness_split,
    brute_orthogonality,
    brute_seesaw_objective,
    closed_form_projector,
    foreign_origin_upb,
    kron_vector,
    random_structure,
    sequential_seesaw,
    structure_from_grid,
    svd_complement,
    tampered_upb,
)

# five_tile(4, 5) with the first column of its interior tile split off:
# the split pair forms a special rectangle, so the basis is extendible.
SPLIT_FIVE_TILE = [
    [1, 1, 1, 1, 2],
    [4, 6, 5, 5, 2],
    [4, 6, 5, 5, 2],
    [4, 3, 3, 3, 3],
]


def _random_states(count, seed, m=3, n=4):
    """Random unnormalized product states on sparse supports, so that
    some pairs are exactly orthogonal, with norms spread over six
    decades."""
    rng = np.random.default_rng(seed)

    def sparse(size):
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        return vec * (rng.random(size) < 0.6) * 10.0 ** rng.uniform(-3, 3)

    return [ProductState(sparse(m), sparse(n)) for _ in range(count)]


class TestOrthogonalityCheck:
    def test_clean_family_passes(self):
        upb = build_upb(example1())
        report = check_orthogonal_set(upb.a, upb.b)
        assert report.ok
        assert report.max_offdiagonal < 1e-12
        assert report.violating_pairs == 0

    def test_reports_the_offending_pair(self):
        report = check_orthogonal_set(np.array([[1, 0], [1, 1]]), np.array([[1, 0], [1, 0]]))
        assert not report.ok
        assert report.violating_pairs == 1
        assert report.max_offdiagonal == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("kind", ["product", "real-a"])
    @pytest.mark.parametrize("count", [1, 2, GRAM_BLOCK, GRAM_BLOCK + 1, 2 * GRAM_BLOCK + 1])
    def test_matches_the_pairwise_oracle(self, kind, count):
        """The blocked factor Gram matches the pairwise Kronecker oracle,
        also when the A stack is a real float array and B is complex."""
        states = _random_states(count, seed=count)
        if kind == "real-a":
            states = [ProductState(s.a_vec.real, s.b_vec) for s in states]
        a = np.array([s.a_vec for s in states])
        b = np.array([s.b_vec for s in states])
        if kind == "real-a":
            a = a.real
        report = check_orthogonal_set(a, b)
        want, worst = brute_orthogonality(states, DEFAULT_ORTH_TOL)
        assert report.violating_pairs == len(want)
        assert report.max_offdiagonal == pytest.approx(worst, abs=1e-12)
        if count > 2:  # both verdicts occur
            assert 0 < len(want) < count * (count - 1) // 2

    def test_a_nan_overlap_counts_as_violating(self):
        """One NaN entry makes every overlap of its state NaN, and each
        such pair violates."""
        upb = build_upb(example1())
        a = upb.a.copy()
        a[0, 0] = np.nan
        report = check_orthogonal_set(a, upb.b)
        assert not report.ok
        assert report.violating_pairs == len(a) - 1
        assert np.isnan(report.max_offdiagonal)

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_a_repeated_state_is_caught_at_any_scale(self, scale):
        """State 0 copied into row 1 overlaps it fully however state 0 is
        scaled; a norm that overflows or underflows must not hide it."""
        upb = build_upb(prop2(4, 4))
        a, b = upb.a.copy(), upb.b.copy()
        a[1], b[1] = a[0], b[0]
        a[0] *= scale
        report = check_orthogonal_set(a, b)
        assert report.violating_pairs == 1
        assert report.max_offdiagonal == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["one-a-row", "one-b-row", "vectors"])
    def test_refuses_stacks_of_unequal_state_counts(self, case):
        """A 1-row A against 12 B rows is no silent pass, and one B row is
        not broadcast over every state."""
        upb = build_upb(prop2(4, 4))
        a, b, shapes = {"one-a-row": (upb.a[:1], upb.b, r"\(1, 4\) and \(12, 4\)"),
                        "one-b-row": (upb.a, upb.b[:1], r"\(12, 4\) and \(1, 4\)"),
                        "vectors": (upb.a[0], upb.b[0], r"\(4,\) and \(4,\)")}[case]
        with pytest.raises(ValueError, match=f"factor stacks of shapes {shapes}"):
            check_orthogonal_set(a, b)

    def test_large_tiles_pass_under_the_relative_rule(self):
        upb = build_upb(five_tile(32, 32))
        assert check_orthogonal_set(upb.a, upb.b).ok

    def test_many_violations_are_counted_in_bounded_memory(self):
        """1,000 equal states violate every one of their 499,500 pairs;
        the report counts them, so the traced peak stays at the size of
        a Gram block rather than growing with the pairs."""
        tracemalloc.start()
        try:
            report = check_orthogonal_set(np.ones((1000, 3)), np.ones((1000, 4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.violating_pairs == 1000 * 999 // 2
        assert report.max_offdiagonal == pytest.approx(1.0, abs=1e-12)
        assert peak < 20e6


class TestComplementBasis:
    """The SVD oracle the closed-form complement is checked against."""

    def test_dimension_and_double_orthogonality(self):
        upb = build_upb(example1())
        comp = svd_complement(upb.states)
        assert len(comp) == 5
        for v in comp:
            for kept in upb.states:
                assert abs(np.vdot(kron_vector(kept), v)) < 1e-12
        assert np.allclose(comp.conj() @ comp.T, np.eye(5), atol=1e-12)

    def test_empty_input_with_dims_gives_the_standard_basis(self):
        comp = svd_complement([], m=2, n=2)
        assert len(comp) == 4
        total = sum(np.abs(v.reshape(2, 2)) ** 2 for v in comp)
        assert np.allclose(total, np.ones((2, 2)))

    def test_empty_input_without_dims_raises(self):
        with pytest.raises(ValueError):
            svd_complement([])

    def test_dependent_input_raises(self):
        s = ProductState([1, 0], [1, 0])
        with pytest.raises(ValueError):
            svd_complement([s, s])


class TestCertifyUpb:
    @pytest.mark.parametrize(
        "ts",
        [example1(), five_tile(3, 5), prop2(5, 6), prop3(5, 9), fig2(),
         structure_from_grid(SPLIT_FIVE_TILE)],
        ids=["example1", "five35", "ring56", "counted59", "fig2", "split45"],
    )
    def test_projector_matches_the_svd_complement(self, ts):
        """The certificate accepts, and the space it certifies, written in
        closed form by the oracle, is the complement an SVD of the states
        finds; the verdict on it is the U-tile decision."""
        upb = build_upb(ts)
        cert = certify_upb(upb)
        assert cert.refusal is None
        assert cert.complement_dim == ts.tile_count - 1
        assert cert.u_tile == cert.ok == is_u_tile(ts).is_u_tile
        ref = svd_complement(upb.states)
        assert len(ref) == ts.tile_count - 1
        assert np.allclose(closed_form_projector(ts), ref.T @ ref.conj(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shift", [1e-11, 1e-15], ids=["beyond", "within"])
    def test_a_nudged_factor_is_refused_beyond_rounding(self, shift):
        """A nudge of 1e-11 is refused and one of 1e-15 accepted."""
        upb = build_upb(example1())
        rng = np.random.default_rng(3)
        first = upb.states[0]
        nudged = ProductState(first.a_vec + shift * rng.normal(size=4), first.b_vec)
        cert = certify_upb(tampered_upb(upb, (nudged,) + upb.states[1:]))
        assert (cert.refusal is None) == cert.ok == (shift < 1e-12)

    @pytest.mark.parametrize("shift", [1e-11, 1e-15], ids=["beyond", "within"])
    def test_the_complement_component_is_a_relative_norm(self, shift):
        """fig2's first state e_0 (x) (1, -1, 0, 0) tilted along its
        extension state e_0 (x) (1, 1, -1, -1) stays a product orthogonal
        to every other state, with a complement component of relative
        size sqrt(2) * shift: the certificate refuses it beyond rounding,
        on that component and not on orthogonality."""
        upb = build_upb(fig2())
        witness = is_u_tile(upb.origin).witness.state
        first = upb.states[0]
        assert np.array_equal(first.a_vec, witness.a_vec)
        tilted = ProductState(first.a_vec, first.b_vec + shift * witness.b_vec)
        cert = certify_upb(tampered_upb(upb, (tilted,) + upb.states[1:]))
        assert cert.orthogonality.ok
        if shift > 1e-12:
            assert "overlap" in cert.refusal and f"{np.sqrt(2) * shift:.3e}" in cert.refusal
            assert cert.verdict is None
        else:
            assert cert.refusal is None and not cert.u_tile

    def test_refuses_a_foreign_origin(self):
        cert = certify_upb(foreign_origin_upb())
        assert "overlap" in cert.refusal
        assert cert.complement_dim == 0 and cert.verdict is None

    def test_refuses_a_broken_size_law(self):
        upb = build_upb(example1())
        assert "size law" in certify_upb(tampered_upb(upb, upb.states[1:])).refusal

    def test_refuses_a_zero_state(self):
        upb = build_upb(example1())
        zeroed = upb.states[:-1] + (ProductState(np.zeros(upb.m), np.ones(upb.n)),)
        cert = certify_upb(tampered_upb(upb, zeroed))
        assert "zero" in cert.refusal
        assert not cert.stopper_law_ok

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_a_rescaled_state_is_certified_at_any_scale(self, scale):
        """States are unnormalized: a huge or tiny but nonzero state 0
        leaves the prop2 4 x 4 basis a certified UPB."""
        upb = build_upb(prop2(4, 4))
        a = upb.a.copy()
        a[0] *= scale
        cert = certify_upb(UPBSet(a, upb.b, upb.origin))
        assert cert.refusal is None and cert.orthogonality.ok
        assert cert.ok and cert.u_tile

    def test_a_nan_written_into_the_stack_is_refused_as_not_orthogonal(self):
        """UPBSet refuses a NaN on construction; one written into its
        stack afterwards is refused for orthogonality, not as a zero."""
        upb = build_upb(example1())
        upb.a[0, 0] = np.nan
        cert = certify_upb(upb)
        assert cert.refusal.startswith("the states are not pairwise orthogonal")
        assert not cert.ok

    def test_a_rescaled_stopper_keeps_the_stopper_law(self):
        upb = build_upb(example1())
        last = upb.states[-1]
        cert = certify_upb(tampered_upb(upb, upb.states[:-1] + (ProductState(2 * last.a_vec, last.b_vec),)))
        assert cert.stopper_law_ok and cert.ok

    def test_the_stopper_law_reads_the_last_state(self):
        """The same set with the stopper moved to the front is still
        orthogonal and certified, but breaks the stopper law."""
        upb = build_upb(example1())
        cert = certify_upb(tampered_upb(upb, upb.states[-1:] + upb.states[:-1]))
        assert cert.orthogonality.ok and cert.refusal is None and cert.u_tile
        assert not cert.stopper_law_ok and not cert.ok

    @pytest.mark.parametrize("shift", [1e-11, 1e-15], ids=["beyond", "within"])
    def test_the_stopper_law_is_relative(self, shift):
        """A last factor nudged off all-ones on one entry has a relative
        component sqrt(3)/4 * shift off it: refused beyond rounding."""
        upb = build_upb(example1())
        last = upb.states[-1]
        nudged = ProductState(last.a_vec + shift * np.eye(upb.m)[0], last.b_vec)
        cert = certify_upb(tampered_upb(upb, upb.states[:-1] + (nudged,)))
        assert cert.stopper_law_ok == (shift < 1e-12)

    def test_single_cell_grid_at_the_format_limit_needs_no_basis(self):
        """The 64 x 64 grid of single-cell tiles has a 4,095-dimensional
        complement; certifying it keeps the traced peak under 64 MB."""
        ts = structure_from_grid([[64 * r + c + 1 for c in range(64)] for r in range(64)])
        upb = build_upb(ts)
        tracemalloc.start()
        try:
            cert = certify_upb(upb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.refusal is None and cert.complement_dim == 4095
        assert peak < 64e6


class TestSeesawSearch:
    def test_objective_agrees_with_kron_oracle(self):
        upb = build_upb(example1())
        res = seesaw_search(upb.origin, restarts=20, seed=3)
        a, b = res.best_product.a_vec, res.best_product.b_vec
        assert res.best_overlap == pytest.approx(
            brute_seesaw_objective(svd_complement(upb.states), a, b), abs=1e-9
        )

    def test_tile_objective_matches_the_svd_oracle(self, small_structures):
        """The class-coordinate objective at the class coordinates
        x = E_R^T a, y = E_C^T b of random complex unit a and b is
        a (x) b's squared projection onto the complement: complement
        vectors are constant on each class, so nothing is lost."""
        rng = np.random.default_rng(0)
        for grid in small_structures:
            ts = structure_from_grid(grid)
            if ts.tile_count < 2:
                continue
            rows, cols, sizes = tileupb.verify._tile_incidence(ts)
            side_a, side_b = tileupb.verify._class_side(rows), tileupb.verify._class_side(cols)
            a, b = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (ts.m, ts.n))
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            got = tileupb.verify._class_objective(
                side_a, side_b, sizes, (a @ side_a.lift)[None], (b @ side_b.lift)[None])
            want = brute_seesaw_objective(svd_complement(build_upb(ts).states), a, b)
            assert abs(got[0] - want) < 1e-12, grid

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_refuses_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="at least one restart"):
            seesaw_search(fig2(), restarts=restarts)

    def test_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            seesaw_search(fig2(), seed=-1)

    def test_a_bool_restart_count_is_reported_as_an_int(self):
        assert type(seesaw_search(fig2(), restarts=True).restarts_run) is int

    def test_a_float_setting_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(tileupb.verify, "_class_side", _never_called)
        for bad in (dict(restarts=2.5), dict(seed=1.5)):
            with pytest.raises(TypeError, match="integer"):
                seesaw_search(fig2(), **bad)

    @pytest.mark.parametrize("ts", [example1(), fig2()], ids=["example1", "fig2"])
    def test_the_objective_never_drops(self, ts):
        assert seesaw_search(ts, restarts=50, seed=0).monotonicity_violations == 0

    def test_a_single_tile_has_nothing_to_search(self):
        with pytest.raises(ValueError, match="nothing to search"):
            seesaw_search(structure_from_grid([[1, 1], [1, 1]]))

    def test_deterministic_under_a_fixed_seed(self):
        ts = five_tile(3, 3)
        r1 = seesaw_search(ts, restarts=25, seed=11)
        r2 = seesaw_search(ts, restarts=25, seed=11)
        assert r1.best_overlap == r2.best_overlap
        assert np.array_equal(r1.best_product.a_vec, r2.best_product.a_vec)

    def test_finds_the_product_state_in_an_extendible_complement(self):
        res = seesaw_search(fig2(), restarts=50, seed=0)
        assert res.best_overlap > 1 - 1e-9

    def test_stays_below_one_on_an_unextendible_complement(self):
        res = seesaw_search(example1(), restarts=100, seed=0)
        assert res.best_overlap < 1 - 1e-3
        assert res.converged_restarts == res.restarts_run == 100

    def test_product_threshold_clears_the_largest_five_tile_basis(self):
        """The best overlap on a genuine UPB creeps towards 1 as the grid
        grows; at the format's largest grid its gap to 1 must still be a
        hundred times the threshold that reports a product state."""
        res = seesaw_search(five_tile(64, 64), restarts=200, seed=0)
        assert res.best_overlap < 1 - 100 * PRODUCT_THRESHOLD


def _split_columns(ts, tid, k):
    """ts with the first k columns of tile tid moved to a new tile: the
    two halves form a special rectangle, so the result is not U-tile."""
    cols = sorted(ts.tiles[tid - 1].cols)[:k]
    new = ts.tile_count + 1
    return structure_from_grid(
        [[new if v == tid and c in cols else v for c, v in enumerate(row)] for row in ts.cell_map]
    )


# The structures verify-upb checks in the benchmark's upb-verify workload.
UPB_VERIFY_STRUCTURES = {
    "five-tile 24x24": lambda: five_tile(24, 24),
    "five-tile 12x12": lambda: five_tile(12, 12),
    "five-tile 12x18": lambda: five_tile(12, 18),
    "prop3 12/6": lambda: prop3(12, 6),
    "prop3 14/8": lambda: prop3(14, 8),
    "prop2 8x12": lambda: prop2(8, 12),
    "prop2 6x18": lambda: prop2(6, 18),
    "five_tile(16,16)/5c7": lambda: _split_columns(five_tile(16, 16), 5, 7),
    "five_tile(12,20)/5c9": lambda: _split_columns(five_tile(12, 20), 5, 9),
}


def _assert_matches_oracle(res, oracle):
    assert abs(res.best_overlap - oracle.best_overlap) < 1e-10
    found = res.best_overlap > 1 - PRODUCT_THRESHOLD
    assert found == (oracle.best_overlap > 1 - PRODUCT_THRESHOLD)
    assert res.restarts_run == oracle.restarts_run
    assert res.converged_restarts == oracle.converged_restarts
    assert res.monotonicity_violations == oracle.monotonicity_violations


class TestBatchedSeesaw:
    """The class-coordinate search, batched over restarts, against the
    sequential m-space oracle."""

    def test_matches_the_sequential_oracle_on_small_structures(self, small_structures):
        """Every third small structure, each with its own seed."""
        for k, grid in enumerate(small_structures[::3]):
            ts = structure_from_grid(grid)
            if ts.tile_count < 2:
                continue
            _assert_matches_oracle(
                seesaw_search(ts, restarts=2, seed=k), sequential_seesaw(ts, 2, seed=k)
            )

    @pytest.mark.parametrize("label", sorted(UPB_VERIFY_STRUCTURES))
    def test_matches_the_sequential_oracle_on_the_benchmark_structures(self, label):
        ts = UPB_VERIFY_STRUCTURES[label]()
        for seed in (0, 1, 2):
            res = seesaw_search(ts, restarts=20, seed=seed)
            _assert_matches_oracle(res, sequential_seesaw(ts, 20, seed=seed))
            assert (res.best_overlap > 1 - PRODUCT_THRESHOLD) != is_u_tile(ts).is_u_tile

    def test_the_lifted_winner_scores_its_overlap(self):
        ts = prop2(8, 12)
        res = seesaw_search(ts, restarts=10, seed=4)
        a, b = res.best_product.a_vec, res.best_product.b_vec
        assert a.shape == (8,) and b.shape == (12,)
        assert np.linalg.norm(a) == pytest.approx(1.0) and np.linalg.norm(b) == pytest.approx(1.0)
        proj = closed_form_projector(ts)
        assert res.best_overlap == pytest.approx(np.vdot(np.kron(a, b), proj @ np.kron(a, b)).real)

    def test_restarts_do_not_couple_across_blocks(self, monkeypatch):
        """With blocks of 4, every k-restart run equals the oracle's first
        k restarts, and the 11-restart result equals the unblocked one."""
        ts = prop3(9, 12)
        whole = seesaw_search(ts, restarts=11, seed=7)
        monkeypatch.setattr(tileupb.verify, "SEESAW_BLOCK", 4)
        for k in range(1, 12):
            _assert_matches_oracle(seesaw_search(ts, restarts=k, seed=7), sequential_seesaw(ts, k, seed=7))
        _assert_matches_oracle(seesaw_search(ts, restarts=11, seed=7), whole)

    def test_memory_does_not_grow_with_restarts(self):
        ts = five_tile(64, 64)
        peaks = []
        for restarts in (SEESAW_BLOCK, 20_000):
            tracemalloc.start()
            try:
                seesaw_search(ts, restarts=restarts, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_memory_stays_bounded_on_the_single_cell_grid(self):
        """The 64 x 64 grid of single-cell tiles has s = 4,096 and
        p = q = 64, so a full block's (restarts, p, s) gain temporary
        alone would pass 64 MB; the block shrinks to keep it bounded."""
        ts = structure_from_grid([[64 * r + c + 1 for c in range(64)] for r in range(64)])
        tracemalloc.start()
        try:
            seesaw_search(ts, restarts=64, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def _forced_search(overlap):
    """A stand-in for seesaw_search that reports the given best overlap."""

    def search(ts, restarts, seed):
        best = ProductState(np.ones(ts.m), np.ones(ts.n))
        return SearchResult(overlap, best, restarts, restarts, 0)

    return search


@st.composite
def limit_structures(draw):
    """Structures up to the format's 64 x 64: a random partition, or a
    family member (U-tile by the paper's propositions) with its rows and
    columns permuted."""
    kind = draw(st.sampled_from(["random", "prop2", "five-tile", "prop3"]))
    m = draw(st.integers(4, 64))
    n = draw(st.integers(m, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return structure_from_grid(random_structure(rng, m, n, draw(st.floats(0.6, 0.95))))
    if kind == "prop3":
        ts = prop3(m, draw(st.integers(5, 2 * m)))
    else:
        ts = (prop2 if kind == "prop2" else five_tile)(m, n)
    grid = np.array(ts.cell_map)[rng.permutation(ts.m)][:, rng.permutation(ts.n)]
    return structure_from_grid(grid.tolist())


def _verify_json(capsys, *argv):
    """``verify-upb --json`` on argv: the exit code and the parsed report."""
    code = main(["verify-upb", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def _never_called(*args):
    pytest.fail("the seesaw ran")


class TestVerifyUpb:
    """``verify-upb`` reads its verdict off ``certify_upb`` and fails a
    basis the seesaw probe finds a product state for."""

    def test_reference_basis_passes(self, capsys):
        code, data = _verify_json(capsys, "--family", "example1", "--restarts", "100")
        assert code == 0 and data["passed"] is True
        assert data["size"] == data["expected_size"] == 11
        assert data["complement_dim"] == data["expected_complement_dim"] == 5
        assert data["stopper_law_ok"] is True
        assert data["product_found"] is False
        assert data["certificate"]["u_tile"] is True

    def test_a_seesaw_miss_leaves_the_verdict_exact(self, capsys, monkeypatch):
        """The verdict comes from the U-tile decision: with the search
        forced to miss, fig2 still fails, on a checked witness."""
        monkeypatch.setattr(tileupb.cli, "seesaw_search", _forced_search(0.5))
        code, data = _verify_json(capsys, "--family", "fig2")
        assert code == 1 and data["passed"] is False
        assert data["product_found"] is False
        assert data["certificate"]["u_tile"] is False
        assert data["certificate"]["max_overlap"] <= 1e-12
        assert "missed it" in data["note"]

    def test_a_seesaw_hit_on_a_u_tile_is_a_contradiction(self, capsys, monkeypatch):
        monkeypatch.setattr(tileupb.cli, "seesaw_search", _forced_search(1.0))
        code, data = _verify_json(capsys, "--family", "example1")
        assert data["certificate"]["u_tile"] is True
        assert data["product_found"] is True
        assert code == 1 and data["passed"] is False
        assert "contradicts" in data["note"]

    def test_uncertified_complement_fails_without_a_search(self, capsys, monkeypatch):
        monkeypatch.setattr(tileupb.cli, "build_upb", lambda ts: foreign_origin_upb())
        monkeypatch.setattr(tileupb.cli, "seesaw_search", _never_called)
        code, data = _verify_json(capsys, "--family", "five-tile", "--m", "4", "--n", "4")
        assert data["orthogonal"] is True and data["size_ok"] is True
        assert code == 1 and data["passed"] is False
        assert data["search"] is None and data["certificate"] is None
        assert "not certified" in data["note"] and "overlap" in data["note"]

    def test_the_json_reports_the_library_search(self, capsys):
        """The search in ``verify-upb --json`` is ``seesaw_search`` at the
        given restarts and seed, echoed in the settings."""
        search = seesaw_search(prop3(4, 6), restarts=30, seed=1)
        code, data = _verify_json(capsys, "--family", "prop3", "--m", "4", "--tiles", "6",
                                  "--restarts", "30", "--seed", "1")
        assert code == 0 and data["passed"] is True
        assert data["settings"]["restarts"] == 30 and data["settings"]["seed"] == 1
        assert data["search"]["restarts_run"] == 30
        assert data["search"]["best_overlap"] == search.best_overlap

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(ts=limit_structures())
    def test_verdict_is_the_u_tile_decision_up_to_64x64(self, ts):
        verdict = is_u_tile(ts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "limit.tile"
            path.write_text(serialize(ts))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["verify-upb", str(path), "--restarts", "3", "--json"])
        data = json.loads(out.getvalue())
        assert data["passed"] == verdict.is_u_tile == (code == 0)
        if ts.tile_count == 1:  # an empty complement leaves nothing to decide
            assert data["certificate"] is None
        else:
            assert data["certificate"]["u_tile"] == data["passed"]
        if not data["passed"]:
            assert_witness_split(ts, verdict)
            assert data["certificate"]["witness"]["tiles"] == list(verdict.witness.tile_ids)
            assert data["certificate"]["max_overlap"] <= 1e-12
