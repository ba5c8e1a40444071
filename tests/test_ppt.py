"""The normalized complement projector and its positivity properties."""

import tracemalloc

import numpy as np
import pytest

from tileupb import (
    ProductState,
    build_upb,
    example1,
    five_tile,
    partial_transpose,
    ppt_report,
    prop2,
    prop3,
)
from tileupb.ppt import class_state

from conftest import (
    brute_partial_transpose,
    brute_ppt_state,
    foreign_origin_upb,
    structure_from_grid,
)


def lifted_state(ts):
    """rho = (E_R (x) E_C) rho_c (E_R (x) E_C)^T, with column i of E_R the
    normalized indicator of row class i, as a dense mn x mn matrix."""
    rho_c, row_class, col_class = class_state(ts)

    def embedding(labels):
        ind = np.eye(labels.max() + 1)[labels]
        return ind / np.sqrt(ind.sum(axis=0))

    lift = np.kron(embedding(row_class), embedding(col_class))
    return lift @ rho_c @ lift.T


class TestBuildState:
    def test_reference_case_shape_and_trace(self):
        rho, row_class, col_class = class_state(example1())
        p, q = row_class.max() + 1, col_class.max() + 1
        assert (p, q) == (3, 4)  # rows 1 and 2 of example1 meet the same tiles
        assert rho.shape == (p * q, p * q)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(rho, rho.T)

    def test_kernel_contains_every_basis_state(self):
        upb = build_upb(example1())
        rho = lifted_state(upb.origin)
        for s in upb.states:
            vec = np.kron(s.a_vec, s.b_vec)
            vec = vec / np.linalg.norm(vec)
            assert np.linalg.norm(rho @ vec) < 1e-12

    def test_rejects_non_orthogonal_input(self):
        upb = build_upb(example1())
        corner = np.zeros(4)
        corner[0] = 1.0
        tampered = type(upb)(
            states=upb.states[:-1] + (ProductState(corner, corner),),
            missing=upb.missing,
            stopper=upb.stopper,
            origin=upb.origin,
        )
        with pytest.raises(ValueError, match="orthogonal"):
            ppt_report(tampered)

    @pytest.mark.parametrize(
        "ts",
        [example1(), five_tile(3, 5), prop2(5, 6), prop3(5, 9)],
        ids=["example1", "five35", "ring56", "counted59"],
    )
    def test_matches_the_rank_one_oracle(self, ts):
        upb = build_upb(ts)
        assert np.allclose(lifted_state(ts), brute_ppt_state(upb), rtol=0, atol=1e-12)

    def test_rejects_a_foreign_origin(self):
        with pytest.raises(ValueError, match="overlap"):
            ppt_report(foreign_origin_upb())

    def test_rejects_a_complete_basis(self):
        ts = structure_from_grid([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="empty complement"):
            class_state(ts)

    def test_five_tile_classes_stay_three_by_three(self):
        rho, row_class, col_class = class_state(five_tile(64, 64))
        assert rho.shape == (9, 9)
        assert sorted(np.bincount(row_class)) == sorted(np.bincount(col_class)) == [1, 1, 62]


class TestPartialTranspose:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        assert np.allclose(partial_transpose(raw, 3, 4), brute_partial_transpose(raw, 3, 4))

    def test_is_an_involution(self):
        rho = brute_ppt_state(build_upb(example1()))
        assert np.array_equal(partial_transpose(partial_transpose(rho, 4, 4), 4, 4), rho)


class TestReport:
    def test_reference_case(self):
        report = ppt_report(build_upb(example1()))
        assert report.ok
        assert report.trace == pytest.approx(1.0, abs=1e-12)
        assert report.rank == report.expected_rank == 5
        assert report.min_eigenvalue >= -1e-10
        assert report.min_eigenvalue_pt >= -1e-10
        assert report.ppt
        assert "range" in report.entangled_certificate

    @pytest.mark.parametrize(
        "ts",
        [prop2(4, 5), prop2(5, 5), prop3(5, 9), five_tile(3, 5), five_tile(4, 6)],
        ids=["ring45", "ring55", "counted59", "five35", "five46"],
    )
    def test_families_produce_ppt_entangled_states(self, ts):
        report = ppt_report(build_upb(ts))
        assert report.ok
        assert report.rank == ts.tile_count - 1

    def test_complete_basis_degenerates_with_a_warning(self):
        ts = structure_from_grid([[1, 1], [1, 1]])
        report = ppt_report(build_upb(ts))
        assert not report.ok
        assert report.warning

    def test_class_spectra_match_the_dense_oracle(self, small_structures):
        """On every small structure the class-block report agrees with the
        dense rho and rho^Gamma in rank, trace and both minimum
        eigenvalues, and rho_c^Gamma's spectrum padded with mn - pq zeros
        is rho^Gamma's."""
        for grid in small_structures:
            ts = structure_from_grid(grid)
            if ts.tile_count < 2:
                continue
            upb = build_upb(ts)
            m, n = ts.m, ts.n
            dense = brute_ppt_state(upb)
            eigs = np.linalg.eigvalsh(dense)
            eigs_pt = np.linalg.eigvalsh(brute_partial_transpose(dense, m, n))
            report = ppt_report(upb)
            assert report.rank == int(np.sum(eigs > 1e-8)) == ts.tile_count - 1, grid
            assert abs(report.trace - np.trace(dense).real) < 1e-12, grid
            assert abs(report.min_eigenvalue - eigs[0]) < 1e-12, grid
            assert abs(report.min_eigenvalue_pt - eigs_pt[0]) < 1e-12, grid
            rho_c, row_class, col_class = class_state(ts)
            p, q = row_class.max() + 1, col_class.max() + 1
            if p * q < m * n:  # the lift's zeros bound both minima, whatever rounding gives
                assert report.min_eigenvalue <= 0.0 and report.min_eigenvalue_pt <= 0.0, grid
            padded = np.sort(np.concatenate([
                np.linalg.eigvalsh(partial_transpose(rho_c, p, q)), np.zeros(m * n - p * q)
            ]))
            assert np.allclose(padded, eigs_pt, rtol=0, atol=1e-12), grid

    def test_five_tile_at_the_format_limit_stays_small(self):
        """ppt_report on five_tile(64, 64) works on a 9 x 9 class state:
        its traced peak stays under 64 MB."""
        upb = build_upb(five_tile(64, 64))
        tracemalloc.start()
        try:
            report = ppt_report(upb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.rank == 4
        assert peak < 64e6
