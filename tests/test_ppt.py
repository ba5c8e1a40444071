"""The normalized complement projector and its positivity properties."""

import numpy as np
import pytest

from tileupb import (
    ProductState,
    build_ppt_state,
    build_upb,
    example1,
    five_tile,
    partial_transpose,
    ppt_report,
    prop2,
    prop3,
)

from conftest import (
    brute_partial_transpose,
    brute_ppt_state,
    foreign_origin_upb,
    structure_from_grid,
)


class TestBuildState:
    def test_reference_case_shape_and_trace(self):
        rho = build_ppt_state(build_upb(example1()))
        assert rho.matrix.shape == (16, 16)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho.matrix, rho.matrix.conj().T)

    def test_kernel_contains_every_basis_state(self):
        upb = build_upb(example1())
        rho = build_ppt_state(upb)
        for s in upb.states:
            vec = np.kron(s.a_vec, s.b_vec)
            vec = vec / np.linalg.norm(vec)
            assert np.linalg.norm(rho.matrix @ vec) < 1e-12

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
            build_ppt_state(tampered)

    @pytest.mark.parametrize(
        "ts",
        [example1(), five_tile(3, 5), prop2(5, 6), prop3(5, 9)],
        ids=["example1", "five35", "ring56", "counted59"],
    )
    def test_matches_the_rank_one_oracle(self, ts):
        upb = build_upb(ts)
        assert np.allclose(build_ppt_state(upb).matrix, brute_ppt_state(upb), rtol=0, atol=1e-12)

    def test_rejects_a_foreign_origin(self):
        with pytest.raises(ValueError, match="overlap"):
            build_ppt_state(foreign_origin_upb())

    def test_rejects_a_complete_basis(self):
        ts = structure_from_grid([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            build_ppt_state(build_upb(ts))


class TestPartialTranspose:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = build_ppt_state(build_upb(five_tile(3, 4)))
        got = partial_transpose(rho)
        want = brute_partial_transpose(rho.matrix, 3, 4)
        assert np.allclose(got, want)

    def test_is_an_involution(self):
        rho = build_ppt_state(build_upb(example1()))
        pt = partial_transpose(rho)
        back = (
            pt.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
            .swapaxes(1, 3)
            .reshape(rho.matrix.shape)
        )
        assert np.allclose(back, rho.matrix)


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
