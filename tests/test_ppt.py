"""The normalized complement projector and its positivity properties,
as ``tileupb ppt`` reports them from ``certify_upb``."""

import json
import tracemalloc

import numpy as np
import pytest

import tileupb.cli
from tileupb import (
    ProductState,
    build_upb,
    certify_upb,
    example1,
    fig2,
    five_tile,
    prop2,
    prop3,
    serialize,
)

from conftest import (
    brute_partial_transpose,
    brute_ppt_state,
    class_state,
    foreign_origin_upb,
    partial_transpose,
    structure_from_grid,
    tampered_upb,
)


def ppt(capsys, *source):
    """Exit code, parsed ``--json`` report (None when nothing was
    written) and stderr of ``tileupb ppt`` on a structure source."""
    code = tileupb.cli.main(["ppt", *source, "--json"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def ppt_of(ts, tmp_path, capsys):
    """``ppt`` on a structure written to a .tile file."""
    path = tmp_path / "structure.tile"
    path.write_text(serialize(ts))
    return ppt(capsys, str(path))


def ppt_of_set(upb, monkeypatch, capsys):
    """``ppt`` on a set ``build_upb`` would not make: the CLI's
    ``build_upb`` is patched to return it."""
    monkeypatch.setattr(tileupb.cli, "build_upb", lambda ts: upb)
    return ppt(capsys, "--family", "example1")


def assert_refused(upb, monkeypatch, capsys, match):
    """``ppt`` on the set exits 2 with the certificate's refusal on
    stderr and writes nothing to stdout."""
    refusal = certify_upb(upb).refusal
    assert refusal and match in refusal
    assert ppt_of_set(upb, monkeypatch, capsys) == (2, None, f"error: {refusal}\n")


def nudged_example1(shift):
    """example1's basis with its first state's A factor moved by about
    ``shift`` in a seeded random direction."""
    upb = build_upb(example1())
    first = upb.states[0]
    rng = np.random.default_rng(3)
    nudged = ProductState(first.a_vec + shift * rng.normal(size=4), first.b_vec)
    return tampered_upb(upb, (nudged,) + upb.states[1:])


def lifted_state(ts):
    """rho = (E_R (x) E_C) rho_c (E_R (x) E_C)^T, with column i of E_R the
    normalized indicator of row class i, as a dense mn x mn matrix."""
    rho_c, row_class, col_class = class_state(ts)

    def embedding(labels):
        ind = np.eye(labels.max() + 1)[labels]
        return ind / np.sqrt(ind.sum(axis=0))

    lift = np.kron(embedding(row_class), embedding(col_class))
    return lift @ rho_c @ lift.T


def assert_closed_form_matches_dense(ts, tmp_path, capsys):
    """The ``ppt`` report agrees with the eigvalsh spectra of the dense
    rho and rho^Gamma in rank, trace and both minimum eigenvalues, and
    both spectra are 1/(s - 1), s - 1 times, padded with zeros."""
    upb = build_upb(ts)
    m, n, s = ts.m, ts.n, ts.tile_count
    dense = brute_ppt_state(upb)
    eigs = np.linalg.eigvalsh(dense)
    eigs_pt = np.linalg.eigvalsh(partial_transpose(dense, m, n))
    _, report, _ = ppt_of(ts, tmp_path, capsys)
    assert report["rank"] == int(np.sum(eigs > 1e-8)) == s - 1
    assert abs(report["trace"] - np.trace(dense).real) < 1e-12
    assert abs(report["min_eigenvalue"] - eigs[0]) < 1e-12
    assert abs(report["min_eigenvalue_pt"] - eigs_pt[0]) < 1e-12
    closed = np.concatenate([np.zeros(m * n - s + 1), np.full(s - 1, 1 / (s - 1))])
    assert np.allclose(eigs, closed, rtol=0, atol=1e-12)
    assert np.allclose(eigs_pt, closed, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize(
        "ts",
        [example1(), five_tile(3, 5), prop2(5, 6), prop3(5, 9)],
        ids=["example1", "five35", "ring56", "counted59"],
    )
    def test_matches_the_rank_one_oracle(self, ts):
        upb = build_upb(ts)
        assert np.allclose(lifted_state(ts), brute_ppt_state(upb), rtol=0, atol=1e-12)


class TestRefusals:
    def test_rejects_non_orthogonal_input(self, monkeypatch, capsys):
        upb = build_upb(example1())
        corner = np.zeros(4)
        corner[0] = 1.0
        tampered = tampered_upb(upb, upb.states[:-1] + (ProductState(corner, corner),))
        assert_refused(tampered, monkeypatch, capsys, "orthogonal")

    def test_rejects_a_nan_written_into_the_stack_as_not_orthogonal(self, monkeypatch, capsys):
        upb = build_upb(example1())
        upb.b[2, 1] = np.nan
        assert_refused(upb, monkeypatch, capsys, "not pairwise orthogonal")

    def test_rejects_a_foreign_origin(self, monkeypatch, capsys):
        assert_refused(foreign_origin_upb(), monkeypatch, capsys, "overlap")

    def test_rejects_a_broken_size_law(self, monkeypatch, capsys):
        upb = build_upb(example1())
        assert_refused(tampered_upb(upb, upb.states[:-1]), monkeypatch, capsys, "size law")

    @pytest.mark.parametrize("grid,keep", [(example1().cell_map, 11), ([[1, 1], [1, 1]], 3)],
                             ids=["example1", "one-tile"])
    def test_a_full_size_set_with_repeats_is_refused(self, grid, keep, monkeypatch, capsys):
        """mn states get no empty-complement report unless the certificate
        holds: example1's 11 states plus 5 repeats, and the one-tile basis
        with its first state in place of its last, overlap in pairs."""
        upb = build_upb(structure_from_grid(grid))
        states = upb.states[:keep]
        states += states[: upb.m * upb.n - keep]
        assert_refused(tampered_upb(upb, states), monkeypatch, capsys, "not pairwise orthogonal")

    def test_refuses_a_set_beyond_the_tolerance_like_certify_upb(self, monkeypatch, capsys):
        """A set whose worst relative overlap lies between 1e-12 and
        1e-10 is refused."""
        tampered = nudged_example1(1e-11)
        assert 1e-12 < certify_upb(tampered).orthogonality.max_offdiagonal < 1e-10
        assert_refused(tampered, monkeypatch, capsys, "not pairwise orthogonal")

    def test_accepts_a_set_within_rounding_like_certify_upb(self, monkeypatch, capsys):
        tampered = nudged_example1(1e-15)
        assert certify_upb(tampered).ok
        code, report, err = ppt_of_set(tampered, monkeypatch, capsys)
        assert (code, report["ok"], err) == (0, True, "")


class TestPartialTranspose:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        assert np.allclose(partial_transpose(raw, 3, 4), brute_partial_transpose(raw, 3, 4))

    def test_is_an_involution(self):
        rho = brute_ppt_state(build_upb(example1()))
        assert np.array_equal(partial_transpose(partial_transpose(rho, 4, 4), 4, 4), rho)


class TestReport:
    def test_reference_case(self, capsys):
        code, report, _ = ppt(capsys, "--family", "example1")
        assert code == 0 and report["ok"]
        assert report["trace"] == pytest.approx(1.0, abs=1e-12)
        assert report["rank"] == report["expected_rank"] == 5
        assert report["min_eigenvalue"] >= -1e-10
        assert report["min_eigenvalue_pt"] >= -1e-10
        assert report["ppt"]
        assert "range" in report["entangled_certificate"]

    @pytest.mark.parametrize(
        "ts",
        [prop2(4, 5), prop2(5, 5), prop3(5, 9), five_tile(3, 5), five_tile(4, 6)],
        ids=["ring45", "ring55", "counted59", "five35", "five46"],
    )
    def test_families_produce_ppt_entangled_states(self, ts, tmp_path, capsys):
        code, report, _ = ppt_of(ts, tmp_path, capsys)
        assert code == 0 and report["ok"]
        assert report["rank"] == ts.tile_count - 1

    def test_complete_basis_degenerates_with_a_warning(self, tmp_path, capsys):
        ts = structure_from_grid([[1, 1], [1, 1]])
        code, report, _ = ppt_of(ts, tmp_path, capsys)
        assert code == 1 and not report["ok"]
        assert report["warning"].startswith("degenerate input")
        assert report["entangled_certificate"] is None

    def test_a_non_u_tile_origin_gets_no_range_criterion(self, capsys):
        """fig2's complement holds its extension state: the state is PPT
        with rank s - 1, but nothing certifies entanglement."""
        code, report, _ = ppt(capsys, "--family", "fig2")
        assert code == 1
        assert report["ok"] and report["rank"] == 5
        assert report["entangled_certificate"] is None
        assert "not U-tile" in report["warning"]

    def test_class_spectra_match_the_dense_oracle(self, small_structures, tmp_path, capsys):
        for grid in small_structures:
            ts = structure_from_grid(grid)
            if ts.tile_count >= 2:
                assert_closed_form_matches_dense(ts, tmp_path, capsys)

    @pytest.mark.parametrize(
        "ts",
        [fig2(), prop2(7, 7), prop3(7, 14), five_tile(7, 7)],
        ids=["fig2", "ring77", "counted714", "five77"],
    )
    def test_closed_form_matches_the_dense_spectra(self, ts, tmp_path, capsys):
        assert_closed_form_matches_dense(ts, tmp_path, capsys)

    def test_runs_no_eigensolver(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("ppt called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        code, report, _ = ppt(capsys, "--family", "prop2", "--m", "6", "--n", "8")
        assert code == 0 and report["ok"] and report["rank"] == prop2(6, 8).tile_count - 1
        assert "rho^Gamma = rho" in report["spectrum_certificate"]

    @pytest.mark.parametrize(
        "family, rank", [("five-tile", 4), ("prop2", 124)], ids=["five64", "ring64"]
    )
    def test_format_limit_stays_small(self, family, rank, capsys):
        """ppt at 64 x 64 needs only the stacks, the Gram and the
        certificate: its traced peak, building included, stays under 64 MB."""
        tracemalloc.start()
        try:
            code, report, _ = ppt(capsys, "--family", family, "--m", "64", "--n", "64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["ok"] and report["rank"] == rank
        assert peak < 64e6
