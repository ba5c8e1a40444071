"""Measurement trees: construction, simulation, and verification."""

import numpy as np
import pytest

from tileupb import (
    ALICE,
    Branch,
    CompositeState,
    Identify,
    LocalProjector,
    OnePartyFinish,
    ProductState,
    attach_resource,
    build_theorem3_protocol,
    build_upb,
    prop2,
    verify_protocol,
)
from tileupb.locc import _root_projector, _shift_unitary

from conftest import brute_composite_apply


def _composite_states(m, n):
    upb = build_upb(prop2(m, n))
    return upb, attach_resource(upb.states, m // 2)


class TestCompositeStates:
    def test_attach_resource_builds_the_diagonal_ancilla_sum(self):
        s = ProductState([1, 2], [3, 4])
        (comp,) = attach_resource([s], 2)
        assert comp.dims == (2, 2, 2, 2)
        assert comp.amplitudes[1, 0, 0, 0] == 2 * 3
        assert comp.amplitudes[1, 0, 1, 1] == 2 * 3
        assert comp.amplitudes[1, 0, 0, 1] == 0

    def test_trivial_resource_keeps_the_state(self):
        s = ProductState([1, 2], [3, 4])
        (comp,) = attach_resource([s], 1)
        assert np.allclose(comp.amplitudes[:, :, 0, 0], s.matrix)

    def test_cut_matrix_agrees_with_kron_application(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        state = CompositeState(amps)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        direct = op @ state.cut_matrix()
        lifted = brute_composite_apply(op, "alice", amps)
        assert np.allclose(direct, CompositeState(lifted).cut_matrix())
        op_b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        direct_b = state.cut_matrix() @ op_b.T
        lifted_b = brute_composite_apply(op_b, "bob", amps)
        assert np.allclose(direct_b, CompositeState(lifted_b).cut_matrix())


class TestRootLayer:
    def test_root_outcomes_partition_alices_register(self):
        for m in (4, 6, 8):
            iota = m // 2
            total = sum(_root_projector(m, i) for i in range(1, iota + 1))
            assert np.allclose(total, np.eye(m * iota))
            for i in range(1, iota + 1):
                p = _root_projector(m, i)
                assert np.allclose(p @ p, p)
                assert np.trace(p).real == pytest.approx(m)

    def test_four_row_first_outcome_pins_rows_to_levels(self):
        # |00><00| + |10><10| + |20><20| + |31><31| on the Aa register
        want = np.zeros((8, 8), dtype=complex)
        for row, level in [(0, 0), (1, 0), (2, 0), (3, 1)]:
            want[row * 2 + level, row * 2 + level] = 1.0
        assert np.allclose(_root_projector(4, 1), want)

    def test_second_outcome_is_the_shifted_first(self):
        # rotating the ancilla level carries outcome 1 onto outcome i
        for m in (4, 6):
            iota = m // 2
            for i in range(2, iota + 1):
                u = np.kron(np.eye(m), _shift_unitary(iota, i))
                assert np.allclose(
                    u @ _root_projector(m, 1) @ u.conj().T, _root_projector(m, i)
                )

    def test_resource_states_are_invariant_under_matched_shifts(self):
        m, n = 6, 6
        upb, states = _composite_states(m, n)
        iota = m // 2
        u = _shift_unitary(iota, 2)
        ua = np.kron(np.eye(m), u)
        ub = np.kron(np.eye(n), u)
        a1 = _root_projector(m, 1)
        a2 = _root_projector(m, 2)
        for st in states:
            x = st.cut_matrix()
            assert np.allclose(ua @ x @ ub.T, x)
            assert np.allclose(a2 @ x, ua @ (a1 @ x) @ ub.T)


class TestProtocols:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_four_row_base_case_discriminates_perfectly(self, n):
        upb, states = _composite_states(4, n)
        report = verify_protocol(build_theorem3_protocol(4, n), states)
        assert report.ok, (report.branch_violations, report.leaf_violations)
        assert report.min_success_probability == pytest.approx(1.0, abs=1e-9)
        assert report.max_wrong_probability <= 1e-9

    @pytest.mark.parametrize("m,n", [(4, 4), (4, 7), (6, 6), (6, 7), (8, 8)])
    def test_even_rows_discriminate_perfectly(self, m, n):
        upb, states = _composite_states(m, n)
        report = verify_protocol(build_theorem3_protocol(m, n), states)
        assert report.ok, (report.branch_violations, report.leaf_violations)
        assert report.min_success_probability == pytest.approx(1.0, abs=1e-9)

    def test_odd_row_counts_are_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_theorem3_protocol(5, 5)
        with pytest.raises(ValueError):
            build_theorem3_protocol(4, 3)


class TestVerifierCatchesSabotage:
    def test_swapped_identify_labels_are_flagged(self):
        upb, states = _composite_states(4, 4)
        protocol = build_theorem3_protocol(4, 4)
        labels = upb.state_labels()
        first, second = labels.index((3, 0, 1)), labels.index((3, 0, 2))

        def swap(node):
            if isinstance(node, Branch):
                return Branch(
                    node.party,
                    tuple((p, swap(c)) for p, c in node.outcomes),
                )
            if isinstance(node, Identify):
                # cross the two identified bottom-row labels
                mapping = {first: second, second: first}
                return Identify(mapping.get(node.candidate, node.candidate))
            return node

        report = verify_protocol(swap(protocol), states)
        assert not report.ok
        assert report.max_wrong_probability > 1e-3
        assert report.leaf_violations

    def test_incomplete_branches_are_flagged(self):
        upb, states = _composite_states(4, 4)
        protocol = build_theorem3_protocol(4, 4)
        truncated = Branch(protocol.party, protocol.outcomes[:-1])
        report = verify_protocol(truncated, states)
        assert not report.ok
        assert any("identity" in v for v in report.branch_violations)

    def test_wrong_resource_dimension_is_rejected(self):
        upb = build_upb(prop2(6, 6))
        protocol = build_theorem3_protocol(6, 6)
        report = verify_protocol(protocol, attach_resource(upb.states, 2))
        assert not report.ok

    def test_non_projector_outcomes_are_flagged(self):
        upb, states = _composite_states(4, 4)
        bad = Branch(
            ALICE,
            (
                (LocalProjector(ALICE, 0.5 * np.eye(8)), Identify(0)),
                (LocalProjector(ALICE, 0.5 * np.eye(8)), Identify(1)),
            ),
        )
        report = verify_protocol(bad, states)
        assert any("idempotent" in v for v in report.branch_violations)

    def test_finish_leaf_geometry_is_checked(self):
        # a state that stays entangled across the cut must be flagged
        amps = np.zeros((2, 2, 2, 2), dtype=complex)
        amps[0, 0, 0, 0] = 1.0
        amps[1, 1, 1, 1] = 1.0
        entangled = CompositeState(amps)
        corner = np.zeros((2, 2, 2, 2), dtype=complex)
        corner[0, 1, 0, 0] = 1.0
        protocol = OnePartyFinish(ALICE, (0, 1))
        report = verify_protocol(protocol, [entangled, CompositeState(corner)])
        assert any("not product" in v for v in report.leaf_violations)
