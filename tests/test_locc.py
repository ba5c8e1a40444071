"""Measurement trees: construction, simulation, and verification."""

import dataclasses
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import tileupb.locc

from tileupb import (
    ALICE,
    BOB,
    Branch,
    DiscriminationReport,
    Identify,
    LocalProjector,
    OnePartyFinish,
    attach_resource,
    build_theorem3_protocol,
    build_upb,
    prop2,
    upb_state_labels,
    verify_protocol,
)
from tileupb.locc import (
    MAX_CELLS,
    _Placed,
    _cells,
    _check_branch,
    _place,
    _shift_index,
)

from conftest import (_branch, brute_composite_apply, dense_check_branch, dense_verify_protocol,
                      eager_place, placed_off_image_residues, projector)


def _shift_unitary(iota, i):
    """Cyclic ancilla relabeling |j> -> |(j+i-1) mod iota> as a dense
    permutation matrix."""
    u = np.zeros((iota, iota), dtype=complex)
    for j in range(iota):
        u[(j + i - 1) % iota, j] = 1.0
    return u


@lru_cache(maxsize=None)
def _root_outcome(m, i):
    """Alice's i-th root outcome, read off the built m x m tree."""
    return build_theorem3_protocol(m, m).outcomes[i - 1][0].operator


def _resource_stacks(m, n):
    """The prop2(m, n) basis and its cut factor stacks with an
    (m/2)-level resource."""
    upb = build_upb(prop2(m, n))
    return (upb, *attach_resource(upb.a, upb.b, m // 2))


def _cut(amps):
    """The cut matrix of the state with amplitudes amps[A, B, a, b]: row
    A*d_a + a and column B*d_b + b."""
    m, n, da, db = amps.shape
    return amps.transpose(0, 2, 1, 3).reshape(m * da, n * db)


def _cuts(lefts, rights):
    """The cut matrices L_i R_iᵀ of every state in a pair of stacks."""
    return lefts @ np.swapaxes(rights, 1, 2)


def _as_cut_stacks(mats):
    """Every state i as the factor pair (M_i, I) of its cut matrix, so
    its factors have rank n*d."""
    return mats, np.broadcast_to(np.eye(mats.shape[2]), (len(mats),) + mats.shape[2:] * 2)


class TestResourceStacks:
    def test_attach_resource_builds_the_diagonal_ancilla_sum(self):
        lefts, rights = attach_resource([[1, 2]], [[3, 4]], 2)
        assert lefts.shape == rights.shape == (1, 4, 2)
        (cut,) = _cuts(lefts, rights)
        assert cut[2, 0] == 2 * 3  # A=1, a=0; B=0, b=0
        assert cut[3, 1] == 2 * 3  # A=1, a=1; B=0, b=1
        assert cut[2, 1] == 0  # A=1, a=0; B=0, b=1

    def test_trivial_resource_keeps_the_state(self):
        a, b = np.array([[1, 2], [0, 1j]]), np.array([[3, 4], [1, -1]])
        assert np.allclose(_cuts(*attach_resource(a, b, 1)), a[:, :, None] * b[:, None, :])

    @pytest.mark.parametrize("d", [0, -1])
    def test_resource_dimension_below_one_is_refused(self, d):
        with pytest.raises(ValueError, match="at least 1"):
            attach_resource([[1, 2]], [[3, 4]], d)

    @pytest.mark.parametrize("case", ["vectors", "one-b-row"])
    def test_refuses_stacks_of_unequal_state_counts(self, case):
        upb = build_upb(prop2(4, 4))
        a, b, shapes = {"vectors": (upb.a[0], upb.b[0], r"\(4,\) and \(4,\)"),
                        "one-b-row": (upb.a, upb.b[:1], r"\(12, 4\) and \(1, 4\)")}[case]
        with pytest.raises(ValueError, match=f"factor stacks of shapes {shapes}"):
            attach_resource(a, b, 2)

    @pytest.mark.parametrize("m,n,d", [(4, 5, 2), (6, 6, 3), (3, 7, 4)])
    def test_register_cells_are_the_rows_of_the_lifted_factors(self, m, n, d):
        """``_cells`` is the layout ``attach_resource`` lifts into: the lift
        of e_r (x) e_c holds, in ancilla column a, one 1 in row
        _cells([r], [a], d) of Alice's factor and _cells([c], [a], d) of
        Bob's, for every level a."""
        for r, c in ((0, 0), (m - 1, n - 1), (1, n - 2)):
            lefts, rights = attach_resource(np.eye(m)[[r]], np.eye(n)[[c]], d)
            for factor, row, size in ((lefts[0], r, m), (rights[0], c, n)):
                want = np.zeros((size * d, d))
                for a in range(d):
                    want[_cells([row], [a], d)[0], a] = 1
                assert np.array_equal(factor, want), (row, size)

    def test_cut_matrix_agrees_with_kron_application(self):
        """The walk's rule, P M for Alice's outcome and M Pᵀ for Bob's,
        is the operator's full Kronecker lift on the joint vector."""
        rng = np.random.default_rng(0)
        amps = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.allclose(op @ _cut(amps), _cut(brute_composite_apply(op, "alice", amps)))
        op_b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert np.allclose(_cut(amps) @ op_b.T, _cut(brute_composite_apply(op_b, "bob", amps)))

    @pytest.mark.parametrize("shapes,match", [
        (((1, 4, 2), (1, 4, 3)), "equal state counts and ranks"),
        (((2, 4, 2), (1, 4, 2)), "equal state counts and ranks"),
        (((4, 2), (4, 2)), "equal state counts and ranks"),
        (((0, 4, 2), (0, 4, 2)), "no states to discriminate"),
    ], ids=["unequal-ranks", "unequal-counts", "matrices", "empty"])
    def test_malformed_stacks_are_refused(self, shapes, match):
        with pytest.raises(ValueError, match=match):
            verify_protocol(Identify(0), *(np.ones(shape) for shape in shapes))


class TestRootLayer:
    def test_root_outcomes_partition_alices_register(self):
        for m in (4, 6, 8):
            iota = m // 2
            total = sum(_root_outcome(m, i) for i in range(1, iota + 1))
            assert np.allclose(total, np.eye(m * iota))
            for i in range(1, iota + 1):
                p = _root_outcome(m, i)
                assert np.allclose(p @ p, p)
                assert np.trace(p).real == pytest.approx(m)

    def test_four_row_first_outcome_pins_rows_to_levels(self):
        # |00><00| + |10><10| + |20><20| + |31><31| on the Aa register
        want = np.zeros((8, 8), dtype=complex)
        for row, level in [(0, 0), (1, 0), (2, 0), (3, 1)]:
            want[row * 2 + level, row * 2 + level] = 1.0
        assert np.array_equal(_root_outcome(4, 1), want)
        first = build_theorem3_protocol(4, 4).outcomes[0][0]
        pairing = _cells(range(4), np.c_[[0, 0, 0, 1]], 2)  # one level per row
        assert np.array_equal(np.flatnonzero(first.diagonal), pairing)

    def test_second_outcome_is_the_shifted_first(self):
        """Root outcome i of the built tree is U_i P_1 U_i^dagger for the
        cyclic ancilla shift U_i, and its subtree is outcome 1's placed by
        the same shift on both parties."""
        for m in (4, 6, 8):
            iota = m // 2
            first = np.zeros((m * iota, m * iota))
            for row in range(m):
                level = max(row - iota, 0)  # rows 0..iota on level 0, row iota+j on level j
                first[row * iota + level, row * iota + level] = 1.0
            assert np.array_equal(_root_outcome(m, 1), first)
            root = build_theorem3_protocol(m, m)
            for i in range(1, iota + 1):
                u = np.kron(np.eye(m), _shift_unitary(iota, i))
                built = _root_outcome(m, i)
                assert np.array_equal(u @ first @ u.conj().T, built), (m, i)
                if i > 1:
                    view = root.outcomes[i - 1][1].outcomes
                    assert isinstance(view, _Placed) and view.source is root.outcomes[0][1]
                    for index in (view.alice_index, view.bob_index):
                        assert np.array_equal(index, _shift_index(m, iota, i)), (m, i)

    def test_index_conjugation_equals_the_dense_unitary(self):
        """Placing by the shift index gives exactly U op U^dagger, each
        party by its own index."""
        rng = np.random.default_rng(5)
        for levels_a, levels_b, iota in ((4, 5, 2), (6, 6, 3), (9, 8, 4)):
            dims = (levels_a * iota, levels_b * iota)
            op_a, op_b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims)
            tree = _branch(ALICE, [(op_a, _branch(BOB, [(op_b, Identify(0))]))])
            for i in range(1, iota + 1):
                placed = _place(
                    tree, _shift_index(levels_a, iota, i), _shift_index(levels_b, iota, i), dims
                )
                (got_a, bob_layer), = placed.outcomes
                (got_b, leaf), = bob_layer.outcomes
                u_a = np.kron(np.eye(levels_a), _shift_unitary(iota, i))
                u_b = np.kron(np.eye(levels_b), _shift_unitary(iota, i))
                assert np.array_equal(got_a.operator, u_a @ op_a @ u_a.conj().T)
                assert np.array_equal(got_b.operator, u_b @ op_b @ u_b.conj().T)
                assert leaf == Identify(0)

    def test_embedding_pads_the_first_outcome_with_the_identity_off_the_ring(self):
        """A partial index embeds: V op V^dagger on the ring's rows and
        levels, and the first outcome also takes I - V V^dagger."""
        m, iota = 6, 3
        index = _cells(range(1, m - 1), range(iota - 1), iota)
        v = np.eye(m * iota)[:, index]
        inner = [_root_outcome(m - 2, i) for i in (1, 2)]
        placed = _place(_branch(ALICE, [(q, Identify(i)) for i, q in enumerate(inner)]),
                        index, index, (m * iota, m * iota))
        ops = [proj.operator for proj, _ in placed.outcomes]
        assert np.array_equal(ops[0], v @ inner[0] @ v.T + np.eye(m * iota) - v @ v.T)
        assert np.array_equal(ops[1], v @ inner[1] @ v.T)
        assert np.array_equal(sum(ops), np.eye(m * iota))

    @pytest.mark.parametrize("m", [6, 8, 10, 12])
    def test_inner_first_root_outcomes_contain_every_outer_root_outcome(self, m):
        """Every inner ring's first root outcome, placed in the full
        register and shifted with the outer outcome i, contains P_i: the
        inner root layer the tree omits would answer 1 with certainty."""
        iota = m // 2
        for ring in range(1, iota - 1):
            inner_m = m - 2 * ring
            inner_first = build_theorem3_protocol(inner_m, inner_m).outcomes[0][0]
            node = Branch(ALICE, ((inner_first, Identify(0)),))
            for outer in range(ring - 1, -1, -1):
                size, levels = m - 2 * outer, iota - outer
                index = _cells(range(1, size - 1), range(levels - 1), levels)
                node = _place(node, index, index, (size * levels, size * levels))
            for i in range(1, iota + 1):
                shift = _shift_index(m, iota, i)
                q = _place(node, shift, shift, (m * iota, m * iota)).outcomes[0][0].operator
                p_i = _root_outcome(m, i)
                assert np.array_equal(q @ p_i, p_i), (ring, i)

    def test_resource_states_are_invariant_under_matched_shifts(self):
        m, n = 6, 6
        _, lefts, rights = _resource_stacks(m, n)
        iota = m // 2
        u = _shift_unitary(iota, 2)
        ua = np.kron(np.eye(m), u)
        ub = np.kron(np.eye(n), u)
        a1 = _root_outcome(m, 1)
        a2 = _root_outcome(m, 2)
        for x in _cuts(lefts, rights):
            assert np.allclose(ua @ x @ ub.T, x)
            assert np.allclose(a2 @ x, ua @ (a1 @ x) @ ub.T)


class TestProtocols:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_four_row_base_case_discriminates_perfectly(self, n):
        _, lefts, rights = _resource_stacks(4, n)
        report = verify_protocol(build_theorem3_protocol(4, n), lefts, rights)
        assert report.ok, (report.branch_violations, report.leaf_violations)
        assert report.min_success_probability == pytest.approx(1.0, abs=1e-9)
        assert report.max_wrong_probability <= 1e-9

    @pytest.mark.parametrize("m,n", [(4, 4), (4, 7), (6, 6), (6, 7), (8, 8)])
    def test_even_rows_discriminate_perfectly(self, m, n):
        _, lefts, rights = _resource_stacks(m, n)
        report = verify_protocol(build_theorem3_protocol(m, n), lefts, rights)
        assert report.ok, (report.branch_violations, report.leaf_violations)
        assert report.min_success_probability == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m,n", [(8, 10), (10, 10), (12, 12)])
    def test_success_probabilities_are_one_to_rounding(self, m, n):
        """Every Fourier row comes from one DFT table, so no state's
        probability drifts by the rounding of repeated complex powers."""
        report = verify_protocol(build_theorem3_protocol(m, n), *_resource_stacks(m, n)[1:])
        assert np.max(np.abs(np.array(report.probabilities) - 1.0)) <= 3e-15
        assert report.max_wrong_probability == 0.0

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_the_tree_grows_quadratically_in_the_rings(self, m):
        """Recursing on the ring peel gives 5k(k-1) + 1 branches for
        m = 2k, whatever n: the inner rings carry no root layer."""
        k = m // 2
        for n in (m, m + 1, m + 3):
            assert _count_branches(build_theorem3_protocol(m, n)) == 5 * k * (k - 1) + 1

    @pytest.mark.parametrize("m,n", [(8, 8), (10, 10)])
    def test_every_branch_is_audited_or_proved_a_placement(self, m, n, monkeypatch):
        """Each branch is audited exactly once, or lies in a root outcome
        that inherits the audited outcome 0: a permutation view of its
        subtree reached by the permuted states, and conjugating by a
        permutation keeps Hermiticity, idempotency, completeness and
        pairwise orthogonality exactly."""
        protocol = build_theorem3_protocol(m, n)
        report, audited, inherited = _audited(monkeypatch, protocol,
                                              *_resource_stacks(m, n)[1:])
        assert report.ok
        assert inherited == [f"root.{k}" for k in range(1, m // 2)]
        _assert_audited_once_or_proved(protocol, audited, inherited)

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_the_proved_root_views_change_no_report(self, m):
        """Inheriting the root's placed views instead of walking them gives
        the report of the same tree with its root views rendered eagerly."""
        for n in (m, m + 3):
            protocol = build_theorem3_protocol(m, n)
            stacks = _resource_stacks(m, n)[1:]
            _assert_same_report(verify_protocol(protocol, *stacks),
                                verify_protocol(_root_views_rendered(protocol), *stacks))

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_views_render_the_eager_placements_bitwise(self, m):
        """Every operator the built tree renders, in root outcomes 2..m/2
        and every ring embedding, is bit for bit the one the eager
        reference placement copies, with the same node types, parties and
        leaves."""
        for n in (m, m + 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tileupb.locc, "_place", eager_place)
                eager = build_theorem3_protocol(m, n)
            _assert_same_tree(build_theorem3_protocol(m, n), eager)

    def test_placing_a_placed_branch_composes_the_index_maps(self):
        sub = build_theorem3_protocol(8, 8).outcomes[0][1]
        view = _subtree(sub, EMBEDDED_RING_8X8).outcomes
        shift = _shift_index(8, 4, 2)
        placed = _place(Branch(BOB, view), shift, shift, (32, 32)).outcomes
        assert placed.source is view.source
        assert np.array_equal(placed.alice_index, shift[view.alice_index])
        assert np.array_equal(placed.bob_index, shift[view.bob_index])

    def test_a_view_reads_like_the_tuple_it_renders(self):
        view = build_theorem3_protocol(6, 6).outcomes[1][1].outcomes
        rendered = tuple(view)
        assert len(view) == len(rendered) == 7
        for k in (0, 3, -1, -7):
            assert np.array_equal(view[k][0].operator, rendered[k][0].operator)
        with pytest.raises(IndexError):
            view[7]
        for part in (slice(1, None), slice(None, -1), slice(None, None, -2), slice(9, 12)):
            sliced = view[part]  # a slice is the tuple of the outcomes it names
            assert type(sliced) is tuple and len(sliced) == len(rendered[part])
            for (op, child), (ref, ref_child) in zip(sliced, rendered[part]):
                assert np.array_equal(op.operator, ref.operator)
                _assert_same_tree(child, ref_child)

    @pytest.mark.parametrize("m", range(6, 18, 2))
    def test_every_placed_ring_receives_states_exactly_inside_its_image(self, m):
        """Every completion in the tree is exact (0/1 diagonals, and the
        identity a placed first outcome takes off its image), so each state
        reaching a view with a partial index, a ring or a Fourier layer,
        has a cut matrix that vanishes exactly off the view's image."""
        for n in (m, m + 3):
            residues = placed_off_image_residues(build_theorem3_protocol(m, n),
                                                 *_resource_stacks(m, n)[1:])
            assert {path: r for path, (_, r) in residues.items() if r != 0.0} == {}
            # all 5(k-1) branches below root outcome 1 but the outer ring's three tuple layers
            assert len(residues) == 5 * (m // 2 - 1) - 3
            assert all(count for count, _ in residues.values())

    def test_the_built_tree_stores_each_subtree_once(self):
        """The root's shifted subtrees and the ring embeddings are views,
        and each operator is its diagonal and block: the 16x16 tree holds
        about 0.4 MB, where its full rendering holds 357 MB."""
        tracemalloc.start()
        try:
            protocol = build_theorem3_protocol(16, 16)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(protocol.outcomes) == 8
        assert held < 2e6

    def test_the_walk_copies_no_state_it_does_not_prune(self):
        """An outcome that keeps every arriving state passes views of them
        on: the 12x12 walk peaks near 15.5 MB, and at 22.4 MB when each
        outcome copied its kept states."""
        protocol = build_theorem3_protocol(12, 12)
        _, lefts, rights = _resource_stacks(12, 12)
        tracemalloc.start()
        try:
            report = verify_protocol(protocol, lefts, rights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 19e6

    @pytest.mark.parametrize("m,n", [(24, 26), (26, 26), (16, 64), (64, 64)])
    def test_oversized_trees_are_refused_before_they_are_built(self, m, n):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"^the protocol for m={m}, n={n} covers {m * n} "
                                             f"cells, over the 620-cell bound$"):
            build_theorem3_protocol(m, n)
        assert time.perf_counter() - t0 < 0.5

    def test_every_grid_the_former_rendering_cap_admitted_is_admitted(self):
        """Each even m mapped to the largest n that the 2 GiB cap on a full
        rendering of the tree admitted; 10 x 62 fills the bound."""
        frontier = {4: 64, 6: 64, 8: 64, 10: 62, 12: 47, 14: 38, 16: 31, 18: 26, 20: 22}
        assert max(m * n for m, n in frontier.items()) == MAX_CELLS

    def test_a_grid_the_former_rendering_cap_refused_builds(self):
        """22 x 22, whose full rendering would hold 2.90 GiB, builds."""
        assert len(build_theorem3_protocol(22, 22).outcomes) == 11

    def test_the_largest_admitted_square_is_24x24(self):
        assert 24 * 24 <= MAX_CELLS < 26 * 26

    def test_odd_row_counts_are_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_theorem3_protocol(5, 5)
        with pytest.raises(ValueError):
            build_theorem3_protocol(4, 3)

    @pytest.mark.parametrize("m,n", [(6, 4), (4, 65), (2, 5)])
    def test_sizes_are_prop2s_to_refuse(self, m, n):
        with pytest.raises(ValueError, match=f"^prop2 requires 3 <= m <= n <= 64, "
                                             f"got m={m}, n={n}$"):
            build_theorem3_protocol(m, n)

    def test_odd_m_is_refused_before_prop2_reads_the_size(self):
        with pytest.raises(ValueError, match="^only even m is supported, got m=3$"):
            build_theorem3_protocol(3, 5)


def _audited(monkeypatch, protocol, lefts, rights):
    """The report of ``verify_protocol``, the path of each branch it
    passed to ``_check_branch`` in call order, and the path of each
    outcome that inherited its branch's outcome 0: a candidate placement
    (``_placements``, sought right after the branch's audit) under which
    nothing was audited."""
    audited, candidates = [], []
    check, seek = tileupb.locc._check_branch, tileupb.locc._placements

    def record(node, dims, path, problems):
        audited.append(path)
        return check(node, dims, path, problems)

    def record_candidates(*args):
        found = seek(*args)
        candidates.extend(f"{audited[-1]}.{k}" for k in sorted(found))
        return found

    monkeypatch.setattr(tileupb.locc, "_check_branch", record)
    monkeypatch.setattr(tileupb.locc, "_placements", record_candidates)
    report = verify_protocol(protocol, lefts, rights)
    return report, audited, [c for c in candidates
                             if not any(p == c or p.startswith(c + ".") for p in audited)]


def _assert_audited_once_or_proved(protocol, audited, inherited):
    """Each branch of the tree is audited exactly once or lies in an
    outcome that inherited its branch's outcome 0, never both."""
    paths = _branch_paths(protocol)
    placed = [p for p in paths if any(p == q or p.startswith(q + ".") for q in inherited)]
    assert len(set(audited)) == len(audited)
    assert not set(audited) & set(placed)
    assert sorted(audited + placed) == sorted(paths)
    assert len(paths) == _count_branches(protocol)


def _root_views_rendered(protocol):
    """The tree with each root outcome's subtree rendered to a tuple, so
    no root outcome is a placement candidate."""
    return Branch(protocol.party, tuple((proj, Branch(child.party, tuple(child.outcomes)))
                                        for proj, child in protocol.outcomes))


def _assert_same_report(got, want):
    """Equal violations, and probabilities equal but for the last digits
    that an inherited outcome's weights may differ from its walk by."""
    assert got.branch_violations == want.branch_violations
    assert got.leaf_violations == want.leaf_violations
    assert np.allclose(got.probabilities, want.probabilities, rtol=0, atol=1e-14)
    assert got.max_wrong_probability == pytest.approx(want.max_wrong_probability, abs=1e-14)


def _branch_paths(node, path="root"):
    """Every branch of a tree by its walk path."""
    if not isinstance(node, Branch):
        return {}
    found = {path: node}
    for k, (_, child) in enumerate(node.outcomes):
        found.update(_branch_paths(child, f"{path}.{k}"))
    return found


def _assert_same_tree(got, want, path="root"):
    """Equal node types, parties, leaves and outcome counts, and every
    operator equal bit for bit."""
    assert type(got) is type(want), path
    if not isinstance(want, Branch):
        assert got == want, path
        return
    assert got.party == want.party and len(got.outcomes) == len(want.outcomes), path
    for k, ((op, child), (ref, ref_child)) in enumerate(zip(got.outcomes, want.outcomes)):
        assert op.operator.dtype == ref.operator.dtype, path
        assert op.operator.shape == ref.operator.shape, path
        assert op.operator.tobytes() == ref.operator.tobytes(), f"{path}.{k}"
        _assert_same_tree(child, ref_child, f"{path}.{k}")


def _count_branches(node):
    if not isinstance(node, Branch):
        return 0
    return 1 + sum(_count_branches(child) for _, child in node.outcomes)


def _subtree(node, path):
    for k in path:
        node = node.outcomes[k][1]
    return node


def _replace_at(node, path, fn):
    """The tree with the node reached by the outcome indices in ``path``
    replaced by fn(that node)."""
    if not path:
        return fn(node)
    head, rest = path[0], path[1:]
    return Branch(
        node.party,
        tuple(
            (proj, _replace_at(child, rest, fn) if k == head else child)
            for k, (proj, child) in enumerate(node.outcomes)
        ),
    )


def _swap_labels(node, first, second):
    if isinstance(node, Branch):
        return Branch(
            node.party, tuple((p, _swap_labels(c, first, second)) for p, c in node.outcomes)
        )
    if isinstance(node, Identify):
        mapping = {first: second, second: first}
        return Identify(mapping.get(node.candidate, node.candidate))
    return node


# In the 6x6 tree, root.0.6 is Bob's rest outcome after the bottom row;
# its Alice corner layer leads (outcome 1) to Bob's column layer, whose
# outcome 0 is the nested DFT layer for tile 4 and whose outcome 1 is
# the 4x4 ring's subtree placed on the interior, starting with its Bob
# layer.
NESTED_BOB_6X6 = (0, 6, 1, 0)
EMBEDDED_4X4_IN_6X6 = (0, 6, 1, 1)
# the same place in the 8x8 ring-0 subtree (below root outcome 0): the
# 6x6 ring's subtree, itself holding the placed 4x4 ring's
EMBEDDED_RING_8X8 = (8, 1, 1)


def _swapped_identify_labels():
    upb, *stacks = _resource_stacks(4, 4)
    labels = upb_state_labels(upb.origin)
    # cross the two identified bottom-row labels
    first, second = labels.index((3, 0, 1)), labels.index((3, 0, 2))
    return _swap_labels(build_theorem3_protocol(4, 4), first, second), *stacks


def _incomplete_root():
    protocol = build_theorem3_protocol(4, 4)
    return Branch(protocol.party, protocol.outcomes[:-1]), *_resource_stacks(4, 4)[1:]


def _wrong_resource_dimension():
    upb = build_upb(prop2(6, 6))
    return build_theorem3_protocol(6, 6), *attach_resource(upb.a, upb.b, 2)


def _non_projector_outcomes():
    bad = Branch(
        ALICE,
        (
            (LocalProjector(np.full(8, 0.5)), Identify(0)),
            (LocalProjector(np.full(8, 0.5)), Identify(1)),
        ),
    )
    return bad, *_resource_stacks(4, 4)[1:]


def _overlapping_projector_outcomes():
    """Three Hermitian idempotent outcomes on Alice's 8-dim register:
    diag(0, 0, 1, ..., 1), |0><0| and |+><+| on levels {0, 1}.  Only the
    last two overlap."""
    plus = np.zeros(8)
    plus[:2] = 1.0 / np.sqrt(2.0)
    ops = [np.diag([0.0, 0.0] + [1.0] * 6), np.diag([1.0] + [0.0] * 7), np.outer(plus, plus)]
    return (_branch(ALICE, [(op, Identify(k)) for k, op in enumerate(ops)]),
            *_resource_stacks(4, 4)[1:])


def _entangled_finish_leaf():
    # a state that stays entangled across the cut must be flagged
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[0, 0, 0, 0] = 1.0
    amps[1, 1, 1, 1] = 1.0
    corner = np.zeros((2, 2, 2, 2), dtype=complex)
    corner[0, 1, 0, 0] = 1.0
    return OnePartyFinish(ALICE, (0, 1)), *_as_cut_stacks(np.array([_cut(amps), _cut(corner)]))


def _two_state_finish(a, b):
    """Alice finishing alone between the product states with factor
    rows a and b, with a trivial resource."""
    return OnePartyFinish(ALICE, (0, 1)), *attach_resource(a, b, 1)


def _finish_leaf_overlapping_on_the_measuring_party():
    return _two_state_finish([[1, 0], [1, 1]], [[1, 0], [1, 0]])


def _finish_leaf_differing_on_the_idle_party():
    return _two_state_finish(np.eye(2), np.eye(2))


def _parallel_on_alice():
    """|0>|0> and |0>|1> with a trivial resource: Bob alone tells them apart."""
    return attach_resource([[1, 0], [1, 0]], np.eye(2), 1)


def _nested_bob_outcome_dropped():
    protocol = _replace_at(
        build_theorem3_protocol(6, 6),
        NESTED_BOB_6X6,
        lambda node: Branch(node.party, node.outcomes[:-1]),
    )
    return protocol, *_resource_stacks(6, 6)[1:]


def _embedded_identify_labels_swapped():
    # cross the first two labels of the inner ring's Bob layer
    swapped = _replace_at(build_theorem3_protocol(6, 6), EMBEDDED_4X4_IN_6X6,
                          _first_two_labels_swapped)
    return swapped, *_resource_stacks(6, 6)[1:]


def _unreachable_branch():
    """The 4x4 tree with a zero root outcome added: no state reaches it,
    and it leads to a Bob layer whose only outcome is 0.3 I."""
    protocol = build_theorem3_protocol(4, 4)
    bad = _branch(BOB, [(0.3 * np.eye(8), Identify(0))])
    return (Branch(protocol.party, protocol.outcomes + ((LocalProjector(np.zeros(8)), bad),)),
            *_resource_stacks(4, 4)[1:])


SABOTAGE = {
    "swapped_identify_labels": _swapped_identify_labels,
    "incomplete_root": _incomplete_root,
    "wrong_resource_dimension": _wrong_resource_dimension,
    "non_projector_outcomes": _non_projector_outcomes,
    "overlapping_projector_outcomes": _overlapping_projector_outcomes,
    "entangled_finish_leaf": _entangled_finish_leaf,
    "finish_leaf_overlapping_on_the_measuring_party":
        _finish_leaf_overlapping_on_the_measuring_party,
    "finish_leaf_differing_on_the_idle_party": _finish_leaf_differing_on_the_idle_party,
    "nested_bob_outcome_dropped": _nested_bob_outcome_dropped,
    "embedded_identify_labels_swapped": _embedded_identify_labels_swapped,
    "unreachable_branch": _unreachable_branch,
}


def _prop2_case(m, n):
    return lambda: (build_theorem3_protocol(m, n), *_resource_stacks(m, n)[1:])


def _mixed_factor_ranks():
    # every state rebuilt as (M, I): its factors have rank n*d, not d
    protocol, lefts, rights = _prop2_case(4, 5)()
    return protocol, *_as_cut_stacks(_cuts(lefts, rights))


def _with_placed_copy(edit):
    """The 6x6 tree with root outcome 1's subtree (a placed view of
    outcome 0's) replaced by edit(that subtree)."""
    protocol, *stacks = _prop2_case(6, 6)()
    outcomes = list(protocol.outcomes)
    outcomes[1] = (outcomes[1][0], edit(outcomes[1][1]))
    return dataclasses.replace(protocol, outcomes=tuple(outcomes)), *stacks


def _largest_entry_of_first_operator(edit):
    """An edit that applies edit(z) to the largest entry z of a branch's
    first outcome operator."""
    def apply(node):
        (proj, child), *rest = node.outcomes
        op = proj.operator.copy()
        entry = np.unravel_index(np.argmax(np.abs(op)), op.shape)
        op[entry] = edit(op[entry])
        return Branch(node.party, ((projector(op), child), *rest))
    return apply


def _placed_copy_entry_moved_one_ulp():
    return _with_placed_copy(_largest_entry_of_first_operator(
        lambda z: complex(np.nextafter(z.real, np.inf), z.imag)))


def _placed_copy_entry_set_to_nan():
    return _with_placed_copy(_largest_entry_of_first_operator(lambda z: np.nan))


def _first_two_labels_swapped(node):
    """A Bob layer with the labels of its first two Identify leaves crossed."""
    return _swap_labels(node, *(node.outcomes[k][1].candidate for k in (0, 1)))


def _placed_copy_labels_swapped():
    return _with_placed_copy(_first_two_labels_swapped)


def _sabotaged_source_placed():
    """Labels swapped in the 6x6 ring-0 subtree, which is then placed by
    the root's shifts, so every view is an exact image of the sabotage."""
    protocol, *stacks = _prop2_case(6, 6)()
    sub = _first_two_labels_swapped(protocol.outcomes[0][1])
    outcomes = [(proj, _place(sub, _shift_index(6, 3, i), _shift_index(6, 3, i), (18, 18))
                 if i > 1 else sub) for i, (proj, _) in enumerate(protocol.outcomes, 1)]
    return dataclasses.replace(protocol, outcomes=tuple(outcomes)), *stacks


def _resource_level_weighted():
    """Resource level 0 weighted 2 in every state: no shift fixes it."""
    protocol, lefts, rights = _prop2_case(6, 6)()
    lefts = lefts.copy()
    lefts[:, :, 0] *= 2
    return protocol, lefts, rights


def _root_view_of(source=lambda sub: sub, alice_edit=lambda index: index, dims=(18, 18),
                  party=BOB):
    """The 6x6 tree with root outcome 1's subtree a view of
    source(outcome 0's subtree) on dims, placed by outcome 1's index pair
    with alice_edit applied to a copy of its Alice index, and wrapped in
    a branch of ``party``.  The defaults rebuild the tree as built."""
    protocol, *stacks = _prop2_case(6, 6)()
    (first, sub), (proj, child), *rest = protocol.outcomes
    view = child.outcomes
    placed = _place(source(sub), alice_edit(view.alice_index.copy()), view.bob_index, dims)
    outcomes = ((first, sub), (proj, Branch(party, placed.outcomes)), *rest)
    return Branch(protocol.party, outcomes), *stacks


def _repeat_the_first_entry(index):
    index[1] = index[0]
    return index


def _placed_index_repeats_an_entry():
    return _root_view_of(alice_edit=_repeat_the_first_entry)


def _view_of_a_distinct_copy():
    """A view of an equal but distinct copy of outcome 0's subtree: a
    candidate is found by provenance, not equality."""
    return _root_view_of(source=lambda sub: Branch(sub.party, tuple(sub.outcomes)))


def _view_on_other_dims():
    return _root_view_of(dims=(18, 19))


def _view_of_another_party():
    return _root_view_of(party=ALICE)


def _root_operator_cell_dropped():
    """The 6x6 tree with the first cell of root outcome 1's diagonal, a
    cell states reach, set to 0: its subtree is still the built view of
    outcome 0's, but its states no longer arrive as outcome 0's do."""
    protocol, *stacks = _prop2_case(6, 6)()
    (first, sub), (proj, child), *rest = protocol.outcomes
    diagonal = proj.diagonal.copy()
    diagonal[np.flatnonzero(diagonal)[0]] = 0
    return Branch(protocol.party, ((first, sub), (LocalProjector(diagonal), child), *rest)), *stacks


# trees whose root outcome 1 is not a placement candidate (not a view of
# outcome 0's subtree), or one whose states do not arrive as outcome 0's
# (no shift fixes them, or its own operator moves them): it must be walked
UNPROVABLE = {
    "placed_copy_entry_moved_one_ulp": _placed_copy_entry_moved_one_ulp,
    "placed_copy_entry_set_to_nan": _placed_copy_entry_set_to_nan,
    "placed_copy_labels_swapped": _placed_copy_labels_swapped,
    "resource_level_weighted": _resource_level_weighted,
    "placed_index_repeats_an_entry": _placed_index_repeats_an_entry,
    "view_of_a_distinct_copy": _view_of_a_distinct_copy,
    "view_on_other_dims": _view_on_other_dims,
    "view_of_another_party": _view_of_another_party,
    "root_operator_cell_dropped": _root_operator_cell_dropped,
}

DIFFERENTIAL = {
    **{f"prop2-{m}x{n}": _prop2_case(m, n) for m, n in [(4, 4), (4, 7), (6, 6), (6, 9), (8, 8)]},
    "mixed_factor_ranks": _mixed_factor_ranks,
    "sabotaged_source_placed": _sabotaged_source_placed,
    **UNPROVABLE,
    **SABOTAGE,
}


# the built trees and every differential case, walked with no dense operator
UNRENDERED = {**{f"prop2-{m}x{m}": _prop2_case(m, m) for m in (4, 6, 8, 10, 12)},
              **DIFFERENTIAL}


def _refuse_to_render(proj):
    raise RuntimeError("a dense operator was rendered")


class TestVerifierCatchesSabotage:
    def test_swapped_identify_labels_are_flagged(self):
        report = verify_protocol(*_swapped_identify_labels())
        assert not report.ok
        assert report.max_wrong_probability > 1e-3
        assert report.leaf_violations

    def test_incomplete_branches_are_flagged(self):
        report = verify_protocol(*_incomplete_root())
        assert not report.ok
        assert any("identity" in v for v in report.branch_violations)

    def test_wrong_resource_dimension_is_rejected(self):
        report = verify_protocol(*_wrong_resource_dimension())
        assert not report.ok

    def test_non_projector_outcomes_are_flagged(self):
        report = verify_protocol(*_non_projector_outcomes())
        assert any("idempotent" in v for v in report.branch_violations)

    def test_overlapping_projector_outcomes_are_flagged(self):
        report = verify_protocol(*_overlapping_projector_outcomes())
        assert not report.ok
        assert not any("Hermitian" in v or "idempotent" in v for v in report.branch_violations)
        orthogonality = [v for v in report.branch_violations if "orthogonal" in v]
        assert orthogonality == ["root: outcomes 1 and 2 are not orthogonal"]

    def test_finish_leaf_geometry_is_checked(self):
        report = verify_protocol(*_entangled_finish_leaf())
        assert any("not product" in v for v in report.leaf_violations)

    def test_finish_leaf_states_must_be_orthogonal_on_the_measuring_party(self):
        report = verify_protocol(*_finish_leaf_overlapping_on_the_measuring_party())
        assert not report.ok
        assert report.leaf_violations == (
            "root: states 0 and 1 are not orthogonal on the measuring party",)

    def test_finish_leaf_states_must_be_parallel_on_the_idle_party(self):
        report = verify_protocol(*_finish_leaf_differing_on_the_idle_party())
        assert not report.ok
        assert report.leaf_violations == ("root: states 0 and 1 differ on the idle party",)

    def test_a_branch_of_an_unknown_party_is_named_not_measured_as_bobs(self):
        outcomes = ((LocalProjector([1, 0]), Identify(0)), (LocalProjector([0, 1]), Identify(1)))
        assert verify_protocol(Branch(BOB, outcomes), *_parallel_on_alice()).ok
        report = verify_protocol(Branch("carol", outcomes), *_parallel_on_alice())
        assert not report.ok
        assert report.branch_violations == ("root: unknown party 'carol'",)
        assert report.probabilities == (0.0, 0.0)

    def test_a_finish_leaf_of_an_unknown_party_is_named_not_judged(self):
        assert verify_protocol(OnePartyFinish(BOB, (0, 1)), *_parallel_on_alice()).ok
        report = verify_protocol(OnePartyFinish("carol", (0, 1)), *_parallel_on_alice())
        assert not report.ok
        assert report.leaf_violations == ("root: unknown party 'carol'",)
        assert not report.branch_violations

    def test_dropped_outcome_of_a_nested_bob_layer_is_flagged(self):
        protocol, *stacks = _nested_bob_outcome_dropped()
        assert _subtree(protocol, NESTED_BOB_6X6).party == BOB
        report = verify_protocol(protocol, *stacks)
        assert not report.ok
        path = "root." + ".".join(map(str, NESTED_BOB_6X6))
        assert f"{path}: outcomes do not sum to the identity" in report.branch_violations
        assert any(v.startswith(path) and "loses norm" in v for v in report.branch_violations)
        assert report.min_success_probability < 1.0 - 1e-3

    def test_swapped_labels_inside_the_embedded_protocol_are_flagged(self):
        protocol, *stacks = _embedded_identify_labels_swapped()
        report = verify_protocol(protocol, *stacks)
        assert not report.ok
        assert not report.branch_violations
        assert report.max_wrong_probability > 1e-3
        inner = "root." + ".".join(map(str, EMBEDDED_4X4_IN_6X6)) + "."
        assert report.leaf_violations
        assert all(v.startswith(inner) for v in report.leaf_violations)

    def test_a_branch_no_state_reaches_is_still_audited(self):
        report = verify_protocol(*_unreachable_branch())
        assert not report.ok
        assert "root.2: operator is not idempotent" in report.branch_violations
        assert "root.2: outcomes do not sum to the identity" in report.branch_violations
        assert not report.leaf_violations
        assert report.min_success_probability == pytest.approx(1.0, abs=1e-9)

    def test_every_branch_is_audited_once_whatever_reaches_it(self, monkeypatch):
        """The added root outcome no state reaches is audited; root
        outcome 1 is still a view of outcome 0's subtree, and inherits."""
        protocol, *stacks = _unreachable_branch()
        _, audited, inherited = _audited(monkeypatch, protocol, *stacks)
        assert "root.2" in audited and inherited == ["root.1"]
        assert _count_branches(protocol) == 12
        _assert_audited_once_or_proved(protocol, audited, inherited)

    @pytest.mark.parametrize("case", sorted(UNPROVABLE))
    def test_an_unprovable_placement_is_walked(self, case, monkeypatch):
        protocol, *stacks = UNPROVABLE[case]()
        _, audited, inherited = _audited(monkeypatch, protocol, *stacks)
        assert "root.1" in audited
        assert "root.1" not in inherited

    def test_an_edited_root_operator_is_walked_as_in_the_eager_tree(self, monkeypatch):
        """Root outcome 1's edited operator drops a cell its states reach,
        so its subtree is walked on what arrives, while outcome 2 still
        inherits; the report is that of the tree with every root view
        rendered and walked."""
        protocol, *stacks = _root_operator_cell_dropped()
        report, audited, inherited = _audited(monkeypatch, protocol, *stacks)
        assert "root.1" in audited and inherited == ["root.2"]
        assert "root: outcomes do not sum to the identity" in report.branch_violations
        _assert_same_report(report, verify_protocol(_root_views_rendered(protocol), *stacks))

    def test_a_rebuilt_root_view_is_proved(self, monkeypatch):
        """The control for the UNPROVABLE views: with no edit, the rebuilt
        view inherits and the report is the built tree's."""
        protocol, *stacks = _root_view_of()
        report, _, inherited = _audited(monkeypatch, protocol, *stacks)
        assert inherited == ["root.1", "root.2"]
        built = verify_protocol(build_theorem3_protocol(6, 6), *stacks)
        assert dataclasses.astuple(report) == dataclasses.astuple(built)

    def test_a_placed_sabotage_is_named_under_every_root_outcome(self, monkeypatch):
        report, _, inherited = _audited(monkeypatch, *_sabotaged_source_placed())
        assert inherited == ["root.1", "root.2"]
        assert report.max_wrong_probability > 1e-3
        assert not report.branch_violations
        for k in range(3):
            ours = [v[len("root.0"):] for v in report.leaf_violations if v.startswith(f"root.{k}.")]
            assert ours == [v[len("root.0"):] for v in report.leaf_violations
                            if v.startswith("root.0.")]
            assert ours

    def test_a_nan_operator_is_named_at_its_branch(self):
        protocol, *stacks = _prop2_case(4, 4)()
        (first, child), *rest = protocol.outcomes
        op = first.operator.copy()
        op[0, 0] = np.nan
        report = verify_protocol(
            Branch(protocol.party, ((projector(op), child), *rest)), *stacks)
        assert not report.ok
        assert "root: operator is not Hermitian" in report.branch_violations
        assert "root: outcomes do not sum to the identity" in report.branch_violations
        assert any(v.startswith("root: state") and "loses norm" in v
                   for v in report.branch_violations)


class TestFactoredWalk:
    def test_resource_states_carry_rank_d_factors(self):
        upb, lefts, rights = _resource_stacks(6, 6)
        assert lefts.shape == rights.shape == (len(upb.a), 6 * 3, 3)
        for a, b, left, right in zip(upb.a, upb.b, lefts, rights):
            assert np.array_equal(left, np.kron(a[:, None], np.eye(3)))
            assert np.array_equal(right, np.kron(b[:, None], np.eye(3)))

    def test_zero_states_are_refused(self):
        with pytest.raises(ValueError, match="state 0 is zero"):
            verify_protocol(Identify(0), np.zeros((1, 2, 1)), np.zeros((1, 2, 1)))
        protocol, lefts, rights = _prop2_case(4, 4)()
        lefts = lefts.copy()
        lefts[0] = 0.0
        with pytest.raises(ValueError, match="state 0 is zero"):
            verify_protocol(protocol, lefts, rights)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_a_rescaled_state_is_discriminated_at_any_scale(self, scale):
        """Only the direction of a state enters its probabilities, so a
        huge or tiny but nonzero state 0 is still discriminated."""
        protocol, lefts, rights = _prop2_case(4, 4)()
        lefts = lefts.copy()
        lefts[0] *= scale
        report = verify_protocol(protocol, lefts, rights)
        assert report.ok, report.branch_violations + report.leaf_violations
        assert report.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", [0, 1], ids=["lefts", "rights"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_states_are_refused(self, side, value):
        stacks = [np.ones((2, 2, 1)), np.ones((2, 2, 1))]
        stacks[side][1, 0, 0] = value
        with pytest.raises(ValueError, match="state 1 is not finite"):
            verify_protocol(Identify(0), *stacks)

    def test_the_verdict_is_read_off_the_probabilities(self):
        report = DiscriminationReport((1.0, 0.5), 0.0, (), ())
        assert report.min_success_probability == 0.5
        assert not report.ok

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
    def test_agrees_with_the_dense_walk(self, case):
        protocol, *stacks = DIFFERENTIAL[case]()
        fast = verify_protocol(protocol, *stacks)
        dense = dense_verify_protocol(protocol, *stacks)
        assert fast.ok == dense.ok
        assert fast.branch_violations == dense.branch_violations
        assert fast.leaf_violations == dense.leaf_violations
        assert np.allclose(fast.probabilities, dense.probabilities, rtol=0, atol=1e-12)
        assert fast.max_wrong_probability == pytest.approx(dense.max_wrong_probability, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(UNRENDERED))
    def test_renders_no_dense_operator(self, case):
        """With ``LocalProjector.operator`` raising around the walk alone
        (case builders may read it), every report is the unpatched one."""
        protocol, *stacks = UNRENDERED[case]()
        want = verify_protocol(protocol, *stacks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LocalProjector, "operator", property(_refuse_to_render))
            got = verify_protocol(protocol, *stacks)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)


def _rendered_branches(node):
    """Every branch of a tree, with its outcomes rendered."""
    return [Branch(found.party, tuple(found.outcomes)) for found in _branch_paths(node).values()]


def _both_audits(node, dims):
    """The verdict and messages of the block audit and of the dense one."""
    block, dense = [], []
    return ((_check_branch(node, dims, "b", block), block),
            (dense_check_branch(node, dims, "b", dense), dense))


def _nan_on_the_diagonal(ops, rng):
    cell = rng.integers(len(ops[0]))
    ops[rng.integers(len(ops))][cell, cell] = np.nan


def _off_diagonal_cell(ops, rng):
    """A random outcome k and a random off-diagonal cell (u, v)."""
    u, v = rng.choice(len(ops[0]), size=2, replace=False)
    return rng.integers(len(ops)), u, v


def _nan_off_the_diagonal(ops, rng):
    k, u, v = _off_diagonal_cell(ops, rng)
    ops[k][u, v] = np.nan


def _one_sided_off_diagonal_entry(ops, rng):
    k, u, v = _off_diagonal_cell(ops, rng)
    ops[k][u, v] += 1e-3j


def _two_outcomes_overlapped(ops, rng):
    i, j = rng.choice(len(ops), size=2, replace=False)
    ops[j] = ops[i].copy()


def _wrong_size_operator(ops, rng):
    k = rng.integers(len(ops))
    ops[k] = np.pad(ops[k], (0, 1)) if rng.integers(2) else ops[k][:-1, :-1]


AUDIT_EDITS = {
    "nan_on_the_diagonal": _nan_on_the_diagonal,
    "nan_off_the_diagonal": _nan_off_the_diagonal,
    "one_sided_off_diagonal_entry": _one_sided_off_diagonal_entry,
    "two_outcomes_overlapped": _two_outcomes_overlapped,
    "wrong_size_operator": _wrong_size_operator,
}


class TestBlockAudit:
    """``_check_branch`` audits diagonals and blocks; ``dense_check_branch``
    audits the dense rendering.  Both must give the same verdict and the
    same messages in the same order."""

    @pytest.mark.parametrize("m,n", [(4, 4), (6, 6), (8, 9), (10, 10), (12, 12)])
    def test_agrees_with_the_dense_audit_on_every_built_branch(self, m, n):
        for node in _rendered_branches(build_theorem3_protocol(m, n)):
            assert _both_audits(node, (m * (m // 2), n * (m // 2))) == ((True, []), (True, []))

    @pytest.mark.parametrize("case", sorted(SABOTAGE))
    def test_agrees_with_the_dense_audit_on_every_sabotage_branch(self, case):
        protocol, lefts, rights = SABOTAGE[case]()
        for node in _rendered_branches(protocol):
            block, dense = _both_audits(node, (lefts.shape[1], rights.shape[1]))
            assert block == dense

    @pytest.mark.parametrize("edit", sorted(AUDIT_EDITS))
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_the_dense_audit_on_an_edited_branch(self, edit, seed):
        rng = np.random.default_rng(seed)
        m, n = ((6, 6), (8, 9))[seed % 2]
        branches = _rendered_branches(build_theorem3_protocol(m, n))
        node = branches[rng.integers(len(branches))]
        ops = [proj.operator for proj, _ in node.outcomes]
        AUDIT_EDITS[edit](ops, rng)
        edited = _branch(node.party, [(op, child) for op, (_, child) in zip(ops, node.outcomes)])
        block, dense = _both_audits(edited, (m * (m // 2), n * (m // 2)))
        assert block == dense
        assert dense[1], "the edit must break the branch"
