"""Product states, tile bases, and basis assembly."""

import itertools
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileupb import (
    STOPPER_LABEL,
    UPBSet,
    build_upb,
    certify_upb,
    example1,
    fig2,
    five_tile,
    prop2,
    prop3,
    upb_state_labels,
)

from conftest import (
    brute_inner,
    brute_tile_matrices,
    kron_vector,
    missing_states,
    product_matrix,
    structure_from_grid,
)


def _complexes(size):
    reals = st.floats(-3, 3, allow_nan=False, width=32)
    return st.lists(st.tuples(reals, reals), min_size=size, max_size=size).map(
        lambda ps: np.array([complex(x, y) for x, y in ps])
    )


class TestInnerProduct:
    def test_a_product_state_is_its_pair_of_complex_factor_rows(self):
        """Integer stacks become complex, and state i is the pair of row i
        of each, whose coefficient matrix is their outer product."""
        upb = UPBSet([[1, 2], [0, 1]], [[3, 0, -1], [0, 1, 0]],
                     structure_from_grid([[1, 1, 1], [2, 2, 2]]))
        a, b = upb.states[0]
        assert a.dtype == b.dtype == complex
        assert np.array_equal(product_matrix((a, b)), np.outer([1, 2], [3, 0, -1]))

    @settings(max_examples=40, deadline=None)
    @given(_complexes(2), _complexes(3), _complexes(2), _complexes(3))
    def test_matches_kron_oracle_on_product_states(self, a1, b1, a2, b2):
        """The factor Gram <a1|a2><b1|b2> gives the relative overlap the
        explicit Kronecker product does."""
        s1, s2 = (a1, b1), (a2, b2)
        norms = np.linalg.norm(kron_vector(s1)) * np.linalg.norm(kron_vector(s2))
        origin = structure_from_grid([[1, 1, 1], [1, 1, 1]])
        worst = certify_upb(UPBSet([a1, a2], [b1, b2], origin)).max_offdiagonal
        want = abs(brute_inner(s1, s2)) / norms if norms else 0.0
        assert worst == pytest.approx(want, abs=1e-9)


class TestTileBasis:
    """Each tile's basis is its omitted (0, 0) state (``missing_states``)
    and its kept rows of the stack."""

    def test_matches_cellwise_oracle(self):
        assert_stack_is_the_tile_bases(example1())

    def test_family_is_orthogonal_with_squared_norm_equal_to_size(self):
        ts = five_tile(4, 5)
        upb = build_upb(ts)
        labels = upb_state_labels(ts)
        for tile, miss in zip(ts.tiles, missing_states(ts)):
            basis = [miss] + [s for s, label in zip(upb.states, labels) if label[0] == tile.id]
            size = len(tile.rows) * len(tile.cols)
            gram = np.array([[brute_inner(x, y) for y in basis] for x in basis])
            assert np.allclose(gram, size * np.eye(size), atol=1e-12)

    def test_first_element_is_the_tile_indicator(self):
        """The (0, 0) state of a tile's basis, which build_upb omits, is
        the tile's indicator, as ``missing_states`` has it."""
        ts = example1()
        tile = ts.tiles[3]
        indicator = np.zeros((ts.m, ts.n))
        for r, c in itertools.product(tile.rows, tile.cols):
            indicator[r, c] = 1
        assert np.array_equal(product_matrix(missing_states(ts)[3]), indicator)


class TestBuildCopb:
    def test_is_a_complete_orthogonal_product_family(self, all_3x3_structures):
        """All tile bases together, the kept states and the omitted ones,
        form a complete orthogonal product basis."""
        for grid in all_3x3_structures[::13]:
            ts = structure_from_grid(grid)
            upb = build_upb(ts)
            states = upb.states[:-1] + missing_states(ts)
            assert len(states) == ts.m * ts.n
            flat = np.array([product_matrix(s).reshape(-1) for s in states])
            gram = flat.conj() @ flat.T
            assert np.allclose(gram - np.diag(np.diag(gram)), 0, atol=1e-10), grid
            assert np.linalg.matrix_rank(flat) == ts.m * ts.n


class TestBuildUpb:
    def test_example_structure_yields_eleven_states(self):
        upb = build_upb(example1())
        assert len(upb.states) == 11
        assert upb.origin.tile_count == 6
        labels = upb_state_labels(upb.origin)
        assert labels[-1] == STOPPER_LABEL
        assert labels.count(STOPPER_LABEL) == 1

    def test_labels_skip_each_tiles_first_element(self):
        ts = example1()
        labels = upb_state_labels(ts)
        assert (1, 0, 0) not in labels
        assert labels[0] == (1, 0, 1)
        for tile in ts.tiles:
            per_tile = [l for l in labels if l[0] == tile.id and len(l) == 3]
            assert len(per_tile) == len(tile.rows) * len(tile.cols) - 1

    def test_stopper_is_the_all_ones_matrix(self):
        upb = build_upb(five_tile(3, 4))
        assert np.array_equal(np.outer(upb.a[-1], upb.b[-1]), np.ones((3, 4)))

    def test_stopper_overlap_with_missing_states_equals_tile_size(self):
        ts = prop2(5, 6)
        stopper = build_upb(ts).states[-1]
        for tile, miss in zip(ts.tiles, missing_states(ts)):
            assert brute_inner(stopper, miss) == pytest.approx(len(tile.rows) * len(tile.cols))


# Structures the benchmark builds bases of (upb-verify, locc-distinguish).
BENCHMARK_FAMILIES = {
    "five-tile 24x24": lambda: five_tile(24, 24),
    "five-tile 12x18": lambda: five_tile(12, 18),
    "prop3 14/8": lambda: prop3(14, 8),
    "prop2 8x12": lambda: prop2(8, 12),
    "prop2 6x18": lambda: prop2(6, 18),
    "prop2 10x10": lambda: prop2(10, 10),
    "fig2": fig2,
}


def assert_stack_is_the_tile_bases(ts):
    """Row i of build_upb(ts).a and .b is the tile-basis state
    upb_state_labels(ts)[i] names, as the cell-by-cell oracle
    ``brute_tile_matrices`` builds it, and the last row is the all-ones
    stopper."""
    upb = build_upb(ts)
    bases = {tile.id: brute_tile_matrices(tile, ts.m, ts.n) for tile in ts.tiles}
    want = [
        np.ones((ts.m, ts.n)) if label == STOPPER_LABEL
        else bases[label[0]][label[1] * len(ts.tiles[label[0] - 1].cols) + label[2]]
        for label in upb_state_labels(ts)
    ]
    assert np.allclose(upb.a[:, :, None] * upb.b[:, None, :], want, rtol=0, atol=1e-12)


class TestUPBSetStack:
    def test_fields_are_the_stack_and_its_origin(self):
        assert [f.name for f in fields(UPBSet)] == ["a", "b", "origin"]

    def test_stack_is_the_tile_bases_on_small_structures(self, small_structures):
        for grid in small_structures:
            assert_stack_is_the_tile_bases(structure_from_grid(grid))

    @pytest.mark.parametrize("label", sorted(BENCHMARK_FAMILIES))
    def test_stack_is_the_tile_bases_on_the_benchmark_families(self, label):
        assert_stack_is_the_tile_bases(BENCHMARK_FAMILIES[label]())

    def test_states_are_the_read_only_rows(self):
        upb = build_upb(example1())
        assert len(upb.states) == len(upb.a)
        for i, (a, b) in enumerate(upb.states):
            assert np.array_equal(a, upb.a[i]) and np.array_equal(b, upb.b[i])
        with pytest.raises(FrozenInstanceError):
            upb.states = ()

    @pytest.mark.parametrize("case", ["matrices", "short-b", "wide-a"])
    def test_refuses_stacks_that_do_not_fit_the_origin(self, case):
        """An axis or count mismatch is ``factor_stacks``' refusal; a
        stack of the wrong width is UPBSet's own."""
        upb = build_upb(example1())
        a, b = upb.a, upb.b
        if case == "matrices":
            a = upb.a[:, :, None] * upb.b[:, None, :]
        elif case == "short-b":
            b = b[1:]
        else:
            a = np.hstack([a, a[:, :1]])
        match = {"matrices": r"factor stacks of shapes \(11, 4, 4\) and \(11, 4\) need 2 axes",
                 "short-b": r"factor stacks of shapes \(11, 4\) and \(10, 4\) need 2 axes",
                 "wide-a": "do not fit the 4 x 4 origin"}[case]
        with pytest.raises(ValueError, match=match):
            UPBSet(a, b, upb.origin)

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_refuses_a_non_finite_entry(self, side, value):
        upb = build_upb(example1())
        stacks = {"a": upb.a.copy(), "b": upb.b.copy()}
        stacks[side][3, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            UPBSet(stacks["a"], stacks["b"], upb.origin)
