"""The U-tile decision, and the enumeration oracle it is checked against."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tileupb import (
    example1,
    fig2,
    five_tile,
    is_u_tile,
    prop2,
    prop3,
    build_upb,
)

from conftest import (
    assert_witness_split,
    brute_inner,
    brute_is_u_tile,
    brute_special_rectangles,
    enumerate_special_rectangles,
    enumeration_is_u_tile,
    lemma1_is_extendible,
    random_structure,
    stopper_state,
    structure_from_grid,
)


class TestEnumeration:
    def test_matches_set_arithmetic_oracle_on_all_3x3(self, all_3x3_structures):
        for grid in all_3x3_structures:
            ts = structure_from_grid(grid)
            got = set(enumerate_special_rectangles(ts))
            want = set(brute_special_rectangles(ts))
            assert got == want, grid

    def test_results_are_sorted_by_tile_count_then_ids(self):
        ts = prop3(6, 5)
        rects = enumerate_special_rectangles(ts)
        keys = [(len(ids), ids) for ids, _, _ in rects]
        assert keys == sorted(keys)

    def test_split_column_reference_listing(self):
        rects = enumerate_special_rectangles(fig2())
        assert [ids for ids, _, _ in rects] == [
            (1, 2),
            (3, 5),
            (1, 2, 6),
            (3, 4, 5),
            (3, 4, 5, 6),
            (1, 2, 3, 4, 5),
            (1, 2, 3, 4, 5, 6),
        ]

    def test_single_tile_grid_has_no_special_rectangles(self):
        ts = structure_from_grid([[1, 1], [1, 1]])
        assert enumerate_special_rectangles(ts) == []

    def test_full_grid_union_counts_when_tiles_cooperate(self):
        rects = enumerate_special_rectangles(example1())
        assert [ids for ids, _, _ in rects] == [(1, 2, 3, 4, 5, 6)]


def _assert_valid_witness(ts, verdict):
    """The witness is a valid split (``assert_witness_split``) and its
    extension state is orthogonal to the kept states and the stopper."""
    assert_witness_split(ts, verdict)
    state = verdict.witness.state
    upb = build_upb(ts)
    worst = max(abs(brute_inner(kept, state)) for kept in upb.states)
    assert worst < 1e-12
    assert abs(brute_inner(stopper_state(ts), state)) < 1e-12


class TestUTileDecision:
    def test_agrees_with_definitional_oracle_on_all_3x3(self, small_structures):
        """Every 3x3 partition and a fixed stride of the 3x4 and 4x3 ones,
        against both the definitional and the enumeration oracle."""
        for grid in small_structures:
            ts = structure_from_grid(grid)
            got = is_u_tile(ts).is_u_tile
            assert got == enumeration_is_u_tile(ts), grid
            if ts.m * ts.n <= 9:
                assert got == brute_is_u_tile(ts), grid

    def test_is_the_exact_unextendibility_of_the_basis(self, small_structures):
        """Against Lemma 1 of DiVincenzo et al., which decides whether the
        basis extends without the paper's theorem: on every structure the
        basis is unextendible exactly when the structure is U-tile."""
        verdicts = set()
        for grid in small_structures:
            ts = structure_from_grid(grid)
            upb = build_upb(ts)
            u_tile = is_u_tile(ts).is_u_tile
            assert lemma1_is_extendible(upb.a, upb.b) != u_tile, grid
            verdicts.add(u_tile)
        assert verdicts == {True, False}

    def test_agrees_with_oracle_on_random_4x4(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            ts = structure_from_grid(random_structure(rng, 4, 4))
            assert is_u_tile(ts).is_u_tile == brute_is_u_tile(ts)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        grow=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_enumeration_oracle_on_random_structures(self, m, n, grow, seed):
        ts = structure_from_grid(random_structure(np.random.default_rng(seed), m, n, grow))
        assume(ts.tile_count <= 16)
        verdict = is_u_tile(ts)
        assert verdict.is_u_tile == enumeration_is_u_tile(ts)
        if not verdict.is_u_tile:
            _assert_valid_witness(ts, verdict)

    def test_reference_structures(self):
        assert is_u_tile(example1()).is_u_tile
        assert not is_u_tile(fig2()).is_u_tile
        for m, n in [(3, 3), (4, 6), (5, 5), (6, 8), (32, 32)]:
            assert is_u_tile(prop2(m, n)).is_u_tile
            assert is_u_tile(five_tile(m, n)).is_u_tile
        for m in range(4, 8):
            for t in range(5, 2 * m + 1):
                assert is_u_tile(prop3(m, t)).is_u_tile, (m, t)

    def test_top_row_counterexample_witness(self):
        verdict = is_u_tile(fig2())
        wit = verdict.witness
        assert wit.tile_ids == (1, 2)
        assert wit.rows == (0,)
        assert wit.axis == "column"
        assert wit.part1 == (1,)
        assert wit.part2 == (2,)

    def test_every_witness_is_a_valid_split(self, small_structures):
        failing = 0
        for grid in small_structures:
            ts = structure_from_grid(grid)
            verdict = is_u_tile(ts)
            if not verdict.is_u_tile:
                failing += 1
                _assert_valid_witness(ts, verdict)
        assert failing


class TestExtensionWitness:
    def test_fig2_state_is_the_top_row_split(self):
        verdict = is_u_tile(fig2())
        a, b = verdict.witness.state
        assert a.dtype == b.dtype == complex
        assert np.allclose(a, [1, 0, 0, 0])
        assert np.allclose(b, [1, 1, -1, -1])

    def test_witness_is_orthogonal_to_every_kept_state(self, all_3x3_structures):
        for grid in all_3x3_structures[::5]:
            ts = structure_from_grid(grid)
            verdict = is_u_tile(ts)
            if verdict.is_u_tile:
                continue
            state = verdict.witness.state
            upb = build_upb(ts)
            worst = max(abs(brute_inner(kept, state)) for kept in upb.states)
            assert worst < 1e-12, grid
            assert abs(brute_inner(stopper_state(ts), state)) < 1e-12

    def test_verdict_is_true_exactly_for_a_u_tile(self):
        assert is_u_tile(example1())
        assert not is_u_tile(fig2())

    def test_u_tile_verdict_has_no_witness(self):
        verdict = is_u_tile(example1())
        assert verdict.witness is None
