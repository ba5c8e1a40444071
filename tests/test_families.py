"""Built-in tile structure families."""

import numpy as np
import pytest

import tileupb.families
from tileupb import (
    MAX_DIM,
    TileGridContentError,
    TileStructure,
    build_upb,
    example1,
    fig2,
    five_tile,
    is_u_tile,
    prop2,
    prop3,
    upb_state_labels,
    validate,
)

from conftest import product_matrix


class TestFixedGrids:
    def test_example_grid(self):
        assert example1().cell_map == (
            (1, 1, 2, 3),
            (6, 4, 6, 3),
            (6, 4, 6, 3),
            (5, 4, 2, 5),
        )

    def test_refuted_grid(self):
        assert fig2().cell_map == (
            (1, 1, 2, 2),
            (3, 4, 4, 3),
            (5, 4, 4, 5),
            (6, 6, 6, 6),
        )


class TestRingFamily:
    @pytest.mark.parametrize(
        "m,n",
        [(m, n) for m in range(3, 9) for n in range(m, 11)] + [(31, 40), (63, 64), (64, 64)],
    )
    def test_valid_u_tile_with_expected_counts(self, m, n):
        ts = prop2(m, n)
        assert validate(ts).ok
        expected_tiles = 2 * m - 3 if m % 2 == 0 else 2 * m - 1
        assert ts.tile_count == expected_tiles
        assert is_u_tile(ts).is_u_tile
        assert len(build_upb(ts).states) == m * n - 4 * ((m - 1) // 2)

    def test_smallest_case_is_the_five_tile_square(self):
        assert prop2(3, 3).cell_map == five_tile(3, 3).cell_map

    def test_four_by_four_ring_plus_center(self):
        assert prop2(4, 4).cell_map == (
            (1, 1, 1, 2),
            (4, 5, 5, 2),
            (4, 5, 5, 2),
            (4, 3, 3, 3),
        )

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(5, 17) for n in range(m, 17)])
    def test_peeling_the_border_ring_leaves_the_smaller_ring_structure(self, m, n):
        """The LOCC builder reads ring r's tile t as tile t + 4r: inside
        the border, prop2(m, n) is prop2(m - 2, n - 2) shifted by 4."""
        inner = [[tid - 4 for tid in row[1:-1]] for row in prop2(m, n).cell_map[1:-1]]
        assert tuple(map(tuple, inner)) == prop2(m - 2, n - 2).cell_map

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(3, 17) for n in range(m, 17)])
    def test_border_ring_is_the_five_tile_ring(self, m, n):
        ring, five = prop2(m, n).cell_map, five_tile(m, n).cell_map
        assert ring[0] == five[0] and ring[-1] == five[-1]
        assert [(row[0], row[-1]) for row in ring] == [(row[0], row[-1]) for row in five]

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            prop2(2, 5)
        with pytest.raises(ValueError):
            prop2(5, 4)

    def test_refuses_grids_past_the_format_maximum(self):
        with pytest.raises(ValueError, match=f"prop2 requires 3 <= m <= n <= {MAX_DIM}, "
                                             "got m=70, n=70") as info:
            prop2(70, 70)
        assert not isinstance(info.value, TileGridContentError)


class TestSizeRefusals:
    """A ring family refuses a size outside 3 <= m <= n <= MAX_DIM in its
    argument check, before ``_rings`` paints a cell."""

    @pytest.mark.parametrize("family, m, n", [(prop2, 10**6, 10**6), (five_tile, 3, 65)])
    def test_sizes_outside_the_range_are_refused_unpainted(self, monkeypatch, family, m, n):
        def paint(*args):
            raise AssertionError("_rings painted a refused size")

        monkeypatch.setattr(tileupb.families, "_rings", paint)
        with pytest.raises(ValueError, match=f"{family.__name__} requires 3 <= m <= n "
                                             f"<= {MAX_DIM}, got m={m}, n={n}"):
            family(m, n)

    @pytest.mark.parametrize("family", [prop2, five_tile])
    @pytest.mark.parametrize("m", [3, MAX_DIM])
    def test_the_format_maximum_still_builds(self, family, m):
        ts = family(m, MAX_DIM)
        assert (ts.m, ts.n) == (m, MAX_DIM)


class TestTileCountFamily:
    @pytest.mark.parametrize("m", range(4, 8))
    def test_every_count_from_five_to_two_m(self, m):
        for t in range(5, 2 * m + 1):
            ts = prop3(m, t)
            assert validate(ts).ok, (m, t)
            assert ts.tile_count == t
            assert is_u_tile(ts).is_u_tile, (m, t)
            assert len(build_upb(ts).states) == m * m - t + 1

    def test_four_by_four_seeds(self):
        assert prop3(4, 5).cell_map == (
            (1, 1, 1, 2),
            (4, 5, 5, 2),
            (4, 5, 5, 2),
            (4, 3, 3, 3),
        )
        assert prop3(4, 8).tile_count == 8

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            prop3(4, 4)
        with pytest.raises(ValueError):
            prop3(4, 9)
        with pytest.raises(ValueError, match="prop3 requires 4 <= m <= 64, got m=3"):
            prop3(3, 5)

    def test_refuses_m_past_the_format_maximum_before_recursing(self):
        with pytest.raises(ValueError, match=f"prop3 requires 4 <= m <= {MAX_DIM}, got m=2000"):
            prop3(2000, 5)


class TestFiveTileFamily:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_always_five_tiles(self, m):
        for n in range(m, 9):
            ts = five_tile(m, n)
            assert validate(ts).ok
            assert ts.tile_count == 5
            assert is_u_tile(ts).is_u_tile
            assert len(build_upb(ts).states) == m * n - 4

    def test_rejects_dimensions_below_three(self):
        with pytest.raises(ValueError):
            five_tile(2, 4)


@pytest.mark.parametrize("family,args", [
    (prop3, (4.5, 5)), (prop3, (5, 6.0)), (five_tile, (4, 5.5)), (prop2, (4.0, 5)),
], ids=["prop3-m", "prop3-t", "five_tile", "prop2"])
def test_families_refuse_non_integral_arguments(family, args):
    """A float is refused, not truncated, as TileStructure refuses a 1.9 id."""
    with pytest.raises(TypeError):
        family(*args)


class TestExtendColumns:
    def test_preserves_the_u_tile_property_on_the_five_tile_family(self):
        """five_tile(4, 4) widened to 7 columns by repeating its last column."""
        wider = TileStructure.from_grid([row + (row[-1],) * 3 for row in five_tile(4, 4).cell_map])
        assert is_u_tile(wider).is_u_tile


def _four_row_listing(n):
    """Kept states of the 4 x n ring basis written out longhand, grouped
    by tile support: the row strips carry (n-1)-point Fourier vectors,
    the 3-cell columns 3-point ones, and the 2 x (n-2) middle block pairs
    (|1>+|2>) and (|1>-|2>) with (n-2)-point vectors."""

    def w(p, e):
        return np.exp(2j * np.pi * e / p)

    def col_vec(p, i, js, dim):
        v = np.zeros(dim, dtype=complex)
        for j in js:
            v[j] = w(p, i * j)
        return v

    unit0 = np.zeros(4, dtype=complex)
    unit0[0] = 1
    unit3 = np.zeros(4, dtype=complex)
    unit3[3] = 1
    mid_plus = np.zeros(4, dtype=complex)
    mid_plus[1] = mid_plus[2] = 1
    mid_minus = np.zeros(4, dtype=complex)
    mid_minus[1], mid_minus[2] = 1, -1

    blocks = {}
    blocks[(0,), tuple(range(n - 1))] = [
        np.outer(unit0, col_vec(n - 1, i, range(n - 1), n)) for i in range(1, n - 1)
    ]
    blocks[(0, 1, 2), (n - 1,)] = [
        np.outer(col_vec(3, i, range(3), 4), _unit(n - 1, n)) for i in (1, 2)
    ]
    blocks[(3,), tuple(range(1, n))] = [
        np.outer(unit3, col_vec(n - 1, i, range(1, n), n)) for i in range(1, n - 1)
    ]
    blocks[(1, 2, 3), (0,)] = [
        np.outer(col_vec(3, i, range(1, 4), 4), _unit(0, n)) for i in (1, 2)
    ]
    blocks[(1, 2), tuple(range(1, n - 1))] = [
        np.outer(mid_plus, col_vec(n - 2, i, range(1, n - 1), n))
        for i in range(1, n - 2)
    ] + [
        np.outer(mid_minus, col_vec(n - 2, i, range(1, n - 1), n))
        for i in range(0, n - 2)
    ]
    return blocks


def _unit(i, dim):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1
    return v


class TestFourRowListing:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_kept_states_span_the_reference_listing_tile_by_tile(self, n):
        ts = prop2(4, n)
        upb = build_upb(ts)
        kept = {}
        for state, label in zip(upb.states, upb_state_labels(ts)):
            if label == ("stopper",):
                continue
            kept.setdefault(label[0], []).append(product_matrix(state).reshape(-1))
        listing = _four_row_listing(n)
        assert len(kept) == len(listing) == 5
        for tid, vectors in kept.items():
            tile = ts.tiles[tid - 1]
            reference = listing[tile.rows, tile.cols]
            assert len(reference) == len(vectors)
            ours = np.array(vectors)
            both = np.vstack([ours, [mat.reshape(-1) for mat in reference]])
            rank = np.linalg.matrix_rank(ours)
            assert rank == len(vectors)
            assert np.linalg.matrix_rank(both) == rank
