"""Tile grid parsing, validation, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileupb import (
    MAX_DIM,
    Tile,
    TileGridContentError,
    TileGridFormatError,
    TileStructure,
    parse_tile_grid,
    serialize,
    validate,
)

from conftest import enumerate_all_structures, random_structure, structure_from_grid


SAMPLE = """\
# a 2 x 3 grid with two split-column tiles around a middle bar
2 3

1 2 1
3 2 3
"""


class TestParse:
    def test_parses_header_and_rows(self):
        ts = parse_tile_grid(SAMPLE)
        assert (ts.m, ts.n) == (2, 3)
        assert ts.cell_map == ((1, 2, 1), (3, 2, 3))

    def test_skips_comments_and_blank_lines(self):
        bare = "2 3\n1 2 1\n3 2 3\n"
        assert parse_tile_grid(bare).cell_map == parse_tile_grid(SAMPLE).cell_map

    def test_tiles_are_sorted_by_id(self):
        ts = parse_tile_grid(SAMPLE)
        assert [t.id for t in ts.tiles] == [1, 2, 3]
        assert ts.tiles[:2] == (Tile(1, (0,), (0, 2)), Tile(2, (0, 1), (1,)))

    def test_missing_header_is_a_format_error(self):
        with pytest.raises(TileGridFormatError, match="header"):
            parse_tile_grid("1 2 1\n3 2 3\n")

    def test_wrong_row_count_is_a_format_error(self):
        with pytest.raises(TileGridFormatError, match="expected 2 grid rows"):
            parse_tile_grid("2 3\n1 2 1\n")

    def test_wrong_column_count_is_a_format_error(self):
        with pytest.raises(TileGridFormatError, match="row 0"):
            parse_tile_grid("2 3\n1 2\n3 2 3\n")

    def test_non_integer_id_is_a_format_error(self):
        with pytest.raises(TileGridFormatError, match="positive integers"):
            parse_tile_grid("2 3\n1 2 1\n3 2 x\n")

    def test_zero_id_is_a_format_error(self):
        with pytest.raises(TileGridFormatError, match="positive"):
            parse_tile_grid("2 3\n1 2 1\n3 2 0\n")

    @pytest.mark.parametrize(
        "text",
        ["1 1\n\u00b2\n", "1 1\n\u0661\n", "1 1\n" + "1" * 5000 + "\n",
         "\u0661 1\n1\n", "1" * 5000 + " 1\n1\n", "+1 1\n1\n"],
        ids=["superscript-id", "arabic-indic-id", "5000-digit-id",
             "arabic-indic-header", "5000-digit-header", "signed-header"],
    )
    def test_only_ascii_digit_runs_are_numbers(self, text):
        with pytest.raises(TileGridFormatError):
            parse_tile_grid(text)

    def test_oversized_grid_is_rejected(self):
        big = f"{MAX_DIM + 1} 1\n" + "1\n" * (MAX_DIM + 1)
        with pytest.raises(TileGridFormatError, match="dimensions"):
            parse_tile_grid(big)

    def test_gap_in_ids_is_a_content_error(self):
        with pytest.raises(TileGridContentError, match="contiguous"):
            parse_tile_grid("2 2\n1 1\n3 3\n")

    def test_bent_tile_is_a_content_error(self):
        # an L-shaped part is not a row-set x column-set product
        with pytest.raises(TileGridContentError, match="separated rectangle"):
            parse_tile_grid("2 2\n1 1\n1 2\n")


class TestValidate:
    """Construction runs ``validate`` and refuses any grid it faults,
    with the full report on the error."""

    @staticmethod
    def refusal(grid):
        with pytest.raises(TileGridContentError) as info:
            TileStructure.from_grid(grid)
        return info.value.report.problems

    def test_bent_tile_names_its_first_foreign_cell_and_owner(self):
        # rows x cols of tile 1 is {0, 1} x {0, 1}, and tile 3 owns (1, 1)
        assert self.refusal([[1, 1, 2], [1, 3, 3], [4, 4, 4]]) == (
            "tile 1 is not a separated rectangle: cell (1, 1) of rows x cols belongs to tile 3",
        )

    def test_reports_tile_out_of_bounds(self):
        # the long second row puts tile 1's cell (1, 2) outside the 2 x 2 grid
        assert self.refusal([[1, 1], [1, 1, 1]]) == ("cell_map rows differ in length",)

    def test_reports_empty_tile(self):
        # tile 2 owns no cell, so the ids skip from 1 to 3
        assert self.refusal([[1, 1], [3, 3]]) == ("tile ids are not contiguous 1..2: [1, 3]",)

    def test_checkerboard_names_both_tiles(self):
        assert self.refusal([[1, 2], [2, 1]]) == (
            "tile 1 is not a separated rectangle: cell (0, 1) of rows x cols belongs to tile 2",
            "tile 2 is not a separated rectangle: cell (0, 0) of rows x cols belongs to tile 1",
        )

    def test_refuses_dimensions_past_the_format_maximum(self):
        assert self.refusal([[1] * (MAX_DIM + 1)]) == (
            f"grid dimensions exceed the supported maximum {MAX_DIM}",
        )

    @pytest.mark.parametrize("grid, problem", [
        ([[1.5] * (MAX_DIM + 1)] * (MAX_DIM + 1),
         f"grid dimensions exceed the supported maximum {MAX_DIM}"),
        ([[1.5, 1.5], [1.5]], "cell_map rows differ in length"),
    ], ids=["oversized", "ragged"])
    def test_the_shape_is_refused_before_any_cell_is_converted(self, grid, problem):
        """1.5 is no id (a TypeError once read), but the shape fails first."""
        assert self.refusal(grid) == (problem,)

    def test_oversized_grid_is_refused_without_reading_its_tiles(self):
        assert self.refusal([[5] * 100] * 100) == (
            f"grid dimensions exceed the supported maximum {MAX_DIM}",
        )

    @pytest.mark.parametrize("grid", [[], [[]]], ids=["no-rows", "empty-row"])
    def test_refuses_an_empty_grid(self, grid):
        assert self.refusal(grid)[0].startswith("grid dimensions must be positive")

    def test_non_integral_ids_are_a_type_error_not_truncated(self):
        with pytest.raises(TypeError):
            TileStructure.from_grid([[1.9, 2.2], [1, 2]])

    def test_numpy_integer_ids_become_ints(self):
        ts = TileStructure.from_grid(np.array([[1, 2], [1, 2]]))
        assert ts.cell_map == ((1, 2), (1, 2))
        assert {type(tid) for row in ts.cell_map for tid in row} == {int}

    def test_accepts_single_tile_cover(self):
        ts = structure_from_grid([[1, 1], [1, 1]])
        assert validate(ts).ok


class TestSerialize:
    def test_round_trip(self):
        ts = parse_tile_grid(SAMPLE)
        again = parse_tile_grid(serialize(ts))
        assert again.cell_map == ts.cell_map
        assert again.tiles == ts.tiles

    def test_wide_ids_stay_aligned(self):
        grid = [[i + 1] * 2 for i in range(12)]
        text = serialize(structure_from_grid(grid))
        lines = text.strip().splitlines()[1:]
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_exhaustive_small_round_trip(self):
        for grid in enumerate_all_structures(2, 3, max_tiles=6):
            ts = structure_from_grid(grid)
            assert parse_tile_grid(serialize(ts)).cell_map == ts.cell_map


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_random_partitions_validate_and_round_trip(m, n, seed):
    grid = random_structure(np.random.default_rng(seed), m, n)
    ts = structure_from_grid(grid)
    assert validate(ts).ok
    assert parse_tile_grid(serialize(ts)).cell_map == ts.cell_map


GRID_TEXT = st.text(alphabet="0123 \t\n#x-+\u00b2\u0661", max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.one_of(GRID_TEXT, st.text(max_size=40),
                 st.builds("{} {}\n{}".format, st.integers(0, 3), st.integers(0, 3), GRID_TEXT)))
def test_any_text_parses_or_raises_a_grid_error(text):
    """Fuzz: any text either parses into a structure that round-trips
    through serialize, or is refused with one of the two grid errors."""
    try:
        ts = parse_tile_grid(text)
    except (TileGridFormatError, TileGridContentError):
        return
    again = parse_tile_grid(serialize(ts))
    assert again.cell_map == ts.cell_map
    assert again.tiles == ts.tiles
