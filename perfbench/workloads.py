"""Seeded instance lists for the three benchmark workloads.

Every workload is a fixed list of operations, one ``tileupb`` CLI call
each.  The seed permutes rows and columns and relabels tile ids of the
structures written to ``.tile`` files, draws the seesaw seed passed to
``verify-upb``.  It never changes which structures appear, their tile
counts or the order of the calls, so the cost of a pass does not
depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tileupb import TileStructure, example1, fig2, five_tile, prop2, prop3, validate

WORKLOADS = ("utile-sweep", "upb-verify", "locc-distinguish")

# verify-upb settings.  Each seesaw restart finds the product state of
# the split structures below with probability above 0.5, so 50 restarts
# miss it with probability below 1e-15.
SEESAW_RESTARTS = 50

Grid = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Op:
    """One CLI call and what the benchmark knows about its input.

    ``grid`` is the structure the call reads, kept for the checks.
    ``file`` names the ``.tile`` file in the work directory when the
    call reads one; otherwise ``args`` selects a built-in family.
    ``u_tile`` says how the structure was built: a family member is
    U-tile by the paper's propositions, a split structure is not.
    ``known_fault`` marks the one call that fails through a known
    absolute-tolerance fault of the program.  ``repeat`` is how often
    the call runs in each pass: cheap calls run more often, so that
    their medians rest on as many samples as the timing noise needs.
    """

    label: str
    command: str
    grid: Grid
    u_tile: bool
    args: tuple[str, ...] = ()
    file: str | None = None
    known_fault: bool = False
    repeat: int = 1

    @property
    def m(self) -> int:
        return len(self.grid)

    @property
    def n(self) -> int:
        return len(self.grid[0])

    @property
    def tiles(self) -> int:
        return max(max(row) for row in self.grid)

    def argv(self, workdir: str, output: str) -> list[str]:
        source = [f"{workdir}/{self.file}"] if self.file else []
        return [self.command, *source, *self.args, "--json", "-o", output]


def permuted(grid: Grid, rng: random.Random) -> Grid:
    """Same structure with rows, columns and tile ids permuted."""
    m, n = len(grid), len(grid[0])
    s = max(max(row) for row in grid)
    rows = rng.sample(range(m), m)
    cols = rng.sample(range(n), n)
    ids = rng.sample(range(1, s + 1), s)
    return tuple(tuple(ids[grid[r][c] - 1] for c in cols) for r in rows)


def split(grid: Grid, tid: int, axis: str, k: int) -> Grid:
    """Split tile ``tid`` (R x C) into two tiles: its first k rows
    (axis "row") or first k columns (axis "column") get a new id.

    The two halves form a special rectangle with a disjoint split, so
    the result is never U-tile.
    """
    cells = [(r, c) for r, row in enumerate(grid) for c, v in enumerate(row) if v == tid]
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    part = rows if axis == "row" else cols
    if not 0 < k < len(part):
        raise ValueError(f"tile {tid} has {len(part)} {axis}s, cannot split off {k}")
    new = max(max(row) for row in grid) + 1
    moved = set(part[:k])
    return tuple(
        tuple(
            new if v == tid and (r if axis == "row" else c) in moved else v
            for c, v in enumerate(row)
        )
        for r, row in enumerate(grid)
    )


def tile_text(grid: Grid, label: str) -> str:
    lines = [f"# {label}", f"{len(grid)} {len(grid[0])}"]
    lines += [" ".join(str(v) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def _grid(ts: TileStructure) -> Grid:
    return tuple(tuple(row) for row in ts.cell_map)


# (label, family, parameters, split): split is None for a family member
# (U-tile), (tile, axis, k) for a split one (not U-tile).  fig2, the
# paper's extendible example, is the one unsplit structure that is not
# U-tile.  Tile counts span 5..18.
_UTILE_SWEEP = [
    ("example1", example1, (), None),
    ("five_tile(5,7)", five_tile, (5, 7), None),
    ("five_tile(8,11)", five_tile, (8, 11), None),
    ("prop2(5,8)", prop2, (5, 8), None),
    ("prop2(6,9)", prop2, (6, 9), None),
    ("prop2(7,10)", prop2, (7, 10), None),
    ("prop2(8,8)", prop2, (8, 8), None),
    ("prop2(9,9)", prop2, (9, 9), None),
    ("prop3(6,10)", prop3, (6, 10), None),
    ("prop3(7,12)", prop3, (7, 12), None),
    ("prop3(8,14)", prop3, (8, 14), None),
    ("prop3(8,16)", prop3, (8, 16), None),
    ("prop3(9,18)", prop3, (9, 18), None),
    ("fig2", fig2, (), "as-is"),
    ("five_tile(6,9)/5c3", five_tile, (6, 9), (5, "column", 3)),
    ("prop2(6,8)/1c3", prop2, (6, 8), (1, "column", 3)),
    ("prop2(8,10)/2r3", prop2, (8, 10), (2, "row", 3)),
    ("prop3(9,16)/5r2", prop3, (9, 16), (5, "row", 2)),
    ("prop2(9,11)/1c4", prop2, (9, 11), (1, "column", 4)),
]

# (label, CLI arguments, family, parameters, known fault).  verify-upb
# and ppt run on each UPB; the first is the known fault:
# at 24 x 24 the absolute 1e-12 tolerances on the Gram check and on the
# trace misfire although the basis is orthogonal and the trace is 1.
_UPB_FAMILIES = [
    ("five-tile 24x24", ("--family", "five-tile", "--m", "24", "--n", "24"), five_tile, (24, 24), True),
    ("five-tile 12x12", ("--family", "five-tile", "--m", "12", "--n", "12"), five_tile, (12, 12), False),
    ("five-tile 12x18", ("--family", "five-tile", "--m", "12", "--n", "18"), five_tile, (12, 18), False),
    ("prop3 12/6", ("--family", "prop3", "--m", "12", "--tiles", "6"), prop3, (12, 6), False),
    ("prop3 14/8", ("--family", "prop3", "--m", "14", "--tiles", "8"), prop3, (14, 8), False),
    ("prop2 8x12", ("--family", "prop2", "--m", "8", "--n", "12"), prop2, (8, 12), False),
    ("prop2 6x18", ("--family", "prop2", "--m", "6", "--n", "18"), prop2, (6, 18), False),
]

# verify-upb alone on extendible structures, (label, family, parameters,
# split), written to .tile files: it must find a product state.
_UPB_SPLITS = [
    ("five_tile(16,16)/5c7", five_tile, (16, 16), (5, "column", 7)),
    ("five_tile(12,20)/5c9", five_tile, (12, 20), (5, "column", 9)),
]

_LOCC = [(4, 4), (4, 7), (4, 10), (6, 6), (6, 9), (6, 12), (8, 8), (8, 10), (10, 10)]


def _checked(grid: Grid, label: str) -> Grid:
    report = validate(TileStructure.from_grid(grid))
    if not report.ok:
        raise ValueError(f"generated structure {label} is invalid: {report.problems}")
    return grid


def _utile_sweep(rng: random.Random) -> list[Op]:
    ops = []
    for i, (label, family, params, how) in enumerate(_UTILE_SWEEP):
        grid = _grid(family(*params))
        if isinstance(how, tuple):
            grid = split(grid, *how)
        grid = _checked(permuted(grid, rng), label)
        ops.append(Op(label, "check-utile", grid, u_tile=how is None, file=f"utile-{i:02d}.tile",
                      repeat=4 if max(map(max, grid)) <= 14 else 1))
    return ops


def _upb_verify(rng: random.Random) -> list[Op]:
    ops = []
    for label, args, family, params, fault in _UPB_FAMILIES:
        seed = str(rng.randrange(2**31))
        search = ("--restarts", str(SEESAW_RESTARTS), "--seed", seed)
        grid = _grid(family(*params))
        repeat = 2 if len(grid) * len(grid[0]) <= 300 else 1
        ops.append(Op(label, "verify-upb", grid, True, args + search, known_fault=fault, repeat=repeat))
        ops.append(Op(label, "ppt", grid, True, args, known_fault=fault, repeat=repeat))
    for i, (label, family, params, how) in enumerate(_UPB_SPLITS):
        seed = str(rng.randrange(2**31))
        grid = _checked(permuted(split(_grid(family(*params)), *how), rng), label)
        ops.append(Op(label, "verify-upb", grid, False,
                      ("--restarts", str(SEESAW_RESTARTS), "--seed", seed),
                      file=f"split-{i:02d}.tile"))
    return ops


def _locc_distinguish(_rng: random.Random) -> list[Op]:
    return [
        Op(f"prop2 {m}x{n}", "distinguish", _grid(prop2(m, n)), True, ("--m", str(m), "--n", str(n)),
           repeat=3 if m <= 6 else 1)
        for m, n in _LOCC
    ]


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed, in call order."""
    makers = {
        "utile-sweep": _utile_sweep,
        "upb-verify": _upb_verify,
        "locc-distinguish": _locc_distinguish,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))
