"""Golden outputs of the ``tileupb`` command line, and the one way to
rewrite them.

Each case in ``CASES`` is a command line run in-process through
``tileupb.cli.main``.  Its stdout is stored as ``<name>.out`` beside this
file, its stderr as ``<name>.err`` when there is any, and every exit code
in ``exit_codes.json``.  A FILE argument names a grid of ``GRIDS``; it is
written as ``.tile`` text into a scratch directory first, so no input
file is stored.  ``tests/test_golden.py`` reruns every case and compares
bytes.  Rewrite the files on purpose, from the repository root, with

    python tests/golden/regenerate.py

and name each rewritten file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from conftest import brick_wall  # noqa: E402
from tileupb.cli import main  # noqa: E402

EXIT_CODES = "exit_codes.json"


GRIDS = {
    "1x1": [[1]],
    "1x64": [[1] * 64],
    "64x1": [[1]] * 64,
    "one-tile": [[1] * 64] * 64,
    "stripes": [[r + 1] * 64 for r in range(64)],
    "cells": [[64 * r + c + 1 for c in range(64)] for r in range(64)],
    "brick": brick_wall(64, 64),
    # fig2 with rows and columns permuted: tiles 1 to 5 are split, and
    # tiles {1, 2} still split column-disjointly (not U-tile)
    "split": [[5, 4, 4, 5], [1, 2, 1, 2], [6, 6, 6, 6], [3, 4, 4, 3]],
}

FAMILIES = {
    "example1": ["--family", "example1"],
    "fig2": ["--family", "fig2"],
    "prop2": ["--family", "prop2", "--m", "4", "--n", "5"],
    "prop3": ["--family", "prop3", "--m", "5", "--tiles", "7"],
    "five-tile": ["--family", "five-tile", "--m", "4", "--n", "5"],
}
REPORTS = ("validate", "check-utile", "build-upb", "verify-upb", "ppt")
# build-upb lists one label per state and the whole grid: kept where that
# stays small; the 4,096-tile grid gets two seesaw restarts
NO_BUILD = ("one-tile", "stripes", "cells", "brick")
RESTARTS = {"cells": ["--restarts", "2"]}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for family, source in FAMILIES.items():
        cases[f"gen-{family}"] = ["gen", *source]
        for command in REPORTS:
            cases[f"{command}-{family}"] = [command, *source, "--json"]
    for grid in GRIDS:
        for command in REPORTS:
            if not (command == "build-upb" and grid in NO_BUILD):
                extra = RESTARTS.get(grid, []) if command == "verify-upb" else []
                cases[f"{command}-{grid}"] = [command, f"{{{grid}}}", *extra, "--json"]
    for m in range(4, 17, 2):
        cases[f"distinguish-{m}x{m}"] = ["distinguish", "--m", str(m), "--n", str(m), "--json"]
    return cases


CASES = _cases()


def write_grids(directory: Path) -> dict[str, str]:
    """Each grid of GRIDS as a ``.tile`` file in directory: {"{name}": path}."""
    paths = {}
    for name, grid in GRIDS.items():
        path = directory / f"{name}.tile"
        lines = [f"# {name}", f"{len(grid)} {len(grid[0])}", *(" ".join(map(str, r)) for r in grid)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[f"{{{name}}}"] = str(path)
    return paths


def run_case(argv: list[str], paths: dict[str, str]) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``tileupb`` on argv, grids resolved."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return out.getvalue(), err.getvalue(), code


def regenerate(directory: Path = HERE) -> None:
    """Rewrite every golden file, and the exit codes, in directory."""
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_grids(Path(scratch))
        for name, argv in CASES.items():
            out, err, codes[name] = run_case(argv, paths)
            (directory / f"{name}.out").write_bytes(out.encode("utf-8"))
            stale = directory / f"{name}.err"
            if err:
                stale.write_bytes(err.encode("utf-8"))
            else:
                stale.unlink(missing_ok=True)
    (directory / EXIT_CODES).write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    regenerate()
