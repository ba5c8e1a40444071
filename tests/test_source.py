"""Properties of the library source itself."""

import ast
import importlib
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tileupb").glob("*.py"))
LIBRARY = [path for path in SOURCES if path.name not in ("__init__.py", "cli.py")]


def _library_exports():
    return [name for path in LIBRARY
            for name in importlib.import_module(f"tileupb.{path.stem}").__all__]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Runtime checks must be explicit raises: `python -O` strips
    `assert` statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    """Each name in a module's ``__all__`` (the package's included) is
    bound, so a deleted function cannot leave a stale export behind."""
    module = importlib.import_module(
        "tileupb" if path.stem == "__init__" else f"tileupb.{path.stem}"
    )
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names unbound {missing}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_library_module_declares_its_exports(path):
    assert hasattr(importlib.import_module(f"tileupb.{path.stem}"), "__all__"), path.name


def test_no_name_is_exported_by_two_modules():
    """The package star-imports each module, so a name two modules export
    would silently shadow one of them."""
    twice = [name for name, count in Counter(_library_exports()).items() if count > 1]
    assert not twice


def test_the_package_exports_its_modules_exports_and_version():
    """The package declares no export by hand but ``__version__``: its
    ``__all__`` is the modules' lists, each name once."""
    import tileupb

    assert sorted(tileupb.__all__) == sorted(_library_exports() + ["__version__"])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_grid_module_calls_validate(path):
    """A TileStructure validates itself on construction, so no other
    module re-checks a structure it is handed."""
    if path.name == "grid.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "validate"
             or getattr(node.func, "attr", None) == "validate")
    ]
    assert not calls, f"{path.name}: validate called on line(s) {calls}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_only_the_cli_renders_json(path):
    """The library returns report objects and the CLI renders them, so
    the ``--json`` schema lives in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name == "to_json_dict")
        or (isinstance(node, ast.Import) and "json" in [alias.name for alias in node.names])
        or (isinstance(node, ast.ImportFrom) and node.module == "json")
        or (isinstance(node, (ast.ImportFrom, ast.Import))
            and "asdict" in [alias.name for alias in node.names])
        or (isinstance(node, ast.Attribute) and node.attr == "asdict")
    ]
    assert not found, f"{path.name}: JSON rendering on line(s) {found}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_library_module_renders_a_dense_operator(path):
    """``LocalProjector.operator`` renders the dense matrix for the tests
    and the benchmark's reference walk; the library builds, walks and
    audits diagonals and blocks, so no module reads ``.operator``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "operator"]
    assert not found, f"{path.name}: .operator read on line(s) {found}"


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_stack_shapes_and_fourier_rows_live_in_the_states_module(path):
    """``states.factor_stacks`` is the one stack shape check and
    ``states.dft`` the one Fourier table, so no other library module
    reads an array's ``.ndim`` or multiplies by the constant 2j."""
    if path.name == "states.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "ndim")
        or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == 2j
                    for side in (node.left, node.right)))
    ]
    assert not found, f"{path.name}: stack shape or Fourier row on line(s) {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_library_module_calls_the_seesaw(path):
    """``certify_upb`` is the one verdict on a basis; the seesaw is a
    numerical probe that only the CLI composes with it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "seesaw_search" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not calls, f"{path.name}: seesaw_search called on line(s) {calls}"


def _modules_the_benchmark_names():
    """Every ``"tileupb.<module>"`` string quoted in perfbench/*.py."""
    return sorted({name for path in (ROOT / "perfbench").glob("*.py")
                   for name in re.findall(r"""["'](tileupb\.\w+)["']""",
                                          path.read_text(encoding="utf-8"))})


def test_every_module_the_benchmark_names_imports():
    """The benchmark's tracer imports its stage modules by name, so a
    module deleted from the library would crash every traced run."""
    names = _modules_the_benchmark_names()
    assert "tileupb.cli" in names
    for name in names:
        importlib.import_module(name)


def _load_benchmark_spans():
    """perfbench/spans.py, loaded by path; registered before it runs, as
    ``@dataclass`` looks its module up in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Stage names the benchmark tracer lists for functions the library no
# longer has; it skips them, and they are exactly the stages it finds
# unbound, so this set is the benchmark's list of dead spans to mend.
STALE_STAGES = {"rectangles.enumerate", "rectangles.extension_witness", "verify.check_upb",
                "verify.check_orthogonal_set", "verify.complement_basis", "ppt.ppt_report",
                "ppt.build_ppt_state"}


def test_the_benchmark_tracer_counts_every_command_it_wraps(capsys):
    """A traced run of each command the benchmark times: every stage the
    tracer wraps is found, and every counter reads the call's arguments
    and result without raising, so ``--trace 1`` runs keep working."""
    import tileupb.cli

    tracer = _load_benchmark_spans().Tracer(alloc=False)
    tracer.install()
    try:
        codes = [tileupb.cli.main([*argv, "--json"]) for argv in (
            ["check-utile", "--family", "fig2"],
            ["verify-upb", "--family", "fig2", "--restarts", "3"],
            ["verify-upb", "--family", "example1", "--restarts", "3"],
            ["ppt", "--family", "example1"],
            ["build-upb", "--family", "example1"],
            ["distinguish", "--m", "4", "--n", "5"],
        )]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [1, 1, 0, 0, 0, 0]
    assert set(tracer.unbound) == STALE_STAGES
    counted = Counter()
    for span in tracer.spans:
        counted.update(span.counters)
    # fig2 and example1 build 11 states each (verify-upb twice, ppt once),
    # prop2(4, 5) 16
    assert counted["states.states_built"] == 3 * 11 + 16
    assert counted["verify.seesaw_restarts"] == 2 * 3
    assert counted["locc.branches"] > 0


# src/tileupb/*.py held 2,427 lines when the count started, 1,823 before
# the exact root-placement proof of verify_protocol grew it to 1,853,
# 1,845 once placed subtrees became views of their source, 1,832 once the
# Theorem-3 size refusal became a bound on the cell count, 1,829 once the
# Fourier layers became views, 1,827 once the root placements were
# decided on the states that reach them instead of on dense operators, and
# 1,821 once one cell rule and one placement built the Theorem-3 tree, and
# 1,816 once build_upb wrote each tile's states straight into its stacks
# and certify_upb read the complement in GRAM_BLOCK rows, and 1,800 once
# certify_upb formed the factor Gram in that same loop and
# check_orthogonal_set left the library; it may only fall, so speed work
# cannot grow the library unnoticed.
SOURCE_LINE_CAP = 1800


def test_library_source_stays_under_the_line_cap():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SOURCES)
    assert lines <= SOURCE_LINE_CAP, f"src/tileupb has {lines} lines, over {SOURCE_LINE_CAP}"
