"""Every command line case of ``tests/golden/regenerate.py``, rewritten
into a scratch directory, matches the stored files byte for byte."""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

REWRITE = "python tests/golden/regenerate.py"


def _outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()
            if path.suffix in (".out", ".err") or path.name == regenerate.EXIT_CODES}


def test_every_case_matches_its_golden_file(tmp_path):
    regenerate.regenerate(tmp_path)
    fresh, stored = _outputs(tmp_path), _outputs(GOLDEN)
    mismatches = [f"tests/golden/{name} differs" for name in sorted(fresh.keys() | stored.keys())
                  if fresh.get(name) != stored.get(name)]
    assert not mismatches, ("\n".join(mismatches) + f"\nrewrite on purpose with {REWRITE} "
                            "and name each file in CHANGES.md")
