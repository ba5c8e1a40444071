"""Command line behavior: outputs, round trips, and exit codes."""

import argparse
import json
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import tileupb.cli
import tileupb.verify
from tileupb import (ALICE, Branch, LocalProjector, build_upb, example1, five_tile, prop2, prop3,
                     validate)
from tileupb.cli import COMMANDS, _build_parser, main

from conftest import brute_tile_matrices, structure_from_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_family_instance_is_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--family", "prop2", "--m", "4", "--n", "6")
        assert code == 0
        assert "ok" in out

    def test_broken_grid_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.tile"
        path.write_text("2 2\n1 1\n1 3\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "contiguous" in out

    def test_malformed_grid_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.tile"
        path.write_text("2 2\n1 x\n1 1\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file")
        assert code == 2

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "validate")
        assert exc.value.code == 2


class TestStructureFlags:
    @pytest.mark.parametrize("argv, flag, source", [
        ("check-utile --family example1 --m 9 --n 9", "--m", "--family example1"),
        ("check-utile {file} --m 7", "--m", "FILE"),
        ("gen --family prop3 --m 5 --tiles 7 --n 9", "--n", "--family prop3"),
        ("verify-upb --family five-tile --m 6 --n 6 --tiles 5", "--tiles", "--family five-tile"),
    ], ids=["fixed-family", "file", "prop3-n", "five-tile-tiles"])
    def test_flags_the_source_does_not_take_are_usage_errors(self, tmp_path, capsys,
                                                             argv, flag, source):
        path = tmp_path / "grid.tile"
        path.write_text("1 2\n1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(argv.format(file=path)))
        assert exc.value.code == 2
        assert f"{flag} does not apply to {source}" in capsys.readouterr().err


class TestGenRoundTrip:
    def test_gen_output_validates_and_rebuilds(self, tmp_path, capsys):
        path = tmp_path / "ring.tile"
        code, _, _ = run(capsys, "gen", "--family", "prop2", "--m", "5", "--n", "7",
                         "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0

    @pytest.mark.parametrize("m,n", [(65, 70), (3, 65)])
    def test_gen_refuses_dimensions_beyond_the_format(self, tmp_path, capsys, m, n):
        """The family states its own range; the CLI adds no size rule."""
        path = tmp_path / "big.tile"
        code, out, err = run(capsys, "gen", "--family", "five-tile", "--m", str(m), "--n", str(n),
                             "-o", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: five_tile requires 3 <= m <= n <= 64, got m={m}, n={n}\n"
        assert not path.exists()

    @pytest.mark.parametrize("family, message", [
        (("five-tile", "--m", "65", "--n", "70"),
         "five_tile requires 3 <= m <= n <= 64, got m=65, n=70"),
        (("prop3", "--m", "0", "--tiles", "5"), "prop3 requires 4 <= m <= 64, got m=0"),
    ], ids=["five-tile", "prop3"])
    def test_check_utile_refuses_dimensions_beyond_the_format(self, capsys, family, message):
        code, out, err = run(capsys, "check-utile", "--family", *family)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_gen_names_prop3s_range_of_m(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "prop3", "--m", "3", "--tiles", "5")
        assert (code, out) == (2, "")
        assert "prop3 requires 4 <= m <= 64, got m=3" in err

    def test_family_parameters_are_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gen", "--family", "prop3", "--m", "5")
        assert exc.value.code == 2

    def test_gen_without_a_family_names_gens_own_source(self, capsys):
        """gen takes no FILE, so its refusal does not offer one."""
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gen")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "gen requires --family" in err
        assert "FILE" not in err


class TestChecks:
    def test_utile_yes_and_no(self, capsys):
        code, out, _ = run(capsys, "check-utile", "--family", "example1")
        assert code == 0 and "yes" in out
        code, out, _ = run(capsys, "check-utile", "--family", "fig2", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["is_u_tile"] is False
        assert data["witness"]["tiles"] == [1, 2]
        assert data["witness"]["axis"] == "column"

    def test_large_ring_is_decided_without_a_tile_cap(self, capsys):
        family = ("--family", "prop2", "--m", "13", "--n", "13", "--json")
        code, out, _ = run(capsys, "check-utile", *family)
        assert code == 0
        assert json.loads(out) == {"is_u_tile": True, "witness": None}
        code, out, _ = run(capsys, "build-upb", *family)
        assert code == 0
        assert len(json.loads(out)["states"]) == 13 * 13 - 25 + 1

    @pytest.mark.parametrize("flag", [("--method", "graph"), ("--cap", "30")])
    def test_check_utile_has_no_method_or_cap(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check-utile", "--family", "example1", *flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("special-rects", "--family", "example1"),
        ("verify-upb", "--family", "example1", "--max-iters", "0"),
        ("verify-upb", "--family", "example1", "--tol", "1e-6"),
        ("distinguish", "--family", "prop2", "--m", "4", "--n", "4"),
        ("gen", "--family", "five-tile", "--m", "3", "--n", "3", "--json"),
    ], ids=["special-rects", "max-iters", "tol", "distinguish-family", "gen-json"])
    def test_removed_commands_and_flags_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2

    def test_build_upb_refuses_extendible_structures(self, capsys):
        code, _, err = run(capsys, "build-upb", "--family", "fig2")
        assert code == 1
        assert "U-tile" in err

    def test_build_upb_refusal_names_the_check_utile_witness(self, capsys):
        """The refusal states the failing split in check-utile's words,
        not as Python tuple reprs."""
        _, out, _ = run(capsys, "check-utile", "--family", "fig2")
        code, _, err = run(capsys, "build-upb", "--family", "fig2")
        assert code == 1
        witness = out.splitlines()[1:]
        assert witness[0].startswith("witness rectangle:") and len(witness) == 2
        assert err.splitlines()[1:] == witness

    def test_build_upb_json_contains_all_states(self, capsys):
        code, out, _ = run(capsys, "build-upb", "--family", "example1", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["states"]) == 11
        assert data["origin"]["grid"] == [[1, 1, 2, 3], [6, 4, 6, 3], [6, 4, 6, 3], [5, 4, 2, 5]]

    def test_verify_upb_passes_and_is_deterministic(self, capsys):
        args = ("verify-upb", "--family", "example1", "--restarts", "40",
                "--seed", "7", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["passed"] is True
        assert data["settings"]["restarts"] == 40
        assert data["search"]["restarts_run"] == 40
        assert data["certificate"] == {"u_tile": True, "witness": None}

    def test_verify_upb_json_on_one_tile_is_a_vacuous_pass(self, capsys, tmp_path):
        path = tmp_path / "one.tile"
        path.write_text("2 2\n1 1\n1 1\n")
        code, out, _ = run(capsys, "verify-upb", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["complement_dim"] == 0
        assert data["certificate"] is None and data["search"] is None
        assert "vacuous" in data["note"]

    def test_verify_upb_fails_on_extendible_input(self, capsys):
        code, out, _ = run(capsys, "verify-upb", "--family", "fig2", "--restarts", "40")
        assert code == 1
        assert "FAILED" in out

    def test_verify_upb_certifies_the_check_utile_witness(self, capsys):
        """The extendibility certificate carries the witness check-utile
        prints, checked against every state; the seesaw finds a product
        state too."""
        code, out, _ = run(capsys, "verify-upb", "--family", "fig2", "--restarts", "50", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False and data["product_found"] is True
        assert data["search"]["best_overlap"] > 1 - 1e-9
        assert "found one too" in data["note"]
        cert = data["certificate"]
        assert cert["u_tile"] is False
        assert cert["max_overlap"] <= 1e-12
        _, utile, _ = run(capsys, "check-utile", "--family", "fig2", "--json")
        assert cert["witness"] == json.loads(utile)["witness"]

    @pytest.mark.parametrize(
        "one_tile,restarts",
        [
            pytest.param(False, "0", id="0"),
            pytest.param(False, "-3", id="-3"),
            # one tile leaves an empty complement and nothing to search
            pytest.param(True, "0", id="one-tile-0"),
        ],
    )
    def test_verify_upb_refuses_fewer_than_one_restart(self, capsys, tmp_path, one_tile, restarts):
        source = ("--family", "fig2")
        if one_tile:
            path = tmp_path / "one.tile"
            path.write_text("2 2\n1 1\n1 1\n")
            source = (str(path),)
        code, out, err = run(capsys, "verify-upb", *source, "--restarts", restarts)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "restart" in err

    @pytest.mark.parametrize("one_tile", [False, True], ids=["example1", "one-tile"])
    def test_verify_upb_refuses_a_negative_seed(self, capsys, tmp_path, one_tile):
        """Refused by name, also on one tile where no search would run."""
        source = ("--family", "example1")
        if one_tile:
            path = tmp_path / "one.tile"
            path.write_text("2 2\n1 1\n1 1\n")
            source = (str(path),)
        code, out, err = run(capsys, "verify-upb", *source, "--seed", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: the search seed must be non-negative, got -5\n"

    def test_ppt_json(self, capsys):
        code, out, _ = run(capsys, "ppt", "--family", "five-tile", "--m", "3", "--n", "4")
        assert code == 0
        assert "verdict: ok" in out

    def test_ppt_on_a_non_u_tile_origin_prints_the_report_and_exits_one(self, capsys):
        code, out, err = run(capsys, "ppt", "--family", "fig2", "--json")
        assert code == 1
        assert err == ""
        assert '"entangled_certificate": null' in out
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("argv", [
        ("ppt", "--family", "example1"),
        ("ppt", "--family", "fig2"),
        ("build-upb", "--family", "example1"),
        ("build-upb", "--family", "fig2"),
        ("verify-upb", "--family", "example1", "--restarts", "5"),
        ("verify-upb", "--family", "fig2", "--restarts", "5"),
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_each_call_decides_u_tile_once(self, capsys, monkeypatch, argv):
        calls = []
        decide = tileupb.verify.is_u_tile

        def counted(ts):
            calls.append(ts)
            return decide(ts)

        for module in (tileupb.cli, tileupb.verify):
            monkeypatch.setattr(module, "is_u_tile", counted)
        run(capsys, *argv)
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["verify-upb", "ppt"])
    def test_large_interior_tile_is_not_a_false_failure(self, command, capsys):
        # Unnormalized 22 x 22 interior-tile states overlap by about
        # 1e-12 in absolute terms; relative overlaps stay near 1e-15.
        code, out, _ = run(capsys, command, "--family", "five-tile", "--m", "24", "--n", "24")
        assert code == 0
        assert "FAILED" not in out

    def test_distinguish(self, capsys):
        """The resource dimension is read off the tree: m/2 levels, one
        per root outcome."""
        for m in (4, 6, 8):
            code, out, _ = run(capsys, "distinguish", "--m", str(m), "--n", str(m + 1), "--json")
            assert code == 0
            data = json.loads(out)
            root_outcomes = len(tileupb.cli.build_theorem3_protocol(m, m + 1).outcomes)
            assert data["resource_dim"] == m // 2 == root_outcomes
            assert data["report"]["ok"] is True
            assert data["report"]["min_success_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_distinguish_prints_each_violation_and_fails(self, capsys, monkeypatch):
        """A tree whose last root outcome is zeroed fails its root audit,
        and distinguish prints that violation and exits 1."""
        build = tileupb.cli.build_theorem3_protocol

        def zeroed_last_root_outcome(m, n):
            protocol = build(m, n)
            *kept, (last, child) = protocol.outcomes
            zero = LocalProjector(np.zeros_like(last.diagonal))
            return Branch(protocol.party, (*kept, (zero, child)))

        monkeypatch.setattr(tileupb.cli, "build_theorem3_protocol", zeroed_last_root_outcome)
        code, out, _ = run(capsys, "distinguish", "--m", "4", "--n", "4")
        assert code == 1
        lines = out.splitlines()
        assert "violation: root: outcomes do not sum to the identity" in lines
        assert lines[-1] == "verdict: FAILED"

    def test_distinguish_sizes_the_resource_by_the_trees_root(self, capsys, monkeypatch):
        """Without its last root outcome the 4 x 4 tree has one root
        outcome, so it is checked with a 1-level resource, which its
        operators do not fit."""
        build = tileupb.cli.build_theorem3_protocol
        monkeypatch.setattr(tileupb.cli, "build_theorem3_protocol",
                            lambda m, n: Branch(ALICE, build(m, n).outcomes[:-1]))
        code, out, _ = run(capsys, "distinguish", "--m", "4", "--n", "4")
        assert code == 1
        assert out.splitlines()[0] == "states: 12 on 4 x 4 with a 1-level resource"
        assert "violation: root: operator shape (8, 8) does not match register 4" in out
        assert out.splitlines()[-1] == "verdict: FAILED"

    def test_distinguish_rejects_odd_rows(self, capsys):
        code, _, err = run(capsys, "distinguish", "--m", "5", "--n", "5")
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("m,n", [(24, 26), (26, 26), (16, 64), (64, 64)])
    def test_distinguish_refuses_an_oversized_tree_quickly(self, m, n, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "distinguish", "--m", str(m), "--n", str(n))
        assert time.perf_counter() - t0 < 0.5
        assert code == 2
        assert out == ""
        assert err == f"error: the protocol for m={m}, n={n} covers {m * n} cells, " \
                      "over the 620-cell bound\n"

    def test_distinguish_refuses_dimensions_beyond_the_format(self, capsys):
        code, out, err = run(capsys, "distinguish", "--m", "4", "--n", "65")
        assert code == 2
        assert out == ""
        assert err == "error: prop2 requires 3 <= m <= n <= 64, got m=4, n=65\n"


class TestOutputFile:
    def test_json_report_lands_in_the_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "ppt", "--family", "example1", "--json",
                           "-o", str(path))
        assert code == 0
        assert out == ""
        data = json.loads(path.read_text())
        assert data["ok"] is True


WITNESS_KEYS = {"axis", "cols", "part1", "part2", "rows", "state", "tiles"}
CHECK_KEYS = {"certificate", "complement_dim", "expected_complement_dim", "expected_size",
              "max_offdiagonal", "note", "orthogonal", "passed", "product_found", "search",
              "settings", "size", "size_ok", "stopper_law_ok"}
SEARCH_KEYS = {"best_overlap", "best_product", "converged_restarts",
               "monotonicity_violations", "restarts_run"}


class TestJsonKeys:
    """The ``--json`` key sets are a contract: the benchmark's checks
    (perfbench/checks.py) read them, so a refactor that drops a key
    fails here first."""

    def _json(self, capsys, *argv):
        _, out, _ = run(capsys, *argv, "--json")
        return json.loads(out)

    def test_check_utile(self, capsys):
        assert self._json(capsys, "check-utile", "--family", "example1") == {
            "is_u_tile": True, "witness": None}
        data = self._json(capsys, "check-utile", "--family", "fig2")
        assert set(data) == {"is_u_tile", "witness"}
        assert set(data["witness"]) == WITNESS_KEYS
        assert set(data["witness"]["state"]) == {"a", "b"}

    def test_build_upb(self, capsys):
        data = self._json(capsys, "build-upb", "--family", "example1")
        assert set(data) == {"m", "n", "states", "origin"}
        assert set(data["origin"]) == {"m", "n", "grid"}
        assert data["states"][-1] == ["stopper"]
        for label in data["states"][:-1]:
            assert len(label) == 3 and all(type(x) is int for x in label)

    @pytest.mark.parametrize("family,certificate", [
        ("example1", {"u_tile", "witness"}),
        ("fig2", {"u_tile", "witness", "max_overlap"}),
    ], ids=["u-tile", "not-u-tile"])
    def test_verify_upb(self, capsys, family, certificate):
        data = self._json(capsys, "verify-upb", "--family", family, "--restarts", "5")
        assert set(data) == CHECK_KEYS
        assert set(data["certificate"]) == certificate
        assert set(data["search"]) == SEARCH_KEYS
        assert set(data["search"]["best_product"]) == {"a", "b"}
        assert set(data["settings"]) == {"conv_tol", "max_iters", "orth_tol",
                                         "product_threshold", "restarts", "seed"}
        if family == "fig2":
            assert set(data["certificate"]["witness"]) == WITNESS_KEYS

    def test_ppt(self, capsys):
        assert set(self._json(capsys, "ppt", "--family", "example1")) == {
            "dim", "entangled_certificate", "expected_rank", "min_eigenvalue",
            "min_eigenvalue_pt", "ok", "ppt", "rank", "spectrum_certificate", "trace", "warning"}

    def test_distinguish(self, capsys):
        data = self._json(capsys, "distinguish", "--m", "4", "--n", "4")
        assert set(data) == {"m", "n", "report", "resource_dim"}
        assert set(data["report"]) == {"branch_violations", "leaf_violations",
                                       "max_wrong_probability", "min_success_probability",
                                       "ok", "probabilities"}


def _subcommands():
    parser = _build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


REPORT_OPTIONS = ["-h/--help", "FILE", "--family", "--m", "--n", "--tiles",
                  "-o/--output", "--json"]


class TestParser:
    def test_each_subcommand_takes_its_options_in_order(self):
        """Pins every subcommand's arguments, so the table that builds the
        parser cannot add or drop a flag unnoticed."""
        shape = {name: ["/".join(action.option_strings) or action.metavar
                        for action in sub._actions]
                 for name, sub in _subcommands().items()}
        assert shape == {
            "validate": REPORT_OPTIONS,
            "check-utile": REPORT_OPTIONS,
            "gen": ["-h/--help", "--family", "--m", "--n", "--tiles", "-o/--output"],
            "build-upb": REPORT_OPTIONS,
            "verify-upb": REPORT_OPTIONS + ["--restarts", "--seed"],
            "ppt": REPORT_OPTIONS,
            "distinguish": ["-h/--help", "--m", "--n", "-o/--output", "--json"],
        }

    def test_every_option_has_help_text(self):
        missing = [(name, action.option_strings or action.metavar)
                   for name, sub in _subcommands().items()
                   for action in sub._actions if not action.help]
        assert not missing

    def test_seed_help_says_it_must_be_non_negative(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "verify-upb", "--help")
        assert re.search(r"--seed SEED\s+.*non-negative", capsys.readouterr().out)


class TestRepeatedCalls:
    """``main`` may be called many times in one process; the parser it
    builds on the first call is reused, so no call may leave state in it."""

    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_each_call_starts_from_the_defaults(self, tmp_path, capsys):
        out, bad = tmp_path / "report.json", tmp_path / "bad.tile"
        bad.write_text("2 2\n1 1\n1 3\n")

        def output(*argv):
            assert main([*argv, "--json", "-o", str(out)]) == 0
            return out.read_bytes()

        utile = ["check-utile", "--family", "prop2", "--m", "4", "--n", "4"]
        first = output(*utile)
        with pytest.raises(SystemExit) as exc:
            main(["check-utile", "--family", "prop2"])
        assert exc.value.code == 2
        assert output(*utile) == first
        assert main(["validate", str(bad)]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert output(*utile) == first
        verify = ["verify-upb", "--family", "example1", "--restarts", "3"]
        default = output(*verify)
        assert json.loads(output(*verify, "--seed", "5"))["settings"]["seed"] == 5
        assert output(*verify) == default
        assert json.loads(default)["settings"]["seed"] == 0

    @pytest.mark.parametrize("argv", [
        *[(command, "--family", family) for command in ("check-utile", "build-upb", "ppt",
                                                       "validate")
          for family in ("fig2", "example1")],
        ("distinguish", "--m", "4", "--n", "4"),
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_json_output_is_byte_identical_on_a_second_call(self, capsys, argv):
        first = run(capsys, *argv, "--json")
        assert first[1] or first[2]
        assert run(capsys, *argv, "--json") == first

    @pytest.mark.parametrize("argv", [[]] + [[name] for name in COMMANDS],
                             ids=lambda argv: " ".join(argv) or "tileupb")
    def test_help_matches_a_freshly_built_parser(self, capsys, argv):
        texts = []
        for parser in (_build_parser(), _build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: tileupb")


def _readme_command_lines():
    """Every ``tileupb ...`` line of the README's ``sh`` blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("tileupb ")]


class TestReadme:
    def test_commands_and_flags_exist(self):
        """Each README command names a subcommand the parser has, with
        flags that subcommand accepts, and the README lists every one."""
        subs = _subcommands()
        listed = set()
        for line in _readme_command_lines():
            words = shlex.split(line)
            assert words[1] in subs, line
            listed.add(words[1])
            accepted = subs[words[1]]._option_string_actions
            for word in words[2:]:
                assert not word.startswith("-") or word in accepted, (line, word)
        assert listed == set(subs)

    def test_library_names_exist(self):
        """Each ``T.<name>`` of the README's Library block is an attribute
        of the package, so a removed public name cannot linger there."""
        text = README.read_text(encoding="utf-8")
        block = re.search(r"## Library\n+```python\n(.*?)```", text, re.S).group(1)
        names = set(re.findall(r"\bT\.(\w+)", block))
        assert "certify_upb" in names
        assert not [name for name in sorted(names) if not hasattr(tileupb, name)]


LABELLED_FAMILIES = {
    "example1": (("--family", "example1"), example1),
    "prop2-5x6": (("--family", "prop2", "--m", "5", "--n", "6"), lambda: prop2(5, 6)),
    "five-tile-4x5": (("--family", "five-tile", "--m", "4", "--n", "5"), lambda: five_tile(4, 5)),
    "prop3-6-9": (("--family", "prop3", "--m", "6", "--tiles", "9"), lambda: prop3(6, 9)),
}


class TestBuildUpbLabels:
    @pytest.mark.parametrize("case", sorted(LABELLED_FAMILIES))
    def test_each_label_rebuilds_its_state_exactly(self, capsys, case):
        """State i's label [t, k, l], read against the emitted grid by the
        cell-by-cell oracle, is the outer product of row i of build_upb's
        factor stacks; the last label is the stopper."""
        argv, family = LABELLED_FAMILIES[case]
        code, out, _ = run(capsys, "build-upb", *argv, "--json")
        assert code == 0
        data = json.loads(out, parse_float=lambda text: pytest.fail(f"amplitude {text} in the JSON"))
        ts = structure_from_grid(data["origin"]["grid"])
        upb = build_upb(family())
        assert (data["m"], data["n"]) == (ts.m, ts.n) == (upb.m, upb.n)
        assert len(data["states"]) == len(upb.a)
        assert data["states"][-1] == ["stopper"]
        assert np.array_equal(np.outer(upb.a[-1], upb.b[-1]), np.ones((ts.m, ts.n)))
        for i, (t, k, l) in enumerate(data["states"][:-1]):
            tile = ts.tiles[t - 1]
            want = brute_tile_matrices(tile, ts.m, ts.n)[k * len(tile.cols) + l]
            assert np.array_equal(np.outer(upb.a[i], upb.b[i]), want), (i, t, k, l)

    @pytest.mark.parametrize("case", sorted(LABELLED_FAMILIES))
    def test_origin_is_the_valid_structure_it_was_built_from(self, capsys, case):
        """The emitted origin grid is a valid tile structure equal to the
        one the basis was built from, and the top-level and origin
        dimensions are the grid's own."""
        argv, family = LABELLED_FAMILIES[case]
        code, out, _ = run(capsys, "build-upb", *argv, "--json")
        assert code == 0
        data = json.loads(out)
        grid = data["origin"]["grid"]
        ts = structure_from_grid(grid)
        assert validate(ts).ok, validate(ts).problems
        assert ts == family()
        assert data["m"] == data["origin"]["m"] == len(grid)
        assert data["n"] == data["origin"]["n"] == len(grid[0])

    @pytest.mark.parametrize("case", sorted(LABELLED_FAMILIES))
    def test_labels_name_each_kept_tile_state_once(self, capsys, case):
        """Read off the grid cell by cell, the labels are, tile by tile,
        every (k, l) != (0, 0) with k below the tile's row count and l
        below its column count, so there are mn - s + 1 states."""
        argv, _ = LABELLED_FAMILIES[case]
        code, out, _ = run(capsys, "build-upb", *argv, "--json")
        assert code == 0
        data = json.loads(out)
        grid = data["origin"]["grid"]
        cells = [(r, c, tid) for r, row in enumerate(grid) for c, tid in enumerate(row)]
        ids = sorted({tid for _, _, tid in cells})
        want = []
        for tid in ids:
            p = len({r for r, _, t in cells if t == tid})
            q = len({c for _, c, t in cells if t == tid})
            want += [[tid, k, l] for k in range(p) for l in range(q) if (k, l) != (0, 0)]
        assert data["states"] == want + [["stopper"]]
        assert len(data["states"]) == data["m"] * data["n"] - len(ids) + 1
