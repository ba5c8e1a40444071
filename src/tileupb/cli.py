"""Command line interface.

A structure comes from a FILE or a ``--family``, built and so validated;
``--m``, ``--n`` or ``--tiles`` where that source takes none is a usage
error.  Exit codes: 0 when the requested property holds or the artifact
was produced, 1 when a checked property fails (invalid structure
content, not a U-tile, failed basis or state or protocol verification),
2 for usage, format, or I/O errors.  ``build-upb`` refuses a structure
that is not U-tile; ``ppt`` prints its report for one and exits 1, since
the state is then PPT without an entanglement certificate.
``main(argv)`` returns the exit code; repeated calls share one parser.

The library returns frozen report dataclasses; this module alone renders
them, as text and as ``--json`` (sorted keys, so byte-for-byte
deterministic), each command's two forms side by side.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .families import example1, fig2, five_tile, prop2, prop3
from .grid import TileGridContentError, parse_tile_grid, serialize
from .locc import attach_resource, build_theorem3_protocol, verify_protocol
from .rectangles import is_u_tile
from .states import build_upb, upb_state_labels
from .verify import (DEFAULT_CONV_TOL, DEFAULT_MAX_ITERS, DEFAULT_ORTH_TOL, DEFAULT_RESTARTS,
                     PRODUCT_THRESHOLD, _check_search_settings, certify_upb, seesaw_search)

FAMILIES = {
    "example1": (example1, ()),
    "fig2": (fig2, ()),
    "prop2": (prop2, ("m", "n")),
    "prop3": (prop3, ("m", "tiles")),
    "five-tile": (five_tile, ("m", "n")),
}


def _load_structure(args, parser: argparse.ArgumentParser):
    path = getattr(args, "file", None)
    if (path is None) == (args.family is None):
        parser.error("exactly one of FILE and --family is required")
    source, (builder, arity) = (("FILE", (None, ())) if path is not None
                                else (f"--family {args.family}", FAMILIES[args.family]))
    for name in ("m", "n", "tiles"):
        given = getattr(args, name) is not None
        if given != (name in arity):
            parser.error(f"--{name} does not apply to {source}" if given
                         else f"{source} requires --{name}")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return parse_tile_grid(fh.read())
    return builder(*(getattr(args, name) for name in arity))


def _emit(args, text: str, payload) -> None:
    if getattr(args, "json", False):
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _product_json(state) -> dict:
    """A product state's (a, b) factors, each as a list of [re, im] pairs."""
    return {key: [[z.real, z.imag] for z in map(complex, vec)] for key, vec in zip("ab", state)}


def _attrs(obj, *names, **rendered) -> dict:
    """The named attributes of a report, then ``rendered`` (renamed or
    rendered in place)."""
    return {**{name: getattr(obj, name) for name in names}, **rendered}


def _fields_json(report, *derived, **rendered) -> dict:
    """A report's dataclass fields and the named derived properties."""
    return _attrs(report, *(f.name for f in dataclasses.fields(report)), *derived, **rendered)


def _witness_json(wit) -> dict:
    return _fields_json(wit, tiles=wit.tile_ids, state=_product_json(wit.state))


def _describe_witness(wit) -> str:
    return (f"witness rectangle: tiles {{{', '.join(map(str, wit.tile_ids))}}} "
            f"(rows {list(wit.rows)} x cols {list(wit.cols)})\n"
            f"disconnected {wit.axis} split: {list(wit.part1)} vs {list(wit.part2)}")


def _cmd_validate(args, parser) -> int:
    try:
        ts = _load_structure(args, parser)
    except TileGridContentError as exc:
        problems = list(exc.report.problems)
        _emit(args, "\n".join(["invalid tile structure:"] + [f"  {p}" for p in problems]),
              {"ok": False, "problems": problems})
        return 1
    _emit(args, f"ok: {ts.m} x {ts.n} grid with {ts.tile_count} tiles",
          {"ok": True, "m": ts.m, "n": ts.n, "tiles": ts.tile_count, "problems": []})
    return 0


def _cmd_check_utile(args, parser) -> int:
    ts = _load_structure(args, parser)
    verdict = is_u_tile(ts)
    payload = {"is_u_tile": verdict.is_u_tile, "witness": None}
    if verdict.is_u_tile:
        _emit(args, "U-tile: yes", payload)
        return 0
    payload["witness"] = _witness_json(verdict.witness)
    _emit(args, "U-tile: no\n" + _describe_witness(verdict.witness), payload)
    return 1


def _cmd_gen(args, parser) -> int:
    if args.family is None:
        parser.error("gen requires --family")
    _emit(args, serialize(_load_structure(args, parser)), None)
    return 0


def _cmd_build_upb(args, parser) -> int:
    ts = _load_structure(args, parser)
    verdict = is_u_tile(ts)
    if not verdict.is_u_tile:
        print("error: not a U-tile structure\n" + _describe_witness(verdict.witness),
              file=sys.stderr)
        return 1
    labels = upb_state_labels(ts)
    lines = [f"{len(labels)} states on a {ts.m} x {ts.n} grid"]
    lines += [f"  {i}: {label}" for i, label in enumerate(labels)]
    origin = {"m": ts.m, "n": ts.n, "grid": ts.cell_map}
    _emit(args, "\n".join(lines), {"m": ts.m, "n": ts.n, "origin": origin, "states": labels})
    return 0


def _verify_note(cert, product_found: bool) -> str:
    """How the certificate and the seesaw probe read together."""
    if cert.refusal:
        return f"complement not certified, search skipped: {cert.refusal}"
    if cert.verdict is None:
        return "complement is empty; unextendibility holds vacuously"
    if cert.u_tile:
        return ("the seesaw found a product state in the complement of a U-tile origin, "
                "which contradicts the U-tile theorem" if product_found else
                "U-tile: no product state in the complement; the seesaw found none")
    if cert.max_overlap <= DEFAULT_ORTH_TOL:
        return ("not a U-tile: the witness is a product state in the complement "
                "(extendibility certificate); the seesaw "
                + ("found one too" if product_found else "missed it"))
    return ("not a U-tile, but the witness state overlaps the states: relative "
            f"{cert.max_overlap:.3e} exceeds {DEFAULT_ORTH_TOL:.1e}")


def _cmd_verify_upb(args, parser) -> int:
    """``certify_upb``'s verdict, cross-checked by the seesaw probe once a
    nonempty complement is certified; a product state the probe finds
    fails the check (for a U-tile origin it contradicts the theorem)."""
    upb = build_upb(_load_structure(args, parser))
    restarts, seed = _check_search_settings(args.restarts, args.seed)
    cert = certify_upb(upb)
    search = None if cert.verdict is None else seesaw_search(upb.origin, restarts, seed)
    product_found = search is not None and search.best_overlap > 1.0 - PRODUCT_THRESHOLD
    passed = cert.ok and not product_found
    note = _verify_note(cert, product_found)
    lines = [
        f"size: {cert.size} (expected {cert.expected_size})",
        f"orthogonal: {cert.orthogonal} (max off-diagonal {cert.max_offdiagonal:.3e})",
        f"complement dimension: {cert.complement_dim} "
        f"(expected {cert.expected_complement_dim})",
    ]
    if search is not None:
        lines.append(f"best product overlap: {search.best_overlap:.12f} "
                     f"over {search.restarts_run} restarts")
        search = _fields_json(search, best_product=_product_json(search.best_product))
    lines += [note, "verdict: " + ("unextendible product basis" if passed else "FAILED")]
    # "certificate" is the U-tile verdict, None when none was made
    origin = None if cert.verdict is None else {"u_tile": cert.u_tile, "witness": None}
    if origin and not cert.u_tile:
        origin.update(witness=_witness_json(cert.verdict.witness), max_overlap=cert.max_overlap)
    settings = dict(restarts=restarts, max_iters=DEFAULT_MAX_ITERS, conv_tol=DEFAULT_CONV_TOL,
                    seed=seed, orth_tol=DEFAULT_ORTH_TOL, product_threshold=PRODUCT_THRESHOLD)
    _emit(args, "\n".join(lines), {
        **_attrs(cert, "size", "expected_size", "size_ok", "orthogonal", "max_offdiagonal",
                 "stopper_law_ok", "complement_dim", "expected_complement_dim"),
        "product_found": product_found, "passed": passed, "note": note, "settings": settings,
        "certificate": origin, "search": search,
    })
    return 0 if passed else 1


def _cmd_ppt(args, parser) -> int:
    """The complement state's trace, rank and spectra, read off
    ``certify_upb`` by the closed form ``tileupb.ppt`` states, so no
    state is formed; a refused set is an error, and an empty complement
    (one tile) reads rank 0."""
    upb = build_upb(_load_structure(args, parser))
    cert = certify_upb(upb)
    if cert.refusal:
        raise ValueError(cert.refusal)
    rank, dim = cert.complement_dim, upb.m * upb.n
    expected_rank = dim - len(upb.a)
    report = dict(
        dim=dim, trace=1.0 if rank else 0.0, rank=rank, expected_rank=expected_rank,
        min_eigenvalue=0.0, min_eigenvalue_pt=0.0, ppt=True, ok=rank == expected_rank > 0,
        spectrum_certificate=(
            "closed form: the certified complement makes rho its projector over "
            "s - 1 (eigenvalues 1/(s - 1) and 0), and real rectangular tiles "
            "give rho^Gamma = rho" if rank else "none: empty complement"),
        entangled_certificate=(
            "range criterion: the support is the orthogonal complement of an "
            "unextendible product set, so it contains no product state" if cert.u_tile else None),
        warning=(None if cert.u_tile else
                 "the origin is not U-tile: the support contains its extension state, "
                 "so the range criterion certifies no entanglement")
        if rank else "degenerate input: the set spans the whole space",
    )
    text = ("trace: {trace:.12f}\nrank: {rank} (expected {expected_rank})\n"
            "min eigenvalue: {min_eigenvalue:.3e}\n"
            "min eigenvalue after partial transpose: {min_eigenvalue_pt:.3e}\n"
            "ppt: {ppt}\nspectrum: {spectrum_certificate}\n").format(**report)
    if report["warning"]:
        text += f"warning: {report['warning']}\n"
    certified = report["ok"] and cert.u_tile
    _emit(args, text + "verdict: " + ("ok" if certified else "FAILED"), report)
    return 0 if certified else 1


def _cmd_distinguish(args, parser) -> int:
    protocol = build_theorem3_protocol(args.m, args.n)
    upb = build_upb(prop2(args.m, args.n))
    resource_dim = len(protocol.outcomes)  # one root outcome per resource level
    report = verify_protocol(protocol, *attach_resource(upb.a, upb.b, resource_dim))
    lines = [
        f"states: {len(upb.a)} on {args.m} x {args.n} with a {resource_dim}-level resource",
        f"min success probability: {report.min_success_probability:.12f}",
        f"max misidentification probability: {report.max_wrong_probability:.3e}",
    ]
    for problem in report.branch_violations + report.leaf_violations:
        lines.append(f"violation: {problem}")
    lines.append("verdict: " + ("perfect discrimination" if report.ok else "FAILED"))
    _emit(args, "\n".join(lines), {"m": args.m, "n": args.n, "resource_dim": resource_dim,
                                   "report": _fields_json(report, "min_success_probability", "ok")})
    return 0 if report.ok else 1


def _arg(*flags, **kwargs):
    return flags, kwargs


FAMILY_ARGS = (
    _arg("--family", choices=sorted(FAMILIES), help="use a built-in family"),
    _arg("--m", type=int, help="family row count"),
    _arg("--n", type=int, help="family column count"),
    _arg("--tiles", type=int, help="family tile count (prop3)"),
)
OUTPUT_ARGS = (
    _arg("-o", "--output", metavar="PATH", help="write the result to a file"),
    _arg("--json", action="store_true", help="emit JSON instead of text"),
)
REPORT_ARGS = (
    _arg("file", nargs="?", metavar="FILE", help="read the tile grid from this file"),
    *FAMILY_ARGS,
    *OUTPUT_ARGS,
)

# subcommand -> (handler, help, its arguments in the order --help lists them);
# the arguments name the structure source: FILE or --family, --family alone
# (gen, which writes a grid and so takes no --json), or neither (distinguish)
COMMANDS = {
    "validate": (_cmd_validate, "check a tile structure for well-formedness", REPORT_ARGS),
    "check-utile": (_cmd_check_utile, "decide the U-tile property", REPORT_ARGS),
    "gen": (_cmd_gen, "write a built-in family grid", (*FAMILY_ARGS, OUTPUT_ARGS[0])),
    "build-upb": (_cmd_build_upb, "construct the product basis of a tile structure",
                  REPORT_ARGS),
    "verify-upb": (_cmd_verify_upb, "verify orthogonality and unextendibility", (
        *REPORT_ARGS,
        _arg("--restarts", type=int, default=DEFAULT_RESTARTS,
             help=f"seesaw restarts, at least 1 (default {DEFAULT_RESTARTS})"),
        _arg("--seed", type=int, default=0, help="seesaw random seed, non-negative (default 0)"),
    )),
    "ppt": (_cmd_ppt, "print the certificate's closed-form values; no state is built", REPORT_ARGS),
    "distinguish": (_cmd_distinguish,
                    "build and verify a discrimination protocol for the ring family", (
        _arg("--m", type=int, required=True, help="row count (even)"),
        _arg("--n", type=int, required=True, help="column count"),
        *OUTPUT_ARGS,
    )),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tileupb", description=(
        "Tile structures, unextendible product bases, and discrimination protocols."))
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, ValueError) as exc:  # both TileGrid*Error classes are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, TileGridContentError) else 2


if __name__ == "__main__":
    sys.exit(main())
