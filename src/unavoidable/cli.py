"""Command-line front end.

Subcommands: analyze | pi | dual | realize | wh | gen | join | deljoin | certify.
``--json`` switches stdout to a schema-stable report; identical inputs and
flags produce byte-identical JSON (the ``timings`` field is excluded from
that guarantee).  Exit codes: 0 ok/certified, 1 usage, 2 input parse,
3 not certified, 4 abstained, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .complexes import (
    ScxFormatError,
    SimplicialComplex,
    VOID,
    alexander_dual,
    format_scx,
    is_self_dual,
    join,
    load_scx,
)
from .certify import certify_join_nonembeddable, certify_single_nonembeddable, exit_code
from .errors import BudgetExceededError
from .generators import (
    DEFAULT_COLORING_BUDGET,
    DEFAULT_DELETED_JOIN_BUDGET,
    contains_clique,
    deleted_join_faces,
    is_admissible,
    points,
    ramsey_complex,
    random_selfdual,
    skeleton,
)
from .partitions import (
    PartitionWitness,
    is_minimally_r_unavoidable,
    is_r_unavoidable,
    is_rs_unavoidable,
    max_disjoint_min_nonfaces,
    partition_number,
)
from .realize import (
    DEFAULT_LP_CONSTRAINT_CAP,
    LpVerdict,
    is_linearly_realizable,
    linear_subcomplex_witness,
    selfdual_wh_realization,
    weights_from_json,
    weights_to_json,
    wh_realization_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_CERTIFIED = 3
EXIT_ABSTAINED = 4
EXIT_BUDGET = 5


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}; write p/q") from None


def _load_complex(path: str) -> SimplicialComplex:
    try:
        return load_scx(path)
    except (OSError, ScxFormatError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _witness_json(witness: Optional[PartitionWitness]):
    if witness is None:
        return None
    return {
        "blocks": [list(b) for b in witness.blocks],
        "offending": list(witness.offending),
    }


def _verdict_json(verdict: LpVerdict) -> dict:
    return {
        "feasible": verdict.feasible,
        "margin": None if verdict.margin is None else str(verdict.margin),
        "witness": None if verdict.witness is None else [str(w) for w in verdict.witness.weights],
        "note": verdict.infeasibility_note,
    }


def build_parser() -> _Parser:
    # Global flags are declared on the main parser (with real defaults) and on
    # every subparser (defaulting to SUPPRESS), so they parse in any position.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON report")

    parser = _Parser(prog="unavoidable",
                     description="Exact toolkit for r-unavoidable simplicial complexes.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON result schemas and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pi", parents=[common], help="partition number with packing witness")
    p.add_argument("file")
    p.add_argument("--check", action="append", default=[], metavar="R[:S]",
                   help="also report (r,s)-unavoidability; repeatable")

    p = sub.add_parser("analyze", parents=[common], help="summary: pi, self-duality, unavoidability")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("dual", parents=[common], help="Alexander dual as .scx (or VOID)")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("realize", parents=[common], help="linear realizability LP")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--relaxed", action="store_true",
                   help="drop facet constraints (contained realizable subcomplex)")
    p.add_argument("--lp-cap", type=int, default=DEFAULT_LP_CONSTRAINT_CAP)

    p = sub.add_parser("wh", parents=[common], help="weighted-hypergraph realizability")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=2)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", default=None, help="weights JSON file")
    group.add_argument("--canonical", action="store_true",
                       help="emit the canonical realization of a self-dual complex")

    p = sub.add_parser("gen", parents=[common], help="generate example complexes")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("skeleton", parents=[common])
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g = gsub.add_parser("points", parents=[common])
    g.add_argument("--m", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g = gsub.add_parser("ramsey", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--clique", type=int, required=True)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--check-admissible", action="store_true")
    g.add_argument("--allow-empty-classes", action="store_true", default=True)
    g.add_argument("--no-empty-classes", dest="allow_empty_classes", action="store_false")
    g.add_argument("--budget", type=int, default=DEFAULT_COLORING_BUDGET)
    g.add_argument("-o", "--output", default=None)
    g = gsub.add_parser("selfdual", parents=[common])
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", default=None)

    p = sub.add_parser("join", parents=[common], help="join of complexes (vertices relabeled)")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("deljoin", parents=[common], help="f-vector of the r-fold deleted join")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_DELETED_JOIN_BUDGET)

    p = sub.add_parser("certify", parents=[common], help="non-embeddability certificates")
    p.add_argument("files", nargs="+")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--single", action="store_true",
                   help="single-complex criterion m >= (r-1)(d+2)+1")

    return parser


_SCHEMAS = {
    "report": {
        "command": "string",
        "version": "string",
        "inputs": {"<path>": "sha256:<hex>"},
        "results": "object (per-command schema below)",
        "timings": {"<phase>_ms": "float (excluded from determinism guarantees)"},
    },
    "pi": {"pi": "int", "D": "int", "witness_blocks": [["int"]], "leftover": ["int"],
           "r_checks": [{"r": "int", "s": "int|null", "verdict": "bool",
                         "witness": {"blocks": [["int"]], "offending": ["bool"]}}]},
    "analyze": {"m": "int", "num_facets": "int", "num_min_nonfaces": "int", "pi": "int",
                "self_dual": "bool", "r": "int|null", "unavoidable": "bool|null",
                "minimally_unavoidable": "bool|null",
                "witness": {"blocks": [["int"]], "offending": ["bool"]}},
    "dual": {"void": "bool", "scx": "string|null"},
    "realize": {"feasible": "bool", "margin": "p/q|null", "witness": ["p/q"],
                "note": "string|null"},
    "wh": {"verdict": "bool"},
    "wh --canonical": {"m": "int", "family": [["int"]], "omega": ["p/q"]},
    "gen": {"scx": "string", "edges": [["int"]], "admissible": "bool|null"},
    "join": {"scx": "string"},
    "deljoin": {"f_vector": ["int"], "total": "int"},
    "certify": "certificate object (kind, r, prime_power, d, s, factors, inequality, "
               "bound, dimension_form, verdict, reasons, conclusion)",
}


def _emit(args, command: str, inputs: dict, results: dict, timings: dict,
          plain_lines: list[str]) -> None:
    if args.json:
        report = {
            "command": command,
            "version": __version__,
            "inputs": inputs,
            "results": results,
            "timings": timings,
        }
        print(json.dumps(report, indent=2))
    else:
        for line in plain_lines:
            print(line)


def _scx_out(args, text: str, plain_lines_prefix: list[str]) -> list[str]:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return plain_lines_prefix + [f"wrote {args.output}"]
    return plain_lines_prefix + [text.rstrip("\n")]


def _cmd_pi(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    t1 = time.perf_counter()
    d_max, packing = max_disjoint_min_nonfaces(K)
    pi = d_max + 1
    r_checks = []
    for check_text in args.check:
        parts = check_text.split(":")
        try:
            r = int(parts[0])
            s = int(parts[1]) if len(parts) > 1 else None
        except (ValueError, IndexError):
            raise UsageError(f"bad --check value {check_text!r}; use R or R:S") from None
        if s is None:
            ok, witness = is_r_unavoidable(K, r)
        else:
            ok, witness = is_rs_unavoidable(K, r, s)
        r_checks.append({"r": r, "s": s, "verdict": ok, "witness": _witness_json(witness)})
    t2 = time.perf_counter()
    results = {
        "pi": pi,
        "D": d_max,
        "witness_blocks": [list(b) for b in packing.nonfaces],
        "leftover": list(packing.leftover),
        "r_checks": r_checks,
    }
    plain = [f"pi = {pi}"]
    for chk in r_checks:
        tag = f"({chk['r']},{chk['s']})-unavoidable" if chk["s"] else f"{chk['r']}-unavoidable"
        plain.append(f"{tag} = {str(chk['verdict']).lower()}")
    _emit(args, "pi", {args.file: _digest(args.file)}, results,
          {"parse_ms": (t1 - t0) * 1e3, "compute_ms": (t2 - t1) * 1e3}, plain)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    t1 = time.perf_counter()
    pi = partition_number(K)
    dual = is_self_dual(K)
    results = {
        "m": K.m,
        "num_facets": len(K.facets),
        "num_min_nonfaces": len(K.min_nonfaces),
        "pi": pi,
        "self_dual": dual,
        "r": args.r,
        "unavoidable": None,
        "minimally_unavoidable": None,
        "witness": None,
    }
    plain = [f"m = {K.m}", f"pi = {pi}", f"self_dual = {str(dual).lower()}"]
    if args.r is not None:
        ok, witness = is_r_unavoidable(K, args.r)
        results["unavoidable"] = ok
        results["witness"] = _witness_json(witness)
        results["minimally_unavoidable"] = is_minimally_r_unavoidable(K, args.r)
        plain.append(f"r = {args.r}")
        plain.append(f"unavoidable = {str(ok).lower()}")
        plain.append(f"minimally_unavoidable = {str(results['minimally_unavoidable']).lower()}")
    t2 = time.perf_counter()
    _emit(args, "analyze", {args.file: _digest(args.file)}, results,
          {"parse_ms": (t1 - t0) * 1e3, "compute_ms": (t2 - t1) * 1e3}, plain)
    return EXIT_OK


def _cmd_dual(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    dual = alexander_dual(K)
    t1 = time.perf_counter()
    if dual is VOID:
        results = {"void": True, "scx": None}
        plain = ["void"]
    else:
        text = format_scx(dual)
        results = {"void": False, "scx": text}
        plain = _scx_out(args, text, [])
    _emit(args, "dual", {args.file: _digest(args.file)}, results,
          {"total_ms": (t1 - t0) * 1e3}, plain)
    return EXIT_OK


def _cmd_realize(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    solver = linear_subcomplex_witness if args.relaxed else is_linearly_realizable
    verdict = solver(K, args.r, max_constraints=args.lp_cap)
    t1 = time.perf_counter()
    results = _verdict_json(verdict)
    plain = [f"feasible = {str(verdict.feasible).lower()}"]
    if verdict.margin is not None:
        plain.append(f"margin = {verdict.margin}")
    if verdict.witness is not None:
        plain.append("witness = " + " ".join(str(w) for w in verdict.witness.weights))
    if verdict.infeasibility_note:
        plain.append(f"note = {verdict.infeasibility_note}")
    _emit(args, "realize", {args.file: _digest(args.file)}, results,
          {"total_ms": (t1 - t0) * 1e3}, plain)
    return EXIT_OK


def _cmd_wh(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    inputs = {args.file: _digest(args.file)}
    if args.canonical:
        try:
            F = selfdual_wh_realization(K)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        results = weights_to_json(F)
        plain = [json.dumps(results)]
    else:
        try:
            with open(args.weights, "r", encoding="utf-8") as fh:
                F = weights_from_json(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise InputError(f"{args.weights}: {exc}") from None
        inputs[args.weights] = _digest(args.weights)
        ok = wh_realization_check(K, args.r, F)
        results = {"verdict": ok}
        plain = [f"verdict = {str(ok).lower()}"]
    t1 = time.perf_counter()
    _emit(args, "wh", inputs, results, {"total_ms": (t1 - t0) * 1e3}, plain)
    return EXIT_OK


def _cmd_gen(args) -> int:
    t0 = time.perf_counter()
    results: dict = {}
    if args.generator == "skeleton":
        K = skeleton(args.k, args.m)
    elif args.generator == "points":
        K = points(args.m)
    elif args.generator == "selfdual":
        K = random_selfdual(args.m, args.seed)
    else:
        K, table = ramsey_complex(args.n, contains_clique(args.clique), budget=args.budget)
        results["edges"] = [list(e) for e in table]
        if args.check_admissible:
            results["admissible"] = is_admissible(
                args.n, contains_clique(args.clique), args.r,
                allow_empty_classes=args.allow_empty_classes, budget=args.budget)
    text = format_scx(K)
    results["scx"] = text
    t1 = time.perf_counter()
    plain: list[str] = []
    if "admissible" in results:
        plain.append(f"admissible = {str(results['admissible']).lower()}")
    plain = _scx_out(args, text, plain)
    _emit(args, "gen", {}, results, {"total_ms": (t1 - t0) * 1e3}, plain)
    return EXIT_OK


def _cmd_join(args) -> int:
    t0 = time.perf_counter()
    complexes = [_load_complex(path) for path in args.files]
    K = complexes[0]
    for other in complexes[1:]:
        K = join(K, other)
    text = format_scx(K)
    t1 = time.perf_counter()
    _emit(args, "join", {path: _digest(path) for path in args.files},
          {"scx": text}, {"total_ms": (t1 - t0) * 1e3}, _scx_out(args, text, []))
    return EXIT_OK


def _cmd_deljoin(args) -> int:
    t0 = time.perf_counter()
    K = _load_complex(args.file)
    counts = deleted_join_faces(K, args.r, budget=args.budget)
    t1 = time.perf_counter()
    results = {"f_vector": list(counts), "total": sum(counts)}
    plain = [f"f_vector = {list(counts)}", f"total = {sum(counts)}"]
    _emit(args, "deljoin", {args.file: _digest(args.file)}, results,
          {"total_ms": (t1 - t0) * 1e3}, plain)
    return EXIT_OK


def _cmd_certify(args) -> int:
    t0 = time.perf_counter()
    complexes = [_load_complex(path) for path in args.files]
    if args.single:
        if len(complexes) != 1:
            raise UsageError("--single takes exactly one complex")
        cert = certify_single_nonembeddable(complexes[0], args.r, args.d)
    else:
        cert = certify_join_nonembeddable(complexes, args.r, args.d)
    t1 = time.perf_counter()
    plain = [cert.verdict]
    if cert.inequality is not None:
        plain.append(f"inequality: {cert.inequality.text} "
                     f"({'holds' if cert.inequality.holds else 'fails'})")
    for reason in cert.reasons:
        plain.append(f"reason: {reason}")
    if cert.conclusion:
        plain.append(f"conclusion: {cert.conclusion}")
    _emit(args, "certify", {path: _digest(path) for path in args.files},
          cert.to_json(), {"total_ms": (t1 - t0) * 1e3}, plain)
    return exit_code(cert)


_COMMANDS = {
    "pi": _cmd_pi,
    "analyze": _cmd_analyze,
    "dual": _cmd_dual,
    "realize": _cmd_realize,
    "wh": _cmd_wh,
    "gen": _cmd_gen,
    "join": _cmd_join,
    "deljoin": _cmd_deljoin,
    "certify": _cmd_certify,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.schema:
        print(json.dumps(_SCHEMAS, indent=2))
        return EXIT_OK
    if args.command is None:
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
