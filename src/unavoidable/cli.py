"""Command-line front end.

Subcommands: analyze | pi | dual | realize | wh | gen | join | deljoin | certify.
``--json`` switches stdout to a schema-stable report; identical inputs and
flags produce byte-identical JSON (the ``timings`` field is excluded from
that guarantee).  Exit codes: 0 ok/certified, 1 usage, 2 input parse,
3 not certified, 4 abstained, 5 budget exceeded.  Usage errors are decided
before any input file is read, apart from an unwritable ``-o`` path, which
is found when the output is written; ``run`` maps every error to its exit
code in one place.  ``main`` adds one more code: 141 (128 + SIGPIPE) when
stdout is closed early, as in ``unavoidable gen ... | head -1``.

The parser is built once per process (``build_parser`` is cached), so
repeated ``run`` calls pay argparse's set-up once.  Input files are hashed
with the interpreter's built-in SHA-256, not through ``hashlib``, whose
import loads OpenSSL; the digests are the same.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import time
from dataclasses import asdict

# The fallback chain ``random`` uses for SHA-512; ``hashlib`` loads OpenSSL.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from .complexes import (
    ScxFormatError,
    SimplicialComplex,
    VOID,
    alexander_dual,
    format_scx,
    is_self_dual,
    join,
    parse_scx,
)
from .certify import certify_join_nonembeddable, certify_single_nonembeddable, exit_code
from .errors import BudgetExceededError
from .generators import (
    DEFAULT_DELETED_JOIN_BUDGET,
    contains_clique,
    deleted_join_faces,
    points,
    ramsey_complex,
    random_selfdual,
    skeleton,
)
from .partitions import (
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


def _read(path: str, report: dict) -> str:
    """Read ``path`` once: record the sha256 of its bytes in the report's
    ``inputs`` and return the text that ``open(path, encoding="utf-8")``
    would give (universal newlines, so parse error positions match)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None
    report["inputs"][path] = "sha256:" + _sha256(data).hexdigest()
    return text


def _load_complex(path: str, report: dict) -> SimplicialComplex:
    t0 = time.perf_counter()
    text = _read(path, report)
    try:
        K = parse_scx(text)
    except ScxFormatError as exc:
        raise InputError(f"{path}: {exc}") from None
    timings = report["timings"]
    timings["parse_ms"] = timings.get("parse_ms", 0.0) + (time.perf_counter() - t0) * 1e3
    return K


def _check_value(text: str) -> tuple[int, int | None]:
    """``--check`` value ``R`` or ``R:S`` as ``(r, s)``, ``s`` None for ``R``."""
    r_text, colon, s_text = text.partition(":")
    try:
        return int(r_text), int(s_text) if colon else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; use R or R:S") from None


def _verdict_json(verdict: LpVerdict) -> dict:
    return {
        "feasible": verdict.feasible,
        "margin": None if verdict.margin is None else str(verdict.margin),
        "witness": None if verdict.witness is None else [str(w) for w in verdict.witness.weights],
        "note": verdict.infeasibility_note,
    }


@functools.cache
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
    p.add_argument("--check", action="append", default=[], type=_check_value, metavar="R[:S]",
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
    p.add_argument("--r", type=int, default=None)  # 2 unless given; refused with --canonical
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
    g.add_argument("--r", type=int, default=None)  # 2 unless given; needs --check-admissible
    g.add_argument("--check-admissible", action="store_true")
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
        "timings": {"parse_ms": "float: reading and parsing the input complexes; absent "
                                "for gen (timings are excluded from determinism guarantees)",
                    "total_ms": "float: the whole command"},
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


def _refuse_ignored_flags(args) -> None:
    """Refuse ``--r`` where the chosen mode would not read it (exit 1)."""
    if args.command == "wh" and args.canonical and args.r is not None:
        raise UsageError("argument --r: not allowed with argument --canonical")
    if (args.command == "gen" and args.generator == "ramsey" and args.r is not None
            and not args.check_admissible):
        raise UsageError("argument --r: only allowed with argument --check-admissible")


def _scx_out(args, text: str, plain_lines_prefix: list[str]) -> list[str]:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"{args.output}: {exc}") from None
        return plain_lines_prefix + [f"wrote {args.output}"]
    return plain_lines_prefix + [text.rstrip("\n")]


def _cmd_pi(args, report):
    K = _load_complex(args.file, report)
    d_max, packing = max_disjoint_min_nonfaces(K)
    pi = d_max + 1
    r_checks = []
    for r, s in args.check:
        ok, witness = is_r_unavoidable(K, r) if s is None else is_rs_unavoidable(K, r, s)
        r_checks.append({"r": r, "s": s, "verdict": ok,
                         "witness": None if witness is None else asdict(witness)})
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
    return results, plain, EXIT_OK


def _cmd_analyze(args, report):
    K = _load_complex(args.file, report)
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
        results["witness"] = None if witness is None else asdict(witness)
        results["minimally_unavoidable"] = is_minimally_r_unavoidable(K, args.r)
        plain.append(f"r = {args.r}")
        plain.append(f"unavoidable = {str(ok).lower()}")
        plain.append(f"minimally_unavoidable = {str(results['minimally_unavoidable']).lower()}")
    return results, plain, EXIT_OK


def _cmd_dual(args, report):
    dual = alexander_dual(_load_complex(args.file, report))
    if dual is VOID:
        if args.output:
            raise InputError(f"{args.file}: the Alexander dual is void and has no .scx form; "
                             f"{args.output} not written")
        return {"void": True, "scx": None}, ["void"], EXIT_OK
    text = format_scx(dual)
    return {"void": False, "scx": text}, _scx_out(args, text, []), EXIT_OK


def _cmd_realize(args, report):
    K = _load_complex(args.file, report)
    solver = linear_subcomplex_witness if args.relaxed else is_linearly_realizable
    verdict = solver(K, args.r, max_constraints=args.lp_cap)
    plain = [f"feasible = {str(verdict.feasible).lower()}"]
    if verdict.margin is not None:
        plain.append(f"margin = {verdict.margin}")
    if verdict.witness is not None:
        plain.append("witness = " + " ".join(str(w) for w in verdict.witness.weights))
    if verdict.infeasibility_note:
        plain.append(f"note = {verdict.infeasibility_note}")
    return _verdict_json(verdict), plain, EXIT_OK


def _cmd_wh(args, report):
    K = _load_complex(args.file, report)
    if args.canonical:
        results = weights_to_json(selfdual_wh_realization(K))
        return results, [json.dumps(results)], EXIT_OK
    try:
        F = weights_from_json(json.loads(_read(args.weights, report)))
    except (ValueError, TypeError) as exc:
        raise InputError(f"{args.weights}: {exc}") from None
    ok = wh_realization_check(K, 2 if args.r is None else args.r, F)
    return {"verdict": ok}, [f"verdict = {str(ok).lower()}"], EXIT_OK


def _cmd_gen(args, report):
    results: dict = {}
    if args.generator == "skeleton":
        K = skeleton(args.k, args.m)
    elif args.generator == "points":
        K = points(args.m)
    elif args.generator == "selfdual":
        K = random_selfdual(args.m, args.seed)
    else:
        K, table = ramsey_complex(args.n, contains_clique(args.clique))
        results["edges"] = [list(e) for e in table]
        if args.check_admissible:
            results["admissible"] = is_r_unavoidable(K, 2 if args.r is None else args.r)[0]
    text = format_scx(K)
    results["scx"] = text
    plain: list[str] = []
    if "admissible" in results:
        plain.append(f"admissible = {str(results['admissible']).lower()}")
    return results, _scx_out(args, text, plain), EXIT_OK


def _cmd_join(args, report):
    complexes = [_load_complex(path, report) for path in args.files]
    K = complexes[0]
    for other in complexes[1:]:
        K = join(K, other)
    text = format_scx(K)
    return {"scx": text}, _scx_out(args, text, []), EXIT_OK


def _cmd_deljoin(args, report):
    K = _load_complex(args.file, report)
    counts = deleted_join_faces(K, args.r, budget=args.budget)
    results = {"f_vector": list(counts), "total": sum(counts)}
    plain = [f"f_vector = {list(counts)}", f"total = {sum(counts)}"]
    return results, plain, EXIT_OK


def _cmd_certify(args, report):
    if args.single and len(args.files) != 1:
        raise UsageError("--single takes exactly one complex")
    complexes = [_load_complex(path, report) for path in args.files]
    if args.single:
        cert = certify_single_nonembeddable(complexes[0], args.r, args.d)
    else:
        cert = certify_join_nonembeddable(complexes, args.r, args.d)
    plain = [cert.verdict]
    if cert.inequality is not None:
        plain.append(f"inequality: {cert.inequality.text} "
                     f"({'holds' if cert.inequality.holds else 'fails'})")
    for reason in cert.reasons:
        plain.append(f"reason: {reason}")
    if cert.conclusion:
        plain.append(f"conclusion: {cert.conclusion}")
    return asdict(cert), plain, exit_code(cert)


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
        if args.schema:
            print(json.dumps(_SCHEMAS, indent=2))
            return EXIT_OK
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        _refuse_ignored_flags(args)
        t0 = time.perf_counter()
        report = {"command": args.command, "version": __version__, "inputs": {},
                  "results": None, "timings": {}}
        report["results"], plain, code = _COMMANDS[args.command](args, report)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, BudgetExceededError, InputError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_PARSE
    report["timings"]["total_ms"] = (time.perf_counter() - t0) * 1e3
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in plain:
            print(line)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: end quietly.  Pointing stdout at devnull
        # keeps the interpreter's final flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    sys.exit(code)


if __name__ == "__main__":
    main()
