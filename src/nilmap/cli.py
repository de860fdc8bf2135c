"""Command-line interface.

One verb per library capability.  Exit codes: 0 success (or checked
property true), 1 checked property false, 2 parse/validation error (or a
result holding a number too long to print), 3 violated structural
guarantee or failed internal reconstruction.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable

from . import analysis, classify, tame
from .errors import (
    GuaranteeError,
    NilmapError,
    NotTriangularizable,
    ParseError,
    PreconditionError,
    ResultTooLarge,
    ShapeError,
)
from .linalg import LinearMap, RationalMatrix, poly_matrix_rank
from .parsing import (
    format_map,
    format_polynomial,
    load_map_text,
    map_to_document,
    parse_components,
    parse_polynomial,
    read_json,
)
from .poly import PolyMap

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3

DEFAULT_SEED = 20240824


def _read_text(path: str) -> str:
    """The content of a UTF-8 input file; other bytes are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")


def _read_map(args) -> PolyMap:
    return load_map_text(_read_text(args.file), aliases=args.var_alias)


def _emit(args, doc: Callable[[], dict], plain: Callable[[], str]):
    """Print the JSON document under --json, else the plain text.

    Both are zero-argument callables, so only the form that is printed is
    built (formatting polynomials is a large part of some verbs).  A number
    with more digits than Python converts to text is a ResultTooLarge
    (exit 2), raised before anything is printed.
    """
    try:
        text = json.dumps(doc(), indent=2, sort_keys=True) if args.json else plain()
    except ValueError as exc:
        if "string conversion" not in str(exc):
            raise
        raise ResultTooLarge(
            f"the result holds a number of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print"
        ) from None
    print(text)


def _cmd_jacobian(args) -> int:
    H = _read_map(args)
    J = analysis.jacobian(H)
    _emit(
        args,
        lambda: {"jacobian": J.to_json(args.var_alias)},
        lambda: "\n".join("  ".join(r) for r in J.to_json(args.var_alias)),
    )
    return EXIT_OK


def _cmd_nilpotent(args) -> int:
    H = _read_map(args)
    report = analysis.nilpotency_equations(H)
    _emit(
        args,
        lambda: report.to_json(args.var_alias),
        lambda: "nilpotent" if report.nilpotent else
        f"not nilpotent: sigma_{report.witness[0]} = "
        f"{format_polynomial(report.witness[1], args.var_alias)}",
    )
    return EXIT_OK if report.nilpotent else EXIT_FALSE


def _cmd_rank(args) -> int:
    H = _read_map(args)
    r = poly_matrix_rank(analysis.jacobian(H))
    _emit(args, lambda: {"rank": r}, lambda: f"rank {r}")
    return EXIT_OK


def _cmd_depend(args) -> int:
    H = _read_map(args)
    cert = analysis.linear_dependence(H.components)
    if cert is None:
        _emit(args, lambda: {"dependent": False}, lambda: "independent")
        return EXIT_FALSE
    _emit(
        args,
        lambda: {"dependent": True, **cert.to_json()},
        lambda: "dependent: " + ", ".join(str(c) for c in cert.coefficients),
    )
    return EXIT_OK


def _parse_matrix(text: str) -> LinearMap:
    data = read_json(text)
    return LinearMap(RationalMatrix.from_json(data))


def _cmd_conjugate(args) -> int:
    H = _read_map(args)
    T = _parse_matrix(args.matrix)
    result = analysis.conjugate(H, T)
    _emit(
        args,
        lambda: map_to_document(result, args.var_alias),
        lambda: format_map(result, args.var_alias),
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    H = _read_map(args)
    witness = analysis.nilpotency_witness(H)
    if witness is not None:
        k, s = witness
        aliases = args.var_alias
        _emit(
            args,
            lambda: {
                "nilpotent": False,
                "witness": {"k": k, "sigma_k": format_polynomial(s, aliases)},
            },
            lambda: f"not nilpotent: sigma_{k} = {format_polynomial(s, aliases)}",
        )
        return EXIT_FALSE
    recognized = classify.recognize_canonical_pair(H)
    if recognized is not None:
        T, params = recognized
        _emit(
            args,
            lambda: {
                "nilpotent": True,
                "route": "canonical-pair",
                "T": T.matrix.to_json(),
                "params": params.to_json(),
            },
            lambda: "canonical pair form recognized",
        )
        return EXIT_OK
    try:
        T, reduced = classify.normalize_low_z_degree(classify.FormAInstance(H))
    except (ShapeError, PreconditionError):
        pass  # the low-z route does not apply to H
    else:
        _emit(
            args,
            lambda: {
                "nilpotent": True,
                "route": "low-z-normalization",
                "T": T.matrix.to_json(),
                "status": "external-form-reached",
                "map": map_to_document(reduced, args.var_alias),
            },
            lambda: "normalized: external-form-reached",
        )
        return EXIT_OK
    _emit(
        args,
        lambda: {"nilpotent": True, "route": "unclassified"},
        lambda: "nilpotent, but no classification route applies",
    )
    return EXIT_OK


def _cmd_build_canonical(args) -> int:
    doc = read_json(_read_text(args.file))
    if not isinstance(doc, dict):
        raise ParseError("malformed parameter document: expected a JSON object")
    for name in ("a1", "a2", "c1", "c2", "h"):
        if not isinstance(doc.get(name), str):
            raise ParseError(
                f"malformed parameter document: {name!r} must be a "
                f"polynomial string"
            )
    params = classify.CanonicalFormA(
        parse_polynomial(doc["a1"], 1, aliases="z"),
        parse_polynomial(doc["a2"], 1, aliases="z"),
        parse_polynomial(doc["c1"], 1, aliases="z"),
        parse_polynomial(doc["c2"], 1, aliases="z"),
        parse_polynomial(doc["h"], 2, aliases="tz"),
    )
    H = classify.build_canonical_pair(params)
    _emit(
        args,
        lambda: map_to_document(H, args.var_alias),
        lambda: format_map(H, args.var_alias),
    )
    return EXIT_OK


def _cmd_invert(args) -> int:
    F = _read_map(args)
    G = tame.formal_inverse(F, args.degree_bound)
    if G is None:
        _emit(
            args, lambda: {"inverse": None}, lambda: "no polynomial inverse found"
        )
        return EXIT_FALSE
    _emit(
        args,
        lambda: {"inverse": map_to_document(G, args.var_alias)},
        lambda: format_map(G, args.var_alias),
    )
    return EXIT_OK


def _cmd_decompose(args) -> int:
    F = _read_map(args)
    try:
        factorization = tame.classify_and_decompose(F)
    except NotTriangularizable as exc:
        _emit(
            args,
            lambda: {"tame": False, "reason": str(exc)},
            lambda: f"not decomposed: {exc}",
        )
        return EXIT_FALSE
    _emit(
        args,
        lambda: factorization.to_json(args.var_alias),
        lambda: f"{len(factorization.factors)} factors",
    )
    return EXIT_OK


def _cmd_keller4d(args) -> int:
    polys = parse_components(_read_text(args.file), 2, args.var_alias, count=4)
    h = classify.ReducedForm4D(*polys)
    keller = classify.keller_parameterized_check(h)
    nilp = analysis.is_nilpotent(h.realize())
    _emit(
        args,
        lambda: {"keller_parameterized": keller, "realized_nilpotent": nilp},
        lambda: f"keller: {keller}, realized nilpotent: {nilp}",
    )
    return EXIT_OK if keller else EXIT_FALSE


def _cmd_verify(args) -> int:
    from . import suites  # imports the generators, which only `verify` uses

    results = []
    for index, (name, _) in enumerate(suites.SUITES):
        result = {"name": name, "passed": True, "detail": "", "counts": {}}
        try:
            result["counts"] = suites.run(index, args.seed)
        except GuaranteeError as exc:
            # Name the suite and the generator it drew from, so the failure
            # can be replayed; the message keeps the instance dump.
            exc.args = (f"suite {name}, Random({args.seed + index}): {exc}",)
            raise
        except (AssertionError, NilmapError) as exc:
            result.update(passed=False, detail=str(exc))
        results.append(result)
    lines = [
        f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}"
        + (f": {r['detail']}" if r["detail"] else "")
        for r in results
    ]
    doc = {"seed": args.seed, "suites": results}
    _emit(args, lambda: doc, lambda: "\n".join(lines))
    # Every suite asserts a proved guarantee, so a failed suite is a violation.
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `run_command` call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="nilmap",
        description="Exact toolkit for polynomial maps with nilpotent Jacobians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_file:
            p.add_argument("-f", "--file", required=True, help="input file")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument(
            "--var-alias",
            default="xyzw",
            help="single-letter variable aliases (default xyzw)",
        )
        p.set_defaults(handler=fn)
        return p

    add("jacobian", _cmd_jacobian, help="print the Jacobian matrix")
    add("nilpotent", _cmd_nilpotent, help="nilpotency certificate")
    add("rank", _cmd_rank, help="symbolic rank of the Jacobian")
    add("depend", _cmd_depend, help="linear dependence certificate")
    p = add("conjugate", _cmd_conjugate, help="conjugate by a linear map")
    p.add_argument(
        "-m",
        "--matrix",
        required=True,
        help='matrix as JSON rows of rational strings, e.g. [["1","0"],["0","1"]]',
    )
    add("classify", _cmd_classify, help="run the classification pipeline")
    add(
        "build-canonical",
        _cmd_build_canonical,
        help="build the canonical pair form from a JSON parameter file",
    )
    p = add("invert", _cmd_invert, help="formal polynomial inverse")
    p.add_argument("--degree-bound", type=int, default=None)
    add("decompose", _cmd_decompose, help="tame factorization")
    add("keller4d", _cmd_keller4d, help="parameterized Keller check")
    p = add("verify", _cmd_verify, needs_file=False, help="randomized suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except GuaranteeError as exc:
        print(f"guarantee violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (NilmapError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
