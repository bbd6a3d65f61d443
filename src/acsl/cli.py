"""Command-line front end.

Reads link or homology data from JSON, dispatches to the evaluators,
and prints one JSON result object on standard output.  Exit codes:
0 success, 1 failed property suite, 2 input error, 3 undefined ratio
(vanishing normalization).  Errors are reported as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .cyclotomic import CycNum
from .invariants import (
    CouplingLevel,
    Invariant,
    SurgeryComponentError,
    s3_expectation,
    simplicial_satellite,
)
from .linkdiagram import (
    DiagramError,
    FramedLink,
    PDError,
    linking_matrix,
    parse_pd,
)


class InputError(ValueError):
    """Schema violation; the message names the offending field."""


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{path}: expected an integer, got {value!r}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def link_from_object(obj) -> FramedLink:
    """Build a FramedLink from the frozen JSON schema.

    Either a ``linking`` matrix (diagonal = framings or surgery
    coefficients) or a ``pd`` + ``components`` + ``framings`` diagram
    that is compiled down.  ``charges`` defaults to all zero with a
    warning, ``roles`` to all observed.
    """
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    if "linking" in obj:
        rows = _expect_list(obj["linking"], "linking")
        matrix = []
        for i, row in enumerate(rows):
            matrix.append(
                [_expect_int(x, f"linking[{i}][{j}]") for j, x in enumerate(_expect_list(row, f"linking[{i}]"))]
            )
        n = len(matrix)
    elif "pd" in obj:
        if not isinstance(obj["pd"], str):
            raise InputError("pd: expected a string")
        components = _expect_list(obj.get("components"), "components")
        text = obj["pd"] + " C: " + "; ".join(
            " ".join(str(_expect_int(e, f"components[{i}][{j}]")) for j, e in enumerate(_expect_list(comp, f"components[{i}]")))
            for i, comp in enumerate(components)
        )
        try:
            diagram = parse_pd(text)
        except (PDError, DiagramError) as exc:
            raise InputError(f"pd: {exc}") from exc
        framings = obj.get("framings", "blackboard")
        if isinstance(framings, list):
            framings = [_expect_int(f, f"framings[{i}]") for i, f in enumerate(framings)]
        elif framings != "blackboard":
            raise InputError(
                f"framings: expected \"blackboard\" or a list of integers, got {framings!r}"
            )
        try:
            compiled = linking_matrix(diagram, framings)
        except DiagramError as exc:
            raise InputError(f"framings: {exc}") from exc
        matrix = [list(row) for row in compiled.linking]
        n = len(matrix)
    else:
        raise InputError("top level: need either 'linking' or 'pd'")

    charges = obj.get("charges")
    if charges is None:
        if n:
            warnings.warn("charges missing; defaulting to all zero")
        charges = [0] * n
    else:
        charges = [_expect_int(q, f"charges[{i}]") for i, q in enumerate(_expect_list(charges, "charges"))]
    roles = obj.get("roles", ["observed"] * n)
    roles = _expect_list(roles, "roles")
    names = obj.get("names")
    if names is not None:
        names = [str(x) for x in _expect_list(names, "names")]
    try:
        return FramedLink.make(matrix, charges=charges, roles=roles, names=names)
    except DiagramError as exc:
        raise InputError(str(exc)) from exc


def load_link_json(path: str) -> FramedLink:
    """Load and validate a link file (matrix or diagram route)."""
    return link_from_object(_read_json(path))


def homology_from_object(obj):
    from . import HomologyData

    if not isinstance(obj, dict) or "genus" not in obj:
        raise InputError("top level: homology input needs 'genus', 'N', 'q_self'")
    genus = _expect_int(obj["genus"], "genus")
    pairings = [_expect_int(x, f"N[{i}]") for i, x in enumerate(_expect_list(obj.get("N"), "N"))]
    self_form = _expect_int(obj.get("q_self", 0), "q_self")
    try:
        return HomologyData(genus, tuple(pairings), self_form)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _coupling(args, obj) -> CouplingLevel:
    k = args.k if args.k is not None else obj.get("k") if isinstance(obj, dict) else None
    if k is None:
        raise InputError("coupling missing: pass --k or a top-level 'k'")
    try:
        return CouplingLevel.of(_expect_int(k, "k"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cyc_to_json(value: CycNum) -> dict:
    return {
        "n": value.n,
        "coeffs": [[c.numerator, c.denominator] for c in value.coeffs],
    }


def invariant_to_json(inv: Invariant) -> dict:
    """The result fields; the cyclotomic coordinates are built here, once."""
    value = inv.value
    numeric = value.embed()
    return {
        "zero": inv.is_zero,
        "order": inv.order,
        "phase_exponent": inv.phase_exponent(),
        "value": cyc_to_json(value),
        "numeric": [numeric.real, numeric.imag],
    }


def link_to_json(fl: FramedLink) -> dict:
    return {
        "linking": [list(row) for row in fl.linking],
        "charges": list(fl.charges),
        "roles": list(fl.roles),
        "names": list(fl.names),
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsl",
        description="Exact Abelian Chern-Simons link invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("s3", "expectation value of an observed link in S^3"),
        ("surgery", "expectation value in a surgery-presented 3-manifold"),
        ("s1xs2", "closed form for S^1 x S^2 from homology data"),
        ("s1xsigma", "closed form for S^1 x Sigma_g from homology data"),
        ("satellite", "expand a link to unit charges"),
        ("check", "run a randomized property suite"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--input", metavar="PATH", help="JSON input file")
        cmd.add_argument("--k", type=int, default=None, help="coupling (nonzero integer)")
        if name == "check":
            cmd.add_argument("--suite", metavar="NAME", required=True,
                             help="property suite to run (listed in the README)")
            cmd.add_argument("--trials", type=int, default=100)
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument("--max-terms", type=int, default=None,
                             help="enumeration term cap of the oracle and homology "
                                  "suites (default: the suite's own)")
    return parser


def run(argv) -> int:
    """Execute one job; returns the process exit code.

    Subcommands import what they use beyond the S^3 path through the
    package's public names, which is where perfbench/tracing.py wraps them.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            from .checks import SUITES

            if args.suite not in SUITES:
                raise InputError(f"suite: expected one of {', '.join(SUITES)}, got {args.suite!r}")
            if args.trials < 1:
                raise InputError(f"trials: expected a positive integer, got {args.trials}")
            if args.k == 0:
                raise InputError("k: coupling must be nonzero")
            kwargs = {"trials": args.trials, "seed": args.seed, "k": args.k}
            if args.max_terms is not None and args.suite in ("oracle", "homology"):
                kwargs["max_terms"] = args.max_terms
            report = SUITES[args.suite](**kwargs)
            _emit({"command": "check", **report})
            return 0 if report["passed"] else 1

        if args.input is None:
            raise InputError("--input is required")
        obj = _read_json(args.input)
        level = _coupling(args, obj)

        if args.command == "s3":
            fl = link_from_object(obj)
            inv = s3_expectation(fl, level)
            _emit({"command": "s3", "k": level.k, **invariant_to_json(inv)})
        elif args.command == "surgery":
            from . import DenominatorZero, SurgeryPresentation, surgery_expectation

            fl = link_from_object(obj)
            try:
                inv = surgery_expectation(SurgeryPresentation.make(fl, level))
            except DenominatorZero as exc:
                return _fail(exc, 3)
            _emit({"command": "surgery", "k": level.k, **invariant_to_json(inv)})
        elif args.command in ("s1xs2", "s1xsigma"):
            from . import s1xs2_expectation, s1xsigma_expectation

            h = homology_from_object(obj)
            evaluate = s1xs2_expectation if args.command == "s1xs2" else s1xsigma_expectation
            try:
                inv = evaluate(h, level)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
            _emit({"command": args.command, "k": level.k, **invariant_to_json(inv)})
        elif args.command == "satellite":
            fl = link_from_object(obj)
            expanded = simplicial_satellite(fl)
            payload = {
                "command": "satellite",
                "k": level.k,
                "link": link_to_json(expanded),
            }
            if not fl.surgery():
                before = s3_expectation(fl, level)
                after = s3_expectation(expanded, level)
                payload["invariant_before"] = invariant_to_json(before)
                payload["invariant_after"] = invariant_to_json(after)
                payload["equal"] = before == after
            _emit(payload)
        return 0
    except (InputError, SurgeryComponentError) as exc:
        return _fail(exc, 2)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
