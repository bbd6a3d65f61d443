"""Command-line front end.

Reads link or homology data from JSON, dispatches to the evaluators,
and prints one JSON result object on standard output.  Exit codes:
0 success, 1 failed property suite, 2 input error, 3 undefined ratio
(vanishing normalization).  Errors, argparse's included, are reported
as JSON on stderr; so are warnings when run as the acsl process.
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
    OBSERVED,
    Diagram,
    DiagramError,
    FramedLink,
    PDError,
    linking_matrix,
    parse_crossings,
)


# Largest |k| the evaluating commands accept.  Output carries phi(4|k|)
# coordinates: s3 on the Hopf link writes 1.28 MB at this limit and at
# most 1.65 MB, at k=99991.  A fresh s3 process takes about 0.2 s at worst
# on a 2-core VM, at k=99991; 0.12-0.18 s at k=15015, 30030 and 90090,
# where 4|k| has five or six prime factors.
K_LIMIT = 100_000

# Most trials check runs: 10**4 trials of kirby, the slowest suite that
# walks no colour lattice, take 1.2-1.9 s on a 2-core VM.
TRIALS_LIMIT = 10**4

# Largest |k| of check --suite homology, whose unskipped trials reduce three
# coordinate vectors of order 4|k| each.  100 trials take 0.1-0.2 s at
# k=19997 or 20000 on a 2-core VM, and 0.4-0.6 s at k=15015 and 19635,
# which have five odd prime factors.  The oracle suite shares K_LIMIT; the
# others read no coordinates.
HOMOLOGY_K_LIMIT = 20_000

# Largest check --max-terms: the library's own cap on the colour vectors
# of one enumeration.  At the cap, on a 2-core VM, a dense six-component
# surgery block at k=5 takes 10-16 s in the float walk of a trial (one to
# three observed components) and about 2.7 s in each exact walk.
MAX_TERMS_LIMIT = 10**6

# Most surgery components surgery takes: elimination is cubic in them, once
# per prime of 2|k|; 150 dense ones answer in 0.9 s at worst on a 2-core VM.
SURGERY_LIMIT = 150

# Largest link satellite writes: the sum of |q| over the observed
# components plus the surgery count.  The expanded linking matrix has
# the square of that many entries (4 MB of output at this limit).
SATELLITE_LIMIT = 1000


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
        matrix = _expect_list(obj["linking"], "linking")
        for i, row in enumerate(matrix):
            _expect_list(row, f"linking[{i}]")
    elif "pd" in obj:
        if not isinstance(obj["pd"], str):
            raise InputError("pd: expected a string")
        components = _expect_list(obj.get("components"), "components")
        if not components:
            raise InputError("components: expected a non-empty list")
        for i, comp in enumerate(components):
            if not _expect_list(comp, f"components[{i}]"):
                raise InputError(f"components[{i}]: expected a non-empty list")
            for j, e in enumerate(comp):
                if _expect_int(e, f"components[{i}][{j}]") < 1:
                    raise InputError(f"components[{i}][{j}]: expected a positive integer, got {e}")
        try:
            diagram = Diagram(parse_crossings(obj["pd"]), tuple(map(tuple, components)))
        except (PDError, DiagramError) as exc:
            raise InputError(f"pd: {exc}") from exc
        try:
            matrix = linking_matrix(diagram, obj.get("framings", "blackboard")).linking
        except DiagramError as exc:
            raise InputError(str(exc)) from exc
    else:
        raise InputError("top level: need either 'linking' or 'pd'")

    n = len(matrix)
    charges = obj.get("charges")
    if charges is not None:
        _expect_list(charges, "charges")
    roles = _expect_list(obj.get("roles", ["observed"] * n), "roles")
    names = obj.get("names")
    if names is not None:
        names = [str(x) for x in _expect_list(names, "names")]
    try:
        fl = FramedLink.make(matrix, charges=charges, roles=roles, names=names)
    except DiagramError as exc:
        raise InputError(str(exc)) from exc
    if charges is None and n:
        warnings.warn("charges missing; defaulting to all zero")
    return fl


def homology_from_object(obj):
    from . import HomologyData

    if not isinstance(obj, dict) or "genus" not in obj:
        raise InputError("top level: homology input needs 'genus', 'N', 'q_self'")
    genus = _expect_int(obj["genus"], "genus")
    if genus < 0:
        raise InputError(f"genus: must be nonnegative, got {genus}")
    pairings = [_expect_int(x, f"N[{i}]") for i, x in enumerate(_expect_list(obj.get("N"), "N"))]
    self_form = _expect_int(obj.get("q_self", 0), "q_self")
    try:
        return HomologyData(genus, tuple(pairings), self_form)
    except ValueError as exc:  # the pairing count
        raise InputError(f"N: {exc}") from exc


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, the int digit limit, deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _coupling(args, obj) -> CouplingLevel:
    k = args.k if args.k is not None else obj.get("k") if isinstance(obj, dict) else None
    if k is None:
        raise InputError("coupling missing: pass --k or a top-level 'k'")
    k = _expect_int(k, "k")
    if abs(k) > K_LIMIT:
        raise InputError(f"k: |k| = {abs(k)} exceeds the limit of {K_LIMIT}")
    try:
        return CouplingLevel.of(k)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cyc_to_json(value: CycNum) -> dict:
    """Coordinates as [numerator, denominator] pairs; every value is a
    cyclotomic integer, so every denominator is 1."""
    return {"n": value.n, "coeffs": [[c, 1] for c in value.num]}


def invariant_to_json(inv: Invariant) -> dict:
    """The result fields; the cyclotomic coordinates are built here, once."""
    numeric = inv.numeric
    return {
        "zero": inv.is_zero,
        "order": inv.order,
        "phase_exponent": inv.exponent,
        "value": cyc_to_json(inv.value),
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


class _Parser(argparse.ArgumentParser):
    """Raises InputError where argparse would print usage and exit 2."""

    def error(self, message):
        raise InputError(message)


# The subcommands and their help lines, in the order the usage lists them.
COMMANDS = {
    "s3": "expectation value of an observed link in S^3",
    "surgery": "expectation value in a surgery-presented 3-manifold",
    "s1xs2": "closed form for S^1 x S^2 from homology data",
    "s1xsigma": "closed form for S^1 x Sigma_g from homology data",
    "satellite": "expand a link to unit charges",
    "check": "run a randomized property suite",
}


def _add_options(parser, name):
    """Give ``parser`` the options of subcommand ``name``; returns it."""
    if name != "check":
        parser.add_argument("--input", metavar="PATH", help="JSON input file")
    parser.add_argument("--k", type=int, default=None, help="coupling (nonzero integer)")
    if name == "check":
        parser.add_argument("--suite", metavar="NAME", required=True,
                            help="property suite to run (listed in the README)")
        parser.add_argument("--trials", type=int, default=100)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--max-terms", type=int, default=None,
                            help="enumeration term cap of the oracle and homology "
                                 "suites (default: the suite's own)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full acsl parser, with all six subcommands."""
    parser = _Parser(prog="acsl", description="Exact Abelian Chern-Simons link invariants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, line in COMMANDS.items():
        _add_options(sub.add_parser(name, help=line), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of the
    subcommand ``argv[0]`` names; anything else (no arguments, a flag, an
    unknown name, ``--``) gets the full parser and its top-level text.
    """
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    args = _add_options(_Parser(prog=f"acsl {argv[0]}"), argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


def run(argv) -> int:
    """Execute one job; returns the process exit code.

    Subcommands import what they use beyond the S^3 path through the
    package's public names, which is where perfbench/tracing.py wraps them.
    """
    try:
        args = parse_args(argv)
        if args.command == "check":
            from .checks import SUITES

            if args.suite not in SUITES:
                raise InputError(f"suite: expected one of {', '.join(SUITES)}, got {args.suite!r}")
            if not 1 <= args.trials <= TRIALS_LIMIT:
                raise InputError(f"trials: expected 1 to {TRIALS_LIMIT}, got {args.trials}")
            kwargs = {"trials": args.trials, "seed": args.seed, "k": args.k}
            if args.max_terms is not None:
                if not 1 <= args.max_terms <= MAX_TERMS_LIMIT:
                    raise InputError(f"max_terms: expected 1 to {MAX_TERMS_LIMIT}, got {args.max_terms}")
                if args.suite not in ("oracle", "homology"):
                    raise InputError(f"max_terms: the {args.suite} suite enumerates nothing")
                kwargs["max_terms"] = args.max_terms
            if args.k == 0:
                raise InputError("k: coupling must be nonzero")
            limit = {"oracle": K_LIMIT, "homology": HOMOLOGY_K_LIMIT}.get(args.suite)
            if limit and args.k is not None and abs(args.k) > limit:
                raise InputError(f"k: |k| = {abs(args.k)} exceeds the {args.suite} suite's limit of {limit}")
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
            from . import DenominatorZero, surgery_expectation

            fl = link_from_object(obj)
            s = len(fl.surgery())
            if s > SURGERY_LIMIT:
                raise InputError(f"roles: {s} surgery components exceed the limit of {SURGERY_LIMIT}")
            try:
                inv = surgery_expectation(fl, level)
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
            size = sum(
                abs(q) if r == OBSERVED else 1 for q, r in zip(fl.charges, fl.roles)
            )
            if size > SATELLITE_LIMIT:
                raise InputError(
                    f"charges: the expansion has {size} components, "
                    f"above the limit of {SATELLITE_LIMIT}"
                )
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


def _warning_to_json(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(
        json.dumps({"warning": category.__name__, "message": str(message)}) + "\n"
    )


def main() -> None:
    """The acsl process: warnings go to stderr as JSON lines, like errors."""
    warnings.showwarning = _warning_to_json
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
