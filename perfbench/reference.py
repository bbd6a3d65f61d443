"""Independent references for acsl outputs, and the checker that uses them.

Nothing here imports acsl.  Expected values come from the paper's
formulas evaluated directly:

* S^3: the root of unity zeta_{4|k|}**e with e = -sign(k) * q.Lq mod 4|k|;
* S^1 x Sigma_g: zero unless every pairing is divisible by 2|k|,
  otherwise the phase of the framed self-intersection form;
* surgery: the ratio of two Gauss sums, summed here in floating point
  as exp(-2 pi i Q / 4k) over every colour vector.

An expectation is a small dict: ``{"exit": 3}`` for an undefined ratio,
otherwise ``{"exit": 0, "k": k, "e": e}`` with ``e`` None for zero.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction

UNDEFINED = {"exit": 3}

# Absolute tolerances.  A nonzero Gauss sum over Z_m^s has squared
# modulus a positive integer, so 1e-6 separates vanishing from not.
ZERO_TOL = 1e-6
NUMERIC_TOL = 1e-9
EMBED_TOL = 1e-6


def sign(k: int) -> int:
    return 1 if k > 0 else -1


def form(linking, charges) -> int:
    """q.Lq over all components."""
    return sum(
        qi * row[j] * qj
        for i, (qi, row) in enumerate(zip(charges, linking))
        for j, qj in enumerate(charges)
    )


def s3_exponent(linking, charges, k: int) -> int:
    """Exponent of zeta_{4|k|} for an observed link in S^3."""
    return (-sign(k) * form(linking, charges)) % (4 * abs(k))


def phase(k: int, e) -> dict:
    return {"exit": 0, "k": k, "e": e}


def gate(pairings, self_form: int, k: int) -> dict:
    """Closed form for S^1 x Sigma_g: the mod 2|k| gate, then the phase."""
    if any(p % (2 * abs(k)) for p in pairings):
        return phase(k, None)
    return phase(k, (-sign(k) * self_form) % (4 * abs(k)))


def gauss_sums(linking, charges, roles, k: int) -> tuple[complex, complex]:
    """Float numerator and denominator of the surgery ratio.

    The numerator keeps the observed charges, the denominator drops
    them; surgery components run over every residue mod 2|k|.  The last
    surgery coordinate is summed through a table indexed by its linear
    coefficient, so the loop visits (2|k|)**(s-1) prefixes.
    """
    m = 2 * abs(k)
    root = [cmath.exp(-2j * math.pi * e / (4 * k)) for e in range(4 * abs(k))]
    n = len(root)
    surg = [i for i, r in enumerate(roles) if r == "surgery"]
    q = [c if r == "observed" else 0 for c, r in zip(charges, roles)]
    const = form(linking, q)
    lin = [sum(linking[i][j] * q[j] for j in range(len(q))) for i in surg]
    block = [[linking[i][j] for j in surg] for i in surg]
    if not surg:
        return root[const % n], 1 + 0j
    *head, last = range(len(surg))
    tail = [sum(root[(block[last][last] * c * c + t * c) % n] for c in range(m)) for t in range(n)]
    num = den = 0j
    for prefix in itertools.product(range(m), repeat=len(head)):
        quad = 0
        slope = 0
        for i in head:
            ci = prefix[i]
            if ci:
                quad += ci * (block[i][i] * ci + 2 * sum(block[i][j] * prefix[j] for j in head if j > i))
                slope += block[last][i] * ci
        shift = sum(lin[i] * prefix[i] for i in head)
        num += root[(quad + 2 * shift + const) % n] * tail[(2 * (slope + lin[last])) % n]
        den += root[quad % n] * tail[(2 * slope) % n]
    return num, den


def from_sums(num: complex, den: complex, k: int) -> dict:
    """Expectation from float Gauss sums: undefined, zero or a phase."""
    if abs(den) < ZERO_TOL:
        return dict(UNDEFINED)
    ratio = num / den
    if abs(ratio) < ZERO_TOL:
        return phase(k, None)
    n = 4 * abs(k)
    e = round(cmath.phase(ratio) * n / (2 * math.pi)) % n
    if abs(ratio - cmath.exp(2j * math.pi * e / n)) > EMBED_TOL:
        raise ArithmeticError(f"float ratio {ratio} is neither zero nor a 4|k|-th root")
    return phase(k, e)


def surgery(obj: dict, k: int) -> dict:
    return from_sums(*gauss_sums(obj["linking"], obj["charges"], obj["roles"], k), k)


def expected_value(exp: dict) -> complex:
    if exp["e"] is None:
        return 0j
    return cmath.exp(2j * math.pi * exp["e"] / (4 * abs(exp["k"])))


def check_invariant(out: dict, exp: dict) -> str | None:
    """Compare one invariant object of the CLI output with an expectation."""
    n = 4 * abs(exp["k"])
    want = expected_value(exp)
    if out.get("zero") is not (exp["e"] is None):
        return f"zero is {out.get('zero')!r}, expected {exp['e'] is None}"
    if out.get("order") != n:
        return f"order is {out.get('order')!r}, expected {n}"
    if out.get("phase_exponent") != exp["e"]:
        return f"phase_exponent is {out.get('phase_exponent')!r}, expected {exp['e']}"
    re, im = out["numeric"]
    if abs(complex(re, im) - want) > NUMERIC_TOL:
        return f"numeric {re}+{im}i, expected {want}"
    value = out["value"]
    if value["n"] != n:
        return f"value.n is {value['n']}, expected {n}"
    z = cmath.exp(2j * math.pi / n)
    embedded = sum(float(Fraction(a, b)) * z**i for i, (a, b) in enumerate(value["coeffs"]))
    if abs(embedded - want) > EMBED_TOL:
        return f"value coordinates embed to {embedded}, expected {want}"
    return None


def check_satellite(out: dict, exp: dict) -> str | None:
    """The expanded link has unit charges and keeps the S^3 value."""
    link = out["link"]
    observed = [q for q, r in zip(link["charges"], link["roles"]) if r == "observed"]
    if any(abs(q) != 1 for q in observed):
        return f"expanded link has non-unit charges {observed}"
    if s3_exponent(link["linking"], link["charges"], exp["k"]) != exp["e"]:
        return "expanded link has a different S^3 exponent"
    for key in ("invariant_before", "invariant_after"):
        problem = check_invariant(out[key], exp)
        if problem:
            return f"{key}: {problem}"
    if out.get("equal") is not True:
        return f"equal is {out.get('equal')!r}"
    return None


def check_report(out: dict, exp: dict) -> str | None:
    """A property-suite report: passed, with the requested trial count."""
    for key in ("suite", "trials", "seed", "k"):
        if out.get(key) != exp[key]:
            return f"{key} is {out.get(key)!r}, expected {exp[key]!r}"
    if out.get("passed") is not True or out.get("failures") != 0:
        return f"suite failed: {out.get('failure_examples')}"
    return None


def check(job: dict, code: int, stdout: str) -> str | None:
    """None when one execution of a job produced the expected output."""
    exp = job["expect"]
    want_code = exp.get("exit", 0)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if want_code != 0:
        return f"unexpected output on exit {code}" if stdout.strip() else None
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"output is not one JSON object: {stdout[:120]!r}"
    command = job["argv"][0]
    try:
        if out.get("command") != command:
            return f"command is {out.get('command')!r}, expected {command!r}"
        if command == "check":
            return check_report(out, exp)
        if out.get("k") != exp["k"]:
            return f"k is {out.get('k')!r}, expected {exp['k']}"
        if command == "satellite":
            return check_satellite(out, exp)
        return check_invariant(out, exp)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
