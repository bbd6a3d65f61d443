"""Surgery on framed links: the ratio, exact Gauss sums and Kirby moves.

The expectation value in the 3-manifold presented by an integer-framed
surgery link is the ratio of two cyclotomic Gauss sums: the numerator
sums the S^3 phase over all colour assignments of the surgery
components (each surgery component carries the uniform colour state,
i.e. every residue mod 2|k| once), with the observed charges in place;
the denominator is the same sum with the observed charges removed.

That ratio is homological, and surgery_expectation computes it in that
form.  With A the surgery block of the linking matrix, b = L[S,O].q the
observed charges seen by the surgery components, C the observed block,
m = 2|k| and n = 4|k|:

* the ratio is undefined when some y with A y = 0 (mod m) has
  y.Ay != 0 (mod n), because the denominator then cancels over the
  cosets of that kernel;
* otherwise it is zero unless A x = b (mod m) has a solution x;
* otherwise it is the phase zeta_n**(-sign(k) (q.Cq - x.Ax)).

Both are solved modulo each prime power q of m (_solve_local), a local
ring, by row operations and back substitution, and the solutions x mod
q combine by the Chinese remainder theorem.  On the kernel mod m,
y -> y.Ay/m mod 2 is additive and vanishes on the odd part, so the
undefined test checks generators of the 2-part kernel alone.  The cost
is cubic in the number of surgery components per prime of m.

gauss_sums evaluates both sums exactly: one walk over the colour
vectors of all s surgery components adds each vector's phase exponent
mod 4|k| to two integer tallies, with and without the observed
charges, and one cyclotomic reduction turns each tally into its exact
value.  Its cost grows as (2|k|)**s, so it serves only as the exact
oracle that surgery_expectation is tested against, beside the float
oracle oracle_sums, which returns the same pair in floating point.
"""

from __future__ import annotations

import cmath
import itertools
import math
from operator import mul

from .cyclotomic import CycNum, _prime_factors
from .invariants import Invariant, coupling, form_value
from .linkdiagram import OBSERVED, SURGERY, FramedLink


class DenominatorZero(ArithmeticError):
    """The normalizing Gauss sum vanishes; the ratio is undefined.

    kernel is the witness when the homological evaluator raised it: a
    vector y over the surgery components, in fl.surgery() order, with
    A y = 0 (mod 2|k|) and y.Ay != 0 (mod 4|k|) for the surgery block A.
    """

    def __init__(self, message: str, kernel: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.kernel = kernel


class TermLimit(ValueError):
    """An enumeration oracle was asked for more terms than its cap allows."""


class NotSurgery(ValueError):
    """Kirby-move target is not a surgery component."""


class NotUnitFramed(ValueError):
    """Blow-down target does not have framing +1 or -1."""


class NotIsolated(ValueError):
    """Blow-down target still links other components."""


def gauss_sums(fl: FramedLink, k, max_terms: int = 10**6) -> tuple[CycNum, CycNum]:
    """Exact numerator and denominator: the sums of S^3 phases over all
    colourings of the surgery components, with the observed charges in
    place and with them removed.

    Each surgery component ranges over the residues 0..2|k|-1.  One walk
    tallies both sums; an empty surgery link gives the single phase of
    the observed charges, over 1.  Raises TermLimit, before walking
    anything, when there are more than max_terms colour vectors.
    """
    k = coupling(k)
    m, n = 2 * abs(k), 4 * abs(k)
    sign = 1 if k > 0 else -1
    surgery = fl.surgery()
    terms = m ** len(surgery)
    if terms > max_terms:
        raise TermLimit(f"{terms} colour vectors exceed the cap of {max_terms}")
    charges = [q if r == OBSERVED else 0 for q, r in zip(fl.charges, fl.roles)]
    # q.Lq for colours c on the surgery block A: q.Cq + 2 c.b + c.Ac
    observed = form_value(fl.linking, charges)
    linear = [2 * sum(map(mul, fl.linking[i], charges)) for i in surgery]
    block = fl.select(surgery).linking
    charged, bare = [0] * n, [0] * n
    for c in itertools.product(range(m), repeat=len(surgery)):
        form = form_value(block, c)
        bare[-sign * form % n] += 1
        charged[-sign * (observed + form + sum(map(mul, linear, c))) % n] += 1
    return CycNum.from_coeffs(n, charged), CycNum.from_coeffs(n, bare)


def _back_substitute(rows, pivots, z: list[int], q: int) -> list[int] | None:
    """Complete z, zero in the pivot columns, to rows.z = 0 (mod q), last
    pivot first; its extra last coordinate multiplies the carried column.
    Returns the first s coordinates, or None when there is no solution."""
    for r, c, g, inv in reversed(pivots):
        rest = -sum(map(mul, rows[r], z)) % q
        if rest % g:  # the rest of the row is a multiple of g
            return None
        z[c] = rest // g * inv % q
    return z[:-1]


def _solve_local(a, b, p: int, q: int):
    """Solve a x = b modulo the prime power q = p**e by row operations.

    Z/q is a local ring: each step pivots on an entry of least
    p-valuation, a unit in the first free column that has one, else
    the least gcd(entry, q) in the remaining block, which divides every
    entry left in its row and column, and clears its column below in
    [a | b].  Returns x, or None when there is none, and a lazy kernel:
    one vector per non-unit pivot (gcd q for an all-zero block), which
    together generate {z : a z = 0 (mod q)}.
    """
    s = len(a)
    rows = [[entry % q for entry in row] + [bi % q] for row, bi in zip(a, b)]
    free_rows, free_cols = list(range(s)), list(range(s))
    pivots = []
    while free_cols:
        g, r, c = next(((1, i, j) for j in free_cols for i in free_rows if rows[i][j] % p), (q, 0, 0))
        if g > 1:
            g, r, c = min((math.gcd(rows[i][j], q), i, j) for i in free_rows for j in free_cols)
            if g == q:
                pivots += [(i, j, q, 0) for i, j in zip(free_rows, free_cols)]
                break
        free_rows.remove(r)
        free_cols.remove(c)
        top = rows[r]
        inv = pow(top[c] // g, -1, q // g)
        for i in free_rows:
            if rows[i][c]:
                f = rows[i][c] // g * inv % q
                rows[i] = [(u - f * v) % q for u, v in zip(rows[i], top)]
        pivots.append((r, c, g, inv))
    kernel = (
        _back_substitute(rows, pivots[:t], [q // g * (j == c) for j in range(s + 1)], q)
        for t, (_, c, g, _) in enumerate(pivots)
        if g > 1
    )
    return _back_substitute(rows, pivots, [0] * s + [q - 1], q), kernel


def surgery_expectation(fl: FramedLink, k) -> Invariant:
    """Exact expectation value in the 3-manifold presented by the
    surgery components of fl, at coupling k.

    Equal to the ratio of the two gauss_sums(fl, k), but computed from
    the homology of the surgery block (see the module docstring):
    DenominatorZero when the normalizing sum vanishes at this coupling,
    exact zero when the observed charges are not in the image of the
    surgery block mod 2|k|, and a phase otherwise.
    """
    k = coupling(k)
    m, n = 2 * abs(k), 4 * abs(k)
    surgery = fl.surgery()
    charges = [q if r == OBSERVED else 0 for q, r in zip(fl.charges, fl.roles)]
    a = fl.select(surgery).linking
    b = [sum(map(mul, fl.linking[i], charges)) for i in surgery]
    x, modulus = [0] * len(a), 1
    for prime in _prime_factors(m):  # 2 first: m is even
        q = math.gcd(m, prime ** m.bit_length())
        part, kernel = _solve_local(a, b, prime, q)
        # z lifts to y = (m/q) z with y.Ay = (m/q)**2 z.Az, a multiple of
        # (m/q) m as q divides z.Az: 0 mod n = 2m unless q is the 2-part.
        for z in kernel if prime == 2 else ():
            y = [m // q * zi for zi in z]
            if form_value(a, y) % n:
                raise DenominatorZero(
                    f"normalizing Gauss sum vanishes at k={k}: the kernel "
                    f"vector {y} of the surgery block mod {m} has y.Ay != 0 mod {n}",
                    tuple(y),
                )
        if part is None:
            return Invariant.zero(n)
        step = pow(modulus, -1, q)
        x = [xi + modulus * ((zi - xi) * step % q) for xi, zi in zip(x, part)]
        modulus *= q
    return Invariant.from_quadratic(k, form_value(fl.linking, charges) - form_value(a, x))


def blow_up(fl: FramedLink, sign: int) -> FramedLink:
    """Append an unlinked surgery unknot with framing +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    names = set(fl.names)
    serial = fl.n + 1
    while f"E{serial}" in names:
        serial += 1
    return fl.add_surgery([(0,) * fl.n], [sign], [f"E{serial}"])


def blow_down(fl: FramedLink, j: int) -> FramedLink:
    """Remove an isolated +1- or -1-framed surgery component."""
    if not 0 <= j < fl.n:
        raise IndexError(f"component index {j} out of range")
    if fl.roles[j] != SURGERY:
        raise NotSurgery(f"component {fl.names[j]} is not a surgery component")
    if fl.linking[j][j] not in (1, -1):
        raise NotUnitFramed(
            f"component {fl.names[j]} has framing {fl.linking[j][j]}, need +1 or -1"
        )
    if any(fl.linking[j][i] != 0 for i in range(fl.n) if i != j):
        raise NotIsolated(f"component {fl.names[j]} links other components")
    return fl.select(i for i in range(fl.n) if i != j)


def handle_slide(fl: FramedLink, i: int, j: int, sign: int) -> FramedLink:
    """Slide component i over the surgery component j.

    Row and column i gain sign times row and column j; the new
    self-entry is L_ii + 2*sign*L_ij + L_jj.  Charges are untouched.
    """
    if not 0 <= i < fl.n or not 0 <= j < fl.n:
        raise IndexError("component index out of range")
    if i == j:
        raise ValueError("cannot slide a component over itself")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if fl.roles[j] != SURGERY:
        raise NotSurgery(f"component {fl.names[j]} is not a surgery component")
    linking = fl.linking
    slid = [a + sign * b for a, b in zip(linking[i], linking[j])]
    slid[i] = linking[i][i] + 2 * sign * linking[i][j] + linking[j][j]
    rows = [row[:i] + (e,) + row[i + 1 :] for row, e in zip(linking, slid)]
    rows[i] = tuple(slid)
    return FramedLink(tuple(rows), fl.charges, fl.roles, fl.names)


def oracle_sums(fl: FramedLink, k, max_terms: int = 10**6) -> tuple[complex, complex]:
    """Independent float evaluation of the numerator and denominator.

    Walks every colour vector once, builds the charged and bare integer
    vectors literally, and sums the double-precision phases
    exp(-2*pi*i*Q/(4k)) of both forms; shares no code with the exact
    engine.
    """
    k = coupling(k)
    m = 2 * abs(k)
    surgery = [i for i, r in enumerate(fl.roles) if r == SURGERY]
    if m ** len(surgery) > max_terms:
        raise TermLimit(
            f"{m ** len(surgery)} colour vectors exceed the cap of {max_terms}"
        )
    observed_charges = [
        q if r == OBSERVED else 0 for q, r in zip(fl.charges, fl.roles)
    ]
    numerator = 0j
    denominator = 0j
    for colours in itertools.product(range(m), repeat=len(surgery)):
        charged = list(observed_charges)
        bare = [0] * fl.n
        for idx, c in zip(surgery, colours):
            charged[idx] = c
            bare[idx] = c
        q_full = q_surg = 0
        for row, u, v in zip(fl.linking, charged, bare):
            if u:
                q_full += u * sum(map(mul, row, charged))
            if v:
                q_surg += v * sum(map(mul, row, bare))
        # reduced mod 4k first: exp of a large angle keeps fewer digits
        numerator += cmath.exp(-2j * math.pi * (q_full % (4 * k)) / (4 * k))
        denominator += cmath.exp(-2j * math.pi * (q_surg % (4 * k)) / (4 * k))
    return numerator, denominator


def oracle_expectation(fl: FramedLink, k, max_terms: int = 10**6) -> complex:
    """Float ratio matching surgery_expectation within roundoff."""
    numerator, denominator = oracle_sums(fl, k, max_terms)
    if abs(denominator) < 1e-6:
        raise DenominatorZero("float normalizing sum is numerically zero")
    return numerator / denominator
