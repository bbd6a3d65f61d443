"""Randomized property suites, runnable from the CLI and the test suite.

Every suite draws its instances from random.Random(seed), checks an
exact identity (and, in the homology suite, a float bound too), and
reports the trial and failure counts; reruns with the same seed are
bit-identical.
"""

from __future__ import annotations

import random
from operator import mul

from .cyclotomic import CycNum
from .invariants import coupling, quadratic_form, s3_expectation, simplicial_satellite
from .linkdiagram import OBSERVED, SURGERY, FramedLink, default_names
from .manifolds import HomologyData, s1xsigma_expectation, s1xsigma_presentation
from .surgery import (
    DenominatorZero,
    TermLimit,
    blow_down,
    blow_up,
    gauss_sums,
    handle_slide,
    oracle_sums,
    surgery_expectation,
)

DEFAULT_COUPLINGS = (1, 2, 3, -2)

# Largest gap between an exact value and the float sums it is checked against.
TOLERANCE = 1e-9

# Most Kirby moves one kirby trial applies.
MAX_MOVES = 5


def _symmetric(rng: random.Random, n: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Symmetric n x n entries in [-bound, bound], drawn row by row
    along the upper triangle."""
    upper = [[rng.randint(-bound, bound) for _ in range(i, n)] for i in range(n)]
    return tuple([tuple([upper[j][i - j] for j in range(i)] + upper[i]) for i in range(n)])


def random_link(
    rng: random.Random,
    max_components: int = 4,
    entry_bound: int = 3,
    charge_bound: int = 6,
) -> FramedLink:
    """Random observed link: symmetric integer linking data with
    charges, valid by construction."""
    n = rng.randint(1, max_components)
    matrix = _symmetric(rng, n, entry_bound)
    charges = tuple([rng.randint(-charge_bound, charge_bound) for _ in range(n)])
    return FramedLink(matrix, charges, (OBSERVED,) * n, default_names(n))


def random_presentation(
    rng: random.Random,
    max_surgery: int = 4,
    max_observed: int = 3,
    entry_bound: int = 3,
    charge_bound: int = 6,
) -> FramedLink:
    """Random framed link mixing surgery and observed components."""
    s = rng.randint(0, max_surgery)
    m = rng.randint(0, max_observed)
    n = max(s + m, 1)
    roles = [SURGERY] * s + [OBSERVED] * (n - s)
    rng.shuffle(roles)
    matrix = _symmetric(rng, n, entry_bound)
    charges = [rng.randint(-charge_bound, charge_bound) if r == OBSERVED else 0 for r in roles]
    return FramedLink(matrix, tuple(charges), tuple(roles), default_names(n))


def random_kirby_move(rng: random.Random, fl: FramedLink) -> FramedLink:
    """Apply one random Kirby move whose preconditions hold."""
    n = fl.n
    surgery = fl.surgery()
    moves = ["blow_up"]
    # A unit framing is nonzero, so the row is isolated when the rest is zeros.
    isolated = [
        j for j in surgery if fl.linking[j][j] in (1, -1) and fl.linking[j].count(0) == n - 1
    ]
    if isolated:
        moves.append("blow_down")
    if surgery and n >= 2:
        moves.append("slide")
    move = rng.choice(moves)
    if move == "blow_up":
        return blow_up(fl, rng.choice((1, -1)))
    if move == "blow_down":
        return blow_down(fl, rng.choice(isolated))
    j = rng.choice(surgery)
    i = rng.choice([i for i in range(n) if i != j])
    return handle_slide(fl, i, j, rng.choice((1, -1)))


def _couplings(k: int | None) -> tuple[int, ...]:
    return DEFAULT_COUPLINGS if k is None else (k,)


def _report(suite: str, trials: int, seed: int, k, failures: list[str], **counts) -> dict:
    return {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "k": "mixed" if k is None else k,
        **counts,
        "failures": len(failures),
        "failure_examples": failures[:5],
        "passed": not failures,
    }


def suite_periodicity(trials: int = 1000, seed: int = 0, k: int | None = None) -> dict:
    """Shifting any observed charge by 2|k| fixes the S^3 value exactly."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        fl = random_link(rng)
        kk = rng.choice(_couplings(k))
        i = rng.randrange(fl.n)
        charges = list(fl.charges)
        charges[i] += 2 * abs(kk)
        shifted = FramedLink(fl.linking, tuple(charges), fl.roles, fl.names)
        if s3_expectation(shifted, kk) != s3_expectation(fl, kk):
            failures.append(f"trial {t}: k={kk} component {i} of {fl.linking}")
    return _report("periodicity", trials, seed, k, failures)


def suite_satellite(trials: int = 200, seed: int = 0, k: int | None = None) -> dict:
    """Full satellite expansion preserves the S^3 value exactly."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        fl = random_link(rng, max_components=3, charge_bound=5)
        expanded = simplicial_satellite(fl)
        for kk in _couplings(k):
            if s3_expectation(expanded, kk) != s3_expectation(fl, kk):
                failures.append(f"trial {t}: k={kk} {fl.linking} {fl.charges}")
    return _report("satellite", trials, seed, k, failures)


def _status(fl: FramedLink, k):
    try:
        return surgery_expectation(fl, k)
    except DenominatorZero:
        return "denominator-zero"


def suite_kirby(trials: int = 500, seed: int = 0, k: int | None = None) -> dict:
    """Blow-ups, isolated blow-downs and handle slides fix the invariant."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        kk = rng.choice(_couplings(k))
        fl = random_presentation(rng)
        before = _status(fl, kk)
        moved = fl
        moves = rng.randint(1, MAX_MOVES)
        for _ in range(moves):
            moved = random_kirby_move(rng, moved)
        if _status(moved, kk) != before:
            failures.append(f"trial {t}: k={kk} {fl.linking} after {moves} moves")
    return _report("kirby", trials, seed, k, failures)


HOMOLOGY_COUPLINGS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)


def kernel_witness_holds(fl: FramedLink, k, y) -> bool:
    """Whether y proves the ratio undefined: A y = 0 (mod 2|k|) and
    y.Ay != 0 (mod 4|k|), for A the surgery block, computed directly."""
    m = 2 * abs(coupling(k))
    a = fl.select(fl.surgery()).linking
    if y is None or len(y) != len(a):
        return False
    ay = [sum(map(mul, row, y)) for row in a]
    return all(v % m == 0 for v in ay) and sum(map(mul, y, ay)) % (2 * m) != 0


def suite_homology(trials: int = 1000, seed: int = 0, k: int | None = None, max_terms: int = 4096) -> dict:
    """The homological evaluator matches both enumeration oracles.

    Each trial draws a presentation with up to five surgery components
    and applies zero to three Kirby moves.  surgery_expectation is
    compared with the exact Gauss-sum ratio (value, zero and undefined
    must all agree) and with the float sums (within TOLERANCE, and
    undefined exactly when the float denominator vanishes, with a kernel
    witness that checks).  Trials whose lattices exceed max_terms are
    skipped and counted; undefined and zero outcomes are counted, so
    that a run which never reached them is visible.
    """
    rng = random.Random(seed)
    couplings = HOMOLOGY_COUPLINGS if k is None else (k,)
    failures = []
    undefined = zero = skipped = 0
    for t in range(trials):
        kk = rng.choice(couplings)
        fl = random_presentation(rng, max_surgery=5)
        for _ in range(rng.randint(0, 3)):
            fl = random_kirby_move(rng, fl)
        try:
            numerator, denominator = oracle_sums(fl, kk, max_terms)
        except TermLimit:
            skipped += 1
            continue
        exact_num, exact_den = gauss_sums(fl, kk, max_terms)
        try:
            got = surgery_expectation(fl, kk)
        except DenominatorZero as exc:
            got, witness = None, exc.kernel
        where = f"trial {t}: k={kk} {fl.linking} {fl.charges}"
        if got is None:
            undefined += 1
            if not kernel_witness_holds(fl, kk, witness):
                failures.append(f"{where}: undefined, kernel witness {witness} fails")
            if not exact_den.is_zero:
                failures.append(f"{where}: undefined, exact ratio is defined")
            if abs(denominator) >= 1e-6:
                failures.append(f"{where}: undefined, float denominator {abs(denominator):.2e}")
            continue
        zero += got.is_zero
        # got.value * exact_den: exact_den shifted by the exponent, reduced once
        shifted = () if got.is_zero else (0,) * got.exponent + exact_den.num
        if exact_den.is_zero or CycNum.from_coeffs(got.order, shifted) != exact_num:
            failures.append(f"{where}: differs from the exact ratio")
        elif abs(denominator) < 1e-6 or abs(got.numeric - numerator / denominator) >= TOLERANCE:
            failures.append(f"{where}: differs from the float ratio")
    return _report("homology", trials, seed, k, failures, undefined=undefined, zero=zero, skipped=skipped)


def check_agreement(k: int, targets, rng: random.Random) -> str | None:
    """One surgery-vs-closed-form comparison in S^1 x Sigma_g of genus
    len(targets) // 2; None when they agree.  The first observed
    component has charge 1, and its linkings, drawn row by row with the
    others, are then set so that the pairings hit the targets."""
    genus = len(targets) // 2
    max_components, charge_bound = (3, 2 * abs(k) + 2) if genus == 0 else (2, 2 * abs(k))
    drawn = random_link(rng, max_components, charge_bound=charge_bound)
    observed = FramedLink(drawn.linking, (1, *drawn.charges[1:]), drawn.roles, drawn.names)
    rows = [[rng.randint(-2, 2) for _ in targets] for _ in range(observed.n)]
    for c, target in enumerate(targets):
        rows[0][c] = target - sum(observed.charges[i] * rows[i][c] for i in range(1, observed.n))
    fl = s1xsigma_presentation(observed, zip(*rows))
    closed = s1xsigma_expectation(HomologyData(genus, tuple(targets), quadratic_form(observed)), k)
    direct = surgery_expectation(fl, k)
    if direct != closed:
        return f"k={k} targets={targets} {observed.linking} {observed.charges}"
    if direct.is_zero != any(target % (2 * abs(k)) for target in targets):
        return f"k={k} targets={targets}: vanishing gate mismatch"
    return None


def suite_manifolds(trials: int = 200, seed: int = 0, k: int | None = None) -> dict:
    """Surgery ratios match the closed-form evaluators, zeros included:
    S^1 x S^2 on even trials, the 3-torus on odd ones."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        kk = rng.choice(_couplings(k))
        genus = t % 2
        bound = (2 if genus else 4) * abs(kk)
        targets = [rng.randint(-bound, bound) for _ in range(2 * genus + 1)]
        failure = check_agreement(kk, targets, rng)
        if failure:
            failures.append(f"trial {t}: {failure}")
    return _report("manifolds", trials, seed, k, failures)


SUITES = {
    "periodicity": suite_periodicity,
    "satellite": suite_satellite,
    "kirby": suite_kirby,
    "homology": suite_homology,
    "manifolds": suite_manifolds,
}
