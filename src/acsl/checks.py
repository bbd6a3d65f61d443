"""Randomized property suites, runnable from the CLI and the test suite.

Every suite draws its instances from a seeded generator, checks an
exact identity (and a float bound in the oracle and homology suites),
and reports the trial and failure counts; reruns with the same seed are
bit-identical.
"""

from __future__ import annotations

import random

from .invariants import quadratic_form, s3_expectation, simplicial_satellite
from .linkdiagram import OBSERVED, SURGERY, FramedLink
from .manifolds import (
    HomologyData,
    s1xs2_expectation,
    s1xs2_presentation,
    s1xsigma_expectation,
    t3_presentation,
)
from .surgery import (
    DenominatorZero,
    SurgeryPresentation,
    TermLimit,
    blow_down,
    blow_up,
    gauss_sum,
    handle_slide,
    oracle_expectation,
    oracle_sums,
    surgery_expectation,
)

DEFAULT_COUPLINGS = (1, 2, 3, -2)


def random_link(
    rng: random.Random,
    max_components: int = 4,
    entry_bound: int = 3,
    charge_bound: int = 6,
    roles=None,
) -> FramedLink:
    """Random symmetric integer linking data with charges."""
    n = rng.randint(1, max_components)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = rng.randint(-entry_bound, entry_bound)
    charges = [rng.randint(-charge_bound, charge_bound) for _ in range(n)]
    if roles is None:
        roles = [OBSERVED] * n
    for i, role in enumerate(roles):
        if role == SURGERY:
            charges[i] = 0
    return FramedLink.make(matrix, charges=charges, roles=roles)


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
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = rng.randint(-entry_bound, entry_bound)
    charges = [
        rng.randint(-charge_bound, charge_bound) if r == OBSERVED else 0
        for r in roles
    ]
    return FramedLink.make(matrix, charges=charges, roles=roles)


def random_kirby_move(rng: random.Random, p: SurgeryPresentation) -> SurgeryPresentation:
    """Apply one random Kirby move whose preconditions hold."""
    fl = p.link
    surgery = list(fl.surgery())
    moves = ["blow_up"]
    isolated = [
        j
        for j in surgery
        if fl.linking[j][j] in (1, -1)
        and all(fl.linking[j][i] == 0 for i in range(fl.n) if i != j)
    ]
    if isolated:
        moves.append("blow_down")
    if surgery and fl.n >= 2:
        moves.append("slide")
    move = rng.choice(moves)
    if move == "blow_up":
        return blow_up(p, rng.choice([1, -1]))
    if move == "blow_down":
        return blow_down(p, rng.choice(isolated))
    j = rng.choice(surgery)
    i = rng.choice([i for i in range(fl.n) if i != j])
    return handle_slide(p, i, j, rng.choice([1, -1]))


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
        shifted = FramedLink.make(fl.linking, charges=charges)
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


def _status(p: SurgeryPresentation):
    try:
        return surgery_expectation(p)
    except DenominatorZero:
        return "denominator-zero"


def suite_kirby(
    trials: int = 500, seed: int = 0, k: int | None = None, max_moves: int = 5
) -> dict:
    """Blow-ups, isolated blow-downs and handle slides fix the invariant."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        kk = rng.choice(_couplings(k))
        p = SurgeryPresentation.make(random_presentation(rng), kk)
        before = _status(p)
        q = p
        moves = rng.randint(1, max_moves)
        for _ in range(moves):
            q = random_kirby_move(rng, q)
        if _status(q) != before:
            failures.append(f"trial {t}: k={kk} {p.link.linking} after {moves} moves")
    return _report("kirby", trials, seed, k, failures)


def suite_oracle(
    trials: int = 200,
    seed: int = 0,
    k: int | None = None,
    max_terms: int = 10**6,
    tolerance: float = 1e-9,
) -> dict:
    """Exact values embed within tolerance of the float summation;
    trials whose lattices exceed max_terms are skipped and counted."""
    rng = random.Random(seed)
    failures = []
    skipped = 0
    for t in range(trials):
        kk = rng.choice(_couplings(k))
        p = SurgeryPresentation.make(random_presentation(rng), kk)
        if t % 3 == 0:  # also cover presentations reached by Kirby moves
            for _ in range(rng.randint(1, 3)):
                p = random_kirby_move(rng, p)
        try:
            exact = surgery_expectation(p)
        except DenominatorZero:
            try:
                _, den = oracle_sums(p, max_terms)
            except TermLimit:
                skipped += 1
                continue
            if abs(den) >= 1e-6:
                failures.append(f"trial {t}: zero denominator not seen by oracle")
            continue
        try:
            approx = oracle_expectation(p, max_terms)
        except TermLimit:
            skipped += 1
            continue
        if abs(exact.numeric - approx) >= tolerance:
            failures.append(
                f"trial {t}: k={kk} |exact-oracle|={abs(exact.numeric - approx):.2e}"
            )
    return _report("oracle", trials, seed, k, failures, skipped=skipped)


HOMOLOGY_COUPLINGS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)


def suite_homology(
    trials: int = 1000,
    seed: int = 0,
    k: int | None = None,
    max_terms: int = 4096,
    tolerance: float = 1e-9,
) -> dict:
    """The homological evaluator matches both enumeration oracles.

    surgery_expectation is compared with the exact Gauss-sum ratio
    (value, zero and undefined must all agree) and with the float sums
    (within tolerance, and undefined exactly when the float denominator
    vanishes).  Trials whose lattices exceed max_terms are skipped and
    counted; undefined and zero outcomes are counted, so that a run
    which never reached them is visible.
    """
    rng = random.Random(seed)
    couplings = HOMOLOGY_COUPLINGS if k is None else (k,)
    failures = []
    undefined = zero = skipped = 0
    for t in range(trials):
        kk = rng.choice(couplings)
        p = SurgeryPresentation.make(random_presentation(rng, max_surgery=5), kk)
        for _ in range(rng.randint(0, 3)):
            p = random_kirby_move(rng, p)
        try:
            numerator, denominator = oracle_sums(p, max_terms)
            exact_num = gauss_sum(p, True, max_terms).value
            exact_den = gauss_sum(p, False, max_terms).value
        except TermLimit:
            skipped += 1
            continue
        try:
            got = surgery_expectation(p)
        except DenominatorZero:
            got = None
        where = f"trial {t}: k={kk} {p.link.linking} {p.link.charges}"
        if got is None:
            undefined += 1
            if not exact_den.is_zero:
                failures.append(f"{where}: undefined, exact ratio is defined")
            if abs(denominator) >= 1e-6:
                failures.append(f"{where}: undefined, float denominator {abs(denominator):.2e}")
            continue
        zero += got.is_zero
        if exact_den.is_zero or got.value != exact_num / exact_den:
            failures.append(f"{where}: differs from the exact ratio")
        elif abs(denominator) < 1e-6 or abs(got.numeric - numerator / denominator) >= tolerance:
            failures.append(f"{where}: differs from the float ratio")
    return _report(
        "homology", trials, seed, k, failures,
        undefined=undefined, zero=zero, skipped=skipped,
    )


def _observed_with_pairing(rng: random.Random, target: int, bound: int):
    """Observed block with a unit charge plus linkings hitting the target."""
    fl = random_link(rng, max_components=3, charge_bound=bound)
    charges = list(fl.charges)
    charges[0] = 1
    fl = FramedLink.make(fl.linking, charges=charges)
    linkings = [rng.randint(-2, 2) for _ in range(fl.n)]
    linkings[0] = target - sum(q * l for q, l in zip(fl.charges[1:], linkings[1:]))
    return fl, linkings


def check_s1xs2_agreement(k: int, pairing: int, rng: random.Random) -> str | None:
    """One surgery-vs-closed-form comparison; None when they agree."""
    observed, linkings = _observed_with_pairing(rng, pairing, 2 * abs(k) + 2)
    p = s1xs2_presentation(observed, linkings, k)
    closed = s1xs2_expectation(
        HomologyData(0, (pairing,), quadratic_form(observed)), k
    )
    direct = surgery_expectation(p)
    if direct != closed:
        return f"k={k} pairing={pairing} {observed.linking} {observed.charges}"
    if direct.is_zero != (pairing % (2 * abs(k)) != 0):
        return f"k={k} pairing={pairing}: vanishing gate mismatch"
    return None


def check_t3_agreement(k: int, targets, rng: random.Random) -> str | None:
    """One 3-torus comparison; None when surgery and closed form agree."""
    observed = random_link(rng, max_components=2, charge_bound=2 * abs(k))
    charges = list(observed.charges)
    charges[0] = 1
    observed = FramedLink.make(observed.linking, charges=charges)
    rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(observed.n)]
    for c in range(3):
        rows[0][c] = targets[c] - sum(
            observed.charges[i] * rows[i][c] for i in range(1, observed.n)
        )
    p = t3_presentation(observed, rows, k)
    closed = s1xsigma_expectation(
        HomologyData(1, tuple(targets), quadratic_form(observed)), k
    )
    direct = surgery_expectation(p)
    if direct != closed:
        return f"k={k} targets={targets} {observed.linking} {observed.charges}"
    return None


def suite_manifolds(trials: int = 200, seed: int = 0, k: int | None = None) -> dict:
    """Surgery ratios match the closed-form evaluators, zeros included."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        kk = rng.choice(_couplings(k))
        if t % 2 == 0:
            pairing = rng.randint(-4 * abs(kk), 4 * abs(kk))
            failure = check_s1xs2_agreement(kk, pairing, rng)
        else:
            targets = [rng.randint(-2 * abs(kk), 2 * abs(kk)) for _ in range(3)]
            failure = check_t3_agreement(kk, targets, rng)
        if failure:
            failures.append(f"trial {t}: {failure}")
    return _report("manifolds", trials, seed, k, failures)


SUITES = {
    "periodicity": suite_periodicity,
    "satellite": suite_satellite,
    "kirby": suite_kirby,
    "oracle": suite_oracle,
    "homology": suite_homology,
    "manifolds": suite_manifolds,
}
