"""Gauss sums, surgery ratios, Kirby moves and the float oracle."""

from __future__ import annotations

import itertools
import math
import random
import time
from operator import mul

import pytest

from acsl import (
    CycNum,
    DenominatorZero,
    FramedLink,
    TermLimit,
    blow_down,
    blow_up,
    gauss_sums,
    handle_slide,
    oracle_expectation,
    oracle_sums,
    root_power,
    s3_expectation,
    surgery_expectation,
)
from acsl.checks import (
    HOMOLOGY_COUPLINGS,
    TOLERANCE,
    kernel_witness_holds,
    random_kirby_move,
    random_presentation,
    suite_homology,
)
from acsl.cli import SURGERY_LIMIT
from acsl.surgery import NotIsolated, NotSurgery, NotUnitFramed, _solve_local


def presentation(matrix, charges=None, roles=None) -> FramedLink:
    return FramedLink.make(matrix, charges=charges, roles=roles)


def random_surgery(rng, k=None, **kwargs) -> tuple[FramedLink, int]:
    """A random presentation and its coupling; k, when not given, is drawn first."""
    if k is None:
        k = rng.choice([1, 2, 3])
    return random_presentation(rng, **kwargs), k


def invariant_or_status(fl: FramedLink, k):
    try:
        return surgery_expectation(fl, k).value
    except DenominatorZero:
        return "denominator-zero"


def test_gauss_sum_zero_framed_unknot():
    for k in (1, 2, 3, -2):
        fl = presentation([[0]], roles=["surgery"])
        with pytest.raises(TermLimit):
            gauss_sums(fl, k, max_terms=2 * abs(k) - 1)
        _, den = gauss_sums(fl, k, max_terms=2 * abs(k))
        assert den == CycNum.from_coeffs(4 * abs(k), [2 * abs(k)])


def test_gauss_sum_unit_framed_unknot():
    fl = presentation([[1]], roles=["surgery"])
    _, value = gauss_sums(fl, 1)
    assert value == CycNum.one(4) + root_power(4, -1)  # 1 - i
    assert abs(value.embed() - (1 - 1j)) < 1e-12


def test_gauss_sum_reduces_to_s3_phase():
    hopf = FramedLink.make([[0, 1], [1, 0]], charges=[1, 1])
    with pytest.raises(TermLimit):
        gauss_sums(hopf, 1, max_terms=0)
    assert gauss_sums(hopf, 1, max_terms=1) == (CycNum.from_coeffs(4, [-1]), CycNum.one(4))


def test_gauss_sum_ignores_observed_when_asked():
    fl = presentation([[0, 1], [1, 2]], charges=[3, 0], roles=["observed", "surgery"])
    bare = presentation([[0, 1], [1, 2]], roles=["observed", "surgery"])
    numerator, denominator = gauss_sums(fl, 2)
    assert gauss_sums(bare, 2) == (denominator, denominator)
    assert numerator != denominator  # charge 3 is not in the image of 2 mod 4


def test_surgery_expectation_meridian_cases():
    # S^1 x S^2 with a once-linked charge-1 meridian: vanishes
    fl = presentation([[0, 1], [1, 0]], charges=[1, 0], roles=["observed", "surgery"])
    inv = surgery_expectation(fl, 1)
    assert inv.is_zero
    assert inv.value == CycNum.zero(4)
    # charge 2 passes the divisibility gate and gives the trivial phase
    fl2 = presentation([[0, 1], [1, 0]], charges=[2, 0], roles=["observed", "surgery"])
    inv2 = surgery_expectation(fl2, 1)
    assert not inv2.is_zero
    assert inv2.value == CycNum.one(4)


def test_surgery_expectation_empty_surgery_equals_s3():
    rng = random.Random(20)
    for _ in range(50):
        fl, k = random_surgery(rng, max_surgery=0)
        assert surgery_expectation(fl, k).value == s3_expectation(fl, k).value


def test_denominator_zero():
    # +2-framed surgery unknot at k=1: 1 + zeta_4^-2 = 0
    fl = presentation([[2]], roles=["surgery"])
    with pytest.raises(DenominatorZero):
        surgery_expectation(fl, 1)
    _, den = oracle_sums(fl, 1)
    assert abs(den) < 1e-6


def test_blow_up_examples():
    empty = presentation([[0]], charges=[1])
    up = blow_up(empty, 1)
    assert up.n == 2
    assert up.roles[-1] == "surgery"
    assert up.linking[1][1] == 1
    assert gauss_sums(up, 1)[1] == CycNum.one(4) + root_power(4, -1)
    with pytest.raises(ValueError):
        blow_up(empty, 2)


def test_blow_down_inverts_blow_up():
    rng = random.Random(21)
    for _ in range(25):
        fl, _ = random_surgery(rng)
        sign = rng.choice([1, -1])
        up = blow_up(fl, sign)
        down = blow_down(up, up.n - 1)
        assert down == fl


def test_blow_down_preconditions():
    fl = presentation([[0, 0], [0, 3]], charges=[1, 0], roles=["observed", "surgery"])
    with pytest.raises(NotSurgery):
        blow_down(fl, 0)
    with pytest.raises(NotUnitFramed):
        blow_down(fl, 1)
    linked = presentation([[0, 1], [1, 1]], charges=[1, 0], roles=["observed", "surgery"])
    with pytest.raises(NotIsolated):
        blow_down(linked, 1)
    with pytest.raises(IndexError):
        blow_down(fl, 5)


def test_handle_slide_formula():
    fl = presentation(
        [[2, 1, 0], [1, -1, 3], [0, 3, 4]],
        charges=[2, 0, 0],
        roles=["observed", "surgery", "surgery"],
    )
    slid = handle_slide(fl, 0, 1, 1)
    assert slid.linking == ((3, 0, 3), (0, -1, 3), (3, 3, 4))
    assert slid.charges == fl.charges
    # slide then inverse slide restores the matrix
    assert handle_slide(slid, 0, 1, -1) == fl


def test_handle_slide_over_isolated_zero_framed():
    fl = presentation([[1, 0], [0, 0]], charges=[1, 0], roles=["observed", "surgery"])
    slid = handle_slide(fl, 0, 1, 1)
    assert slid.linking == fl.linking


def test_handle_slide_preconditions():
    fl = presentation([[0, 1], [1, 0]], charges=[1, 0], roles=["observed", "surgery"])
    with pytest.raises(NotSurgery):
        handle_slide(fl, 1, 0, 1)
    with pytest.raises(ValueError):
        handle_slide(fl, 1, 1, 1)
    with pytest.raises(ValueError):
        handle_slide(fl, 0, 1, 3)


def test_kirby_moves_preserve_invariant():
    rng = random.Random(22)
    for _ in range(150):
        fl, k = random_surgery(rng)
        before = invariant_or_status(fl, k)
        moved = fl
        for _ in range(rng.randint(1, 3)):
            moved = random_kirby_move(rng, moved)
        assert invariant_or_status(moved, k) == before


def test_one_move_sequence_preserves_every_coupling():
    # The moves act on the link alone, so one moved link is checked
    # against the original at every coupling.
    rng = random.Random(30)
    outcomes = set()
    for _ in range(60):
        fl = random_presentation(rng)
        moved = fl
        for _ in range(rng.randint(1, 4)):
            moved = random_kirby_move(rng, moved)
        for k in HOMOLOGY_COUPLINGS:
            before = invariant_or_status(fl, k)
            assert invariant_or_status(moved, k) == before
            outcomes.add(before if before == "denominator-zero" else before.is_zero)
    assert outcomes == {"denominator-zero", True, False}


def test_colour_periodicity_inside_presentations():
    rng = random.Random(27)
    for _ in range(100):
        fl, k = random_surgery(rng)
        observed = list(fl.observed())
        if not observed:
            continue
        i = rng.choice(observed)
        charges = list(fl.charges)
        charges[i] += 2 * abs(k)
        shifted = FramedLink.make(fl.linking, charges=charges, roles=fl.roles)
        assert invariant_or_status(shifted, k) == invariant_or_status(fl, k)


def test_satellite_equality_inside_presentations():
    from acsl import satellite_expand, simplicial_satellite

    rng = random.Random(28)
    for _ in range(100):
        fl, k = random_surgery(rng)
        observed = list(fl.observed())
        if not observed:
            continue
        expanded = satellite_expand(fl, rng.choice(observed), rng.choice([1, -1]))
        assert invariant_or_status(expanded, k) == invariant_or_status(fl, k)
        full = simplicial_satellite(fl)
        assert invariant_or_status(full, k) == invariant_or_status(fl, k)


def test_multiplicativity_under_split_union():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        a, _ = random_surgery(rng, k=k, max_surgery=2, max_observed=2)
        b, _ = random_surgery(rng, k=k, max_surgery=2, max_observed=2)
        na, nb = a.n, b.n
        matrix = [
            [
                a.linking[i][j] if i < na and j < na
                else b.linking[i - na][j - na] if i >= na and j >= na
                else 0
                for j in range(na + nb)
            ]
            for i in range(na + nb)
        ]
        union = FramedLink.make(matrix, charges=a.charges + b.charges, roles=a.roles + b.roles)
        try:
            separate = surgery_expectation(a, k).value * surgery_expectation(b, k).value
        except DenominatorZero:
            with pytest.raises(DenominatorZero):
                surgery_expectation(union, k)
            continue
        assert surgery_expectation(union, k).value == separate


def test_oracle_agreement():
    rng = random.Random(24)
    checked = 0
    for _ in range(80):
        fl, k = random_surgery(rng)
        try:
            exact = surgery_expectation(fl, k)
        except DenominatorZero:
            _, den = oracle_sums(fl, k)
            assert abs(den) < 1e-6
            continue
        assert abs(exact.numeric - oracle_expectation(fl, k)) < 1e-9
        checked += 1
    assert checked > 20
    # 2|k| with three or four prime factors: the solutions mod each prime
    # power combine by the Chinese remainder theorem
    outcomes = []
    for k, trials in ((15, 60), (-21, 60), (105, 6)):
        for _ in range(trials):
            fl, _ = random_surgery(rng, k=k, max_surgery=2)
            try:
                exact = surgery_expectation(fl, k)
            except DenominatorZero:
                _, den = oracle_sums(fl, k)
                assert abs(den) < 1e-6
                outcomes.append("undefined")
                continue
            assert abs(exact.numeric - oracle_expectation(fl, k)) < 1e-9
            outcomes.append("zero" if exact.is_zero else "phase")
    assert {"undefined", "zero", "phase"} <= set(outcomes)


def test_oracle_term_limit():
    fl = presentation([[0] * 5 for _ in range(5)], roles=["surgery"] * 5)
    with pytest.raises(TermLimit):
        oracle_sums(fl, 3, max_terms=1000)


def test_gauss_sum_term_limit():
    # a connected 5-component block walks 6**5 = 7776 vectors at k=3,
    # under the same rule in both oracles
    fl = presentation([[1] * 5 for _ in range(5)], roles=["surgery"] * 5)
    for oracle in (gauss_sums, oracle_sums):
        with pytest.raises(TermLimit):
            oracle(fl, 3, max_terms=7775)
        oracle(fl, 3, max_terms=7776)
    # isolated blow-ups are walked with the rest: 12 of them hold 10**12 vectors
    blown = presentation([[0]], charges=[1])
    for _ in range(12):
        blown = blow_up(blown, 1)
    with pytest.raises(TermLimit):
        gauss_sums(blown, 5, max_terms=120)


def test_gauss_sum_at_five_odd_primes_is_fast():
    # 4 * 19635 has five odd primes: the 39270 terms of the one surgery
    # component are tallied, with and without the observed phase, and
    # each tally is reduced once.
    fl = presentation([[1, 1], [1, 3]], charges=[0, 5], roles=["surgery", "observed"])
    with pytest.raises(TermLimit):
        gauss_sums(fl, 19635, max_terms=39269)
    start = time.perf_counter()
    exact = gauss_sums(fl, 19635, max_terms=39270)
    assert time.perf_counter() - start < 2.0
    for value, float_sum in zip(exact, oracle_sums(fl, 19635)):
        assert abs(value.embed() - float_sum) < TOLERANCE


def test_solve_local_matches_brute_force():
    rng = random.Random(29)
    for q in (2, 4, 8, 16, 3, 9, 27, 5, 25, 7):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        cases = [([], []), ([[0]], [0]), ([[q]], [1]), ([[0, 0], [0, 0]], [0, p])]
        for _ in range(12):
            s = rng.randint(1, 3)
            a = [[rng.randint(-9, 9) * rng.choice([1, p, p * p]) for _ in range(s)] for _ in range(s)]
            v = [rng.randrange(q) for _ in range(s)]
            b = [sum(map(mul, row, v)) + rng.choice([0, 0, 1, p]) for row in a]
            cases.append((a, b))
        for a, b in cases:
            s = len(a)
            x, kernel = _solve_local(a, b, p, q)
            target = tuple(bi % q for bi in b)
            image = {}
            for y in itertools.product(range(q), repeat=s):
                image.setdefault(tuple(sum(map(mul, row, y)) % q for row in a), []).append(y)
            assert (x is not None) == (target in image)
            if x is not None:
                assert tuple(sum(map(mul, row, x)) % q for row in a) == target
            # the witnesses lie in the kernel and generate all of it
            span, frontier = {(0,) * s}, [(0,) * s]
            generators = [tuple(z) for z in kernel]
            while frontier:
                y = frontier.pop()
                for z in generators:
                    w = tuple((u + v) % q for u, v in zip(y, z))
                    if w not in span:
                        span.add(w)
                        frontier.append(w)
            assert span == set(image[(0,) * s])


def test_homology_suite_reaches_every_outcome():
    report = suite_homology(trials=1000, seed=0)
    assert report["passed"] and report["failures"] == 0
    assert report["undefined"] > 0 and report["zero"] > 0
    assert report["skipped"] < report["trials"] // 2



def test_lens_chains_match_their_continuants():
    """A chain of s surgery unknots with framings a_i, 2 <= |a_i| <= 5,
    neighbours linked once, and an observed meridian of the first with
    framing f and charge Q.  The continuants D = K(a_1..a_s) = det A and
    D1 = K(a_2..a_s) give (A^-1)_11 = D1/D, so when gcd(D, 4|k|) = 1 the
    exponent is -sign(k) Q^2 (f - D1 D^-1) mod 4|k|."""
    rng = random.Random(26)
    compared = longest = 0
    for t in range(600):
        s = SURGERY_LIMIT if t % 20 == 0 else rng.randint(1, SURGERY_LIMIT)
        k = rng.choice((1, 2, 3, -5, 7, 99991, -65536, 30030, 100000))
        a = [rng.choice((-1, 1)) * rng.randint(2, 5) for _ in range(s)]
        f, charge = rng.randint(-5, 5), rng.randint(-6, 6)
        # K_j = a_j K_{j-1} - K_{j-2}, run from a_s down to a_1
        d1, d = 0, 1
        for x in reversed(a):
            d1, d = d, x * d - d1
        n = 4 * abs(k)
        if math.gcd(d, n) != 1:
            continue
        rows = [[0] * (s + 1) for _ in range(s + 1)]
        for i, x in enumerate(a):
            rows[i][i] = x
            if i + 1 < s:
                rows[i][i + 1] = rows[i + 1][i] = 1
        rows[0][s] = rows[s][0] = 1
        rows[s][s] = f
        fl = presentation(rows, charges=[0] * s + [charge], roles=["surgery"] * s + ["observed"])
        got = surgery_expectation(fl, k)
        expected = -(1 if k > 0 else -1) * charge**2 * (f - d1 * pow(d, -1, n)) % n
        assert (got.order, got.exponent) == (n, expected), (k, a, f, charge)
        compared += 1
        longest = max(longest, s)
    assert compared >= 200 and longest == SURGERY_LIMIT


def test_denominator_zero_carries_its_kernel_vector():
    fl = presentation([[2]], roles=["surgery"])
    with pytest.raises(DenominatorZero) as info:
        surgery_expectation(fl, 1)
    assert info.value.kernel == (1,)
    assert str(info.value) == (
        "normalizing Gauss sum vanishes at k=1: the kernel vector [1] of the "
        "surgery block mod 2 has y.Ay != 0 mod 4"
    )
    # two surgery components around an observed one, at k=2
    fl = presentation(
        [[-3, 0, -3], [0, 1, 1], [-3, 1, 1]],
        charges=[0, 1, 0],
        roles=["surgery", "observed", "surgery"],
    )
    with pytest.raises(DenominatorZero) as info:
        surgery_expectation(fl, 2)
    assert info.value.kernel == (3, 1)
    assert kernel_witness_holds(fl, 2, (3, 1))
    assert not kernel_witness_holds(fl, 2, (1, 0))  # A y != 0 mod 4
    assert not kernel_witness_holds(fl, 2, (2, 2))  # y.Ay = 0 mod 8
    assert not kernel_witness_holds(fl, 2, None)
    _, den = oracle_sums(fl, 2)
    assert abs(den) < 1e-6


def test_every_undefined_presentation_has_a_checkable_witness():
    rng = random.Random(23)
    seen = 0
    for _ in range(400):
        fl, k = random_surgery(rng, k=rng.choice([1, 2, -2, 3, 4, 15, -21, 105]), max_surgery=4)
        try:
            surgery_expectation(fl, k)
        except DenominatorZero as exc:
            assert kernel_witness_holds(fl, k, exc.kernel)
            seen += 1
    assert seen >= 20
