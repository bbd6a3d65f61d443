"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (visible with ``pytest -s``);
a failure surfaces as an ordinary assertion error.  Expected values
come from independent oracles computed inside this module: brute-force
integer quadratic forms, float phase summation, and numeric root
products for the cyclotomic layer.
"""

from __future__ import annotations

import cmath
import math
import random

from acsl import (
    CycNum,
    DenominatorZero,
    FramedLink,
    TermLimit,
    cyclotomic_polynomial,
    linking_matrix,
    mirror_diagram,
    oracle_expectation,
    oracle_sums,
    parse_pd,
    reverse_component_diagram,
    root_power,
    s3_expectation,
    surgery_expectation,
    totient,
)
from acsl.checks import (
    check_agreement,
    random_kirby_move,
    random_link,
    random_presentation,
    suite_kirby,
    suite_periodicity,
    suite_satellite,
)
from helpers import (
    CLASP_SIGNS,
    insert_clasp,
    linking_by_over_strand,
    numeric_cyclotomic,
    random_edge,
)

COUPLINGS = (1, 2, 3, -2)

POSITIVE_HOPF = "X(4,1,3,2) X(1,4,2,3) C: 1 2; 3 4"


def brute_force_form(fl: FramedLink) -> int:
    total = 0
    for i in range(fl.n):
        for j in range(fl.n):
            total += fl.charges[i] * fl.linking[i][j] * fl.charges[j]
    return total


def chain_link(components: int, charges) -> FramedLink:
    matrix = [
        [1 if abs(i - j) == 1 else 0 for j in range(components)]
        for i in range(components)
    ]
    return FramedLink.make(matrix, charges=charges)


def theorem1_battery() -> list[FramedLink]:
    battery = [
        FramedLink.make([[f]], charges=[q])
        for f, q in zip(range(-3, 4), (1, 2, 3, 1, -2, 5, 2))
    ]
    battery.append(FramedLink.make([[0, 1], [1, 0]], charges=[1, 1]))
    battery.append(chain_link(3, (1, 2, 3)))
    battery.append(chain_link(4, (2, -1, 1, 3)))
    rng = random.Random(101)
    while len(battery) < 20:
        battery.append(random_link(rng, max_components=4))
        if battery[-1].n < 3:  # criterion asks for 3-4 component matrices
            battery.pop()
    return battery


def test_criterion_1_theorem1_reproduction():
    for fl in theorem1_battery():
        q_value = brute_force_form(fl)
        for k in COUPLINGS:
            expected = root_power(4 * abs(k), -q_value if k > 0 else q_value)
            inv = s3_expectation(fl, k)
            assert inv.value == expected
            assert not inv.is_zero
    print("ACCEPTANCE 1 (Theorem-1 reproduction on 20-link battery): PASS")


def test_criterion_2_colour_periodicity():
    report = suite_periodicity(trials=1000, seed=2)
    assert report["failures"] == 0, report
    print("ACCEPTANCE 2 (colour periodicity, 1000 trials): PASS")


def test_criterion_3_satellite_relation():
    report = suite_satellite(trials=200, seed=3)
    assert report["failures"] == 0, report
    print("ACCEPTANCE 3 (satellite relation, 200 links): PASS")


def test_criterion_4_s1xs2_two_sided():
    rng = random.Random(4)
    for k in (1, 2, 3):
        for pairing in range(-4 * k, 4 * k + 1):
            for _ in range(50):
                failure = check_agreement(k, [pairing], rng)
                assert failure is None, failure
    print("ACCEPTANCE 4 (S^1xS^2 vanishing/phase vs surgery): PASS")


def test_criterion_5_torus_bundle_two_sided():
    rng = random.Random(5)
    for k in (1, 2, 3):
        for _ in range(200):
            targets = [rng.randint(-2 * k, 2 * k) for _ in range(3)]
            failure = check_agreement(k, targets, rng)
            assert failure is None, failure
    print("ACCEPTANCE 5 (genus-1 vanishing/phase vs surgery): PASS")


def test_criterion_6_kirby_invariance():
    report = suite_kirby(trials=500, seed=6)
    assert report["failures"] == 0, report
    print("ACCEPTANCE 6 (Kirby invariance, 500 presentations): PASS")


def _oracle_gap(fl: FramedLink, k, cap: int = 10**6) -> float | None:
    """|exact - float| for one presentation, None when skipped."""
    try:
        exact = surgery_expectation(fl, k)
    except DenominatorZero:
        try:
            _, den = oracle_sums(fl, k, cap)
        except TermLimit:
            return None
        assert abs(den) < 1e-6
        return 0.0
    try:
        approx = oracle_expectation(fl, k, cap)
    except TermLimit:
        return None
    return abs(exact.numeric - approx)


def test_criterion_7_exact_float_agreement():
    checked = 0
    # criterion-1 battery, embedded via empty surgery presentations
    for fl in theorem1_battery():
        for k in COUPLINGS:
            inv = s3_expectation(fl, k)
            direct = cmath.exp(
                -2j * math.pi * brute_force_form(fl) / (4 * k)
            )
            assert abs(inv.numeric - direct) < 1e-9
            checked += 1
    # random presentations, including Kirby-moved ones (criterion 6 shape)
    rng = random.Random(7)
    for t in range(300):
        fl = random_presentation(rng)
        k = rng.choice((1, 2, 3))
        if t % 3 == 0:
            for _ in range(rng.randint(1, 5)):
                fl = random_kirby_move(rng, fl)
        gap = _oracle_gap(fl, k)
        if gap is not None:
            assert gap < 1e-9
            checked += 1
    # manifold presentations (criteria 4-5 shape)
    from acsl import s1xsigma_presentation

    for t in range(50):
        observed = random_link(rng, max_components=2, charge_bound=4)
        k = rng.choice((1, 2, 3))
        s1xs2 = s1xsigma_presentation(
            observed, [[rng.randint(-2, 2) for _ in range(observed.n)]]
        )
        t3 = s1xsigma_presentation(
            observed,
            zip(*[[rng.randint(-2, 2) for _ in range(3)] for _ in range(observed.n)]),
        )
        for fl in (s1xs2, t3):
            gap = _oracle_gap(fl, k)
            if gap is not None:
                assert gap < 1e-9
                checked += 1
    assert checked > 300
    print(f"ACCEPTANCE 7 (exact/float oracle on {checked} instances): PASS")


def _horner(coeffs, x: complex) -> complex:
    """The polynomial with these coefficients, constant term first, at x."""
    out: complex = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _int_poly_product(polys):
    out = [1]
    for poly in polys:
        nxt = [0] * (len(out) + len(poly) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(poly):
                nxt[i + j] += a * b
        out = nxt
    return out


def test_criterion_8_cyclotomic_layer():
    for n in range(1, 65):
        exact = cyclotomic_polynomial(n)
        # degree phi(n) and monic: exactly as many roots as primitives
        assert len(exact) - 1 == totient(n)
        assert exact[-1] == 1
        # every primitive n-th root is a numeric root
        for j in range(1, n + 1):
            if math.gcd(j, n) == 1:
                assert abs(_horner(exact, cmath.exp(2j * cmath.pi * j / n))) < 1e-8
        # exact integer identity: the divisor factors rebuild x^n - 1
        product = _int_poly_product(
            cyclotomic_polynomial(d) for d in range(1, n + 1) if n % d == 0
        )
        assert product == [-1] + [0] * (n - 1) + [1]
        # coefficient-level float oracle where it is itself accurate
        if n <= 32:
            for a, b in zip(exact, numeric_cyclotomic(n)):
                assert abs(a - b) < 1e-8
    rng = random.Random(8)
    samples = 0
    for n in (4, 8, 12, 20, 28):
        for _ in range(2000):
            a, b, c = (
                CycNum.from_coeffs(n, [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            samples += 1
        # every reported value is a root of unity, a unit of Z[zeta_n]
        for e in range(n):
            assert root_power(n, e) * root_power(n, -e) == CycNum.one(n)
    assert samples == 10**4
    print("ACCEPTANCE 8 (cyclotomic polynomials to n=64; ring axioms x 10^4): PASS")


def diagram_battery():
    battery = [
        parse_pd(POSITIVE_HOPF),
        parse_pd("X(1,4,2,3) X(3,2,4,1) C: 1 2; 3 4"),
        parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) C: 1 2 3 4 5 6"),
        parse_pd("X(1,1,2,2) C: 1 2"),
        parse_pd("X(4,1,3,6) X(1,4,2,3) X(2,6,5,5) C: 1 2 5 6; 3 4"),
    ]
    rng = random.Random(9)
    base = parse_pd(POSITIVE_HOPF)
    for _ in range(10):
        d = base
        for _ in range(rng.randint(1, 3)):
            over_comp = rng.randrange(2)
            d = insert_clasp(
                d,
                over_edge=random_edge(rng, d, over_comp),
                under_edge=random_edge(rng, d, 1 - over_comp),
                kind=rng.choice(list(CLASP_SIGNS)),
            )
        battery.append(d)
    return battery


def test_criterion_9_diagram_front_end():
    hopf = linking_matrix(parse_pd(POSITIVE_HOPF), [0, 0])
    assert hopf.linking == ((0, 1), (1, 0))
    for d in diagram_battery():
        fl = linking_matrix(d, "blackboard")
        n = len(d.component_edges)
        # matrix symmetry and over-strand consistency
        assert fl.linking == tuple(zip(*fl.linking))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert fl.linking[i][j] == linking_by_over_strand(d, i, j)
        # mirror negates every crossing sign
        assert mirror_diagram(d).signs == tuple(-s for s in d.signs)
        # reversing component j negates its off-diagonal row and column
        # and preserves every diagonal entry
        for j in range(n):
            reversed_fl = linking_matrix(
                reverse_component_diagram(d, j), "blackboard"
            )
            for a in range(n):
                for b in range(n):
                    expected = fl.linking[a][b]
                    if (a == j) != (b == j):
                        expected = -expected
                    assert reversed_fl.linking[a][b] == expected
    print("ACCEPTANCE 9 (diagram battery: Hopf matrix, mirror, reversal): PASS")
