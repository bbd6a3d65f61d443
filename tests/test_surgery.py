"""Gauss sums, surgery ratios, Kirby moves and the float oracle."""

from __future__ import annotations

import itertools
import random
from operator import mul

import pytest

from acsl import (
    CycNum,
    DenominatorZero,
    FramedLink,
    SurgeryPresentation,
    TermLimit,
    blow_down,
    blow_up,
    gauss_sum,
    handle_slide,
    oracle_expectation,
    oracle_sums,
    root_power,
    s3_expectation,
    surgery_expectation,
)
from acsl.checks import (
    kernel_witness_holds,
    random_kirby_move,
    random_presentation,
    suite_homology,
)
from acsl.surgery import NotIsolated, NotSurgery, NotUnitFramed, _solve_local


def presentation(matrix, charges=None, roles=None, k=1) -> SurgeryPresentation:
    return SurgeryPresentation.make(
        FramedLink.make(matrix, charges=charges, roles=roles), k
    )


def random_surgery(rng, k=None, **kwargs) -> SurgeryPresentation:
    if k is None:
        k = rng.choice([1, 2, 3])
    return SurgeryPresentation.make(random_presentation(rng, **kwargs), k)


def invariant_or_status(p: SurgeryPresentation):
    try:
        return surgery_expectation(p).value
    except DenominatorZero:
        return "denominator-zero"


def test_gauss_sum_zero_framed_unknot():
    for k in (1, 2, 3, -2):
        p = presentation([[0]], roles=["surgery"], k=k)
        out = gauss_sum(p, include_observed=False)
        assert out.terms == 2 * abs(k)
        assert out.value == CycNum.from_coeffs(4 * abs(k), [2 * abs(k)])


def test_gauss_sum_unit_framed_unknot():
    p = presentation([[1]], roles=["surgery"], k=1)
    value = gauss_sum(p, include_observed=False).value
    assert value == CycNum.one(4) + root_power(4, -1)  # 1 - i
    assert abs(value.embed() - (1 - 1j)) < 1e-12


def test_gauss_sum_reduces_to_s3_phase():
    hopf = FramedLink.make([[0, 1], [1, 0]], charges=[1, 1])
    p = SurgeryPresentation.make(hopf, 1)
    out = gauss_sum(p, include_observed=True)
    assert out.terms == 1
    assert out.value == CycNum.from_coeffs(4, [-1])


def test_gauss_sum_ignores_observed_when_asked():
    p = presentation(
        [[0, 1], [1, 2]], charges=[3, 0], roles=["observed", "surgery"], k=2
    )
    bare = presentation([[0, 1], [1, 2]], roles=["observed", "surgery"], k=2)
    assert (
        gauss_sum(p, include_observed=False).value
        == gauss_sum(bare, include_observed=True).value
    )


def test_surgery_expectation_meridian_cases():
    # S^1 x S^2 with a once-linked charge-1 meridian: vanishes
    p = presentation(
        [[0, 1], [1, 0]], charges=[1, 0], roles=["observed", "surgery"], k=1
    )
    inv = surgery_expectation(p)
    assert inv.is_zero
    assert inv.value == CycNum.zero(4)
    # charge 2 passes the divisibility gate and gives the trivial phase
    p2 = presentation(
        [[0, 1], [1, 0]], charges=[2, 0], roles=["observed", "surgery"], k=1
    )
    inv2 = surgery_expectation(p2)
    assert not inv2.is_zero
    assert inv2.value == CycNum.one(4)


def test_surgery_expectation_empty_surgery_equals_s3():
    rng = random.Random(20)
    for _ in range(50):
        p = random_surgery(rng, max_surgery=0)
        assert (
            surgery_expectation(p).value
            == s3_expectation(p.link, p.level).value
        )


def test_denominator_zero():
    # +2-framed surgery unknot at k=1: 1 + zeta_4^-2 = 0
    p = presentation([[2]], roles=["surgery"], k=1)
    with pytest.raises(DenominatorZero):
        surgery_expectation(p)
    _, den = oracle_sums(p)
    assert abs(den) < 1e-6


def test_blow_up_examples():
    empty = presentation([[0]], charges=[1], k=1)
    up = blow_up(empty, 1)
    assert up.link.n == 2
    assert up.link.roles[-1] == "surgery"
    assert up.link.linking[1][1] == 1
    assert gauss_sum(up, include_observed=False).value == CycNum.one(4) + root_power(4, -1)
    with pytest.raises(ValueError):
        blow_up(empty, 2)


def test_blow_down_inverts_blow_up():
    rng = random.Random(21)
    for _ in range(25):
        p = random_surgery(rng)
        sign = rng.choice([1, -1])
        up = blow_up(p, sign)
        down = blow_down(up, up.link.n - 1)
        assert down.link == p.link


def test_blow_down_preconditions():
    p = presentation(
        [[0, 0], [0, 3]], charges=[1, 0], roles=["observed", "surgery"], k=1
    )
    with pytest.raises(NotSurgery):
        blow_down(p, 0)
    with pytest.raises(NotUnitFramed):
        blow_down(p, 1)
    linked = presentation(
        [[0, 1], [1, 1]], charges=[1, 0], roles=["observed", "surgery"], k=1
    )
    with pytest.raises(NotIsolated):
        blow_down(linked, 1)
    with pytest.raises(IndexError):
        blow_down(p, 5)


def test_handle_slide_formula():
    p = presentation(
        [[2, 1, 0], [1, -1, 3], [0, 3, 4]],
        charges=[2, 0, 0],
        roles=["observed", "surgery", "surgery"],
        k=1,
    )
    slid = handle_slide(p, 0, 1, 1)
    assert slid.link.linking == ((3, 0, 3), (0, -1, 3), (3, 3, 4))
    assert slid.link.charges == p.link.charges
    # slide then inverse slide restores the matrix
    assert handle_slide(slid, 0, 1, -1).link == p.link


def test_handle_slide_over_isolated_zero_framed():
    p = presentation(
        [[1, 0], [0, 0]], charges=[1, 0], roles=["observed", "surgery"], k=2
    )
    slid = handle_slide(p, 0, 1, 1)
    assert slid.link.linking == p.link.linking


def test_handle_slide_preconditions():
    p = presentation(
        [[0, 1], [1, 0]], charges=[1, 0], roles=["observed", "surgery"], k=1
    )
    with pytest.raises(NotSurgery):
        handle_slide(p, 1, 0, 1)
    with pytest.raises(ValueError):
        handle_slide(p, 1, 1, 1)
    with pytest.raises(ValueError):
        handle_slide(p, 0, 1, 3)


def test_kirby_moves_preserve_invariant():
    rng = random.Random(22)
    for _ in range(150):
        p = random_surgery(rng)
        before = invariant_or_status(p)
        q = p
        for _ in range(rng.randint(1, 3)):
            q = random_kirby_move(rng, q)
        assert invariant_or_status(q) == before


def test_colour_periodicity_inside_presentations():
    rng = random.Random(27)
    for _ in range(100):
        p = random_surgery(rng)
        observed = list(p.link.observed())
        if not observed:
            continue
        i = rng.choice(observed)
        charges = list(p.link.charges)
        charges[i] += p.level.colour_modulus
        shifted = SurgeryPresentation.make(
            FramedLink.make(p.link.linking, charges=charges, roles=p.link.roles),
            p.level,
        )
        assert invariant_or_status(shifted) == invariant_or_status(p)


def test_satellite_equality_inside_presentations():
    from acsl import satellite_expand, simplicial_satellite

    rng = random.Random(28)
    for _ in range(100):
        p = random_surgery(rng)
        observed = list(p.link.observed())
        if not observed:
            continue
        expanded = satellite_expand(p.link, rng.choice(observed), rng.choice([1, -1]))
        q = SurgeryPresentation.make(expanded, p.level)
        assert invariant_or_status(q) == invariant_or_status(p)
        full = SurgeryPresentation.make(simplicial_satellite(p.link), p.level)
        assert invariant_or_status(full) == invariant_or_status(p)


def test_multiplicativity_under_split_union():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        a = random_surgery(rng, k=k, max_surgery=2, max_observed=2)
        b = random_surgery(rng, k=k, max_surgery=2, max_observed=2)
        na, nb = a.link.n, b.link.n
        matrix = [
            [
                a.link.linking[i][j] if i < na and j < na
                else b.link.linking[i - na][j - na] if i >= na and j >= na
                else 0
                for j in range(na + nb)
            ]
            for i in range(na + nb)
        ]
        union = SurgeryPresentation.make(
            FramedLink.make(
                matrix,
                charges=a.link.charges + b.link.charges,
                roles=a.link.roles + b.link.roles,
            ),
            k,
        )
        try:
            separate = surgery_expectation(a).value * surgery_expectation(b).value
        except DenominatorZero:
            with pytest.raises(DenominatorZero):
                surgery_expectation(union)
            continue
        assert surgery_expectation(union).value == separate


def test_oracle_agreement():
    rng = random.Random(24)
    checked = 0
    for _ in range(80):
        p = random_surgery(rng)
        try:
            exact = surgery_expectation(p)
        except DenominatorZero:
            _, den = oracle_sums(p)
            assert abs(den) < 1e-6
            continue
        assert abs(exact.numeric - oracle_expectation(p)) < 1e-9
        checked += 1
    assert checked > 20
    # 2|k| with three or four prime factors: the solutions mod each prime
    # power combine by the Chinese remainder theorem
    outcomes = []
    for k, trials in ((15, 60), (-21, 60), (105, 6)):
        for _ in range(trials):
            p = random_surgery(rng, k=k, max_surgery=2)
            try:
                exact = surgery_expectation(p)
            except DenominatorZero:
                _, den = oracle_sums(p)
                assert abs(den) < 1e-6
                outcomes.append("undefined")
                continue
            assert abs(exact.numeric - oracle_expectation(p)) < 1e-9
            outcomes.append("zero" if exact.is_zero else "phase")
    assert {"undefined", "zero", "phase"} <= set(outcomes)


def test_oracle_term_limit():
    p = presentation(
        [[0] * 5 for _ in range(5)], roles=["surgery"] * 5, k=3
    )
    with pytest.raises(TermLimit):
        oracle_sums(p, max_terms=1000)


def test_gauss_sum_term_limit():
    # a connected 5-component block walks 6**5 = 7776 vectors at k=3
    p = presentation([[1] * 5 for _ in range(5)], roles=["surgery"] * 5, k=3)
    with pytest.raises(TermLimit):
        gauss_sum(p, False, max_terms=7775)
    assert gauss_sum(p, False, max_terms=7776).terms == 7776
    # isolated blow-ups factor: 12 of them walk 12 * 10 vectors, not 10**12
    q = presentation([[0]], charges=[1], k=5)
    for _ in range(12):
        q = blow_up(q, 1)
    assert gauss_sum(q, True, max_terms=120).terms == 10**12


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



def test_denominator_zero_carries_its_kernel_vector():
    p = presentation([[2]], roles=["surgery"], k=1)
    with pytest.raises(DenominatorZero) as info:
        surgery_expectation(p)
    assert info.value.kernel == (1,)
    assert str(info.value) == (
        "normalizing Gauss sum vanishes at k=1: the kernel vector [1] of the "
        "surgery block mod 2 has y.Ay != 0 mod 4"
    )
    # two surgery components around an observed one, at k=2
    p = presentation(
        [[-3, 0, -3], [0, 1, 1], [-3, 1, 1]],
        charges=[0, 1, 0],
        roles=["surgery", "observed", "surgery"],
        k=2,
    )
    with pytest.raises(DenominatorZero) as info:
        surgery_expectation(p)
    assert info.value.kernel == (3, 1)
    assert kernel_witness_holds(p, (3, 1))
    assert not kernel_witness_holds(p, (1, 0))  # A y != 0 mod 4
    assert not kernel_witness_holds(p, (2, 2))  # y.Ay = 0 mod 8
    assert not kernel_witness_holds(p, None)
    _, den = oracle_sums(p)
    assert abs(den) < 1e-6


def test_every_undefined_presentation_has_a_checkable_witness():
    rng = random.Random(23)
    seen = 0
    for _ in range(400):
        p = random_surgery(rng, k=rng.choice([1, 2, -2, 3, 4, 15, -21, 105]), max_surgery=4)
        try:
            surgery_expectation(p)
        except DenominatorZero as exc:
            assert kernel_witness_holds(p, exc.kernel)
            seen += 1
    assert seen >= 20
