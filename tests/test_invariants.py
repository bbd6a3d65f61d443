"""S^3 expectation values and the structural link operations."""

from __future__ import annotations

import cmath
import random

import pytest

from acsl import (
    CouplingLevel,
    CycNum,
    FramedLink,
    Invariant,
    PhaseExponent,
    SurgeryComponentError,
    quadratic_form,
    reduce_colours,
    reverse_component,
    root_power,
    s3_expectation,
    satellite_expand,
    simplicial_satellite,
)
from helpers import random_link

HOPF = FramedLink.make([[0, 1], [1, 0]], charges=[1, 1])


def brute_force_form(fl: FramedLink) -> int:
    """Independent term-by-term evaluation of the quadratic form."""
    total = 0
    for i in range(fl.n):
        for j in range(fl.n):
            total += fl.charges[i] * fl.linking[i][j] * fl.charges[j]
    return total


def expected_phase(fl: FramedLink, k: int):
    level = CouplingLevel(k)
    return root_power(
        level.root_order, (-level.sign * brute_force_form(fl)) % level.root_order
    )


def test_coupling_level():
    level = CouplingLevel(-3)
    assert level.colour_modulus == 6
    assert level.root_order == 12
    assert level.sign == -1
    with pytest.raises(ValueError):
        CouplingLevel(0)
    with pytest.raises(TypeError):
        CouplingLevel(1.5)


def test_quadratic_form_examples():
    assert quadratic_form(HOPF) == 2
    assert quadratic_form(FramedLink.make([[0, 1], [1, 0]])) == 0
    assert quadratic_form(FramedLink.make([[3]], charges=[2])) == 12


def test_quadratic_form_role_filter():
    with pytest.warns(UserWarning):
        fl = FramedLink.make(
            [[1, 2], [2, 3]], charges=[1, 1], roles=["observed", "surgery"]
        )
    assert quadratic_form(fl, role="observed") == 1
    assert quadratic_form(fl, role="surgery") == 3
    assert quadratic_form(fl) == 8


def test_s3_expectation_examples():
    inv = s3_expectation(HOPF, 1)
    assert not inv.is_zero
    assert inv.value == root_power(4, 2)  # zeta_4^-2 = -1
    assert abs(inv.numeric - (-1)) < 1e-12

    uncharged = FramedLink.make([[0, 1], [1, 0]])
    assert s3_expectation(uncharged, 5).value == root_power(20, 0)

    unknot = FramedLink.make([[1]], charges=[1])
    assert s3_expectation(unknot, 2).value == root_power(8, -1)


def test_s3_expectation_negative_coupling_conjugates():
    rng = random.Random(3)
    for _ in range(50):
        fl = random_link(rng)
        for k in (1, 2, 3):
            assert (
                s3_expectation(fl, -k).value
                == s3_expectation(fl, k).value.conjugate()
            )


def test_s3_expectation_rejects_surgery_components():
    fl = FramedLink.make([[0]], roles=["surgery"])
    with pytest.raises(SurgeryComponentError):
        s3_expectation(fl, 1)


def test_s3_unit_modulus():
    rng = random.Random(4)
    for _ in range(100):
        fl = random_link(rng)
        k = rng.choice([1, 2, 3, -2])
        assert abs(abs(s3_expectation(fl, k).numeric) - 1) < 1e-12


def test_reduce_colours():
    fl = FramedLink.make([[0]], charges=[5])
    assert reduce_colours(fl, 2).charges == (1,)
    fl = FramedLink.make([[0]], charges=[-1])
    assert reduce_colours(fl, 3).charges == (5,)
    rng = random.Random(5)
    for _ in range(100):
        link = random_link(rng)
        k = rng.choice([1, 2, 3, -2])
        assert (
            s3_expectation(reduce_colours(link, k), k).value
            == s3_expectation(link, k).value
        )


def test_colour_periodicity_exact():
    rng = random.Random(6)
    for _ in range(200):
        fl = random_link(rng)
        k = rng.choice([1, 2, 3, -2])
        i = rng.randrange(fl.n)
        charges = list(fl.charges)
        charges[i] += 2 * abs(k)
        shifted = FramedLink.make(fl.linking, charges=charges)
        assert s3_expectation(shifted, k).value == s3_expectation(fl, k).value


def test_reverse_component():
    reversed_hopf = reverse_component(HOPF, 0)
    assert reversed_hopf.charges == (-1, 1)
    assert s3_expectation(reversed_hopf, 1).value == root_power(4, 2)
    assert reverse_component(reversed_hopf, 0).charges == HOPF.charges
    with pytest.raises(IndexError):
        reverse_component(HOPF, 2)


def test_global_reversal_preserves_invariant():
    rng = random.Random(7)
    for _ in range(100):
        fl = random_link(rng)
        flipped = fl
        for j in range(fl.n):
            flipped = reverse_component(flipped, j)
        k = rng.choice([1, 2, 3, -2])
        assert s3_expectation(flipped, k).value == s3_expectation(fl, k).value


def test_zero_charge_component_removable():
    rng = random.Random(8)
    for _ in range(100):
        fl = random_link(rng, max_components=3)
        n = fl.n
        column = [rng.randint(-3, 3) for _ in range(n)]
        matrix = [list(row) + [column[i]] for i, row in enumerate(fl.linking)]
        matrix.append(column + [rng.randint(-3, 3)])
        extended = FramedLink.make(matrix, charges=list(fl.charges) + [0])
        k = rng.choice([1, 2, 3])
        assert s3_expectation(extended, k).value == s3_expectation(fl, k).value


def test_satellite_expand_examples():
    flat = satellite_expand(FramedLink.make([[0]], charges=[2]), 0, 1)
    assert flat.linking == ((0, 0), (0, 0))
    assert flat.charges == (3, -1)
    framed = satellite_expand(FramedLink.make([[1]], charges=[2]), 0, 1)
    assert framed.linking == ((1, 1), (1, 1))
    assert framed.charges == (3, -1)
    assert quadratic_form(framed) == 4


def test_satellite_expand_validation():
    fl = FramedLink.make([[0]], charges=[2])
    with pytest.raises(IndexError):
        satellite_expand(fl, 1, 1)
    with pytest.raises(ValueError):
        satellite_expand(fl, 0, 2)
    surgery = FramedLink.make([[0]], roles=["surgery"])
    with pytest.raises(SurgeryComponentError):
        satellite_expand(surgery, 0, 1)


def test_satellite_expand_preserves_invariant():
    rng = random.Random(9)
    for _ in range(100):
        fl = random_link(rng)
        j = rng.randrange(fl.n)
        sign = rng.choice([1, -1])
        expanded = satellite_expand(fl, j, sign)
        for k in (1, 2, 3):
            assert s3_expectation(expanded, k).value == s3_expectation(fl, k).value


def test_simplicial_satellite_examples():
    unit = FramedLink.make([[0]], charges=[1])
    assert simplicial_satellite(unit) == unit
    tripled = simplicial_satellite(FramedLink.make([[0]], charges=[3]))
    assert tripled.charges == (1, 1, 1)
    assert tripled.linking == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_simplicial_satellite_preserves_invariant():
    rng = random.Random(10)
    for _ in range(200):
        fl = random_link(rng, max_components=3, charge_bound=5)
        expanded = simplicial_satellite(fl)
        assert all(
            q in (1, -1)
            for q, r in zip(expanded.charges, expanded.roles)
            if r == "observed"
        )
        for k in (1, 2, 3):
            assert s3_expectation(expanded, k).value == s3_expectation(fl, k).value


def test_brute_force_agreement():
    rng = random.Random(11)
    for _ in range(100):
        fl = random_link(rng)
        k = rng.choice([1, 2, 3, -2])
        assert s3_expectation(fl, k).value == expected_phase(fl, k)


def test_phase_exponent_reads_the_field():
    root = Invariant.from_phase(PhaseExponent(17, 12))
    assert root.phase_exponent() == 5 and not root.is_zero
    assert root.value == root_power(12, 5)
    assert abs(root.numeric - cmath.exp(2j * cmath.pi * 5 / 12)) < 1e-12
    zero = Invariant.zero(8)
    assert zero.phase_exponent() is None and zero.is_zero
    assert zero.value == CycNum.zero(8)
    assert zero.numeric == 0


def test_invariant_equality_is_order_and_exponent():
    assert Invariant(12, 5) == Invariant(12, 17) == Invariant.from_phase(PhaseExponent(-7, 12))
    assert Invariant(12, 5) != Invariant(24, 10)
    assert Invariant(12, 0) != Invariant.zero(12)
    assert Invariant.zero(12) == Invariant.zero(12) != Invariant.zero(8)


def test_zero_is_no_root_of_unity_without_a_scan(monkeypatch):
    import acsl.invariants as invariants

    def scanned(n, e):
        raise AssertionError("the phase was recovered from coordinates")

    monkeypatch.setattr(invariants, "root_power", scanned)
    assert Invariant.zero(400).phase_exponent() is None
    assert s3_expectation(HOPF, 1000).phase_exponent() == 3998
