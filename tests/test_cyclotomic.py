"""Cyclotomic field layer: exact values against float oracles."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from acsl import (
    CycNum,
    OrderMismatch,
    ZeroInverse,
    cyclotomic_polynomial,
    root_power,
    totient,
)


from helpers import numeric_cyclotomic


def random_cyc(rng: random.Random, n: int, terms: int = 4) -> CycNum:
    raw = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(rng.randint(1, terms * 2))
    ]
    return CycNum.from_coeffs(n, raw)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("n", list(range(1, 33)))
def test_cyclotomic_polynomial_matches_numeric_product(n):
    exact = cyclotomic_polynomial(n)
    oracle = numeric_cyclotomic(n)
    assert exact.degree == totient(n)
    assert len(oracle) == exact.degree + 1
    for a, b in zip(exact.coeffs, oracle):
        assert abs(a - b) < 1e-8


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_binomial():
    # x**n - 1 is the product of Phi_d over the divisors d of n.
    for n in range(1, 301):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d).coeffs))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_root_power_examples():
    assert root_power(4, 0) == CycNum.one(4)
    assert root_power(4, 2) == CycNum.integer(4, -1)
    seventh = root_power(12, 7)
    assert seventh.coeffs == (Fraction(0), Fraction(-1), Fraction(0), Fraction(0))
    assert abs(seventh.embed() - cmath.exp(2j * cmath.pi * 7 / 12)) < 1e-12


def test_canonical_form_uniqueness():
    for n in range(1, 65):
        for e in range(n):
            monomial = CycNum.from_coeffs(n, [0] * e + [1])
            assert monomial == root_power(n, e)


def test_arithmetic_examples():
    one = CycNum.one(4)
    assert (one + CycNum.integer(4, -1)).is_zero
    i_unit = root_power(4, 1)
    assert i_unit * i_unit == CycNum.integer(4, -1)
    z8 = root_power(8, 1)
    lhs = (CycNum.one(8) - z8) * (CycNum.one(8) + z8)
    assert lhs == CycNum.one(8) - root_power(8, 2)
    assert abs(lhs.embed() - (1 - cmath.exp(2j * cmath.pi / 8) ** 2)) < 1e-12


def test_inverse_examples():
    minus_one = CycNum.integer(4, -1)
    assert minus_one.inverse() == minus_one
    for n, e in [(4, 1), (8, 3), (12, 7), (20, 9)]:
        assert root_power(n, e).inverse() == root_power(n, -e)
    one_minus_i = CycNum.one(4) - root_power(4, 1)
    expected = CycNum.from_coeffs(4, [Fraction(1, 2), Fraction(1, 2)])
    assert one_minus_i.inverse() == expected
    assert abs(one_minus_i.inverse().embed() - 1 / (1 - 1j)) < 1e-12


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        CycNum.zero(8).inverse()


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        CycNum.one(4) + CycNum.one(8)
    with pytest.raises(OrderMismatch):
        CycNum.one(4) * CycNum.one(12)


def test_field_axioms_random():
    rng = random.Random(11)
    for n in (4, 8, 12, 20, 28):
        for _ in range(60):
            a, b, c = (random_cyc(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            if not a.is_zero:
                assert a * a.inverse() == CycNum.one(n)


def test_embedding_is_ring_homomorphism():
    rng = random.Random(12)
    for n in (4, 8, 12, 20, 28):
        for _ in range(40):
            a, b = random_cyc(rng, n), random_cyc(rng, n)
            assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-9
            assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
    assert CycNum.zero(4).embed() == 0
    assert abs(root_power(4, 1).embed() - 1j) < 1e-15


def test_conjugation():
    rng = random.Random(13)
    for n in (4, 8, 12, 20):
        assert root_power(n, 3).conjugate() == root_power(n, -3)
        for _ in range(25):
            a = random_cyc(rng, n)
            assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-9
            assert a.conjugate().conjugate() == a


def test_powers():
    z = root_power(20, 3)
    assert z**0 == CycNum.one(20)
    assert z**7 == root_power(20, 21)
    assert z**-3 == root_power(20, -9)
