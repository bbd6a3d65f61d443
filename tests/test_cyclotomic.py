"""Cyclotomic integer layer: exact values against float oracles."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from acsl import (
    CycNum,
    OrderMismatch,
    cyclotomic_polynomial,
    root_power,
    totient,
)


from acsl.cyclotomic import _reduce
from helpers import numeric_cyclotomic


def random_cyc(rng: random.Random, n: int, terms: int = 4) -> CycNum:
    raw = [rng.randint(-9, 9) for _ in range(rng.randint(1, terms * 2))]
    return CycNum.from_coeffs(n, raw)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_rejects_nonpositive():
    for n in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(n)


@pytest.mark.parametrize("n", [0, -3])
def test_nonpositive_orders_rejected(n):
    for build in (
        lambda: CycNum.from_coeffs(n, []),
        lambda: CycNum.from_coeffs(n, [1, 2, 3, 4, 5]),
        lambda: CycNum.zero(n),
        lambda: CycNum.one(n),
        lambda: root_power(n, 1),
    ):
        with pytest.raises(ValueError, match="order must be positive"):
            build()


def _long_division_remainder(raw: list[int], modulus: tuple[int, ...]) -> list[int]:
    """Schoolbook remainder of raw by the monic modulus, padded to its degree."""
    deg = len(modulus) - 1
    work = raw + [0] * max(0, deg - len(raw))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, p in enumerate(modulus):
                work[i - deg + j] -= c * p
    return work[:deg]


@pytest.mark.parametrize("n, trials", [(1, 40), (2, 40), (3, 40), (4, 40), (60, 40), (420, 10), (4620, 2)])
def test_reduce_matches_long_division(n, trials):
    rng = random.Random(n)
    modulus = cyclotomic_polynomial(n)
    lengths = [0, len(modulus) - 1, len(modulus), 2 * n + 3]
    lengths += [rng.randint(0, 2 * n + 3) for _ in range(trials)]
    for length in lengths:
        raw = [rng.randint(-9, 9) for _ in range(length)]
        assert _reduce(n, raw) == _long_division_remainder(raw, modulus), (n, length)


@pytest.mark.parametrize("n", list(range(1, 33)))
def test_cyclotomic_polynomial_matches_numeric_product(n):
    exact = cyclotomic_polynomial(n)
    oracle = numeric_cyclotomic(n)
    assert len(exact) - 1 == totient(n)
    assert len(oracle) == len(exact)
    for a, b in zip(exact, oracle):
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
                product = _poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_root_power_examples():
    assert root_power(4, 0) == CycNum.one(4)
    assert root_power(4, 2) == CycNum.from_coeffs(4, [-1])
    seventh = root_power(12, 7)
    assert seventh.num == (0, -1, 0, 0)
    assert abs(seventh.embed() - cmath.exp(2j * cmath.pi * 7 / 12)) < 1e-12


def test_canonical_form_uniqueness():
    for n in range(1, 65):
        for e in range(n):
            monomial = CycNum.from_coeffs(n, [0] * e + [1])
            assert monomial == root_power(n, e)


# Orders whose radical is much smaller than the order (4 * 3**7,
# 400000, prime powers, square-rich products) and 4 * 99991, whose
# radical is n/2.
LARGE_ORDERS = (4 * 3**7, 400_000, 2**15, 3**5 * 5**3 * 7, 4 * 3**4 * 5**3, 4 * 49 * 11**2, 4 * 99991, 4 * 16384)


def test_root_power_matches_the_reduced_monomial():
    """root_power reduces modulo Phi_rad(n) and spreads the result;
    from_coeffs reduces the monomial modulo Phi_n itself."""
    rng = random.Random(14)
    grid = [(n, e) for n in range(1, 400) for e in range(n) if e == n - 1 or rng.random() < 0.1]
    for n in LARGE_ORDERS:
        grid += [(n, n - 1), (n, rng.randrange(n))]
    # Six primes: the oracle's reduction takes about 1 s per exponent.
    grid.append((4 * 90090, 4 * 90090 - 1))
    for n, e in grid:
        assert root_power(n, e) == CycNum.from_coeffs(n, [0] * e + [1]), (n, e)


def _schoolbook(a: CycNum, b: CycNum) -> list[int]:
    """The full product of the coordinate vectors, reduced by long division."""
    prod = [0] * (len(a.num) + len(b.num) - 1)
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            prod[i + j] += x * y
    return _long_division_remainder(prod, cyclotomic_polynomial(a.n))


@pytest.mark.parametrize("n", [1, 2, 12, 60, 105, 420])
def test_products_match_the_schoolbook_product(n):
    rng = random.Random(n)
    deg = totient(n)

    def draw(density):
        return CycNum(n, tuple([rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(deg)]))

    for _ in range(30):
        for da, db in ((1.0, 1.0), (1.0, 0.05), (0.05, 1.0), (0.05, 0.05), (0.0, 1.0)):
            a, b = draw(da), draw(db)
            assert list((a * b).num) == _schoolbook(a, b)
    dense = root_power(n, n - 1)
    assert dense * CycNum.one(n) == dense == CycNum.one(n) * dense


def test_arithmetic_examples():
    one = CycNum.one(4)
    assert (one + CycNum.from_coeffs(4, [-1])).is_zero
    i_unit = root_power(4, 1)
    assert i_unit * i_unit == CycNum.from_coeffs(4, [-1])
    z8 = root_power(8, 1)
    lhs = (CycNum.one(8) - z8) * (CycNum.one(8) + z8)
    assert lhs == CycNum.one(8) - root_power(8, 2)
    assert abs(lhs.embed() - (1 - cmath.exp(2j * cmath.pi / 8) ** 2)) < 1e-12


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        CycNum.one(4) + CycNum.one(8)
    with pytest.raises(OrderMismatch):
        CycNum.one(4) * CycNum.one(12)
    # a ring element multiplies ring elements only: there is no scalar path
    for scalar in (2, 0.5):
        with pytest.raises(TypeError):
            CycNum.one(4) * scalar
        with pytest.raises(TypeError):
            scalar * CycNum.one(4)


def test_field_axioms_random():
    rng = random.Random(11)
    for n in (4, 8, 12, 20, 28):
        for _ in range(60):
            a, b, c = (random_cyc(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
        # the roots of unity, every value the evaluators report, are units
        for e in range(n):
            assert root_power(n, e) * root_power(n, -e) == CycNum.one(n)


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
