"""Integer coordinates of CycNum: the normal form and what reads retain."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from fractions import Fraction

from acsl import CycNum, Invariant, cyclotomic_polynomial


def random_cyc(rng: random.Random, n: int) -> CycNum:
    raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
    return CycNum.from_coeffs(n, raw)


def assert_normal(x: CycNum) -> None:
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == cyclotomic_polynomial(x.n).degree
    assert all(type(c) is int for c in x.num)


def test_every_operation_returns_lowest_terms():
    rng = random.Random(21)
    for n in (1, 2, 3, 4, 8, 12, 15, 20):
        for _ in range(40):
            a, b = random_cyc(rng, n), random_cyc(rng, n)
            scalar = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            results = [a, b, a + b, a - b, a * b, a * scalar, scalar * a, a * 6, -a, a.conjugate()]
            if not b.is_zero:
                results.append(b.inverse())
                assert (a * b) * b.inverse() == a
            for x in results:
                assert_normal(x)


def test_equal_values_have_equal_coordinates():
    half = CycNum.from_coeffs(8, [Fraction(1, 2), Fraction(-3, 2)])
    assert (half.num, half.den) == ((1, -3, 0, 0), 2)
    assert half + half == CycNum.from_coeffs(8, [1, -3])
    assert (half + half).den == 1
    assert CycNum.zero(8).den == 1


def test_value_reads_retain_no_coordinates():
    orders = (4 * 61, 4 * 73)
    for n in orders:
        cyclotomic_polynomial(n)  # the one cached entry per order, held for good
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in orders:
            for e in range(250):
                Invariant(n, e).value
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
