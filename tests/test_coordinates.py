"""Integer coordinates of CycNum: the normal form and what reads retain."""

from __future__ import annotations

import cmath
import gc
import random
import time
import tracemalloc

from acsl import CycNum, Invariant, cyclotomic_polynomial, totient


def random_cyc(rng: random.Random, n: int) -> CycNum:
    raw = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
    return CycNum.from_coeffs(n, raw)


def assert_normal(x: CycNum) -> None:
    assert len(x.num) == len(cyclotomic_polynomial(x.n)) - 1
    assert all(type(c) is int for c in x.num)


def test_every_operation_returns_lowest_terms():
    """Every ring operation gives phi(n) plain-int coordinates, the reduced form."""
    rng = random.Random(21)
    for n in (1, 2, 3, 4, 8, 12, 15, 20):
        for _ in range(40):
            a, b = random_cyc(rng, n), random_cyc(rng, n)
            for x in (a, b, a + b, a - b, a * b, -a, a.conjugate(), CycNum.zero(n), CycNum.one(n)):
                assert_normal(x)
            assert (a + b) - b == a


def test_equal_values_have_equal_coordinates():
    x = CycNum.from_coeffs(8, [1, -3])
    assert x.num == (1, -3, 0, 0)
    # zeta_8**4 = -1, so a degree-5 vector reduces to the same coordinates
    assert CycNum.from_coeffs(8, [0, 0, 0, 0, -1, 3]) == x
    assert x + x == CycNum.from_coeffs(8, [2, -6])
    assert CycNum.zero(8).num == (0, 0, 0, 0)


def test_value_reads_retain_no_coordinates():
    orders = (4 * 61, 4 * 73)
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


def test_phi_n_cache_is_bounded():
    # 40 prime orders above 4000: each Phi_p holds p - 1 coordinates,
    # about 32 KB of tuple.  Phi_n is built afresh on every call, so
    # building all 40 may keep less than 20 of them alive.
    primes = [p for p in range(4001, 5000) if all(p % d for d in range(2, 71))][:40]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in primes:
            cyclotomic_polynomial(p)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(primes) == 40
    assert retained < 20 * 8 * totient(primes[-1])


def test_many_prime_root_reduces_fast():
    # n = 60060 = 4 * 3 * 5 * 7 * 11 * 13: Phi_n has 5,371 nonzero
    # coefficients, and zeta_n**(n - 1) lies far above phi(n) = 11,520.
    start = time.perf_counter()
    value = Invariant(60060, 60059).value
    assert time.perf_counter() - start < 1.0
    assert abs(value.embed() - cmath.exp(-2j * cmath.pi / 60060)) < 1e-9
