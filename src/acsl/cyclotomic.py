"""Exact arithmetic in the rings of cyclotomic integers Z[zeta_n].

An element is stored as phi(n) integer coordinates with respect to the
power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
cyclotomic polynomial.  That form is unique, so equality of elements is
plain structural equality and the invariant comparisons downstream are
exact.  Every value the library builds -- zero, a root of unity
zeta_{4|k|}**e or an exact Gauss sum -- lies in this ring, and is
built by one reduction (_reduce) of integer coordinates: no library
path divides or multiplies two values.  CycNum.__mul__ is the ring
product for callers.  The float embedding (embed) serves only the test
oracles; reported floats come from the phase exponent
(Invariant.numeric).
"""

from __future__ import annotations

import cmath
import math

from ._record import Record


class OrderMismatch(ValueError):
    """Arithmetic between elements of different root orders."""


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def totient(n: int) -> int:
    """Euler totient, the degree of the n-th cyclotomic polynomial."""
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _times_phi(n: int, coeffs: list[int], inverse: bool = False) -> list[int]:
    """Multiply coeffs in place by Phi_n, or by 1/Phi_n when inverse, as a
    power series truncated at len(coeffs); n > 1.

    Phi_n is the Moebius product of the binomials 1 - x**d over the
    divisors d of n with n/d squarefree, each raised to mu(n/d).  Every
    factor is a unit in Z[[x]]: 1 - x**d subtracts a shifted copy, and
    its inverse 1 + x**d + x**2d + ... adds one.
    """
    primes = _prime_factors(n)
    size = len(coeffs)
    for mask in range(1 << len(primes)):
        chosen = [p for bit, p in enumerate(primes) if mask >> bit & 1]
        d = n // math.prod(chosen)
        if (len(chosen) % 2 == 0) != inverse:
            for i in range(size - 1, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:
            for i in range(d, size):
                coeffs[i] += coeffs[i - d]
    return coeffs


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The coefficients of the n-th cyclotomic polynomial Phi_n,
    constant term first."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    return tuple(_times_phi(n, [1] + [0] * totient(n)))


def _reduce(n: int, raw: list[int]) -> list[int]:
    """Reduce integer coordinates of any degree modulo Phi_n, padded to phi(n).

    For n > 1, Phi_n is palindromic, so the quotient of raw by Phi_n,
    reversed, is the reversed top of raw divided by Phi_n as a power
    series; the remainder is raw less the low phi(n) coordinates of
    Phi_n times the quotient.  For even n, x**(n/2) = -1 first folds raw
    below n/2, and top zeros are popped off raw.  Modulo Phi_1 = x - 1
    the value is the sum of the coordinates.  No Phi_n is formed.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return [sum(raw)]
    deg = totient(n)
    if n % 2 == 0 and len(raw) > (half := n // 2):
        raw = [sum(raw[i::n]) - sum(raw[i + half :: n]) for i in range(half)]
    while len(raw) > deg and not raw[-1]:
        raw.pop()
    if len(raw) <= deg:
        return raw + [0] * (deg - len(raw))
    quotient = _times_phi(n, raw[: deg - 1 : -1], inverse=True)[::-1]
    low = _times_phi(n, (quotient + [0] * deg)[:deg])
    return [r - c for r, c in zip(raw, low)]


class CycNum(Record):
    """Element of Z[zeta_n]: the value sum(num[i] * zeta**i), with
    len(num) == phi(n) reduced integer coordinates."""

    def __init__(self, n: int, num: tuple[int, ...]) -> None:
        self.__dict__["n"] = n
        self.__dict__["num"] = num

    @classmethod
    def from_coeffs(cls, n: int, raw) -> CycNum:
        """Build from integer coordinates of any degree (reduced modulo Phi_n)."""
        return cls(n, tuple(_reduce(n, list(raw))))

    @classmethod
    def zero(cls, n: int) -> CycNum:
        return cls.from_coeffs(n, [])

    @classmethod
    def one(cls, n: int) -> CycNum:
        return cls.from_coeffs(n, [1])

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def _check(self, other: CycNum) -> None:
        if type(other) is not CycNum:
            raise TypeError(f"expected a CycNum, got {type(other).__name__}")
        if self.n != other.n:
            raise OrderMismatch(f"root orders differ: {self.n} vs {other.n}")

    def __add__(self, other: CycNum) -> CycNum:
        self._check(other)
        return CycNum(self.n, tuple([x + y for x, y in zip(self.num, other.num)]))

    def __sub__(self, other: CycNum) -> CycNum:
        return self + -other

    def __neg__(self) -> CycNum:
        return CycNum(self.n, tuple([-c for c in self.num]))

    def __mul__(self, other: CycNum) -> CycNum:
        self._check(other)
        terms = [(j, b) for j, b in enumerate(other.num) if b]
        prod = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        return CycNum.from_coeffs(self.n, prod)

    def conjugate(self) -> CycNum:
        """Complex conjugation, the ring automorphism zeta -> zeta**-1."""
        raw = [0] * self.n
        for i, c in enumerate(self.num):
            raw[-i % self.n] += c
        return CycNum.from_coeffs(self.n, raw)

    def embed(self) -> complex:
        """Numeric value at zeta_n = exp(2*pi*i/n), double precision; each
        power is its own exp and fsum adds them, so no rounding compounds."""
        terms = [c * cmath.exp(2j * cmath.pi * i / self.n) for i, c in enumerate(self.num) if c]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def root_power(n: int, e: int) -> CycNum:
    """Canonical representative of zeta_n**(e mod n).

    For even n, zeta_n**(n/2) = -1 folds the exponent below n/2.  With
    r = rad(n) and t = n/r, Phi_n(x) = Phi_r(x**t) and phi(n) = t*phi(r),
    so zeta_n**e = zeta_n**(e mod t) * y**(e // t) with y = x**t: the
    power of y is reduced modulo Phi_r, and its phi(r) coordinates land
    on the coordinates congruent to e mod t.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    e, sign = e % n, 1
    if n % 2 == 0 and e >= n // 2:
        e, sign = e - n // 2, -1
    r = math.prod(_prime_factors(n))
    t = n // r
    num = [0] * totient(n)
    num[e % t :: t] = _reduce(r, [0] * (e // t) + [sign])
    return CycNum(n, tuple(num))
