"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

A field element is stored as a rational coordinate vector of length
phi(n) with respect to the power basis 1, zeta, ..., zeta^(phi(n)-1),
reduced modulo the n-th cyclotomic polynomial.  Reduced coordinates are
unique, so equality of elements is plain structural equality and the
invariant comparisons downstream are exact.  The float embedding exists
only for reporting and for test oracles.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


class ZeroInverse(ZeroDivisionError):
    """Inversion of the zero element."""


class OrderMismatch(ValueError):
    """Arithmetic between elements of different root orders."""


def totient(n: int) -> int:
    """Euler totient, the degree of the n-th cyclotomic polynomial."""
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coeffs[i] multiplies x**i.

    The zero polynomial is the empty tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = _trim(tuple(self.coeffs))
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        out: complex = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def _int_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den must be monic here."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, d in enumerate(den):
            num[i - deg_d + j] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial Phi_n.

    Computed by dividing x**n - 1 by the product of Phi_d over the
    proper divisors d of n, all in exact integer arithmetic.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_div_exact(poly, list(cyclotomic_polynomial(d).coeffs))
    return IntPoly(tuple(poly))


def _reduce(n: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce arbitrary-degree coordinates modulo Phi_n; pad to phi(n)."""
    phi = cyclotomic_polynomial(n)
    deg = phi.degree
    work = list(raw)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = Fraction(0)
        for j in range(deg):
            work[i - deg + j] -= c * phi.coeffs[j]
    out = work[:deg]
    out.extend([Fraction(0)] * (deg - len(out)))
    return tuple(out)


@dataclass(frozen=True)
class CycNum:
    """Element of Q(zeta_n) in reduced coordinates of length phi(n)."""

    n: int
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, n: int, raw) -> CycNum:
        """Build from coordinates of any degree (reduced modulo Phi_n)."""
        return cls(n, _reduce(n, [Fraction(c) for c in raw]))

    @classmethod
    def zero(cls, n: int) -> CycNum:
        return cls.from_coeffs(n, [])

    @classmethod
    def one(cls, n: int) -> CycNum:
        return cls.from_coeffs(n, [1])

    @classmethod
    def integer(cls, n: int, value) -> CycNum:
        return cls.from_coeffs(n, [value])

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: CycNum) -> None:
        if self.n != other.n:
            raise OrderMismatch(f"root orders differ: {self.n} vs {other.n}")

    def __add__(self, other: CycNum) -> CycNum:
        self._check(other)
        return CycNum(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CycNum) -> CycNum:
        self._check(other)
        return CycNum(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CycNum:
        return CycNum(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CycNum):
            self._check(other)
            prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b != 0:
                        prod[i + j] += a * b
            return CycNum(self.n, _reduce(self.n, prod))
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycNum(self.n, tuple(a * f for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: CycNum) -> CycNum:
        return self * other.inverse()

    def __pow__(self, e: int) -> CycNum:
        if e < 0:
            return self.inverse() ** (-e)
        out = CycNum.one(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> CycNum:
        """Exact multiplicative inverse via the extended Euclidean
        algorithm on the representative polynomial and Phi_n."""
        if self.is_zero:
            raise ZeroInverse(f"zero element of Q(zeta_{self.n}) has no inverse")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n).coeffs]
        g, u = _ext_gcd_mod(list(self.coeffs), phi)
        inv = [c / g for c in u]
        return CycNum(self.n, _reduce(self.n, inv))

    def conjugate(self) -> CycNum:
        """Complex conjugation, the field map zeta -> zeta**-1."""
        raw = [Fraction(0)] * self.n
        for i, c in enumerate(self.coeffs):
            raw[(self.n - i) % self.n] += c
        return CycNum(self.n, _reduce(self.n, raw))

    def embed(self) -> complex:
        """Numeric value at zeta_n = exp(2*pi*i/n), double precision."""
        z = cmath.exp(2j * cmath.pi / self.n)
        out: complex = 0
        for c in reversed(self.coeffs):
            out = out * z + float(c)
        return out

    def as_root_of_unity(self) -> int | None:
        """Exponent e with self == zeta_n**e, or None if not a pure root."""
        if self.is_zero:
            return None
        for e in range(self.n):
            if self == root_power(self.n, e):
                return e
        return None


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _ext_gcd_mod(a: list[Fraction], m: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Return (g, u) with u*a == g (a nonzero constant) modulo m.

    m is irreducible here, so the gcd of a and m is a unit.
    """
    r0, r1 = _poly_trim(list(m)), _poly_trim(list(a))
    u0: list[Fraction] = []
    u1: list[Fraction] = [Fraction(1)]
    while len(r1) > 1:
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _poly_sub(u0, _poly_mul(quot, u1))
    if not r1:
        raise ArithmeticError("inputs share a factor; modulus not irreducible?")
    return r1[0], u1


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - deg_d, 0)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] / lead
        if c == 0:
            continue
        quot[i - deg_d] = c
        for j, d in enumerate(den):
            num[i - deg_d + j] -= c * d
    return quot, _poly_trim(num[:deg_d])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


@lru_cache(maxsize=None)
def root_power(n: int, e: int) -> CycNum:
    """Canonical representative of zeta_n**(e mod n)."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    e %= n
    return CycNum.from_coeffs(n, [0] * e + [1])


def embed_numeric(a: CycNum) -> complex:
    """Evaluate at zeta_n = exp(2*pi*i/n) in double precision."""
    return a.embed()
