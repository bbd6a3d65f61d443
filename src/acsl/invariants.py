"""Expectation values in S^3 and the structural link operations.

The S^3 expectation value of a framed coloured link with linking matrix
L and charge vector q is the root of unity zeta_{4|k|}**e with exponent
e = -sign(k) * (q . L q) reduced mod 4|k|.  Colour reduction,
orientation reversal and satellite expansion act on the linking data
and preserve that value, which the property tests check exactly.
"""

from __future__ import annotations

import cmath
from operator import mul

from ._record import Record
from .cyclotomic import CycNum, root_power
from .linkdiagram import OBSERVED, SURGERY, FramedLink


_QUARTER_TURNS = (1, 1j, -1, -1j)


class SurgeryComponentError(ValueError):
    """An operation restricted to observed components met a surgery one."""


def coupling(k) -> int:
    """k itself, checked: a nonzero int (colours live in Z_2|k|, phases
    in Z_4|k|); raises TypeError or ValueError otherwise."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"coupling must be an integer, got {k!r}")
    if k == 0:
        raise ValueError("coupling must be nonzero")
    return k


class Invariant(Record):
    """Result of an expectation value: exact zero or the root zeta_order**exponent.

    Every evaluator knows the exponent, so it is carried as it is, with
    None for exact zero; equality compares (order, exponent).  The
    cyclotomic coordinates are built only when value is read.
    """

    def __init__(self, order: int, exponent: int | None) -> None:
        self.__dict__["order"] = order
        self.__dict__["exponent"] = None if exponent is None else exponent % order

    @classmethod
    def zero(cls, order: int) -> Invariant:
        return cls(order, None)

    @classmethod
    def from_quadratic(cls, k: int, form_value: int) -> Invariant:
        """The phase zeta_{4|k|}**(-sign(k) * form_value)."""
        return cls(4 * abs(k), -form_value if k > 0 else form_value)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    @property
    def value(self) -> CycNum:
        """The exact element of Z[zeta_order]."""
        if self.exponent is None:
            return CycNum.zero(self.order)
        return root_power(self.order, self.exponent)

    @property
    def numeric(self) -> complex:
        """Double-precision value, computed from the exponent: 0j for
        exact zero, else whole quarter turns, applied exactly (so values
        on the axes are exact), times exp of the remaining angle."""
        if self.exponent is None:
            return 0j
        quarters, rest = divmod(4 * self.exponent, self.order)
        return _QUARTER_TURNS[quarters] * cmath.exp(1j * (cmath.pi * rest / (2 * self.order)))


def form_value(matrix, v) -> int:
    """The integer v.Mv of a square matrix M, skipping the zeros of v."""
    total = 0
    for vi, row in zip(v, matrix):
        if vi:
            total += vi * sum(map(mul, row, v))
    return total


def quadratic_form(fl: FramedLink, role: str | None = None) -> int:
    """q . L q, with charges of components outside the role filter zeroed."""
    charges = fl.charges
    if role is not None:
        charges = [q if r == role else 0 for q, r in zip(charges, fl.roles)]
    return form_value(fl.linking, charges)


def s3_expectation(fl: FramedLink, k) -> Invariant:
    """Expectation value of a coloured framed link in S^3.

    Always a unit-modulus root of unity; links containing surgery
    components belong to the surgery module instead.
    """
    k = coupling(k)
    if SURGERY in fl.roles:
        raise SurgeryComponentError(
            "roles: link has surgery components; use surgery_expectation"
        )
    return Invariant.from_quadratic(k, quadratic_form(fl))


def reduce_colours(fl: FramedLink, k) -> FramedLink:
    """Replace observed charges by their canonical residues in [0, 2|k|)."""
    m = 2 * abs(coupling(k))
    charges = tuple(
        q % m if r == OBSERVED else q for q, r in zip(fl.charges, fl.roles)
    )
    return FramedLink(fl.linking, charges, fl.roles, fl.names)


def reverse_component(fl: FramedLink, j: int) -> FramedLink:
    """Reverse the orientation of component j: its charge negates."""
    if not 0 <= j < fl.n:
        raise IndexError(f"component index {j} out of range")
    charges = list(fl.charges)
    charges[j] = -charges[j]
    return FramedLink(fl.linking, tuple(charges), fl.roles, fl.names)


def satellite_expand(fl: FramedLink, j: int, sign: int) -> FramedLink:
    """Replace observed component j by its two-cable satellite.

    The two parallel push-offs carry charges q+sign and -sign, inherit
    j's linking with every other component, and both their mutual
    linking and self-linkings equal j's framing (nested circles in one
    tube share the tube's longitude).
    """
    if not 0 <= j < fl.n:
        raise IndexError(f"component index {j} out of range")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if fl.roles[j] != OBSERVED:
        raise SurgeryComponentError("cannot expand a surgery component")
    # j keeps its place and its push-off twin follows it.
    out = fl.select([*range(j + 1), *range(j, fl.n)])
    charges, names = list(out.charges), list(out.names)
    charges[j : j + 2] = [fl.charges[j] + sign, -sign]
    names[j : j + 2] = [f"{fl.names[j]}.1", f"{fl.names[j]}.2"]
    return FramedLink(out.linking, tuple(charges), out.roles, tuple(names))


def simplicial_satellite(fl: FramedLink) -> FramedLink:
    """Expand satellites until every observed charge is +1 or -1.

    An observed component of charge q != 0 becomes |q| parallel
    push-offs of unit charge sign(q), linked to each other by its
    framing, in one selection of the linking matrix; zero-charge
    observed components are deleted, and surgery components pass
    through untouched.  The result is what repeated satellite_expand
    on the first component of charge beyond +-1 gives, names included:
    copy t of a component named C of charge q is C + ".1" * (|q| - 1)
    for t = 0 and C + ".1" * (|q| - 1 - t) + ".2" for t >= 1.  The cost
    is quadratic in the expanded size.
    """
    order, charges, names = [], [], []
    for i, (q, role, name) in enumerate(zip(fl.charges, fl.roles, fl.names)):
        if role != OBSERVED:
            order.append(i)
            charges.append(q)
            names.append(name)
        elif q:
            copies = abs(q)
            order += [i] * copies
            charges += [1 if q > 0 else -1] * copies
            names += [name + ".1" * (copies - 1 - t) + ".2" * (t > 0) for t in range(copies)]
    out = fl.select(order)
    return FramedLink(out.linking, tuple(charges), out.roles, tuple(names))
