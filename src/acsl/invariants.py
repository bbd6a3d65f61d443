"""Expectation values in S^3 and the structural link operations.

The S^3 expectation value of a framed coloured link with linking matrix
L and charge vector q is the root of unity zeta_{4|k|}**e with exponent
e = -sign(k) * (q . L q) reduced mod 4|k|.  Colour reduction,
orientation reversal and satellite expansion act on the linking data
and preserve that value, which the property tests check exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum, root_power
from .linkdiagram import OBSERVED, SURGERY, FramedLink


class SurgeryComponentError(ValueError):
    """An operation restricted to observed components met a surgery one."""


@dataclass(frozen=True)
class CouplingLevel:
    """Nonzero integer coupling; colours live in Z_2|k|, phases in Z_4|k|."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise TypeError(f"coupling must be an integer, got {self.k!r}")
        if self.k == 0:
            raise ValueError("coupling must be nonzero")

    @classmethod
    def of(cls, value) -> CouplingLevel:
        return value if isinstance(value, CouplingLevel) else cls(value)

    @property
    def colour_modulus(self) -> int:
        return 2 * abs(self.k)

    @property
    def root_order(self) -> int:
        return 4 * abs(self.k)

    @property
    def sign(self) -> int:
        return 1 if self.k > 0 else -1


@dataclass(frozen=True)
class PhaseExponent:
    """Residue e mod order, standing for the root of unity zeta_order**e."""

    exponent: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        object.__setattr__(self, "exponent", self.exponent % self.order)

    @classmethod
    def from_quadratic(cls, level: CouplingLevel, form_value: int) -> PhaseExponent:
        """Exponent -sign(k) * form_value at root order 4|k|."""
        return cls(-level.sign * form_value, level.root_order)


@dataclass(frozen=True)
class Invariant:
    """Result of an expectation value: exact zero or the root zeta_order**exponent.

    Every evaluator knows the exponent, so it is carried as it is, with
    None for exact zero; equality compares (order, exponent).  The
    cyclotomic coordinates are built only when value is read.
    """

    order: int
    exponent: int | None

    def __post_init__(self) -> None:
        if self.exponent is not None:
            object.__setattr__(self, "exponent", self.exponent % self.order)

    @classmethod
    def zero(cls, order: int) -> Invariant:
        return cls(order, None)

    @classmethod
    def from_phase(cls, phase: PhaseExponent) -> Invariant:
        return cls(phase.order, phase.exponent)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def phase_exponent(self) -> int | None:
        """Exponent e of the value zeta_order**e, or None for exact zero."""
        return self.exponent

    @property
    def value(self) -> CycNum:
        """The exact element of Q(zeta_order)."""
        if self.exponent is None:
            return CycNum.zero(self.order)
        return root_power(self.order, self.exponent)

    @property
    def numeric(self) -> complex:
        """Double-precision embedding of value."""
        return self.value.embed()


def quadratic_form(fl: FramedLink, role: str | None = None) -> int:
    """q . L q, with charges of components outside the role filter zeroed."""
    charges = [
        q if role is None or r == role else 0
        for q, r in zip(fl.charges, fl.roles)
    ]
    total = 0
    for i, qi in enumerate(charges):
        if qi == 0:
            continue
        row = fl.linking[i]
        total += qi * sum(entry * qj for entry, qj in zip(row, charges))
    return total


def s3_expectation(fl: FramedLink, k) -> Invariant:
    """Expectation value of a coloured framed link in S^3.

    Always a unit-modulus root of unity; links containing surgery
    components belong to the surgery module instead.
    """
    level = CouplingLevel.of(k)
    if any(r == SURGERY for r in fl.roles):
        raise SurgeryComponentError(
            "link has surgery components; use surgery_expectation"
        )
    phase = PhaseExponent.from_quadratic(level, quadratic_form(fl))
    return Invariant.from_phase(phase)


def reduce_colours(fl: FramedLink, k) -> FramedLink:
    """Replace observed charges by their canonical residues in [0, 2|k|)."""
    m = CouplingLevel.of(k).colour_modulus
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
    f = fl.linking[j][j]
    q = fl.charges[j]
    n = fl.n
    # New component order: j stays in place, its twin sits right after.
    old_of_new = list(range(j + 1)) + [j] + list(range(j + 1, n))
    twin = j + 1
    matrix = [
        [fl.linking[old_of_new[r]][old_of_new[c]] for c in range(n + 1)]
        for r in range(n + 1)
    ]
    matrix[j][twin] = matrix[twin][j] = f
    charges = [fl.charges[i] for i in old_of_new]
    charges[j] = q + sign
    charges[twin] = -sign
    roles = [fl.roles[i] for i in old_of_new]
    names = [fl.names[i] for i in old_of_new]
    names[j] = f"{fl.names[j]}.1"
    names[twin] = f"{fl.names[j]}.2"
    return FramedLink(
        tuple(tuple(row) for row in matrix),
        tuple(charges),
        tuple(roles),
        tuple(names),
    )


def _drop_components(fl: FramedLink, dropped: set[int]) -> FramedLink:
    keep = [i for i in range(fl.n) if i not in dropped]
    return FramedLink(
        tuple(tuple(fl.linking[r][c] for c in keep) for r in keep),
        tuple(fl.charges[i] for i in keep),
        tuple(fl.roles[i] for i in keep),
        tuple(fl.names[i] for i in keep),
    )


def simplicial_satellite(fl: FramedLink) -> FramedLink:
    """Expand satellites until every observed charge is +1 or -1.

    Zero-charge observed components are deleted first; each expansion
    peels one unit of charge off a component, so the loop terminates.
    Surgery components pass through untouched.
    """
    zero = {
        i for i in range(fl.n) if fl.roles[i] == OBSERVED and fl.charges[i] == 0
    }
    out = _drop_components(fl, zero) if zero else fl
    while True:
        for j in range(out.n):
            if out.roles[j] == OBSERVED and abs(out.charges[j]) > 1:
                out = satellite_expand(out, j, -1 if out.charges[j] > 0 else 1)
                break
        else:
            return out
