"""Closed-form evaluators for S^1 x S^2 and S^1 x Sigma_g, and the
reference surgery presentations they are cross-checked against.

In S^1 x Sigma_g (genus 0 meaning S^1 x S^2) the expectation value of a
link vanishes unless every pairing of the link with the 2g+1 surface
generators is divisible by 2|k|; when none obstructs, it is the pure
phase of the link's framed self-intersection form, exactly as in S^3.

S^1 x Sigma_g is presented by surgery on 2g+1 0-framed components with
zero mutual linking: a 0-framed unknot for S^1 x S^2, three components
for the 3-torus.
"""

from __future__ import annotations

from ._record import Record
from .invariants import CouplingLevel, Invariant
from .linkdiagram import FramedLink, validate


class HomologyData(Record):
    """Homology pairings of a coloured link in S^1 x Sigma_g.

    genus 0 means S^1 x S^2.  pairings holds the 2g+1 charge-weighted
    intersection numbers of the link with the surface generators;
    self_form is the integer framed self-intersection of the link.
    """

    def __init__(self, genus: int, pairings, self_form: int) -> None:
        if genus < 0:
            raise ValueError(f"genus must be nonnegative, got {genus}")
        pairings = tuple(pairings)
        if len(pairings) != 2 * genus + 1:
            raise ValueError(
                f"expected {2 * genus + 1} pairings for genus "
                f"{genus}, got {len(pairings)}"
            )
        self.__dict__["genus"] = genus
        self.__dict__["pairings"] = pairings
        self.__dict__["self_form"] = self_form


def s1xsigma_expectation(h: HomologyData, k) -> Invariant:
    """Expectation value in S^1 x Sigma_g from homology data.

    Zero unless every pairing is divisible by 2|k|; otherwise the phase
    of the framed self-intersection form.
    """
    level = CouplingLevel.of(k)
    if any(pairing % level.colour_modulus for pairing in h.pairings):
        return Invariant.zero(level.root_order)
    return Invariant.from_quadratic(level, h.self_form)


def s1xs2_expectation(h: HomologyData, k) -> Invariant:
    """Genus-0 case of s1xsigma_expectation; rejects g > 0 data."""
    if h.genus != 0:
        raise ValueError(f"expected genus 0 data, got genus {h.genus}")
    return s1xsigma_expectation(h, k)


def s1xsigma_presentation(observed: FramedLink, columns) -> FramedLink:
    """Surgery presentation of S^1 x Sigma_g: 2g+1 0-framed components
    S1, S2, ... with zero mutual linking; columns[c][i] is the linking of
    component c with observed component i (validated).  One column gives
    S^1 x S^2, three the 3-torus."""
    columns = [tuple(col) for col in columns]
    if len(columns) % 2 == 0:
        raise ValueError(f"expected an odd number of columns, got {len(columns)}")
    for c, col in enumerate(columns):
        if len(col) != observed.n:
            raise ValueError(f"columns[{c}] has length {len(col)}, expected {observed.n}")
    names = [f"S{c + 1}" for c in range(len(columns))]
    return validate(observed.add_surgery(columns, [0] * len(columns), names))
