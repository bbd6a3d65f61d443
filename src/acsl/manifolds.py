"""Closed-form evaluators for S^1 x S^2 and S^1 x Sigma_g, and the
reference surgery presentations they are cross-checked against.

In S^1 x Sigma_g (genus 0 meaning S^1 x S^2) the expectation value of a
link vanishes unless every pairing of the link with the 2g+1 surface
generators is divisible by 2|k|; when none obstructs, it is the pure
phase of the link's framed self-intersection form, exactly as in S^3.

S^1 x S^2 is presented by surgery on a 0-framed unknot; the 3-torus by
three 0-framed components with zero mutual linking.
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


def _extended(observed: FramedLink, columns, framings) -> FramedLink:
    """Append 0-charge surgery components S1, S2, ... with the given
    linkings, validated since the caller supplies them."""
    names = [f"S{c + 1}" for c in range(len(framings))]
    return validate(observed.add_surgery(columns, framings, names))


def s1xs2_presentation(observed: FramedLink, core_linkings) -> FramedLink:
    """Surgery presentation of S^1 x S^2: a 0-framed unknot whose core
    links observed component i core_linkings[i] times."""
    core_linkings = tuple(core_linkings)
    if len(core_linkings) != observed.n:
        raise ValueError(
            f"core_linkings has length {len(core_linkings)}, "
            f"expected {observed.n}"
        )
    return _extended(observed, [core_linkings], [0])


def t3_presentation(observed: FramedLink, linkings) -> FramedLink:
    """Surgery presentation of the 3-torus: three 0-framed components
    with zero mutual linking; linkings[i] gives observed component i's
    linking numbers with the three of them."""
    rows = [tuple(row) for row in linkings]
    if len(rows) != observed.n:
        raise ValueError(f"linkings has {len(rows)} rows, expected {observed.n}")
    for i, row in enumerate(rows):
        if len(row) != 3:
            raise ValueError(f"linkings[{i}] has length {len(row)}, expected 3")
    columns = [tuple(rows[i][c] for i in range(observed.n)) for c in range(3)]
    return _extended(observed, columns, [0, 0, 0])
