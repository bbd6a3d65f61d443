"""Shared builders for the test suites.

The clasp templates were read off explicit drawings once and are frozen
here; the tests cross-check them against the half-sum and over-strand
linking computations, which are independent of how the templates were
derived.
"""

from __future__ import annotations

import random

from acsl import Diagram, FramedLink, satellite_expand, strand_orientations
from acsl.checks import random_link, random_presentation  # noqa: F401  re-exported

# kind -> (signs, u stays over at second crossing?)
CLASP_SIGNS = {
    "r2+": (1, -1),
    "r2-": (-1, 1),
    "hopf+": (1, 1),
    "hopf-": (-1, -1),
}


def _incoming_slots(d: Diagram) -> dict[int, tuple[int, int]]:
    """Map each edge to the (crossing, slot) where it is consumed."""
    slots: dict[int, tuple[int, int]] = {}
    for ci, ((under_in, _), (over_in, _)) in enumerate(strand_orientations(d)):
        slots[under_in] = (ci, 0)
        x = d.crossings[ci]
        slots[over_in] = (ci, 1 if x[1] == over_in else 3)
    return slots


def _subdivide(crossings, components, slots, edge, fresh):
    """Cut `edge` twice; return (u, u1, u2) path labels and mutated data."""
    comp_idx = next(i for i, comp in enumerate(components) if edge in comp)
    comp = list(components[comp_idx])
    pos = comp.index(edge)
    if edge not in slots:  # crossing-free loop: two arcs suffice
        u1 = fresh.pop()
        comp[pos + 1 : pos + 1] = [u1]
        components[comp_idx] = comp
        return edge, u1, edge
    u1, u2 = fresh.pop(), fresh.pop()
    comp[pos + 1 : pos + 1] = [u1, u2]
    components[comp_idx] = comp
    ci, slot = slots[edge]
    x = list(crossings[ci])
    x[slot] = u2
    crossings[ci] = tuple(x)
    return edge, u1, u2


def insert_clasp(d: Diagram, over_edge: int, under_edge: int, kind: str) -> Diagram:
    """Insert a two-crossing clasp; `over_edge` passes over `under_edge`
    first.  r2 kinds are sign-balanced; hopf kinds change the linking
    number by one."""
    if over_edge == under_edge:
        raise ValueError("clasp needs two distinct edges")
    slots = _incoming_slots(d)
    crossings = list(d.crossings)
    components = [list(c) for c in d.component_edges]
    top = max(max((max(c) for c in d.component_edges), default=0), 0)
    fresh = [top + 4, top + 3, top + 2, top + 1]
    u, u1, u2 = _subdivide(crossings, components, slots, over_edge, fresh)
    v, v1, v2 = _subdivide(crossings, components, slots, under_edge, fresh)
    if kind == "r2+":
        new = [(v, u1, v1, u), (v1, u1, v2, u2)]
    elif kind == "r2-":
        new = [(v, u, v1, u1), (v1, u2, v2, u1)]
    elif kind == "hopf+":
        new = [(v, u1, v1, u), (u1, v2, u2, v1)]
    elif kind == "hopf-":
        new = [(v, u, v1, u1), (u1, v1, u2, v2)]
    else:
        raise ValueError(f"unknown clasp kind {kind!r}")
    crossings.extend(new)
    return Diagram(tuple(crossings), tuple(tuple(c) for c in components))


def linking_by_over_strand(d: Diagram, i: int, j: int) -> int:
    """Linking number of components i and j counted only on crossings
    where i runs over j; independent of the half-sum rule."""
    comp_of = {}
    for ci, comp in enumerate(d.component_edges):
        for e in comp:
            comp_of[e] = ci
    total = 0
    for x, sign in zip(d.crossings, d.signs):
        if comp_of[x[0]] == j and comp_of[x[1]] == i:
            total += sign
    return total


def satellite_by_expansion(fl: FramedLink) -> FramedLink:
    """Oracle for simplicial_satellite: drop the zero-charge observed
    components, then peel one unit of charge at a time off the first
    observed component beyond +-1 with satellite_expand."""
    keep = [i for i in range(fl.n) if fl.roles[i] != "observed" or fl.charges[i] != 0]
    out = fl.select(keep) if len(keep) < fl.n else fl
    while True:
        for j in range(out.n):
            if out.roles[j] == "observed" and abs(out.charges[j]) > 1:
                out = satellite_expand(out, j, -1 if out.charges[j] > 0 else 1)
                break
        else:
            return out


def random_edge(rng: random.Random, d: Diagram, comp: int) -> int:
    return rng.choice(d.component_edges[comp])


def numeric_cyclotomic(n: int) -> list[complex]:
    """Oracle: coefficients of prod (x - zeta) over the primitive n-th
    roots of unity.  Accurate to well under 1e-8 for n <= 32; beyond
    that the running product loses precision, so larger orders are
    checked by evaluating at the roots instead."""
    import cmath
    import math

    coeffs = [1.0 + 0j]
    for j in range(1, n + 1):
        if math.gcd(j, n) != 1:
            continue
        root = cmath.exp(2j * cmath.pi * j / n)
        coeffs = [-root * coeffs[0]] + [
            coeffs[i] - root * coeffs[i + 1] for i in range(len(coeffs) - 1)
        ] + [coeffs[-1]]
    return coeffs
