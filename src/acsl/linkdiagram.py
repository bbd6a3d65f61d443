"""Planar-diagram codes for oriented links and their linking matrices.

A crossing term ``X(a,b,c,d)`` lists the four edge labels met
counterclockwise around the crossing, starting from the edge on which
the under-strand enters; the under-strand exits at ``c``.  The crossing
sign is +1 exactly when the over-strand runs from ``d`` to ``b``::

         b                        b
         ^                        ^
         |                        |
    a -------> c      vs     a ---+---> c
         |                        |
         |                        |
         d                        d

    over d -> b : sign +1    over b -> d : sign -1

(under-strand drawn left to right; positions a,b,c,d counterclockwise).

The diagram text format is whitespace-separated ``X(a,b,c,d)`` terms
followed by a component block ``C: 1 2 3 4; 5 6`` listing each
component's edges in orientation order, components separated by ``;``.

The over-strand direction at each crossing is not stored explicitly; it
is recovered, once, when a Diagram is built, by matching crossings
against the edge successions of the component cycles.  Diagrams where
that matching is not unique (a two-edge component that is the
over-strand at both of its crossings) are rejected rather than guessed
at.
"""

from __future__ import annotations

import re
import warnings
from functools import lru_cache
from itertools import chain

from ._record import Record

OBSERVED = "observed"
SURGERY = "surgery"

_ROLES = (OBSERVED, SURGERY)
_INT = frozenset([int])


class PDError(ValueError):
    """Malformed planar-diagram text."""


class DiagramError(ValueError):
    """Structurally invalid diagram data."""


class AmbiguousDiagram(DiagramError):
    """Over-strand orientation not determined by the diagram data."""


Crossing = tuple[int, int, int, int]


class Diagram(Record):
    """Combinatorial oriented link diagram, validated when it is built.

    crossings: X(a,b,c,d) tuples as described in the module docstring.
    component_edges: one cyclically ordered edge sequence per component,
    listed along the component's orientation.
    signs: the crossing signs, in crossing order, derived from the other
    two by the constructor, which raises DiagramError (AmbiguousDiagram
    when the over-strands cannot be oriented) on invalid data.
    """

    def __init__(self, crossings: tuple[Crossing, ...], component_edges: tuple[tuple[int, ...], ...]) -> None:
        signs = _analyze(crossings, component_edges)
        self.__dict__["crossings"] = crossings
        self.__dict__["component_edges"] = component_edges
        self.__dict__["signs"] = signs


class FramedLink(Record):
    """Symmetric integer linking matrix with framings on the diagonal.

    Off-diagonal entries are pairwise linking numbers; the diagonal
    entry of a component is its self-linking (the linking number with
    its framing push-off).  Surgery components carry Dehn-surgery
    coefficients on the diagonal and their charges are ignored by all
    evaluators.  All four fields are tuples, linking a tuple of rows.
    """

    def __init__(self, linking, charges, roles, names) -> None:
        self.__dict__["linking"] = linking
        self.__dict__["charges"] = charges
        self.__dict__["roles"] = roles
        self.__dict__["names"] = names

    @classmethod
    def make(cls, linking, charges=None, roles=None, names=None) -> FramedLink:
        """Normalize sequences to tuples, fill defaults, and validate."""
        matrix = tuple(map(tuple, linking))
        n = len(matrix)
        if charges is None:
            charges = [0] * n
        if roles is None:
            roles = [OBSERVED] * n
        names = default_names(n) if names is None else tuple(names)
        return validate(cls(matrix, tuple(charges), tuple(roles), names))

    @property
    def n(self) -> int:
        return len(self.linking)

    def observed(self) -> tuple[int, ...]:
        return tuple([i for i, r in enumerate(self.roles) if r == OBSERVED])

    def surgery(self) -> tuple[int, ...]:
        return tuple([i for i, r in enumerate(self.roles) if r == SURGERY])

    def select(self, order) -> FramedLink:
        """The components at the given indices, in that order, with their
        linking.  An index may repeat: the copy is a parallel push-off,
        linked to the original by its framing."""
        order = tuple(order)
        rows = [self.linking[r] for r in order]
        return FramedLink(
            tuple([tuple([row[c] for c in order]) for row in rows]),
            tuple([self.charges[i] for i in order]),
            tuple([self.roles[i] for i in order]),
            tuple([self.names[i] for i in order]),
        )

    def add_surgery(self, columns, framings, names) -> FramedLink:
        """Append uncharged surgery components with no mutual linking.

        columns[c][i] is the linking of new component c with component
        i, framings[c] its framing and names[c] its name.
        """
        columns = [tuple(col) for col in columns]
        extra = len(columns)
        rows = [row + tuple([col[i] for col in columns]) for i, row in enumerate(self.linking)]
        for c, (col, f) in enumerate(zip(columns, framings, strict=True)):
            rows.append(col + tuple([f if d == c else 0 for d in range(extra)]))
        return FramedLink(
            tuple(rows),
            self.charges + (0,) * extra,
            self.roles + (SURGERY,) * extra,
            self.names + tuple(names),
        )


@lru_cache(maxsize=16)
def default_names(n: int) -> tuple[str, ...]:
    """C1, ..., Cn: the names of components nobody named."""
    return tuple([f"C{i + 1}" for i in range(n)])


def validate(fl: FramedLink) -> FramedLink:
    """Check all FramedLink invariants; identity on success.

    Two whole-matrix passes accept the common case, plain int entries
    and charges in a symmetric tuple of tuples (a tuple of rows equal to
    its transpose is square).  Only when one fails do the per-entry
    loops run, to name the first offending entry, or to accept the int
    subclasses the passes leave out.  They check entry types first, then
    sizes, then symmetry.
    """
    rows, charges, roles = fl.linking, fl.charges, fl.roles
    n = len(rows)
    sized = len(charges) == len(roles) == len(fl.names) == n
    if not (sized and _INT.issuperset(map(type, chain(charges, *rows))) and tuple(zip(*rows)) == rows):
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise DiagramError(f"linking[{i}][{j}] is not an integer: {entry!r}")
        for i, q in enumerate(charges):
            if not isinstance(q, int) or isinstance(q, bool):
                raise DiagramError(f"charges[{i}] is not an integer: {q!r}")
        for field in ("charges", "roles", "names"):
            if len(entries := getattr(fl, field)) != n:
                raise DiagramError(
                    f"{field}: expected {n} entries, one per linking row, got {len(entries)}"
                )
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DiagramError(f"linking[{i}] has length {len(row)}, expected {n}")
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if rows[j][i] != entry:
                    raise DiagramError(
                        f"linking matrix is not symmetric at ({i},{j}): "
                        f"{entry} vs {rows[j][i]}"
                    )
    # Counted rather than put in a set: roles read from JSON may be unhashable.
    if roles.count(SURGERY) or roles.count(OBSERVED) != n:
        for i, role in enumerate(roles):
            if role not in _ROLES:
                raise DiagramError(f"roles[{i}] must be one of {_ROLES}, got {role!r}")
            if role == SURGERY and charges[i] != 0:
                warnings.warn(
                    f"surgery component {fl.names[i]} carries charge {charges[i]}; "
                    "evaluators ignore it",
                    stacklevel=2,
                )
    return fl


_CROSSING_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_TERM_RE = re.compile(r"X\([^)]*\)|\S+")


def parse_crossings(text: str) -> tuple[Crossing, ...]:
    """Parse whitespace-separated X(a,b,c,d) terms."""
    crossings = []
    for term in _TERM_RE.findall(text):
        m = _CROSSING_RE.fullmatch(term)
        if m is None:
            raise PDError(f"bad crossing term {term!r}; expected X(a,b,c,d)")
        crossings.append(tuple(map(int, m.groups())))
    return tuple(crossings)


def parse_pd(text: str) -> Diagram:
    """Parse planar-diagram text, crossings then component block, into a Diagram."""
    crossing_part, _, component_part = text.partition("C:")
    crossings = parse_crossings(crossing_part)
    components = []
    for chunk in component_part.split(";"):
        labels = chunk.split()
        if not labels:
            continue
        try:
            edges = tuple(int(tok) for tok in labels)
        except ValueError:
            raise PDError(f"bad edge label in component block: {chunk.strip()!r}") from None
        if any(e < 1 for e in edges):
            raise PDError(f"edge labels must be positive integers: {chunk.strip()!r}")
        components.append(edges)
    if not components:
        raise PDError("missing component block 'C: ...'")
    return Diagram(crossings, tuple(components))


def _analyze(crossings, component_edges) -> tuple[int, ...]:
    """Validate diagram data; returns the crossing signs."""
    component_of: dict[int, int] = {}
    for ci, comp in enumerate(component_edges):
        if not comp:
            raise DiagramError(f"component {ci} lists no edges")
        for e in comp:
            if e in component_of:
                raise DiagramError(f"edge {e} listed in more than one component")
            component_of[e] = ci

    appearances: dict[int, int] = {}
    for x in crossings:
        if len(x) != 4:
            raise DiagramError(f"crossing {x} does not have four edges")
        for e in x:
            if e not in component_of:
                raise DiagramError(f"edge {e} appears in a crossing but in no component")
            appearances[e] = appearances.get(e, 0) + 1

    for ci, comp in enumerate(component_edges):
        counts = {e: appearances.get(e, 0) for e in comp}
        if all(c == 0 for c in counts.values()):
            if len(comp) != 1:
                raise DiagramError(
                    f"component {ci} has {len(comp)} edges but meets no crossing"
                )
            continue
        bad = [e for e, c in counts.items() if c != 2]
        if bad:
            raise DiagramError(
                f"edges {bad} of component {ci} do not appear exactly twice"
            )

    # Edge successions along each component; every one is consumed by
    # exactly one strand passage through a crossing.
    transitions: set[tuple[int, int]] = set()
    for comp in component_edges:
        if appearances.get(comp[0], 0) == 0:
            continue
        for i, e in enumerate(comp):
            transitions.add((e, comp[(i + 1) % len(comp)]))

    for x in crossings:
        a, _, c, _ = x
        if (a, c) not in transitions:
            raise DiagramError(
                f"under-strand passage {a}->{c} of crossing {x} is not an "
                "edge succession of any component (or is used twice)"
            )
        transitions.remove((a, c))

    # Over-strand directions, in one pass.  A crossing whose successions
    # remain both ways has a one- or two-edge over-strand component that
    # never runs under; only its other over-passages could consume one
    # of them, and those are undetermined too.
    signs = [0] * len(crossings)
    deferred = []
    for idx, x in enumerate(crossings):
        _, b, _, dd = x
        forward = (dd, b) in transitions  # over running d -> b
        backward = (b, dd) in transitions
        if forward and backward:
            deferred.append(x)
            continue
        if not forward and not backward:
            raise DiagramError(
                f"over-strand of crossing {x} matches no remaining edge succession"
            )
        transitions.remove((dd, b) if forward else (b, dd))
        signs[idx] = 1 if forward else -1
    if deferred:
        raise AmbiguousDiagram(
            "over-strand orientation is not determined for crossings "
            f"{deferred}; two-edge components that never run under cannot "
            "be oriented from PD data"
        )
    if transitions:
        raise DiagramError(f"unmatched edge successions remain: {sorted(transitions)}")

    # Closed curves intersect an even number of times pairwise.
    pair_counts: dict[tuple[int, int], int] = {}
    for x in crossings:
        cu = component_of[x[0]]
        co = component_of[x[1]]
        if cu != co:
            key = (min(cu, co), max(cu, co))
            pair_counts[key] = pair_counts.get(key, 0) + 1
    for (i, j), count in pair_counts.items():
        if count % 2:
            raise DiagramError(
                f"components {i} and {j} cross an odd number of times ({count})"
            )
    return tuple(signs)


def strand_orientations(d: Diagram):
    """Per crossing: ((under_in, under_out), (over_in, over_out))."""
    return tuple([
        ((a, c), (dd, b) if sign == 1 else (b, dd))
        for (a, b, c, dd), sign in zip(d.crossings, d.signs)
    ])


def linking_matrix(d: Diagram, framings) -> FramedLink:
    """Compile a diagram to a FramedLink.

    Off-diagonal entries are half the signed count of crossings between
    the two components; diagonal entries come from the explicit framing
    vector, or in ``"blackboard"`` mode from each component's writhe.
    """
    if framings != "blackboard" and not isinstance(framings, (list, tuple)):
        raise DiagramError(
            f"framings: expected \"blackboard\" or a list of integers, got {framings!r}"
        )
    n = len(d.component_edges)
    component_of = {e: ci for ci, comp in enumerate(d.component_edges) for e in comp}
    # Each sign is added twice, so halving leaves the writhe on the
    # diagonal and half the signed count off it, which is even because
    # a Diagram admits only even crossing counts between two components.
    matrix = [[0] * n for _ in range(n)]
    for x, sign in zip(d.crossings, d.signs):
        cu = component_of[x[0]]
        co = component_of[x[1]]
        matrix[cu][co] += sign
        matrix[co][cu] += sign
    matrix = [[entry // 2 for entry in row] for row in matrix]
    if framings != "blackboard":
        if len(framings) != n:
            raise DiagramError(
                f"framings: framing vector has length {len(framings)}, expected {n}"
            )
        for j, f in enumerate(framings):
            if not isinstance(f, int) or isinstance(f, bool):
                raise DiagramError(f"framings[{j}] is not an integer: {f!r}")
            matrix[j][j] = f
    return FramedLink(tuple(map(tuple, matrix)), (0,) * n, (OBSERVED,) * n, default_names(n))


def mirror_diagram(d: Diagram) -> Diagram:
    """Swap b and d in every crossing; every crossing sign negates."""
    return Diagram(
        tuple((a, dd, c, b) for a, b, c, dd in d.crossings),
        d.component_edges,
    )


def reverse_component_diagram(d: Diagram, j: int) -> Diagram:
    """Reverse the orientation of component j.

    Crossings where j runs under are rotated by two positions so the
    under-strand still enters at the first slot; the reversed edge
    sequence takes care of the over-strand direction.
    """
    if not 0 <= j < len(d.component_edges):
        raise IndexError(f"component index {j} out of range")
    edges = set(d.component_edges[j])
    crossings = []
    for x in d.crossings:
        a, b, c, dd = x
        if a in edges:
            crossings.append((c, dd, a, b))
        else:
            crossings.append(x)
    components = list(d.component_edges)
    components[j] = tuple(reversed(components[j]))
    return Diagram(tuple(crossings), tuple(components))
