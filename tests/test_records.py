"""Value semantics of the library's immutable records."""

from __future__ import annotations

import copy
import pickle

import pytest

from acsl import (
    CouplingLevel,
    CycNum,
    Diagram,
    FramedLink,
    GaussSum,
    HomologyData,
    Invariant,
)

HOPF = FramedLink(((0, 1), (1, 0)), (1, 1), ("observed", "observed"), ("C1", "C2"))
HOPF_REPR = (
    "FramedLink(linking=((0, 1), (1, 0)), charges=(1, 1), "
    "roles=('observed', 'observed'), names=('C1', 'C2'))"
)

# (build, a different value, repr, keyword arguments of build()).  The
# builders normalise or derive where the class does: exponent mod
# order, pairings to a tuple, a diagram's crossing signs.
RECORDS = [
    (
        lambda: CycNum(4, (1, -3)),
        CycNum(4, (1, 3)),
        "CycNum(n=4, num=(1, -3))",
        {"n": 4, "num": (1, -3)},
    ),
    (
        lambda: Diagram(((4, 1, 3, 2), (1, 4, 2, 3)), ((1, 2), (3, 4))),
        Diagram(((1, 4, 2, 3), (3, 2, 4, 1)), ((1, 2), (3, 4))),
        "Diagram(crossings=((4, 1, 3, 2), (1, 4, 2, 3)), component_edges=((1, 2), (3, 4)), signs=(1, 1))",
        {"crossings": ((4, 1, 3, 2), (1, 4, 2, 3)), "component_edges": ((1, 2), (3, 4))},
    ),
    (
        lambda: FramedLink(((0, 1), (1, 0)), (1, 1), ("observed", "observed"), ("C1", "C2")),
        FramedLink(((0, 1), (1, 0)), (1, -1), ("observed", "observed"), ("C1", "C2")),
        HOPF_REPR,
        {"linking": ((0, 1), (1, 0)), "charges": (1, 1), "roles": ("observed", "observed"), "names": ("C1", "C2")},
    ),
    (
        lambda: CouplingLevel(-3),
        CouplingLevel(3),
        "CouplingLevel(k=-3)",
        {"k": -3},
    ),
    (
        lambda: Invariant(12, 17),
        Invariant.zero(12),
        "Invariant(order=12, exponent=5)",
        {"order": 12, "exponent": 5},
    ),
    (
        lambda: GaussSum(CycNum(4, (1, 0)), 4),
        GaussSum(CycNum(4, (1, 0)), 8),
        "GaussSum(value=CycNum(n=4, num=(1, 0)), terms=4)",
        {"value": CycNum(4, (1, 0)), "terms": 4},
    ),
    (
        lambda: HomologyData(1, [4, 0, -2], 3),
        HomologyData(1, [4, 0, 2], 3),
        "HomologyData(genus=1, pairings=(4, 0, -2), self_form=3)",
        {"genus": 1, "pairings": (4, 0, -2), "self_form": 3},
    ),
]


@pytest.mark.parametrize("build, other, text, fields", RECORDS, ids=[type(r[1]).__name__ for r in RECORDS])
def test_record_value_semantics(build, other, text, fields):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert hash(a) == hash(b)
    assert repr(a) == text
    assert type(a)(**fields) == a
    assert a != tuple(fields.values())
    for _, record, _, _ in RECORDS:
        if type(record) is not type(a):
            assert a != record
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == text


def test_record_checks_run_in_the_constructor():
    with pytest.raises(ValueError):
        CouplingLevel(0)
    with pytest.raises(TypeError):
        CouplingLevel(True)
    with pytest.raises(ValueError):
        HomologyData(1, [4], 3)
    with pytest.raises(ValueError):
        HomologyData(-1, [], 3)
