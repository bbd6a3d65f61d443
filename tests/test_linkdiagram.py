"""Diagram front end: parsing, crossing signs, linking matrices."""

from __future__ import annotations

import gc
import random
import tracemalloc
import warnings

import pytest

from acsl import (
    AmbiguousDiagram,
    Diagram,
    DiagramError,
    FramedLink,
    PDError,
    linking_matrix,
    mirror_diagram,
    parse_pd,
    reverse_component_diagram,
    validate,
)
from helpers import CLASP_SIGNS, insert_clasp, linking_by_over_strand, random_edge

POSITIVE_HOPF = "X(4,1,3,2) X(1,4,2,3) C: 1 2; 3 4"
NEGATIVE_HOPF = "X(1,4,2,3) X(3,2,4,1) C: 1 2; 3 4"
TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) C: 1 2 3 4 5 6"
KINKED_HOPF = "X(4,1,3,6) X(1,4,2,3) X(2,6,5,5) C: 1 2 5 6; 3 4"


def test_parse_positive_hopf():
    d = parse_pd(POSITIVE_HOPF)
    assert len(d.component_edges) == 2
    assert len(d.crossings) == 2
    assert d.signs == (1, 1)
    assert linking_matrix(d, [0, 0]).linking == ((0, 1), (1, 0))


def test_parse_negative_hopf():
    # Same crossings mirrored: the unique consistent over-strand
    # orientation makes both signs negative.
    d = parse_pd(NEGATIVE_HOPF)
    assert d.signs == (-1, -1)
    assert linking_matrix(d, [0, 0]).linking == ((0, -1), (-1, 0))


def test_crossing_sign_matches_over_strand_count():
    for text in (POSITIVE_HOPF, NEGATIVE_HOPF, KINKED_HOPF):
        d = parse_pd(text)
        fl = linking_matrix(d, [0] * len(d.component_edges))
        total = linking_by_over_strand(d, 0, 1) + linking_by_over_strand(d, 1, 0)
        assert fl.linking[0][1] * 2 == total
        # each over-strand count alone already equals the linking number
        assert linking_by_over_strand(d, 0, 1) == fl.linking[0][1]


def test_parse_unknot_without_crossings():
    d = parse_pd("C: 1")
    assert d.crossings == ()
    assert linking_matrix(d, [5]).linking == ((5,),)


def test_parse_arity_error():
    with pytest.raises(PDError):
        parse_pd("X(1,2,3) C: 1 2")


def test_parse_requires_component_block():
    with pytest.raises(PDError):
        parse_pd("X(1,4,2,3) X(3,2,4,1)")


def test_parse_bad_token():
    with pytest.raises(PDError):
        parse_pd("Y(1,2,3,4) C: 1 2")
    with pytest.raises(PDError):
        parse_pd("X(1,1,2,2) C: 1 two")
    with pytest.raises(PDError):
        parse_pd("C: 0")
    with pytest.raises(PDError):
        parse_pd("C: -3")


def test_kinks():
    positive = parse_pd("X(1,1,2,2) C: 1 2")
    assert positive.signs == (1,)
    assert linking_matrix(positive, "blackboard").linking == ((1,),)
    negative = parse_pd("X(1,2,2,1) C: 1 2")
    assert negative.signs == (-1,)
    assert linking_matrix(negative, "blackboard").linking == ((-1,),)


def test_trefoil_signs_all_equal():
    d = parse_pd(TREFOIL)
    signs = d.signs
    assert signs == (-1, -1, -1)
    assert linking_matrix(d, "blackboard").linking == ((-3,),)


def test_mirror_negates_all_signs():
    for text in (POSITIVE_HOPF, TREFOIL, KINKED_HOPF):
        d = parse_pd(text)
        mirrored = mirror_diagram(d)
        assert mirrored.signs == tuple(-s for s in d.signs)


def test_reverse_component_flips_row_and_column():
    d = parse_pd(KINKED_HOPF)
    fl = linking_matrix(d, "blackboard")
    rev = reverse_component_diagram(d, 0)
    fl_rev = linking_matrix(rev, "blackboard")
    assert fl_rev.linking[0][1] == -fl.linking[0][1]
    assert fl_rev.linking[0][0] == fl.linking[0][0]
    assert fl_rev.linking[1][1] == fl.linking[1][1]
    # double reversal restores the original diagram's matrix
    back = reverse_component_diagram(rev, 0)
    assert linking_matrix(back, "blackboard").linking == fl.linking


def test_split_union_framings():
    d = parse_pd("C: 1; 2")
    fl = linking_matrix(d, [3, -2])
    assert fl.linking == ((3, 0), (0, -2))
    assert fl.charges == (0, 0)
    assert fl.roles == ("observed", "observed")


def test_framing_vector_validation():
    d = parse_pd(POSITIVE_HOPF)
    with pytest.raises(DiagramError):
        linking_matrix(d, [0])
    with pytest.raises(DiagramError):
        linking_matrix(d, "chalkboard")
    with pytest.raises(DiagramError) as info:
        linking_matrix(d, 5)
    assert str(info.value) == 'framings: expected "blackboard" or a list of integers, got 5'


def test_edge_count_validation():
    with pytest.raises(DiagramError):
        parse_pd("X(4,1,3,2) C: 1 2; 3 4")  # labels appear once only
    with pytest.raises(DiagramError):
        parse_pd("X(1,1,2,2) C: 1 2; 3 4")  # 2-edge component off all crossings


def test_odd_crossing_parity_rejected():
    with pytest.raises(DiagramError):
        parse_pd("X(1,3,2,4) C: 1 2; 3 4")


def test_ambiguous_over_strand_rejected():
    # a two-edge component that is the over-strand at both crossings,
    # alone and beside a kink component that orients on its own
    assert parse_pd("X(5,6,6,5) C: 5 6").signs == (-1,)
    for pd in (
        "X(3,1,4,2) X(4,2,3,1) C: 1 2; 3 4",
        "X(5,6,6,5) X(3,1,4,2) X(4,2,3,1) C: 1 2; 3 4; 5 6",
        "X(3,1,4,2) X(5,6,6,5) X(4,2,3,1) C: 1 2; 3 4; 5 6",
    ):
        with pytest.raises(AmbiguousDiagram) as info:
            parse_pd(pd)
        assert str(info.value) == (
            "over-strand orientation is not determined for crossings "
            "[(3, 1, 4, 2), (4, 2, 3, 1)]; two-edge components that never "
            "run under cannot be oriented from PD data"
        )


def test_undeclared_edge_rejected():
    with pytest.raises(DiagramError):
        parse_pd("X(4,1,3,2) X(1,4,2,3) C: 1 2; 3 9")


def test_validate_framed_link():
    fl = FramedLink.make([[0, 1], [1, 0]])
    assert validate(fl) is fl
    with pytest.raises(DiagramError):
        FramedLink.make([[0, 1], [2, 0]])
    with pytest.raises(DiagramError):
        FramedLink.make([[0, 1]])
    with pytest.raises(DiagramError):
        FramedLink.make([[0.5]])


def test_validate_surgery_charge_warning():
    with pytest.warns(UserWarning):
        FramedLink.make([[0]], charges=[5], roles=["surgery"])


def test_clasp_templates():
    base = parse_pd(POSITIVE_HOPF)
    for kind, signs in CLASP_SIGNS.items():
        out = insert_clasp(base, over_edge=1, under_edge=3, kind=kind)
        assert out.signs[-2:] == signs
        delta = {"r2+": 0, "r2-": 0, "hopf+": 1, "hopf-": -1}[kind]
        assert linking_matrix(out, [0, 0]).linking[0][1] == 1 + delta


def test_chain_link_from_clasps():
    d = Diagram((), ((1,), (2,), (3,)))
    d = insert_clasp(d, over_edge=1, under_edge=2, kind="hopf+")
    d = insert_clasp(d, over_edge=3, under_edge=random_edge(random.Random(0), d, 1), kind="hopf+")
    fl = linking_matrix(d, "blackboard")
    assert fl.linking == ((0, 1, 0), (1, 0, 1), (0, 1, 0))


def test_r2_insertions_preserve_linking_matrix():
    rng = random.Random(2024)
    base = parse_pd(POSITIVE_HOPF)
    reference = linking_matrix(base, [0, 0]).linking
    for _ in range(1000):
        d = base
        for _ in range(rng.randint(1, 4)):
            over_comp = rng.randrange(2)
            under_comp = 1 - over_comp
            d = insert_clasp(
                d,
                over_edge=random_edge(rng, d, over_comp),
                under_edge=random_edge(rng, d, under_comp),
                kind=rng.choice(["r2+", "r2-"]),
            )
        fl = linking_matrix(d, [0, 0])
        assert fl.linking == reference
        assert fl.linking[0][1] == linking_by_over_strand(d, 0, 1)


def test_matrix_always_symmetric_integer():
    rng = random.Random(7)
    d = parse_pd(POSITIVE_HOPF)
    for _ in range(50):
        over = random_edge(rng, d, rng.randrange(2))
        under = random_edge(rng, d, rng.randrange(2))
        if over == under:
            continue
        d = insert_clasp(d, over, under, kind=rng.choice(list(CLASP_SIGNS)))
        fl = linking_matrix(d, "blackboard")
        assert fl.linking == tuple(zip(*fl.linking))


# Three components A, B, C with framings 2, -1, 5 and distinct linkings.
ABC = FramedLink.make(
    [[2, 3, -4], [3, -1, 6], [-4, 6, 5]],
    charges=[1, 0, 3],
    roles=["observed", "surgery", "observed"],
    names=["A", "B", "C"],
)


def test_select_permutes_components():
    out = ABC.select([2, 0, 1])
    assert out.linking == ((5, -4, 6), (-4, 2, 3), (6, 3, -1))
    assert out.charges == (3, 1, 0)
    assert out.roles == ("observed", "observed", "surgery")
    assert out.names == ("C", "A", "B")
    assert validate(out) is out


def test_select_repeated_index_is_a_push_off_linked_by_the_framing():
    out = ABC.select([0, 0, 1])
    assert out.linking == ((2, 2, 3), (2, 2, 3), (3, 3, -1))
    assert out.charges == (1, 1, 0)
    assert out.names == ("A", "A", "B")


def test_select_drops_the_indices_left_out():
    out = ABC.select(i for i in range(3) if i != 1)
    assert out.linking == ((2, -4), (-4, 5))
    assert out.charges == (1, 3)
    assert out.roles == ("observed", "observed")
    assert out.names == ("A", "C")
    assert ABC.select(range(3)) == ABC


def test_add_surgery_appends_uncharged_components():
    out = ABC.add_surgery([(1, 0, 2), (0, -3, 0)], [0, 4], ["S1", "S2"])
    assert out.linking == (
        (2, 3, -4, 1, 0),
        (3, -1, 6, 0, -3),
        (-4, 6, 5, 2, 0),
        (1, 0, 2, 0, 0),
        (0, -3, 0, 0, 4),
    )
    assert out.charges == (1, 0, 3, 0, 0)
    assert out.roles == ("observed", "surgery", "observed", "surgery", "surgery")
    assert out.names == ("A", "B", "C", "S1", "S2")
    assert out.select(range(3)) == ABC


def test_add_surgery_needs_one_framing_per_column():
    with pytest.raises(ValueError):
        ABC.add_surgery([(0, 0, 0)], [1, 1], ["S1"])


def twisted_closure_text(crossings: int, offset: int) -> str:
    """PD text of the closure of the two-strand braid sigma_1**crossings
    (a (2, crossings) torus link), edge labels shifted by offset."""
    succ, terms, cur = {}, [], [0, 1]
    for _ in range(crossings):
        x, y = cur
        fresh = 2 * len(terms) + 2
        succ[x], succ[y] = fresh, fresh + 1
        terms.append((y, fresh, fresh + 1, x))
        cur = [fresh + 1, fresh]
    alias = {cur[0]: 0, cur[1]: 1}
    succ = {e: alias.get(f, f) for e, f in succ.items()}
    components, seen = [], set()
    for start in (0, 1):
        comp, e = [], start
        while e not in seen:
            seen.add(e)
            comp.append(e)
            e = succ[e]
        if comp:
            components.append(comp)
    label = {e: i + offset for i, e in enumerate(e for comp in components for e in comp)}
    xs = " ".join("X({},{},{},{})".format(*(label[alias.get(e, e)] for e in x)) for x in terms)
    return xs + " C: " + "; ".join(" ".join(str(label[e]) for e in comp) for comp in components)


def test_analysis_cache_is_bounded(monkeypatch):
    """A diagram is analysed once, when it is built, and nothing of the
    analysis outlives it."""
    import acsl.linkdiagram

    d = parse_pd(twisted_closure_text(300, 1))

    def analyze(*args):
        raise AssertionError("diagram analysed again")

    with monkeypatch.context() as patch:
        patch.setattr(acsl.linkdiagram, "_analyze", analyze)
        assert linking_matrix(d, [0, 0]).linking == ((0, 150), (150, 0))
        assert d.signs == (1,) * 300

    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(40):
            linking_matrix(parse_pd(twisted_closure_text(300, 1000 * i + 2)), "blackboard")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 512 << 10  # 40 retained analyses of this size would hold 6 MB


ROLE_CHOICES = "('observed', 'surgery')"


@pytest.mark.parametrize(
    "linking, fields, message",
    [
        ([[0, 1], [1]], {}, "linking[1] has length 1, expected 2"),
        ([[0, True], [True, 0]], {}, "linking[0][1] is not an integer: True"),
        ([[0, "1"], ["1", 0]], {}, "linking[0][1] is not an integer: '1'"),
        ([[0, 1, 0], [1, 0, 2], [0, 3, 0]], {}, "linking matrix is not symmetric at (1,2): 2 vs 3"),
        ([[0, 1], [1, 0]], {"charges": [1, False]}, "charges[1] is not an integer: False"),
        ([[0]], {"charges": ["2"]}, "charges[0] is not an integer: '2'"),
        ([[0, 1], [1, 0]], {"roles": ["observed", "framing"]},
         f"roles[1] must be one of {ROLE_CHOICES}, got 'framing'"),
        ([[0]], {"roles": [["observed"]]}, f"roles[0] must be one of {ROLE_CHOICES}, got ['observed']"),
        ([[0, 1], [1, 0]], {"charges": [1]}, "charges: expected 2 entries, one per linking row, got 1"),
        ([[0]], {"names": ["A", "B"]}, "names: expected 1 entries, one per linking row, got 2"),
    ],
)
def test_validate_names_the_first_offending_field(linking, fields, message):
    with pytest.raises(DiagramError) as info:
        FramedLink.make(linking, **fields)
    assert str(info.value) == message


def test_validate_accepts_int_subclasses():
    class Count(int):
        pass

    fl = FramedLink.make([[Count(2), 1], [1, 0]], charges=[Count(1), 3])
    assert validate(fl) is fl


def test_validate_warns_once_per_charged_surgery_component():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        FramedLink.make([[1, 2], [2, 0]], charges=[5, 1], roles=["surgery", "observed"])
    assert [str(w.message) for w in caught] == [
        "surgery component C1 carries charge 5; evaluators ignore it"
    ]


def test_validate_warns_before_naming_a_later_bad_role():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DiagramError, match=r"^roles\[1\] must be one of"):
            FramedLink.make([[0, 0], [0, 0]], charges=[3, 0], roles=["surgery", "bad"])
    assert len(caught) == 1
