"""Closed-form manifold evaluators against the surgery engine."""

from __future__ import annotations

import random

import pytest

from acsl import (
    CycNum,
    FramedLink,
    HomologyData,
    quadratic_form,
    root_power,
    s1xs2_expectation,
    s1xsigma_expectation,
    s1xsigma_presentation,
    surgery_expectation,
)
from helpers import random_link


def test_homology_data_validation():
    HomologyData(0, (3,), 0)
    HomologyData(1, (0, 0, 1), 2)
    with pytest.raises(ValueError):
        HomologyData(0, (1, 2), 0)
    with pytest.raises(ValueError):
        HomologyData(-1, (), 0)


def test_s1xs2_examples():
    assert s1xs2_expectation(HomologyData(0, (1,), 0), 1).is_zero
    assert s1xs2_expectation(HomologyData(0, (0,), 0), 1).value == CycNum.one(4)
    inv = s1xs2_expectation(HomologyData(0, (4,), 3), 2)
    assert inv.value == root_power(8, -3)
    with pytest.raises(ValueError):
        s1xs2_expectation(HomologyData(1, (0, 0, 0), 0), 1)


def test_s1xsigma_examples():
    assert s1xsigma_expectation(HomologyData(1, (0, 0, 1), 0), 1).is_zero
    assert (
        s1xsigma_expectation(HomologyData(3, (0,) * 7, 0), 2).value
        == CycNum.one(8)
    )
    inv = s1xsigma_expectation(HomologyData(1, (2, -2, 4), 5), 1)
    assert inv.value == root_power(4, 3)


def test_s1xsigma_genus_zero_meets_s1xs2():
    rng = random.Random(30)
    for _ in range(100):
        h = HomologyData(0, (rng.randint(-8, 8),), rng.randint(-10, 10))
        k = rng.choice([1, 2, 3, -2])
        assert s1xsigma_expectation(h, k).value == s1xs2_expectation(h, k).value


def test_s1xs2_presentation_shape():
    observed = FramedLink.make([[2]], charges=[1])
    fl = s1xsigma_presentation(observed, [(1,)])
    assert fl.linking == ((2, 1), (1, 0))
    assert fl.roles == ("observed", "surgery")
    assert fl.names == ("C1", "S1")
    with pytest.raises(ValueError, match=r"columns\[0\] has length 2, expected 1"):
        s1xsigma_presentation(observed, [(1, 2)])


def test_s1xs2_presentation_cross_check_examples():
    observed = FramedLink.make([[0]], charges=[1])
    assert surgery_expectation(s1xsigma_presentation(observed, [(1,)]), 1).is_zero
    observed2 = FramedLink.make([[0]], charges=[2])
    inv = surgery_expectation(s1xsigma_presentation(observed2, [(1,)]), 1)
    assert inv.value == CycNum.one(4)


def test_t3_presentation_shape():
    fl = s1xsigma_presentation(FramedLink.make([], charges=[]), [(), (), ()])
    assert fl.n == 3
    assert fl.linking == ((0, 0, 0),) * 3
    assert fl.names == ("S1", "S2", "S3")
    from acsl import gauss_sum

    assert gauss_sum(fl, 2, False).value == CycNum.from_coeffs(8, [64])  # (2k)^3
    observed = FramedLink.make([[0]], charges=[1])
    fl = s1xsigma_presentation(observed, [(1,), (2,), (3,)])
    assert fl.linking == ((0, 1, 2, 3), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0))
    with pytest.raises(ValueError, match=r"columns\[2\] has length 0, expected 1"):
        s1xsigma_presentation(observed, [(1,), (0,), ()])


@pytest.mark.parametrize("count", [0, 2, 4])
def test_presentation_rejects_even_column_counts(count):
    observed = FramedLink.make([[0]], charges=[1])
    with pytest.raises(ValueError, match=f"odd number of columns, got {count}"):
        s1xsigma_presentation(observed, [(0,)] * count)


def test_t3_cross_check_examples():
    observed = FramedLink.make([[0]], charges=[1])
    fl = s1xsigma_presentation(observed, [(1,), (0,), (0,)])
    assert surgery_expectation(fl, 1).is_zero
    assert s1xsigma_expectation(HomologyData(1, (1, 0, 0), 0), 1).is_zero
    fl2 = s1xsigma_presentation(observed, [(2,), (2,), (2,)])
    assert surgery_expectation(fl2, 1).value == CycNum.one(4)


def random_observed_with_core(rng, n_target, k):
    """Observed block plus core linkings realizing the exact pairing."""
    fl = random_link(rng, max_components=3, charge_bound=2 * abs(k) + 2)
    charges = list(fl.charges)
    charges[0] = 1  # guarantees any pairing value is realizable
    fl = FramedLink.make(fl.linking, charges=charges)
    linkings = [rng.randint(-2, 2) for _ in range(fl.n)]
    linkings[0] = n_target - sum(q * l for q, l in zip(fl.charges[1:], linkings[1:]))
    return fl, linkings


def test_s1xs2_surgery_agreement_randomized():
    rng = random.Random(31)
    for k in (1, 2, 3):
        for n0 in range(-4 * k, 4 * k + 1):
            for _ in range(5):
                observed, linkings = random_observed_with_core(rng, n0, k)
                fl = s1xsigma_presentation(observed, [linkings])
                closed = s1xs2_expectation(
                    HomologyData(0, (n0,), quadratic_form(observed)), k
                )
                direct = surgery_expectation(fl, k)
                assert direct.value == closed.value
                assert direct.is_zero == closed.is_zero
                assert direct.is_zero == (n0 % (2 * k) != 0)


def test_t3_surgery_agreement_randomized():
    rng = random.Random(32)
    for k in (1, 2):
        for _ in range(60):
            observed = random_link(rng, max_components=2, charge_bound=2 * k)
            charges = list(observed.charges)
            charges[0] = 1
            observed = FramedLink.make(observed.linking, charges=charges)
            targets = [rng.randint(-2 * k, 2 * k) for _ in range(3)]
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(observed.n)]
            for c in range(3):
                rows[0][c] = targets[c] - sum(
                    observed.charges[i] * rows[i][c] for i in range(1, observed.n)
                )
            fl = s1xsigma_presentation(observed, zip(*rows))
            closed = s1xsigma_expectation(
                HomologyData(1, tuple(targets), quadratic_form(observed)), k
            )
            direct = surgery_expectation(fl, k)
            assert direct.value == closed.value
            assert direct.is_zero == closed.is_zero
