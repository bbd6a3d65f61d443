"""The property suites' generators, reports and costs.

The generators build FramedLink records directly, so every link they
make must be one that validate accepts as it is; the homology suite
keeps its outcome counts seed by seed.
"""

from __future__ import annotations

import json
import random
import time
import warnings
from operator import mul

import pytest

from acsl import checks, validate
from acsl.cli import run


def _assert_valid_as_built(fl) -> None:
    """validate accepts fl as it is, with no warning; every field is a
    tuple and every entry a plain int."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate(fl) is fl
    assert all(type(field) is tuple for field in (fl.linking, fl.charges, fl.roles, fl.names))
    assert all(type(row) is tuple for row in fl.linking)
    assert all(type(e) is int for row in fl.linking for e in row)
    assert all(type(q) is int for q in fl.charges)


def test_generated_links_pass_validate_unchanged():
    rng = random.Random(11)
    for _ in range(500):
        _assert_valid_as_built(checks.random_link(rng))
        _assert_valid_as_built(checks.random_link(rng, max_components=6, charge_bound=40))
        _assert_valid_as_built(checks.random_presentation(rng))
        _assert_valid_as_built(checks.random_presentation(rng, max_surgery=5, entry_bound=9))


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_check_agreement_realises_its_targets(monkeypatch, genus):
    """The observed block has charge 1 first, and the columns handed to
    the builder pair with the charges to the targets exactly."""
    built, builder = [], checks.s1xsigma_presentation

    def presentation(observed, columns):
        columns = list(columns)
        built.append((observed, columns))
        return builder(observed, columns)

    monkeypatch.setattr(checks, "s1xsigma_presentation", presentation)
    rng = random.Random(40 + genus)
    for _ in range(100):
        k = rng.choice((1, 2, 3, -2, 7))
        targets = [rng.randint(-20, 20) for _ in range(2 * genus + 1)]
        assert checks.check_agreement(k, targets, rng) is None
        observed, columns = built[-1]
        _assert_valid_as_built(observed)
        assert observed.charges[0] == 1 and observed.n <= (3 if genus == 0 else 2)
        assert [sum(map(mul, observed.charges, col)) for col in columns] == targets


def test_links_the_suites_build_pass_validate_unchanged(monkeypatch):
    """Every link the suites hand to an evaluator or a builder: the
    shifted periodicity links, the Kirby-moved presentations and the
    observed blocks of both manifold families."""
    seen = []

    def recording(func, pick):
        def wrapper(*args, **kwargs):
            seen.append(pick(args))
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(checks, "s3_expectation", recording(checks.s3_expectation, lambda a: a[0]))
    monkeypatch.setattr(checks, "surgery_expectation", recording(checks.surgery_expectation, lambda a: a[0]))
    monkeypatch.setattr(checks, "s1xsigma_presentation", recording(checks.s1xsigma_presentation, lambda a: a[0]))
    for seed in range(3):
        for k in (None, 2, -3):
            checks.suite_periodicity(100, seed, k)
            checks.suite_kirby(60, seed, k)
            checks.suite_manifolds(60, seed, k)
    assert len(seen) >= 2000
    for fl in seen:
        _assert_valid_as_built(fl)


# (undefined, zero, skipped) of check --suite homology --seed S at 100
# trials: edits to the elimination must leave every count as it is.
HOMOLOGY_COUNTS = {
    0: (9, 11, 21), 1: (13, 7, 22), 2: (17, 9, 16), 3: (9, 14, 23), 4: (14, 4, 21),
    5: (13, 7, 18), 6: (11, 4, 25), 7: (10, 7, 21), 8: (6, 8, 18), 9: (11, 4, 21),
}


@pytest.mark.parametrize("seed", sorted(HOMOLOGY_COUNTS))
def test_homology_suite_keeps_its_counts(capsys, seed):
    code = run(["check", "--suite", "homology", "--seed", str(seed)])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["passed"]) == (0, True)
    assert (report["undefined"], report["zero"], report["skipped"]) == HOMOLOGY_COUNTS[seed]


def test_homology_cell_at_five_odd_primes_is_fast(capsys):
    # 4 * 19635 = 4 * 3 * 5 * 7 * 11 * 17: every compared value has
    # phi = 15360 coordinates, and each check shifts one and reduces it.
    start = time.perf_counter()
    code = run(["check", "--suite", "homology", "--k", "19635", "--trials", "100", "--seed", "0"])
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert (code, report["passed"], report["skipped"]) == (0, True, 97)
