"""The benchmark's checker: wrong outputs are caught, references are right.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random

import inputs
import reference as ref

HOPF = {"linking": [[0, 1], [1, 0]], "charges": [1, 1]}
HOPF_JOB = {"argv": ["s3", "--k", "1"], "input": HOPF, "expect": ref.phase(1, 2)}
# zeta_4**2 = -1: coordinates (-1, 0) in the basis 1, zeta_4
HOPF_OUT = {
    "command": "s3",
    "k": 1,
    "zero": False,
    "order": 4,
    "phase_exponent": 2,
    "value": {"n": 4, "coeffs": [[-1, 1], [0, 1]]},
    "numeric": [-1.0, 0.0],
}
# framing 2 at k=1: 1 + exp(-pi i) = 0, so the normalising sum vanishes
VANISHING = {"linking": [[2]], "charges": [0], "roles": ["surgery"]}


def checked(out: dict, job=HOPF_JOB, code: int = 0):
    return ref.check(job, code, json.dumps(out))


def test_correct_output_passes():
    assert checked(HOPF_OUT) is None


def test_wrong_phase_exponent_fails():
    assert "phase_exponent" in checked({**HOPF_OUT, "phase_exponent": 3})


def test_flipped_zero_fails():
    assert "zero" in checked({**HOPF_OUT, "zero": True})


def test_coordinates_embedding_elsewhere_fail():
    value = {"n": 4, "coeffs": [[1, 1], [0, 1]]}
    assert "embed" in checked({**HOPF_OUT, "value": value})


def test_wrong_numeric_fails():
    assert "numeric" in checked({**HOPF_OUT, "numeric": [1.0, 0.0]})


def test_exit_zero_on_vanishing_denominator_fails():
    expect = ref.surgery(VANISHING, 1)
    assert expect == ref.UNDEFINED
    job = {"argv": ["surgery", "--k", "1"], "input": VANISHING, "expect": expect}
    out = {**HOPF_OUT, "command": "surgery", "zero": True, "phase_exponent": None}
    assert "exit code 0" in checked(out, job)
    assert ref.check(job, 3, "") is None


def test_exit_three_on_defined_ratio_fails():
    assert "exit code 3" in ref.check(HOPF_JOB, 3, "")


def test_malformed_output_fails():
    assert ref.check(HOPF_JOB, 0, "Traceback (most recent call last):") is not None
    assert ref.check(HOPF_JOB, 0, "[1, 2]") is not None
    broken = {k: v for k, v in HOPF_OUT.items() if k != "value"}
    assert "malformed" in checked(broken)


def test_failed_suite_report_fails():
    exp = {"suite": "kirby", "trials": 30, "seed": 5, "k": 2}
    job = {"argv": ["check", "--suite", "kirby"], "input": None, "expect": exp}
    report = {"command": "check", **exp, "failures": 0, "passed": True}
    assert ref.check(job, 0, json.dumps(report)) is None
    assert "trials" in ref.check(job, 0, json.dumps({**report, "trials": 5}))
    assert "failed" in ref.check(job, 0, json.dumps({**report, "passed": False, "failures": 1}))


def test_positive_hopf_at_k1_has_exponent_2():
    assert ref.s3_exponent(HOPF["linking"], HOPF["charges"], 1) == 2


def test_s1xs2_with_pairing_1_at_k1_is_zero():
    assert ref.gate([1], 0, 1) == ref.phase(1, None)
    assert ref.gate([2], 3, 1) == ref.phase(1, 1)


def test_surgery_reference_hand_cases():
    # a meridian of the 0-surgery core links it once: S^1 x S^2, pairing 1
    meridian = {"linking": [[0, 1], [1, 0]], "charges": [1, 0], "roles": ["observed", "surgery"]}
    assert ref.surgery(meridian, 1) == ref.phase(1, None)
    # an unlinked +1-framed unknot blows down: the S^3 phase of the rest
    split = {"linking": [[1, 0], [0, 1]], "charges": [1, 0], "roles": ["observed", "surgery"]}
    assert ref.surgery(split, 3) == ref.phase(3, ref.s3_exponent([[1]], [1], 3))


def brute_force_sums(obj: dict, k: int) -> tuple[complex, complex]:
    surg = [i for i, r in enumerate(obj["roles"]) if r == "surgery"]
    num = den = 0j
    for colours in itertools.product(range(2 * abs(k)), repeat=len(surg)):
        full = [q if r == "observed" else 0 for q, r in zip(obj["charges"], obj["roles"])]
        bare = [0] * len(full)
        for i, c in zip(surg, colours):
            full[i] = bare[i] = c
        num += cmath.exp(-2j * math.pi * ref.form(obj["linking"], full) / (4 * k))
        den += cmath.exp(-2j * math.pi * ref.form(obj["linking"], bare) / (4 * k))
    return num, den


def test_float_gauss_sums_match_brute_force():
    rng = random.Random(3)
    for k in (1, -2, 3):
        for s in (1, 2, 3):
            obj = inputs.surgery_block(rng, k, s, observed=2)
            fast = ref.gauss_sums(obj["linking"], obj["charges"], obj["roles"], k)
            slow = brute_force_sums(obj, k)
            assert abs(fast[0] - slow[0]) < 1e-9 and abs(fast[1] - slow[1]) < 1e-9


def test_kirby_twins_keep_the_reference():
    rng = random.Random(4)
    for k in (2, -3):
        obj, exp = inputs.surgery_of_class(rng, k, 3, "phase")
        assert ref.surgery(inputs.kirby_twin(rng, obj, blow=True), k) == exp


def test_same_seed_same_jobs():
    for make in inputs.WORKLOADS.values():
        assert make(7) == make(7)
