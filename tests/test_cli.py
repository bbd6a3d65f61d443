"""CLI behaviour: JSON input and output, exit codes, round trips."""

from __future__ import annotations

import cmath
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import acsl
from acsl import FramedLink, SurgeryPresentation, blow_up, handle_slide, s3_expectation
from acsl.cli import invariant_to_json, link_from_object, link_to_json, load_link_json, run

HOPF = {"linking": [[0, 1], [1, 0]], "charges": [1, 1]}
MERIDIAN = {
    "linking": [[0, 1], [1, 0]],
    "charges": [1, 0],
    "roles": ["observed", "surgery"],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip().startswith("{") else captured.err
    return code, out, err


def test_s3_hopf(tmp_path, capsys):
    path = write(tmp_path, "hopf.json", HOPF)
    code, out, _ = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 0
    assert out["zero"] is False
    assert out["phase_exponent"] == 2
    assert out["order"] == 4
    assert out["numeric"] == [-1.0, 0.0]
    assert out["value"] == {"n": 4, "coeffs": [[-1, 1], [0, 1]]}


def test_k_from_file(tmp_path, capsys):
    path = write(tmp_path, "hopf.json", {**HOPF, "k": 1})
    code, out, _ = run_json(capsys, ["s3", "--input", path])
    assert code == 0 and out["k"] == 1


def test_missing_k_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "hopf.json", HOPF)
    code, _, err = run_json(capsys, ["s3", "--input", path])
    assert code == 2
    assert err["error"] == "InputError"


def test_surgery_vanishing(tmp_path, capsys):
    path = write(tmp_path, "meridian.json", MERIDIAN)
    code, out, _ = run_json(capsys, ["surgery", "--input", path, "--k", "1"])
    assert code == 0
    assert out["zero"] is True
    assert out["numeric"] == [0.0, 0.0]


def test_surgery_denominator_zero_exit_code(tmp_path, capsys):
    path = write(
        tmp_path,
        "bad.json",
        {"linking": [[2]], "roles": ["surgery"], "charges": [0]},
    )
    code, _, err = run_json(capsys, ["surgery", "--input", path, "--k", "1"])
    assert code == 3
    assert err["error"] == "DenominatorZero"


def test_s3_rejects_surgery_components(tmp_path, capsys):
    path = write(tmp_path, "mer.json", MERIDIAN)
    code, _, err = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 2
    assert err["error"] == "SurgeryComponentError"


def test_pd_route(tmp_path, capsys):
    path = write(
        tmp_path,
        "hopf_pd.json",
        {
            "pd": "X(4,1,3,2) X(1,4,2,3)",
            "components": [[1, 2], [3, 4]],
            "framings": [0, 0],
            "charges": [1, 1],
        },
    )
    code, out, _ = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 0
    assert out["phase_exponent"] == 2


def test_pd_route_blackboard_default(tmp_path, capsys):
    path = write(
        tmp_path,
        "kink.json",
        {"pd": "X(1,1,2,2)", "components": [[1, 2]], "charges": [1]},
    )
    code, out, _ = run_json(capsys, ["s3", "--input", path, "--k", "2"])
    assert code == 0
    assert out["phase_exponent"] == 7  # framing 1 from the kink writhe


def test_homology_commands(tmp_path, capsys):
    path = write(tmp_path, "h.json", {"genus": 0, "N": [1], "q_self": 0})
    code, out, _ = run_json(capsys, ["s1xs2", "--input", path, "--k", "1"])
    assert code == 0 and out["zero"] is True
    path2 = write(tmp_path, "h2.json", {"genus": 1, "N": [2, -2, 4], "q_self": 5})
    code, out, _ = run_json(capsys, ["s1xsigma", "--input", path2, "--k", "1"])
    assert code == 0
    assert out["phase_exponent"] == 3
    # genus mismatch for the s1xs2 command
    code, _, err = run_json(capsys, ["s1xs2", "--input", path2, "--k", "1"])
    assert code == 2


def test_satellite_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "u3.json", {"linking": [[0]], "charges": [3]})
    code, out, _ = run_json(capsys, ["satellite", "--input", path, "--k", "2"])
    assert code == 0
    assert out["equal"] is True
    assert out["link"]["charges"] == [1, 1, 1]
    # emit then reload is the identity
    reloaded = link_from_object(out["link"])
    assert link_to_json(reloaded) == out["link"]


def test_link_json_round_trip():
    import random

    from acsl.checks import random_presentation

    rng = random.Random(40)
    for _ in range(25):
        fl = random_presentation(rng)
        assert link_from_object(link_to_json(fl)) == fl


def test_check_suite(tmp_path, capsys):
    code, out, _ = run_json(
        capsys,
        ["check", "--suite", "kirby", "--seed", "7", "--trials", "25", "--k", "2"],
    )
    assert code == 0
    assert out["passed"] is True
    assert out["trials"] == 25
    assert out["failures"] == 0


def test_check_all_suites_small(capsys):
    for suite in ("periodicity", "satellite", "oracle", "homology", "manifolds"):
        code, out, _ = run_json(
            capsys, ["check", "--suite", suite, "--trials", "10", "--seed", "1"]
        )
        assert code == 0 and out["passed"] is True


def test_oracle_suite_counts_skipped_trials(capsys):
    code, out, _ = run_json(
        capsys,
        ["check", "--suite", "oracle", "--trials", "20", "--max-terms", "1", "--seed", "0"],
    )
    assert code == 0
    assert out["skipped"] > 0


def test_unknown_suite_is_input_error(capsys):
    code, out, err = run_json(capsys, ["check", "--suite", "nope", "--trials", "5"])
    assert code == 2 and out is None
    assert err["error"] == "InputError"
    assert err["message"].startswith("suite:")


def test_cli_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "mer.json", {**MERIDIAN, "charges": [2, 0]})
    outputs = set()
    for _ in range(3):
        code = run(["surgery", "--input", path, "--k", "2"])
        assert code == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_schema_errors_name_the_field(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"linking": [[0, "x"], [1, 0]]})
    code, _, err = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 2
    assert "linking[0][1]" in err["message"]
    path2 = write(tmp_path, "bad2.json", {"charges": [1]})
    code, _, err = run_json(capsys, ["s3", "--input", path2, "--k", "1"])
    assert code == 2
    path3 = write(tmp_path, "bad3.json", {"linking": [[0, 1], [1, 0]], "charges": [1]})
    code, _, err = run_json(capsys, ["s3", "--input", path3, "--k", "1"])
    assert code == 2
    assert "charges" in err["message"]


def test_missing_file_and_bad_json(tmp_path, capsys):
    code, _, err = run_json(capsys, ["s3", "--input", str(tmp_path / "no.json"), "--k", "1"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_json(capsys, ["s3", "--input", str(bad), "--k", "1"])
    assert code == 2


def test_missing_charges_warns(tmp_path):
    path = write(tmp_path, "u.json", {"linking": [[0]]})
    with pytest.warns(UserWarning, match="charges missing"):
        fl = load_link_json(path)
    assert fl.charges == (0,)


def test_k_zero_rejected(tmp_path, capsys):
    path = write(tmp_path, "hopf.json", HOPF)
    code, _, err = run_json(capsys, ["s3", "--input", path, "--k", "0"])
    assert code == 2


def test_ragged_linking_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "ragged.json", {"linking": [[0, 0], []], "charges": [1, 1]})
    code, _, err = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 2
    assert err["error"] == "InputError"
    assert "linking[1]" in err["message"]


def test_non_list_framings_is_input_error(tmp_path, capsys):
    path = write(
        tmp_path,
        "hopf_pd.json",
        {"pd": "X(4,1,3,2) X(1,4,2,3)", "components": [[1, 2], [3, 4]], "framings": 5},
    )
    code, _, err = run_json(capsys, ["s3", "--input", path, "--k", "1"])
    assert code == 2
    assert err["error"] == "InputError"
    assert "framings" in err["message"]


def test_nonpositive_trials_is_input_error(capsys):
    code, out, err = run_json(capsys, ["check", "--suite", "kirby", "--trials", "-5", "--k", "1"])
    assert code == 2 and out is None
    assert "trials" in err["message"]


def test_check_zero_coupling_is_input_error(capsys):
    code, _, err = run_json(capsys, ["check", "--suite", "kirby", "--trials", "5", "--k", "0"])
    assert code == 2
    assert err["error"] == "InputError"


def test_charged_surgery_component_warns_once(tmp_path, capsys):
    path = write(tmp_path, "charged.json", {**MERIDIAN, "charges": [1, 2]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_json(capsys, ["surgery", "--input", path, "--k", "1"])
    assert code == 0
    assert len(caught) == 1


def test_connected_twelve_component_surgery_answers_fast(tmp_path, capsys):
    # 12 blow-ups slid into one chain: 10**12 colourings at k=5, which
    # the enumeration could not finish; surgery on them leaves S^3.
    hopf = FramedLink.make(HOPF["linking"], charges=HOPF["charges"])
    p = SurgeryPresentation.make(hopf, 5)
    for _ in range(12):
        p = blow_up(p, 1)
    for i in range(2, 13):
        p = handle_slide(p, i, i + 1, 1)
    assert all(p.link.linking[i][i + 1] for i in range(2, 13))
    path = write(tmp_path, "chain.json", link_to_json(p.link))
    start = time.perf_counter()
    code, out, _ = run_json(capsys, ["surgery", "--input", path, "--k", "5"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out["phase_exponent"] == s3_expectation(hopf, 5).phase_exponent()


def test_s3_serialises_with_one_root_power(monkeypatch):
    import acsl.invariants as invariants

    calls = []

    def counted(n, e):
        calls.append((n, e))
        return acsl.root_power(n, e)

    monkeypatch.setattr(invariants, "root_power", counted)
    hopf = FramedLink.make(HOPF["linking"], charges=HOPF["charges"])
    out = invariant_to_json(s3_expectation(hopf, 1000))
    assert len(calls) <= 1
    assert out["phase_exponent"] == 3998
    assert abs(complex(*out["numeric"]) - cmath.exp(2j * cmath.pi * 3998 / 4000)) < 1e-9


def _modules_loaded(argv):
    """The acsl modules a fresh interpreter holds after running one job."""
    script = (
        "import contextlib, io, json, sys\n"
        "import acsl.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = acsl.cli.run(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('acsl'))]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(acsl.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, modules = json.loads(done.stdout)
    assert code == 0
    return set(modules)


def test_one_shot_commands_load_only_what_they_use(tmp_path):
    path = write(tmp_path, "hopf.json", HOPF)
    for command in ("s3", "satellite"):
        loaded = _modules_loaded([command, "--input", path, "--k", "50"])
        assert loaded.isdisjoint({"acsl.surgery", "acsl.manifolds", "acsl.checks"}), command
    path = write(tmp_path, "h.json", {"genus": 0, "N": [4], "q_self": 3})
    assert "acsl.checks" not in _modules_loaded(["s1xs2", "--input", path, "--k", "2"])
