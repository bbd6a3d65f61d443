"""CLI behaviour: JSON input and output, exit codes, round trips."""

from __future__ import annotations

import json
import time
import warnings

import pytest

from acsl import FramedLink, SurgeryPresentation, blow_up, handle_slide, s3_expectation
from acsl.cli import link_from_object, link_to_json, load_link_json, run

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

