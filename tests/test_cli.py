"""CLI behaviour: JSON input and output, exit codes, round trips."""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import acsl
from acsl import (
    FramedLink,
    blow_up,
    handle_slide,
    s3_expectation,
    surgery_expectation,
)
from acsl.cli import (
    COMMANDS,
    MAX_TERMS_LIMIT,
    TRIALS_LIMIT,
    InputError,
    _read_json,
    build_parser,
    invariant_to_json,
    link_from_object,
    link_to_json,
    parse_args,
    run,
)

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


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"genus": 1, "N": [2, -2], "q_self": 5}, "N: expected 3 pairings for genus 1, got 2"),
        ({"genus": -1, "N": [], "q_self": 0}, "genus: must be nonnegative, got -1"),
    ],
)
def test_homology_errors_name_the_field(tmp_path, capsys, obj, message):
    path = write(tmp_path, "h.json", obj)
    code, out, err = run_json(capsys, ["s1xsigma", "--input", path, "--k", "1"])
    assert (code, out, err) == (2, None, {"error": "InputError", "message": message})


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["s3", "--input", "x.json", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
        (["check", "--trials", "3"], "the following arguments are required: --suite"),
        ([], "the following arguments are required: command"),
        (["knot"], "argument command: invalid choice: 'knot'"),
        (["s3", "--input", "x.json", "--k", "1", "--colour", "2"], "unrecognized arguments: --colour 2"),
        (["check", "--suite", "kirby", "--input", "x.json"], "unrecognized arguments: --input x.json"),
    ],
)
def test_argparse_errors_are_input_errors(capsys, argv, message):
    code, out, err = run_json(capsys, argv)
    assert code == 2 and out is None
    assert err["error"] == "InputError"
    assert err["message"].startswith(message)


# Tokens for random argv: every subcommand and flag, abbreviations (some
# ambiguous), inline values, help, separators, integers and garbage.
ARGV_TOKENS = [
    *COMMANDS, "--input", "--inp", "--i", "--input=x.json", "--k", "--k=3", "-k",
    "--suite", "--su", "--s", "--se", "--seed", "--trials", "--tri", "--t",
    "--max-terms", "--max", "--m", "--max-terms=9", "-h", "--help", "--he", "--",
    "-", "---", "", "=", "0", "1", "-2", "17", "3.5", "x.json", "kirby", "oracle",
    "bogus", "--colour",
]


def parse_outcome(parse, argv):
    """The Namespace, the InputError message, or the exit code and what was printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return "parsed", vars(parse(argv))
    except InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()


def test_named_parser_parses_like_the_full_parser():
    rng = random.Random(11)
    starts = {"named": 0, "other": 0}
    for _ in range(2000):
        argv = [rng.choice(ARGV_TOKENS) for _ in range(rng.randrange(7))]
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(list(COMMANDS))
        starts["named" if argv and argv[0] in COMMANDS else "other"] += 1
        assert parse_outcome(parse_args, argv) == parse_outcome(build_parser().parse_args, argv), argv
    assert min(starts.values()) >= 500


def test_run_builds_only_the_named_subparser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def counting_init(self, *args, **kwargs):
        built.append("parser")
        init(self, *args, **kwargs)

    def counting(self, name, **kwargs):
        built.append("add_parser")
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    path = write(tmp_path, "mer.json", {**MERIDIAN, "charges": [2, 0]})
    for argv, code, parsers, added in [
        (["surgery", "--input", path, "--k", "2"], 0, 1, 0),
        (["check", "--suite", "periodicity", "--trials", "2", "--k", "1"], 0, 1, 0),
        ([], 2, 7, 6),
        (["bogus"], 2, 7, 6),
        (["--", "s3"], 2, 7, 6),
        (["--help"], None, 7, 6),
    ]:
        built.clear()
        if code is None:
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
        else:
            assert run(argv) == code, argv
        capsys.readouterr()
        assert (built.count("parser"), built.count("add_parser")) == (parsers, added), argv


def test_max_terms_below_one_is_input_error(capsys):
    code, out, err = run_json(
        capsys, ["check", "--suite", "oracle", "--trials", "2", "--max-terms", "0"]
    )
    assert code == 2 and out is None
    assert err["message"].startswith("max_terms:")


@pytest.mark.parametrize("max_terms", [MAX_TERMS_LIMIT + 1, 10**12])
def test_max_terms_above_the_limit_is_input_error(capsys, max_terms):
    start = time.perf_counter()
    code, out, err = run_json(
        capsys, ["check", "--suite", "homology", "--k", "20000", "--trials", "2", "--max-terms", str(max_terms)]
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out is None
    assert err["error"] == "InputError"
    assert err["message"].startswith("max_terms:")


@pytest.mark.parametrize("suite, trials", [("kirby", TRIALS_LIMIT + 1), ("oracle", 10**9), ("homology", 0)])
def test_trials_outside_the_limit_is_input_error(capsys, suite, trials):
    assert TRIALS_LIMIT == 10**4
    start = time.perf_counter()
    code, out, err = run_json(capsys, ["check", "--suite", suite, "--trials", str(trials), "--k", "2"])
    assert time.perf_counter() - start < 1
    assert (code, out, err["error"]) == (2, None, "InputError")
    assert err["message"] == f"trials: expected 1 to {TRIALS_LIMIT}, got {trials}"


def test_max_terms_limit_is_the_library_default():
    import inspect

    from acsl import gauss_sum, oracle_sums

    assert MAX_TERMS_LIMIT == 10**6
    for function in (gauss_sum, oracle_sums):
        assert inspect.signature(function).parameters["max_terms"].default == MAX_TERMS_LIMIT


@pytest.mark.parametrize("suite", ["periodicity", "satellite", "kirby", "manifolds"])
def test_max_terms_is_input_error_where_nothing_is_enumerated(capsys, suite):
    code, out, err = run_json(
        capsys, ["check", "--suite", suite, "--trials", "2", "--max-terms", "5", "--k", "1"]
    )
    assert code == 2 and out is None
    assert err["error"] == "InputError"
    assert err["message"].startswith("max_terms:")


def test_cli_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "mer.json", {**MERIDIAN, "charges": [2, 0]})
    outputs = set()
    for _ in range(3):
        code = run(["surgery", "--input", path, "--k", "2"])
        assert code == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_schema_errors_name_the_field(tmp_path, capsys):
    hopf_pd = {"pd": "X(4,1,3,2) X(1,4,2,3)", "components": [[1, 2], [3, 4]]}
    cases = [
        ({"linking": [[0, "x"], [1, 0]]}, "linking[0][1] is not an integer: 'x'"),
        ({"linking": [[0, 1], [1.0, 0]], "charges": [1, 1]}, "linking[1][0] is not an integer: 1.0"),
        ({"linking": [[0, 1], [1, 0]], "charges": [1, True]}, "charges[1] is not an integer: True"),
        ({**hopf_pd, "framings": [0, "1"]}, "framings[1] is not an integer: '1'"),
        ({**hopf_pd, "framings": [0, 1, 2], "charges": [1, 1]}, "framings: framing vector has length 3, expected 2"),
        ({**hopf_pd, "framings": 5, "charges": [1, 1]}, 'framings: expected "blackboard" or a list of integers, got 5'),
        ({**hopf_pd, "components": [[1, 2], [3, 4], []], "charges": [1, 1]}, "components[2]: expected a non-empty list"),
        ({**hopf_pd, "components": [], "charges": []}, "components: expected a non-empty list"),
        ({**hopf_pd, "pd": "X(4,1,3,2) X(1,4,2,3) C: 1 2; 3 4", "charges": [1, 1]},
         "pd: bad crossing term 'C:'; expected X(a,b,c,d)"),
        ({**hopf_pd, "components": [[1, 2], [3, 0]], "charges": [1, 1]},
         "components[1][1]: expected a positive integer, got 0"),
        ({**hopf_pd, "components": [[1, 2], [3, "4"]], "charges": [1, 1]},
         "components[1][1]: expected an integer, got '4'"),
        ({"charges": [1]}, "top level: need either 'linking' or 'pd'"),
        ({"linking": [[0, 1], [1, 0]], "charges": [1]}, "charges: expected 2 entries, one per linking row, got 1"),
        ({"linking": [[0]], "charges": [1], "roles": []}, "roles: expected 1 entries, one per linking row, got 0"),
    ]
    for obj, message in cases:
        path = write(tmp_path, "bad.json", obj)
        # A warning raised as an error would escape run: no warning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_json(capsys, ["s3", "--input", path, "--k", "1"])
        assert (code, out, err) == (2, None, {"error": "InputError", "message": message})


def test_missing_file_and_bad_json(tmp_path, capsys):
    code, _, err = run_json(capsys, ["s3", "--input", str(tmp_path / "no.json"), "--k", "1"])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_json(capsys, ["s3", "--input", str(bad), "--k", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe" + '{"linking": [[0]]}'.encode("utf-16-le"),
        b"[" * 100_000,
        b'{"linking": [[' + b"7" * 5000 + b"]]}",
    ],
    ids=["utf16-bom", "deep-nesting", "long-integer"],
)
def test_undecodable_input_is_input_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_json(capsys, ["s3", "--input", str(bad), "--k", "1"])
    assert (code, out, err["error"]) == (2, None, "InputError")
    assert err["message"].startswith(f"{bad} is not valid JSON: ")


def test_missing_charges_warns(tmp_path):
    path = write(tmp_path, "u.json", {"linking": [[0]]})
    with pytest.warns(UserWarning, match="charges missing"):
        fl = link_from_object(_read_json(path))
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
    assert err["message"] == 'framings: expected "blackboard" or a list of integers, got 5'


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


def test_acsl_process_writes_each_warning_as_one_json_line(tmp_path):
    path = write(tmp_path, "charged.json", {**MERIDIAN, "charges": [1, 2]})
    env = {**os.environ, "PYTHONPATH": str(Path(acsl.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "acsl.cli", "surgery", "--input", path, "--k", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "warning": "UserWarning",
        "message": "surgery component C2 carries charge 2; evaluators ignore it",
    }


def test_connected_twelve_component_surgery_answers_fast(tmp_path, capsys):
    # 12 blow-ups slid into one chain: 10**12 colourings at k=5, which
    # the enumeration could not finish; surgery on them leaves S^3.
    hopf = FramedLink.make(HOPF["linking"], charges=HOPF["charges"])
    chain = hopf
    for _ in range(12):
        chain = blow_up(chain, 1)
    for i in range(2, 13):
        chain = handle_slide(chain, i, i + 1, 1)
    assert all(chain.linking[i][i + 1] for i in range(2, 13))
    path = write(tmp_path, "chain.json", link_to_json(chain))
    start = time.perf_counter()
    code, out, _ = run_json(capsys, ["surgery", "--input", path, "--k", "5"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out["phase_exponent"] == s3_expectation(hopf, 5).exponent


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
    """The modules a fresh interpreter holds after running one job."""
    script = (
        "import contextlib, io, json, sys\n"
        "import acsl.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = acsl.cli.run(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(acsl.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, modules = json.loads(done.stdout)
    assert code == 0
    return set(modules)


# Loaded by dataclasses (inspect) and fractions (decimal), which no job needs.
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions", "decimal"}


def test_one_shot_commands_load_only_what_they_use(tmp_path):
    path = write(tmp_path, "hopf.json", HOPF)
    for command in ("s3", "satellite"):
        loaded = _modules_loaded([command, "--input", path, "--k", "50"])
        assert loaded.isdisjoint({"acsl.surgery", "acsl.manifolds", "acsl.checks"}), command
        assert loaded.isdisjoint(HEAVY_STDLIB), command
    for command, homology in [
        ("s1xs2", {"genus": 0, "N": [4], "q_self": 3}),
        ("s1xsigma", {"genus": 1, "N": [4, 0, 0], "q_self": 3}),
    ]:
        path = write(tmp_path, f"{command}.json", homology)
        loaded = _modules_loaded([command, "--input", path, "--k", "2"])
        assert loaded.isdisjoint({"acsl.surgery", "acsl.checks"}), command
        assert loaded.isdisjoint(HEAVY_STDLIB), command
    path = write(tmp_path, "meridian.json", MERIDIAN)
    assert _modules_loaded(["surgery", "--input", path, "--k", "2"]).isdisjoint(HEAVY_STDLIB)
    check = ["check", "--suite", "kirby", "--trials", "2", "--k", "1"]
    assert _modules_loaded(check).isdisjoint(HEAVY_STDLIB)


def test_huge_k_is_refused_before_any_allocation(tmp_path, capsys):
    inputs = {
        "s3": HOPF,
        "satellite": HOPF,
        "surgery": MERIDIAN,
        "s1xs2": {"genus": 0, "N": [4], "q_self": 3},
        "s1xsigma": {"genus": 1, "N": [4, 0, 0], "q_self": 3},
    }
    for command, obj in inputs.items():
        path = write(tmp_path, f"{command}.json", obj)
        start = time.perf_counter()
        code, out, err = run_json(capsys, [command, "--input", path, "--k", "-1000000000"])
        assert time.perf_counter() - start < 1, command
        assert (code, out, err["error"]) == (2, None, "InputError"), command
        assert err["message"].startswith("k:"), command
    path = write(tmp_path, "hopf_k.json", {**HOPF, "k": 100_001})
    code, _, err = run_json(capsys, ["s3", "--input", path])
    assert code == 2 and err["message"].startswith("k:")
    path = write(tmp_path, "hopf.json", HOPF)
    code, out, _ = run_json(capsys, ["s3", "--input", path, "--k", "100000"])
    assert code == 0
    assert (out["order"], out["phase_exponent"]) == (400_000, 399_998)


def test_json_coordinates_are_integers_over_one():
    hopf = FramedLink.make(HOPF["linking"], charges=HOPF["charges"])
    meridian = FramedLink.make(MERIDIAN["linking"], charges=MERIDIAN["charges"], roles=MERIDIAN["roles"])
    framed = FramedLink.make([[0, 1], [1, 3]], charges=[1, 0], roles=["observed", "surgery"])
    results = [s3_expectation(hopf, k) for k in (1, -3, 12, 100, 99991)]
    results += [surgery_expectation(fl, k) for fl in (meridian, framed) for k in (1, -5, 99991)]
    assert any(inv.is_zero for inv in results) and not all(inv.is_zero for inv in results)
    for inv in results:
        out = invariant_to_json(inv)
        n, pairs = out["value"]["n"], out["value"]["coeffs"]
        assert all(d == 1 and type(c) is int for c, d in pairs)
        embedded = sum(c * cmath.exp(2j * cmath.pi * i / n) for i, (c, _) in enumerate(pairs) if c)
        assert abs(embedded - complex(*out["numeric"])) < 1e-9


def test_satellite_expansion_is_limited(tmp_path, capsys):
    from acsl.cli import SATELLITE_LIMIT

    assert SATELLITE_LIMIT == 1000
    path = write(tmp_path, "at_limit.json", {"linking": [[1]], "charges": [-1000]})
    code, out, _ = run_json(capsys, ["satellite", "--input", path, "--k", "3"])
    assert code == 0 and out["equal"] is True
    assert out["link"]["charges"] == [-1] * 1000
    assert out["link"]["linking"][999] == [1] * 1000
    surgery = {
        "linking": [[0, 1, 0], [1, 2, 0], [0, 0, -1]],
        "charges": [600, 0, -400],
        "roles": ["observed", "surgery", "observed"],
    }
    for obj in ({"linking": [[1]], "charges": [1001]}, surgery, {**HOPF, "charges": [-10**9, 1]}):
        path = write(tmp_path, "over_limit.json", obj)
        start = time.perf_counter()
        code, out, err = run_json(capsys, ["satellite", "--input", path, "--k", "3"])
        assert time.perf_counter() - start < 1
        assert (code, out, err["error"]) == (2, None, "InputError")
        assert err["message"].startswith("charges:")


def test_suites_that_read_coordinates_limit_k(monkeypatch, capsys):
    from acsl import checks
    from acsl.cli import HOMOLOGY_K_LIMIT, K_LIMIT

    assert HOMOLOGY_K_LIMIT == 20_000
    over = [("oracle", 10**9), ("oracle", -K_LIMIT - 1), ("homology", HOMOLOGY_K_LIMIT + 1), ("homology", -10**9)]
    with monkeypatch.context() as patch:
        patch.setattr(checks, "random_presentation", None)  # no trial may run
        for suite, k in over:
            start = time.perf_counter()
            code, out, err = run_json(capsys, ["check", "--suite", suite, "--trials", "20", "--k", str(k)])
            assert time.perf_counter() - start < 1, (suite, k)
            assert (code, out, err["error"]) == (2, None, "InputError"), (suite, k)
            assert err["message"] == f"k: |k| = {abs(k)} exceeds the {suite} suite's limit of " + (
                f"{K_LIMIT}" if suite == "oracle" else f"{HOMOLOGY_K_LIMIT}"
            )
    unlimited = [["--suite", s, "--trials", "3", "--k", "-1000000000"] for s in ("periodicity", "satellite", "kirby", "manifolds")]
    for argv in (
        ["--suite", "homology", "--trials", "5", "--k", str(-HOMOLOGY_K_LIMIT)],
        ["--suite", "oracle", "--trials", "2", "--max-terms", "10", "--k", str(K_LIMIT)],
        *unlimited,
    ):
        code, out, _ = run_json(capsys, ["check", *argv])
        assert (code, out["passed"]) == (0, True), argv


def test_surgery_component_count_is_limited(tmp_path, monkeypatch, capsys):
    import acsl.surgery
    from acsl.cli import SURGERY_LIMIT

    assert SURGERY_LIMIT == 150
    rng = random.Random(5)

    def dense(s):
        n = s + 1
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        return {"linking": rows, "charges": [0] * s + [1], "roles": ["surgery"] * s + ["observed"]}

    path = write(tmp_path, "at_limit.json", dense(SURGERY_LIMIT))
    code, out, err = run_json(capsys, ["surgery", "--input", path, "--k", "2"])
    assert code == 0 and out["order"] == 8 or code == 3 and err["error"] == "DenominatorZero"
    monkeypatch.setattr(acsl.surgery, "_solve_local", None)  # refused before elimination
    for s in (SURGERY_LIMIT + 1, 1000):
        path = write(tmp_path, "over_limit.json", dense(s))
        code, out, err = run_json(capsys, ["surgery", "--input", path, "--k", "2"])
        assert (code, out, err["error"]) == (2, None, "InputError")
        assert err["message"] == f"roles: {s} surgery components exceed the limit of {SURGERY_LIMIT}"


def _node_paths(obj, path=()):
    """Paths (key and index tuples) to every value inside a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _node_paths(value, path + (key,))


def _mutate(rng, obj):
    """One random corruption of a JSON input object, in place."""
    kind = rng.choice(["drop", "type", "ragged", "role", "pd"])
    if kind == "drop":
        del obj[rng.choice(sorted(obj))]
    elif kind == "type":
        *parents, last = rng.choice(list(_node_paths(obj)))
        target = obj
        for key in parents:
            target = target[key]
        target[last] = rng.choice([None, True, False, 1.5, "7", {}, {"a": 1}])
    elif kind == "ragged":
        rows = obj.get("linking", obj.get("components"))
        rows = [row for row in rows if isinstance(row, list)] if isinstance(rows, list) else []
        if rows:
            row = rng.choice(rows)
            if rng.random() < 0.5 or len(row) < 2:
                row.append(1)
            else:
                row.pop()
    elif kind == "role" and "genus" not in obj:
        roles = obj.get("roles")
        if not isinstance(roles, list) or not roles:
            roles = obj["roles"] = ["observed", "observed"]
        roles[rng.randrange(len(roles))] = rng.choice(["surgery", "spectator", "Surgery", "", "observed "])
    elif kind == "pd" and isinstance(obj.get("pd"), str):
        terms = obj["pd"].split(" ")
        i = rng.randrange(len(terms))
        terms[i] = rng.choice([
            terms[i].replace("X", "Y"),
            terms[i][:-3] + ")",
            terms[i].replace("1", "9"),
            terms[i].replace("(", "(-"),
            terms[i] + "(",
            "",
        ])
        obj["pd"] = " ".join(terms)


def test_mutated_inputs_end_in_a_documented_way(tmp_path, capsys):
    """Seeded fuzz through run: 600 corruptions of valid matrix, PD and
    homology inputs.  Each answers (exit 0, one JSON object on stdout),
    is undefined (exit 3, one DenominatorZero line on stderr) or is
    refused (exit 2, one InputError or SurgeryComponentError line on
    stderr); no exception escapes."""
    hopf_pd = {"pd": "X(4,1,3,2) X(1,4,2,3)", "components": [[1, 2], [3, 4]], "framings": [0, 1]}
    bases = [
        ("s3", {"linking": [[0, 1, 2], [1, 2, -1], [2, -1, 1]], "charges": [1, -1, 2], "k": 3}),
        ("s3", {**hopf_pd, "charges": [1, 2]}),
        ("s3", MERIDIAN),  # a surgery presentation, which s3 refuses
        ("surgery", {"linking": [[1, 2, 0], [2, -2, 1], [0, 1, 3]], "charges": [1, 0, 0],
                     "roles": ["observed", "surgery", "surgery"], "names": ["a", "b", "c"]}),
        ("surgery", {"linking": [[2, 1], [1, 0]], "charges": [0, 1], "roles": ["surgery", "observed"]}),
        ("surgery", {**hopf_pd, "charges": [1, 0], "roles": ["observed", "surgery"]}),
        ("satellite", {"linking": [[0, 1], [1, -1]], "charges": [2, -3], "k": 2}),
        ("satellite", {**hopf_pd, "charges": [2, 0], "roles": ["observed", "surgery"]}),
        ("s1xs2", {"genus": 0, "N": [4], "q_self": 3}),
        ("s1xsigma", {"genus": 1, "N": [4, 0, -2], "q_self": 3, "k": -2}),
    ]
    rng = random.Random(2026)
    seen = {0: 0, 2: 0, 3: 0}
    errors = set()
    start = time.perf_counter()
    for case in range(600):
        name, base = rng.choice(bases)
        obj = json.loads(json.dumps(base))
        for _ in range(rng.randint(0, 2)):
            if obj:
                _mutate(rng, obj)
        argv = [name, "--input", write(tmp_path, "case.json", obj)]
        k = rng.choice([None, 1, -1, 2, 5, 0, 10**6])
        if k is not None:
            argv += ["--k", str(k)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(argv)
        out, err = capsys.readouterr()
        context = (case, argv[0], argv[3:], obj)
        if code == 0:
            assert err == "" and out.count("\n") == 1, context
            assert json.loads(out)["command"] == name, context
        else:
            assert out == "" and err.count("\n") == 1, context
            error = json.loads(err)["error"]
            if code == 3:
                assert (name, error) == ("surgery", "DenominatorZero"), context
            else:
                assert code == 2 and error in ("InputError", "SurgeryComponentError"), context
            errors.add(error)
        seen[code] += 1
    assert min(seen.values()) > 0 and len(errors) == 3, (seen, errors)
    assert time.perf_counter() - start < 3
