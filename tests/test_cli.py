"""End-to-end runs of the command-line front end via ``main``."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.cli import main

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"
SCHEMA = json.loads((DOCS / "report.schema.json").read_text())
GAUSSIAN = str(DOCS / "examples" / "gaussian.json")
WAVE = str(DOCS / "examples" / "wave.json")
AUTOMATON = str(DOCS / "examples" / "flip_automaton.json")
_GAUSSIAN_64 = {"kind": "gaussian", "q_min": -8.0, "q_max": 8.0, "n_points": 64}
_WAVE_64 = json.loads(Path(WAVE).read_text())
_FLIP = json.loads(Path(AUTOMATON).read_text())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--output", "json"])
    return code, json.loads(out)


class TestExitCodes:
    def test_verify_clean_build_passes(self, capsys):
        code, out, err = run(capsys, ["verify"])
        assert code == 0
        assert "[FAIL]" not in out

    def test_verify_corrupted_switch_fails(self, capsys):
        code, out, err = run(capsys, ["verify", "--corrupt", "1e-6"])
        assert code == 1
        assert "hnh" in out

    def test_gamble_rejects_probability_above_one(self, capsys):
        code, out, err = run(capsys, ["gamble", "--p-verify", "1.5"])
        assert code == 2
        assert "p_verify" in err

    def test_walk_rejects_zero_trials(self, capsys):
        code, out, err = run(capsys, ["walk", "--trials", "0"])
        assert code == 2

    def test_market_malformed_file_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "kind": "gaussian",\n  oops\n}')
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert "line 3" in err

    def test_market_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["market", str(tmp_path / "absent.json")])
        assert code == 2
        assert "absent.json" in err

    @pytest.mark.parametrize("base, field, value", [
        *[pytest.param(_GAUSSIAN_64, field, "a", id=field)
          for field in ("q_min", "q_max", "n_points", "mean", "spread")],
        *[pytest.param(_WAVE_64, field, "a", id=f"wave-{field}")
          for field in ("q_min", "q_max", "n_points", "samples")],
        # float() reads numeric strings and booleans as numbers.
        *[pytest.param(_GAUSSIAN_64, field, value, id=f"{field}-{type(value).__name__}")
          for field, value in (("q_min", "-8"), ("q_max", "8"), ("n_points", "64"),
                               ("mean", "0.5"), ("spread", "1"), ("spread", True),
                               ("mean", False))],
        *[pytest.param(_WAVE_64, field, value,
                       id=f"wave-{field}-{type(value).__name__}")
          for field, value in (("q_min", "-8"), ("q_max", "8"), ("n_points", "64"),
                               ("q_min", True))],
    ])
    def test_market_non_numeric_field_is_refused(self, capsys, tmp_path, base, field,
                                                 value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**base, field: value}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("base", [_GAUSSIAN_64, _WAVE_64], ids=["gaussian", "wave"])
    def test_market_missing_grid_field_is_refused(self, capsys, tmp_path, base):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({k: v for k, v in base.items() if k != "q_max"}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and "'q_max'" in err
        assert out == ""

    def test_bad_qubit_limit_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QGAME_MAX_QUBITS", "abc")
        code, out, err = run(capsys, ["verify"])
        assert code == 2
        assert "QGAME_MAX_QUBITS" in err
        assert out == ""

    @pytest.mark.parametrize("base, n_points", [
        pytest.param(_GAUSSIAN_64, 64.9, id="fractional"),
        pytest.param(_GAUSSIAN_64, 2**40, id="huge"),
        pytest.param(_WAVE_64, 64.9, id="wave-fractional"),
        pytest.param(_WAVE_64, 8192, id="wave-oversized"),
    ])
    def test_market_bad_point_count_is_refused(self, capsys, tmp_path, base, n_points):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**base, "n_points": n_points}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and "'n_points'" in err
        assert out == ""

    def test_market_explicit_zero_grid_is_refused(self, capsys):
        code, out, err = run(capsys, ["market", GAUSSIAN, "--grid", "0"])
        assert code == 2
        assert "--grid" in err
        assert out == ""

    def test_market_grid_on_explicit_samples_is_refused(self, capsys):
        code, out, err = run(capsys, ["market", WAVE, "--grid", "1024"])
        assert code == 2
        assert WAVE in err and "--grid" in err
        assert out == ""

    def test_market_wrong_sample_count_is_refused(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**_WAVE_64, "samples": [[0.0, 0.0]] * 8192}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and "'samples'" in err
        assert out == ""

    def test_market_non_boolean_center_is_refused(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "gaussian", "q_min": -8.0,
                                   "q_max": 8.0, "n_points": 64,
                                   "center": "false"}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and "'center'" in err
        assert out == ""

    @pytest.mark.parametrize("text, named", [
        pytest.param("5", "JSON object", id="not_an_object"),
        pytest.param(json.dumps({**_FLIP, "initial": [10**400, 0]}), "initial",
                     id="huge_initial"),
        pytest.param(json.dumps({**_FLIP, "initial": [float("nan"), 0]}), "initial",
                     id="nan_initial"),
    ])
    def test_qfa_unusable_file_is_refused(self, capsys, tmp_path, text, named):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, ["qfa", str(bad)])
        assert code == 2
        assert str(bad) in err and named in err
        assert out == ""

    def test_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "report.json"
        code, out, err = run(capsys, ["newcomb", "--out", str(target)])
        assert code == 2
        assert f"qgame newcomb: cannot write report to {target}" in err
        assert "Traceback" not in err
        assert not target.exists()

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["conjure"])
        assert code == 2

    def test_unknown_check_name(self, capsys):
        code, out, err = run(capsys, ["verify", "--only", "nonsense"])
        assert code == 2
        assert "nonsense" in err


# Malformed values of every JSON type.  Integers are small or huge: a
# well-formed power-of-two grid between 2048 and the 4096-point limit is a
# valid request whose n x n Wigner table costs hundreds of megabytes, a
# resource question rather than malformed input.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.integers(2**62, 10**400),
    st.integers(2**62, 10**400).map(lambda v: -v),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
_PLAUSIBLE = {
    "kind": st.just("gaussian"),
    "q_min": st.floats(-12.0, -4.0),
    "q_max": st.floats(4.0, 12.0),
    "n_points": st.sampled_from([64, 128, 256]),
    "mean": st.floats(-3.0, 3.0),
    "spread": st.floats(0.05, 3.0),
    "center": st.booleans(),
}


# Explicit-sample files: the example wave, a sample count that disagrees
# with its grid, and samples that are not normalized.
_WAVE_PLAUSIBLE = {
    "q_min": st.just(_WAVE_64["q_min"]),
    "q_max": st.just(_WAVE_64["q_max"]),
    "n_points": st.sampled_from([64, 128]),
    "samples": st.sampled_from([_WAVE_64["samples"], _WAVE_64["samples"][:32],
                                [[1.0, 0.0]] * 64]),
}
_FLIP_PLAUSIBLE = {
    "initial": st.one_of(st.just(_FLIP["initial"]),
                         st.lists(st.floats(-2.0, 2.0), max_size=3)),
    "transitions": st.one_of(st.just(_FLIP["transitions"]),
                             st.dictionaries(st.text(max_size=2), _JUNK, max_size=2)),
    "accept": st.one_of(st.just(_FLIP["accept"]), st.just([[1.0, 0.0], [0.0, 0.0]])),
}


@st.composite
def _payloads(draw, fields):
    payload = {}
    for key, plausible in fields.items():
        choice = draw(st.sampled_from(["plausible", "junk", "missing"]))
        if choice != "missing":
            payload[key] = draw(plausible if choice == "plausible" else _JUNK)
    return payload


def _exit_code(command, payload, extra):
    """Exit code and output of one run; an escaping exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main([command, str(path), "--output", "json", *extra])
            except SystemExit as exc:
                code = exc.code
    return code, sink.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_payloads(_PLAUSIBLE), _payloads(_WAVE_PLAUSIBLE)),
       st.sampled_from([[], ["--grid", "0"], ["--grid", "128"]]))
def test_market_exit_code_contract_holds_for_any_payload(payload, extra):
    code, output = _exit_code("market", payload, extra)
    assert code in (0, 1, 2), output


@settings(max_examples=150, deadline=None)
@given(st.one_of(_payloads(_FLIP_PLAUSIBLE), _JUNK),
       st.sampled_from([[], ["--word", "a"], ["--word", "ab"]]))
def test_qfa_exit_code_contract_holds_for_any_payload(payload, extra):
    code, output = _exit_code("qfa", payload, extra)
    assert code in (0, 1, 2), output


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import qgame.cli, sys; print(any(m == 'scipy' or "
             "m.startswith('scipy.') for m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestSchema:
    @pytest.mark.parametrize("argv", [
        ["verify", "--only", "hnh"],
        ["newcomb"],
        ["gamble", "--trials", "400"],
        ["walk", "--trials", "1000", "--n-max", "4"],
        ["market", GAUSSIAN],
        ["qfa", AUTOMATON, "--word", "a"],
    ], ids=lambda argv: argv[0])
    def test_json_payload_validates(self, capsys, argv):
        code, payload = run_json(capsys, argv)
        jsonschema.validate(payload, SCHEMA)
        assert payload["tool"] == "qgame"
        assert payload["command"] == argv[0]

    def test_timing_key_is_opt_in(self, capsys):
        _, bare = run_json(capsys, ["newcomb"])
        assert "wall_time_s" not in bare
        _, timed = run_json(capsys, ["newcomb", "--timing"])
        assert timed["wall_time_s"] >= 0.0
        jsonschema.validate(timed, SCHEMA)


class TestDeterminism:
    def test_same_seed_identical_bytes(self, capsys):
        argv = ["gamble", "--trials", "3000", "--seed", "11",
                "--output", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_market_output_is_seed_free(self, capsys):
        _, first, _ = run(capsys, ["market", GAUSSIAN, "--output", "json",
                                   "--seed", "1"])
        _, second, _ = run(capsys, ["market", GAUSSIAN, "--output", "json",
                                    "--seed", "99"])
        assert first == second

    def test_out_file_matches_stdout_rendering(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["newcomb", "--output", "json",
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        _, streamed, _ = run(capsys, ["newcomb", "--output", "json"])
        assert target.read_text() == streamed


class TestVerifyCommand:
    def test_only_filters_to_one_check(self, capsys):
        code, payload = run_json(capsys, ["verify", "--only", "hnh"])
        assert code == 0
        assert [c["name"] for c in payload["checks"]] == ["hnh"]

    def test_byproduct_law_table(self, capsys):
        _, payload = run_json(capsys, ["verify", "--only", "hnh"])
        table = payload["tables"]["byproduct_law"]
        assert table["columns"] == ["word", "probability"]
        assert sorted(row[1] for row in table["rows"]) == [0.25] * 4


class TestNewcombCommand:
    def test_default_run_reads_out_the_control(self, capsys):
        code, payload = run_json(capsys, ["newcomb", "--control", "1"])
        assert code == 0
        rows = payload["tables"]["readout"]["rows"]
        assert rows == [[0, 0.0], [1, 1.0]]

    def test_trojan_inverts_nothing_visible(self, capsys):
        _, payload = run_json(capsys, ["newcomb", "--control", "1",
                                       "--breaker", "qutrojan"])
        rows = dict(payload["tables"]["readout"]["rows"])
        assert rows[0] == pytest.approx(1.0, abs=1e-12)


class TestGambleCommand:
    def test_sweep_emits_101_rows(self, capsys):
        code, payload = run_json(capsys, ["gamble", "--sweep",
                                          "--trials", "400"])
        sweep = payload["tables"]["sweep"]
        assert len(sweep["rows"]) == 101
        assert sweep["rows"][0][0] == 0.0
        names = [c["name"] for c in payload["checks"]]
        assert "sweep_within_half_width" in names

    def test_zero_sum_check_always_passes(self, capsys):
        _, payload = run_json(capsys, ["gamble", "--theta", "0.3",
                                       "--p-verify", "0.8", "--trials", "50"])
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["zero_sum"]["status"] == "pass"
        assert by_name["zero_sum"]["deviation"] == 0.0


class TestWalkCommand:
    def test_single_horizon_model_value(self, capsys):
        code, payload = run_json(capsys, ["walk", "--n-max", "1",
                                          "--trials", "2000"])
        assert code == 0
        rows = payload["tables"]["survival"]["rows"]
        assert rows[0][1] == 1.0
        assert rows[1][1] == 0.75


class TestMarketCommand:
    def test_unit_price_row_is_half_half(self, capsys):
        code, payload = run_json(capsys, ["market", GAUSSIAN])
        assert code == 0
        by_price = {row[0]: row for row in payload["tables"]["cdf"]["rows"]}
        assert by_price[1.0][1] == pytest.approx(0.5, abs=1e-8)
        assert by_price[1.0][2] == pytest.approx(0.5, abs=1e-8)

    def test_wigner_checks_pass(self, capsys):
        _, payload = run_json(capsys, ["market", GAUSSIAN])
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["wigner_normalization"]["status"] == "pass"
        assert by_name["wigner_real"]["status"] == "pass"

    def test_csv_rendering_appends_full_grid(self, capsys):
        code, out, _ = run(capsys, ["market", GAUSSIAN, "--grid", "64",
                                    "--output", "csv"])
        assert code == 0
        assert "# table wigner_grid" in out
        tail = out.split("# table wigner_grid\n", 1)[1]
        assert len(tail.strip().splitlines()) == 65  # header plus 64 p-rows

    def test_grid_override_is_reported(self, capsys):
        _, payload = run_json(capsys, ["market", GAUSSIAN, "--grid", "128"])
        assert payload["config"]["n_points"] == 128

    def test_explicit_samples_payload(self, capsys, tmp_path):
        from qgame.market import GridSpec, make_gaussian_strategy, wave_to_json
        psi = make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 128))
        wave_file = tmp_path / "wave.json"
        wave_file.write_text(wave_to_json(psi))
        code, payload = run_json(capsys, ["market", str(wave_file)])
        assert code == 0
        assert payload["config"]["n_points"] == 128


class TestQfaCommand:
    def test_flip_word_accepts(self, capsys):
        code, payload = run_json(capsys, ["qfa", AUTOMATON, "--word", "a"])
        assert code == 0
        assert payload["tables"]["acceptance"]["rows"] == [
            ["a", pytest.approx(1.0, abs=1e-12)]]

    def test_default_word_is_empty(self, capsys):
        _, payload = run_json(capsys, ["qfa", AUTOMATON])
        rows = payload["tables"]["acceptance"]["rows"]
        assert rows == [["", pytest.approx(0.0, abs=1e-12)]]
