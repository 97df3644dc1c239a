"""End-to-end runs of the command-line front end via ``main``."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.cli import _build_parser, main

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
        # The same rule holds for every entry of an explicit sample list.
        pytest.param(_WAVE_64, "samples", [[str(x) for x in pair] for pair in _WAVE_64["samples"]],
                     id="wave-samples-str"),
        pytest.param(_WAVE_64, "samples", [[False, 0.0], *_WAVE_64["samples"][1:]],
                     id="wave-samples-bool"),
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

    @pytest.mark.parametrize("fields, expected, named", [
        pytest.param({"q_min": -1e308, "q_max": 1e308}, 2, "input.json: grid step (q_max - q_min)",
                     id="span-overflow"),
        pytest.param({"spread": 1e-160}, 0, "", id="tiny-spread"),
        pytest.param({"spread": 1e-170}, 2, "input.json: spread", id="vanishing-spread"),
        pytest.param({"mean": 1e200, "center": False}, 2, "clips", id="far-mean"),
    ])
    def test_market_extreme_gaussian_fields_raise_no_warning(self, fields, expected, named):
        code, output, caught = _exit_code("market", {**_GAUSSIAN_64, **fields}, [])
        assert caught == []
        assert code == expected
        assert named in output and "Traceback" not in output

    def test_market_real_samples_read_as_real_pairs(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text(json.dumps({**_WAVE_64,
                                    "samples": [re for re, _ in _WAVE_64["samples"]]}))
        code, from_reals = run_json(capsys, ["market", str(real)])
        _, from_pairs = run_json(capsys, ["market", WAVE])
        assert code == 0
        assert {**from_reals, "config": {}} == {**from_pairs, "config": {}}

    def test_market_non_boolean_center_is_refused(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "gaussian", "q_min": -8.0,
                                   "q_max": 8.0, "n_points": 64,
                                   "center": "false"}))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert str(bad) in err and "'center'" in err
        assert out == ""

    @pytest.mark.parametrize("payload, named", [
        pytest.param({**_WAVE_64, "samples": [[1.0, 0.0]] * 64},
                     "field 'samples': wave norm 16.0 is not 1", id="unnormalized_wave"),
        pytest.param({**_WAVE_64, "samples": [[float("nan"), 0.0], *_WAVE_64["samples"][1:]]},
                     "field 'samples': samples contain NaN", id="nan_sample"),
        pytest.param({**_GAUSSIAN_64, "spread": 5.0}, "grid [-8.0, 8.0] clips the strategy",
                     id="clipped_gaussian"),
    ])
    def test_market_refused_wave_names_the_file(self, capsys, tmp_path, payload, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["market", str(bad)])
        assert code == 2
        assert f"qgame market: {bad}: {named}" in err
        assert "WaveFunction1D" not in err
        assert out == ""

    @pytest.mark.parametrize("text, named", [
        pytest.param("5", "JSON object", id="not_an_object"),
        pytest.param(json.dumps({**_FLIP, "initial": [10**400, 0]}), "initial",
                     id="huge_initial"),
        pytest.param(json.dumps({**_FLIP, "initial": [float("nan"), 0]}), "initial",
                     id="nan_initial"),
        # numpy would read these as numbers; the market files refuse them too.
        pytest.param(json.dumps({**_FLIP, "initial": ["1", "0"]}), "initial",
                     id="string_initial"),
        pytest.param(json.dumps({**_FLIP, "initial": [True, False]}), "initial",
                     id="boolean_initial"),
        pytest.param(json.dumps({**_FLIP, "transitions": {"a": [[0, "1"], ["1", 0]]}}),
                     "transition 'a'", id="string_transition"),
        pytest.param(json.dumps({**_FLIP, "accept": [[False, False], [False, True]]}),
                     "accept", id="boolean_accept"),
    ])
    def test_qfa_unusable_file_is_refused(self, capsys, tmp_path, text, named):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, ["qfa", str(bad)])
        assert code == 2
        assert str(bad) in err and named in err
        assert out == ""

    def test_qfa_null_entry_is_refused_as_null(self, capsys, tmp_path):
        # numpy would read null as NaN; the message names what the file holds.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**_FLIP, "initial": [None, 0]}))
        code, out, err = run(capsys, ["qfa", str(bad)])
        assert code == 2
        assert (f"qgame qfa: {bad}: initial holds a string, boolean or null "
                "where a number belongs") in err
        assert "NaN" not in err
        assert out == ""

    def test_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "report.json"
        code, out, err = run(capsys, ["newcomb", "--out", str(target)])
        assert code == 2
        assert f"qgame newcomb: cannot write report to {target}" in err
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_while_streaming_is_a_usage_error(self, capsys):
        # Every write to /dev/full fails, so the streamed grid fails part way.
        target = "/dev/full"
        code, out, err = run(capsys, ["market", GAUSSIAN, "--grid", "1024",
                                      "--output", "csv", "--out", target])
        assert code == 2
        assert f"qgame market: cannot write report to {target}" in err
        assert "Traceback" not in err and "Exception" not in err
        assert out == ""

    @pytest.mark.parametrize("reader", ["closed pipe", "full device"])
    def test_failed_write_to_standard_output_is_a_usage_error(self, reader):
        if reader == "full device" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        argv = [sys.executable, "-m", "qgame.cli", "market", GAUSSIAN, "--grid", "256",
                "--output", "csv"]
        with contextlib.ExitStack() as stack:
            if reader == "closed pipe":
                # The reader takes a few bytes of the 1.5 MB report and leaves.
                proc = subprocess.Popen(argv, env=_env_with_src(), stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE)
                proc.stdout.read(10)
                proc.stdout.close()
            else:
                full = stack.enter_context(open("/dev/full", "w"))
                proc = subprocess.Popen(argv, env=_env_with_src(), stdout=full,
                                        stderr=subprocess.PIPE)
            err = proc.stderr.read().decode()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 2
        assert "qgame market: cannot write report to standard output" in err
        assert "Traceback" not in err and "Exception" not in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["conjure"])
        assert code == 2

    def test_unknown_check_name(self, capsys):
        code, out, err = run(capsys, ["verify", "--only", "nonsense"])
        assert code == 2
        assert "nonsense" in err


_SAMPLES_32 = _WAVE_64["samples"][:32]


# One case per distinct refusal of the strategy and automaton readers; a
# content of None leaves the file absent, a string is written as it is.
@pytest.mark.parametrize("command, content, extra, line", [
    pytest.param("market", None, [],
                 "cannot read strategy file {path}: [Errno 2] No such file or "
                 "directory: '{path}'", id="market-unreadable"),
    pytest.param("qfa", None, [],
                 "cannot read automaton file {path}: [Errno 2] No such file or "
                 "directory: '{path}'", id="qfa-unreadable"),
    pytest.param("market", '{\n  "kind": "gaussian",\n  oops\n}', [],
                 "{path}: JSON parse error at line 3: Expecting property name enclosed "
                 "in double quotes", id="market-parse-error"),
    pytest.param("qfa", "[1\n", [], "{path}: JSON parse error at line 2: Expecting ',' "
                 "delimiter", id="qfa-parse-error"),
    pytest.param("market", "[" * 100_000, [],
                 "{path}: unreadable JSON: maximum recursion depth exceeded while "
                 "decoding a JSON array from a unicode string", id="market-too-deep"),
    pytest.param("market", "5", [], "{path}: strategy file must hold a JSON object",
                 id="market-not-an-object"),
    pytest.param("qfa", "[]", [], "{path}: automaton file must hold a JSON object",
                 id="qfa-not-an-object"),
    pytest.param("market", {**_GAUSSIAN_64, "kind": "lorentzian"}, [],
                 "{path}: expected kind 'gaussian' or explicit samples", id="kind"),
    pytest.param("market", {k: v for k, v in _GAUSSIAN_64.items() if k != "q_max"}, [],
                 "{path}: missing grid field 'q_max'", id="missing-field"),
    pytest.param("market", {**_GAUSSIAN_64, "spread": "1"}, [],
                 "{path}: field 'spread' must be a number, got '1'", id="non-number"),
    pytest.param("market", {**_GAUSSIAN_64, "n_points": 64.9}, [],
                 "{path}: field 'n_points' must be a power of two from 64 to 4096, "
                 "got 64.9", id="n-points"),
    pytest.param("market", _WAVE_64, ["--grid", "1024"],
                 "{path}: --grid applies only to Gaussian descriptors", id="grid-on-samples"),
    pytest.param("market", _GAUSSIAN_64, ["--grid", "0"],
                 "--grid must be a power of two from 64 to 4096, got 0", id="bad-grid"),
    pytest.param("market", {**_GAUSSIAN_64, "q_min": 8.0, "q_max": -8.0}, [],
                 "{path}: grid needs q_min < q_max, got [8.0, -8.0]", id="grid-order"),
    pytest.param("market", {**_GAUSSIAN_64, "center": "false"}, [],
                 "{path}: field 'center' must be true or false, got 'false'", id="center"),
    pytest.param("market", {**_GAUSSIAN_64, "spread": 5.0}, [],
                 "{path}: grid [-8.0, 8.0] clips the strategy (edge amplitude ratio "
                 "3.01e-01)", id="clipped-gaussian"),
    pytest.param("market", {**_WAVE_64, "samples": _SAMPLES_32}, [],
                 "{path}: field 'samples': expected 64 samples, got shape (32,)",
                 id="samples-count"),
    pytest.param("market", {**_WAVE_64, "samples": [["0", 0.0], *_SAMPLES_32]}, [],
                 "{path}: field 'samples' holds a string, boolean or null where a number "
                 "belongs", id="samples-entry"),
    pytest.param("market",
                 {**_WAVE_64, "samples": [[float("nan"), 0.0], *_WAVE_64["samples"][1:]]}, [],
                 "{path}: field 'samples': samples contain NaN or infinity", id="samples-nan"),
    pytest.param("market", {**_WAVE_64, "samples": [[1.0, 0.0]] * 64}, [],
                 "{path}: field 'samples': wave norm 16.0 is not 1 (the sum of "
                 "|samples|^2 * step)", id="wave-norm"),
    pytest.param("qfa", {"initial": _FLIP["initial"]}, [],
                 "{path}: automaton file is missing ['accept', 'transitions']",
                 id="missing-keys"),
    pytest.param("qfa", {**_FLIP, "transitions": [1]}, [],
                 "{path}: transitions must map symbols to matrices", id="transitions-list"),
    pytest.param("qfa", {**_FLIP, "initial": ["1", "0"]}, [],
                 "{path}: initial holds a string, boolean or null where a number belongs",
                 id="entry-type"),
    pytest.param("qfa", {**_FLIP, "initial": [[1, 0, 0], [0, 0, 0]]}, [],
                 "{path}: initial has unsupported shape (2, 3)", id="shape"),
    pytest.param("qfa", {**_FLIP, "transitions": {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
                 [], "{path}: transition 'a' must be 2x2, got shape (3, 3)", id="dimension"),
    pytest.param("qfa", {**_FLIP, "initial": [10**400, 0]}, [],
                 "{path}: initial is not an array of numbers: int too large to convert "
                 "to float", id="huge-int"),
    pytest.param("qfa", {**_FLIP, "accept": [[float("nan"), 0], [0, 1]]}, [],
                 "{path}: accept holds NaN or infinity", id="nan-accept"),
    pytest.param("qfa", {**_FLIP, "initial": [0.6, 0.6]}, [],
                 "{path}: start vector norm 0.848528137423857 is not 1", id="initial-norm"),
    pytest.param("qfa", {**_FLIP, "transitions": {"a": [[1, 0], [0, 0.5]]}}, [],
                 "{path}: transition 'a' is not unitary (defect 7.50e-01)", id="non-unitary"),
    pytest.param("qfa", {**_FLIP, "accept": [[0, 1], [0, 0]]}, [],
                 "{path}: accept operator is not Hermitian", id="non-hermitian"),
    pytest.param("qfa", {**_FLIP, "accept": [[0.5, 0], [0, 0.5]]}, [],
                 "{path}: accept operator is not idempotent", id="non-idempotent"),
    pytest.param("qfa", _FLIP, ["--word", "ab"],
                 "{path}: --word 'ab': symbol 'b' is not in the alphabet", id="unknown-symbol"),
])
def test_reader_refusal_is_one_full_line(capsys, tmp_path, command, content, extra, line):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, [command, str(path), *extra])
    assert (code, out) == (2, "")
    assert err == f"qgame {command}: {line.format(path=path)}\n"


# Entries near the float limit overflow the types' norm and operator checks;
# each is refused by the text a smaller defect gets, and no warning escapes.
@pytest.mark.parametrize("command, payload, line", [
    pytest.param("market", {**_WAVE_64, "samples": [[1e308, 1e308]] * 64},
                 "field 'samples': wave norm inf is not 1 (the sum of |samples|^2 * step)",
                 id="samples"),
    pytest.param("qfa", {**_FLIP, "initial": [1e308, 1e308]},
                 "start vector norm inf is not 1", id="initial"),
    pytest.param("qfa", {**_FLIP, "transitions": {"a": [[1e308, 0], [0, 1e308]]}},
                 "transition 'a' is not unitary (defect inf)", id="transition"),
    pytest.param("qfa", {**_FLIP, "accept": [[1e308, 0], [0, 1e308]]},
                 "accept operator is not idempotent", id="accept"),
])
def test_huge_finite_entries_are_refused_without_a_warning(command, payload, line):
    code, output, caught = _exit_code(command, payload, [])
    assert caught == []
    assert code == 2
    assert output.startswith(f"qgame {command}: ") and output.endswith(f"input.json: {line}\n")


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
# with its grid, and samples that are not normalized, once by overflow.
_WAVE_PLAUSIBLE = {
    "q_min": st.just(_WAVE_64["q_min"]),
    "q_max": st.just(_WAVE_64["q_max"]),
    "n_points": st.sampled_from([64, 128]),
    "samples": st.sampled_from([_WAVE_64["samples"], _WAVE_64["samples"][:32],
                                [[1.0, 0.0]] * 64, [[1e308, 1e308]] * 64]),
}
_FLIP_PLAUSIBLE = {
    "initial": st.one_of(st.just(_FLIP["initial"]),
                         st.lists(st.floats(-2.0, 2.0), max_size=3)),
    "transitions": st.one_of(st.just(_FLIP["transitions"]),
                             st.dictionaries(st.text(max_size=2), _JUNK, max_size=2)),
    "accept": st.one_of(st.just(_FLIP["accept"]), st.just([[1.0, 0.0], [0.0, 0.0]]),
                        st.just([[1e308, 0.0], [0.0, 1e308]])),
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
    """Exit code, output and warnings of one run; an escaping exception fails
    the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        sink = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            warnings.simplefilter("always")
            try:
                code = main([command, str(path), "--output", "json", *extra])
            except SystemExit as exc:
                code = exc.code
    return code, sink.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_payloads(_PLAUSIBLE), _payloads(_WAVE_PLAUSIBLE)),
       st.sampled_from([[], ["--grid", "0"], ["--grid", "128"]]))
def test_market_exit_code_contract_holds_for_any_payload(payload, extra):
    code, output, caught = _exit_code("market", payload, extra)
    assert code in (0, 1, 2), output
    assert caught == []


@settings(max_examples=150, deadline=None)
@given(st.one_of(_payloads(_FLIP_PLAUSIBLE), _JUNK),
       st.sampled_from([[], ["--word", "a"], ["--word", "ab"]]))
def test_qfa_exit_code_contract_holds_for_any_payload(payload, extra):
    code, output, caught = _exit_code("qfa", payload, extra)
    assert code in (0, 1, 2), output
    assert caught == []


def _parser_arguments() -> dict:
    """Per subcommand: its positional names, and its option flags with whether
    each takes a value, read from the parser.  ``--out`` is left out so that
    no run writes a file."""
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.dest not in ("help", "out")]
        table[name] = ([a.dest for a in actions if not a.option_strings],
                       [(a.option_strings[-1], a.nargs != 0) for a in actions
                        if a.option_strings])
    return table


_ARGUMENTS = _parser_arguments()
_ARGV_JUNK = ["-1", "0", "1", "7", "-0.5", "0.25", "64", "256", "10000",
              "10000001", "9007199254740992", "9007199254740993", "99999999999999999999",
              "1e400", "-1e308", "nan", "inf", "-inf", "abc", "", "json", "csv", "a", "I",
              "hnh"]
_INPUT_FILES = [GAUSSIAN, WAVE, AUTOMATON, str(ROOT / "absent.json"), ""]
# Sizes stay small, so that no example allocates a large array.  --n-max is
# drawn whole: past the walk's step cap it is refused before any work.  So is
# --trials, whose cost in walk and gamble does not depend on its value.
_SIZE_LIMITS = {"--grid": 256}


def _too_big(flag: str, value: str) -> bool:
    try:
        size = abs(float(value))
    except ValueError:
        return False
    return _SIZE_LIMITS.get(flag, float("inf")) < size


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    positionals, flags = _ARGUMENTS[command]
    argv = [command, *(draw(st.sampled_from(_INPUT_FILES)) for _ in positionals)]
    for flag, takes_value in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(flag)
        if takes_value:
            value = draw(st.sampled_from(_ARGV_JUNK).filter(lambda v: not _too_big(flag, v)))
            argv[-1] = f"{flag}={value}"
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_exit_code_contract_holds_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [["verify"], ["gamble"], ["walk"]], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, [*argv, "--seed", "-1"])
    assert code == 2
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["newcomb", "--trials", "5"],
    ["market", GAUSSIAN, "--seed", "3"],
    ["qfa", AUTOMATON, "--seed", "3"],
    ["newcomb", "--seed", "3"],
    ["market", GAUSSIAN, "--trials", "5"],
    ["qfa", AUTOMATON, "--trials", "5"],
    ["verify", "--trials", "5"],
], ids=["newcomb", "market", "qfa",
        "newcomb-seed", "market-trials", "qfa-trials", "verify-trials"])
def test_a_flag_the_command_does_not_read_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert argv[-2] in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_corrupt_is_refused_by_name(capsys, value):
    code, out, err = run(capsys, ["verify", f"--corrupt={value}"])
    assert code == 2
    assert "--corrupt" in err and "Warning" not in err
    assert out == ""


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# A probe's peak RSS in kB, as an expression the probe prints: the high-water
# mark of its own address space.  Its ru_maxrss would not do, because Linux
# carries the spawning process's peak across exec, so a probe started from a
# large test process would read that process's peak.
_PROBE_PEAK_KB = ("[int(line.split()[1]) for line in open('/proc/self/status') "
                  "if line.startswith('VmHWM:')][0]")


def test_every_name_the_benchmark_tracer_patches_exists():
    # perfbench/tracer.py wraps these attributes by name, so a rename would
    # otherwise surface only as a crashed traced run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr, _ in tracer.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert tracer.PATCHES and missing == []


# Runs each argv through qgame.cli.main untraced, then again with the
# benchmark tracer installed, and prints both [exit code, stdout] lists.
_TRACED_PROBE = """
import contextlib, importlib.util, io, json, sys
import qgame.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

def run_all():
    results = []
    for argv in json.loads(sys.argv[2]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qgame.cli.main(argv)
        results.append([code, out.getvalue()])
    return results

plain = run_all()
spans = tracer.Tracer()
spans.install()
traced = run_all()
print(json.dumps({"plain": plain, "traced": traced, "layers": sorted(spans.summary()["layers"])}))
"""


def test_the_benchmark_tracer_keeps_every_run_unchanged():
    # Its wrappers pass arguments through by position and name, so a changed
    # signature shows here as a changed exit code or output.
    runs = [["verify"], ["verify", "--corrupt", "0.01"], ["walk", "--trials", "1000"],
            ["market", GAUSSIAN, "--grid", "64", "--output", "csv"]]
    result = subprocess.run([sys.executable, "-c", _TRACED_PROBE,
                             str(ROOT / "perfbench" / "tracer.py"), json.dumps(runs)],
                            env=_env_with_src(), capture_output=True, text=True, check=True)
    got = json.loads(result.stdout)
    assert [code for code, _ in got["plain"]] == [0, 1, 0, 0]
    assert got["traced"] == got["plain"]
    assert {"cli.main", "cli.cmd_verify", "cli.cmd_walk", "cli.cmd_market",
            "transfer.verify_universality", "report.render.csv"} <= set(got["layers"])


def test_cli_import_loads_no_scipy():
    # Nor subprocess, which only the CSV writer of a float table imports, nor
    # numpy.random, which only the commands that draw import.
    probe = ("import qgame.cli, sys; print(any(m in ('scipy', 'subprocess', 'numpy.random') or "
             "m.startswith('scipy.') for m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
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
        # A seeded command records its seed; market draws nothing, so its
        # report names none.
        _, walk = run_json(capsys, ["walk", "--trials", "100", "--seed", "5"])
        assert walk["config"]["seed"] == 5
        _, market = run_json(capsys, ["market", GAUSSIAN])
        assert "seed" not in market["config"]

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

    @pytest.mark.parametrize("corrupt", ["0", "0.01"])
    def test_seed_is_recorded_but_reads_no_check(self, capsys, corrupt):
        # The ledger checks operator identities, so it draws nothing; --seed
        # is still accepted and echoed in the config.
        reports = [run_json(capsys, ["verify", "--seed", seed, "--corrupt", corrupt])[1]
                   for seed in ("0", "7")]
        assert [r["config"]["seed"] for r in reports] == [0, 7]
        assert reports[0]["checks"] == reports[1]["checks"]

    def test_help_says_the_seed_is_only_recorded(self):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        text = " ".join(subparsers.choices["verify"].format_help().split())
        assert "verify samples nothing and only records it in config" in text
        assert "all sampling" not in text

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

    @pytest.mark.parametrize("trials", ["0", "9007199254740993", "10000000000000000000"])
    def test_trials_past_the_sampler_cap_are_refused_by_name(self, capsys, trials):
        code, out, err = run(capsys, ["gamble", "--trials", trials])
        assert code == 2
        assert "--trials" in err and "Traceback" not in err
        assert out == ""

    def test_sweep_cost_and_memory_do_not_grow_with_trials(self):
        def sweep(trials):
            probe = ("import sys; from qgame.cli import main; "
                     "code = main(['gamble', '--sweep', '--trials', sys.argv[1], "
                     "'--output', 'json', '--out', sys.argv[2]]); "
                     f"print(code, {_PROBE_PEAK_KB})")
            started = time.perf_counter()
            result = subprocess.run([sys.executable, "-c", probe, trials, os.devnull],
                                    env=_env_with_src(), capture_output=True, text=True,
                                    check=True, timeout=60)
            code, peak_kb = map(int, result.stdout.split())
            return code, time.perf_counter() - started, peak_kb / 1024

        code, _, small_mb = sweep("10000")
        huge_code, huge_s, huge_mb = sweep("1000000000000")
        assert (code, huge_code) == (0, 0)
        assert huge_s < 10.0
        assert abs(huge_mb - small_mb) < 3.0


class TestWalkCommand:
    def test_single_horizon_model_value(self, capsys):
        code, payload = run_json(capsys, ["walk", "--n-max", "1",
                                          "--trials", "2000"])
        assert code == 0
        rows = payload["tables"]["survival"]["rows"]
        assert rows[0][1] == 1.0
        assert rows[1][1] == 0.75

    @pytest.mark.parametrize("trials", ["9007199254740993", "10000000000000000000"])
    def test_trials_past_the_sampler_cap_are_refused_by_name(self, capsys, trials):
        code, out, err = run(capsys, ["walk", "--trials", trials])
        assert code == 2
        assert "--trials" in err and "9007199254740992" in err and "Traceback" not in err
        assert out == ""

    def test_trials_at_the_sampler_cap_pass_both_checks(self, capsys):
        code, payload = run_json(capsys, ["walk", "--trials", "9007199254740992"])
        assert code == 0
        assert payload["config"]["trials"] == 2**53
        assert [c["status"] for c in payload["checks"]] == ["pass", "pass"]

    @pytest.mark.parametrize("n_max", ["10001", "99999999999999999999"])
    def test_horizon_past_the_step_cap_is_refused_by_name(self, capsys, n_max):
        code, out, err = run(capsys, ["walk", "--trials", "10", "--n-max", n_max])
        assert code == 2
        assert "--n-max" in err and "Traceback" not in err
        assert out == ""

    def test_ten_million_trials_peak_below_80_mb(self):
        # The sampler keeps four per-code counts; one int64 step count per
        # trial would alone be 80 MB here.
        assert _peak_mb("walk", "--trials", "10000000", "--output", "json") < 80.0


def _peak_mb(*argv: str) -> float:
    """Peak RSS in MB of a fresh process that runs ``qgame argv`` and writes
    the report to the null device; the command must exit 0."""
    probe = ("import sys; from qgame.cli import main; "
             f"code = main(sys.argv[1:] + ['--out', {os.devnull!r}]); "
             f"print(code, {_PROBE_PEAK_KB})")
    result = subprocess.run([sys.executable, "-c", probe, *argv],
                            env=_env_with_src(), capture_output=True, text=True,
                            check=True, timeout=120)
    code, peak_kb = map(int, result.stdout.split())
    assert code == 0
    return peak_kb / 1024


def _market_peak_mb(grid: str, fmt: str) -> float:
    """Peak RSS in MB of ``market`` on the example Gaussian at the given grid
    size and output format."""
    return _peak_mb("market", GAUSSIAN, "--grid", grid, "--output", fmt)


class TestMarketCommand:
    def test_unit_price_row_is_half_half(self, capsys):
        code, payload = run_json(capsys, ["market", GAUSSIAN])
        assert code == 0
        by_price = {row[0]: row for row in payload["tables"]["cdf"]["rows"]}
        assert by_price[1.0][1] == pytest.approx(0.5, abs=1e-8)
        assert by_price[1.0][2] == pytest.approx(0.5, abs=1e-8)

    def test_wigner_checks_pass(self, capsys):
        _, payload = run_json(capsys, ["market", GAUSSIAN])
        assert [c["name"] for c in payload["checks"]] == [
            "wigner_normalization", "aliasing"]
        assert payload["checks"][0]["status"] == "pass"

    def test_csv_rendering_appends_full_grid(self, capsys):
        code, out, _ = run(capsys, ["market", GAUSSIAN, "--grid", "64",
                                    "--output", "csv"])
        assert code == 0
        assert "# table wigner_grid" in out
        tail = out.split("# table wigner_grid\n", 1)[1]
        assert len(tail.strip().splitlines()) == 65  # header plus 64 p-rows

    def test_streamed_csv_grid_peaks_like_the_json_report(self):
        # The CSV report adds the whole grid as a table; written row by row,
        # it costs no more than a few rows of text over the JSON report.
        assert _market_peak_mb("1024", "csv") <= _market_peak_mb("1024", "json") + 16.0

    def test_4096_point_grid_peaks_below_300_mb(self):
        # One n x n float grid (134 MB at 4096 points) plus a block of columns.
        assert _market_peak_mb("4096", "json") < 300.0

    def test_4096_point_json_report_holds_no_grid(self):
        # JSON and text reports reduce the grid a block of columns at a time;
        # the n x n float grid alone would be 134 MB.
        assert _market_peak_mb("4096", "json") < 100.0

    @pytest.mark.parametrize("grid", ["64", "512", "2048"])
    def test_csv_and_json_reports_print_the_same_summary(self, capsys, tmp_path, grid):
        # The CSV report builds the grid and JSON does not; both read the
        # summary taken in the same pass over the grid.
        _, payload = run_json(capsys, ["market", GAUSSIAN, "--grid", grid])
        out = tmp_path / "market.csv"
        assert main(["market", GAUSSIAN, "--grid", grid, "--output", "csv",
                     "--out", str(out)]) == 0
        sections = {}
        with out.open() as handle:
            for row in csv.reader(handle):
                if row[0].startswith("# "):
                    if row[0] == "# table wigner_grid":
                        break
                    sections[row[0][2:]] = rows = []
                else:
                    rows.append(row)
        assert sections["checks"][1:] == [
            [c["name"], c["status"], repr(c["deviation"]),
             "None" if c["tolerance"] is None else repr(c["tolerance"]), c["detail"]]
            for c in payload["checks"]]
        assert sections["table wigner_summary"][1] == [
            repr(v) for v in payload["tables"]["wigner_summary"]["rows"][0]]

    def test_grid_override_is_reported(self, capsys):
        _, payload = run_json(capsys, ["market", GAUSSIAN, "--grid", "128"])
        assert payload["config"]["n_points"] == 128

    def test_explicit_samples_payload(self, capsys, tmp_path):
        from qgame.market import GridSpec, make_gaussian_strategy
        psi = make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 128))
        wave_file = tmp_path / "wave.json"
        wave_file.write_text(json.dumps({
            "q_min": psi.grid.q_min, "q_max": psi.grid.q_max, "n_points": psi.grid.n_points,
            "samples": [[z.real, z.imag] for z in psi.samples]}))
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

    def test_unknown_symbol_names_the_file_and_the_word(self, capsys):
        code, out, err = run(capsys, ["qfa", AUTOMATON, "--word", "a", "--word", "ab"])
        assert code == 2
        assert err == (f"qgame qfa: {AUTOMATON}: --word 'ab': "
                       "symbol 'b' is not in the alphabet\n")
        assert out == ""

    def test_shared_parser_keeps_no_words_between_runs(self, capsys):
        assert _build_parser() is _build_parser()
        run_json(capsys, ["qfa", AUTOMATON, "--word", "a", "--word", "aa"])
        _, payload = run_json(capsys, ["qfa", AUTOMATON])
        assert [row[0] for row in payload["tables"]["acceptance"]["rows"]] == [""]

    def test_command_wrapped_after_the_parser_is_built_still_runs(self, capsys, monkeypatch):
        import qgame.cli

        run(capsys, ["qfa", AUTOMATON])
        seen = []
        original = qgame.cli.cmd_qfa

        def wrapped(args):
            seen.append(args.command)
            return original(args)

        monkeypatch.setattr(qgame.cli, "cmd_qfa", wrapped)
        run(capsys, ["qfa", AUTOMATON])
        assert seen == ["qfa"]
