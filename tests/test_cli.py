import json
import subprocess
import sys

import pytest

from gradelie.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_example_emit_golden_stable(capsys, tmp_path):
    for name in ("pauli", "e1", "e2"):
        assert main(["example", name, "--emit"]) == 0
        first = capsys.readouterr().out
        assert main(["example", name, "--emit"]) == 0
        second = capsys.readouterr().out
        assert first == second
    data = json.loads(second)
    assert data["ambient_dim"] == 3
    assert main(["example", "pauli", "--emit"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] == {"moduli": [2, 2]}


def test_all_examples_emit_and_parse(capsys, tmp_path):
    for name in ("pauli", "e1", "e2", "heisenberg", "sl2", "jordan_upper"):
        assert main(["example", name, "--emit"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["analyze", "--input", str(path), "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ambient_dim"] >= 2


def test_analyze_e2_report(capsys, tmp_path):
    assert main(["example", "e2", "--emit"]) == 0
    path = tmp_path / "e2.json"
    path.write_text(capsys.readouterr().out)
    assert main(["analyze", "--input", str(path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["irreducible"] is True
    assert report["all_nilpotent"] is True
    assert report["bracket_power_containment"]["5"] is True
    assert report["bracket_power_containment"]["2"] is False


def test_grade_check_valid_and_violating(capsys, tmp_path):
    assert main(["example", "e1", "--emit"]) == 0
    good = tmp_path / "good.json"
    good.write_text(capsys.readouterr().out)
    assert main(["grade-check", "--input", str(good), "--report", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["grading_valid"] and out["direct"]

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "ambient_dim": 2,
                "structure": "subgraded",
                "group": {"moduli": [3]},
                "components": {
                    "0": [[["0", "1"], ["0", "0"]]],
                    "1": [[["1", "0"], ["0", "-1"]]],
                },
            }
        )
    )
    assert main(["grade-check", "--input", str(bad), "--report", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["grading_valid"] is False


def test_triangularize_certificate(capsys, tmp_path):
    assert main(["example", "heisenberg", "--emit"]) == 0
    path = tmp_path / "heis.json"
    path.write_text(capsys.readouterr().out)
    assert main(["triangularize", "--input", str(path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chain_dims"] == [1, 2]
    assert report["verified"] is True

    assert main(["example", "sl2", "--emit"]) == 0
    sl2 = tmp_path / "sl2.json"
    sl2.write_text(capsys.readouterr().out)
    assert main(["triangularize", "--input", str(sl2)]) == 1
    capsys.readouterr()


def test_irreducible_verdicts(capsys, tmp_path):
    assert main(["example", "pauli", "--emit"]) == 0
    path = tmp_path / "pauli.json"
    path.write_text(capsys.readouterr().out)
    assert main(["irreducible", "--input", str(path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["irreducible"] is True
    assert report["assoc_closure_dim"] == 4

    assert main(["example", "heisenberg", "--emit"]) == 0
    path2 = tmp_path / "heis.json"
    path2.write_text(capsys.readouterr().out)
    assert main(["irreducible", "--input", str(path2), "--report", "json"]) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report2["irreducible"] is False
    assert report2["invariant_subspace_dim"] >= 1


def test_fuzz_exit_codes(capsys):
    assert main(["fuzz", "--lemma", "prime", "--trials", "20", "--seed", "42", "--dim-max", "4"]) == 0
    capsys.readouterr()
    assert main(["fuzz", "--lemma", "cartan", "--trials", "10", "--seed", "1", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["campaign"] == "cartan-equivalence"


def test_fuzz_unknown_lemma(capsys):
    assert main(["fuzz", "--lemma", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_input_errors(capsys, tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 2, "structure": "lie", "generators": [[["0.5","0"],["0","0"]]]}')
    assert main(["analyze", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "generators[0][0][0]" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gradelie.cli", "example", "pauli", "--emit"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["structure"] == "subgraded"


FAULT_DOCS = {
    # [E12, E21] = diag(1, -1) lies in no component: not bracket-closed
    "not-closed": {
        "ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [3]},
        "components": {"1": [[["0", "1"], ["0", "0"]]], "2": [[["0", "0"], ["1", "0"]]]},
    },
    # [h, e] = 2e has degree 1 + 1 = 2 but lies in component 1
    "grading": {
        "ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [3]},
        "components": {"1": [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]]]},
    },
}


@pytest.mark.parametrize("fault", sorted(FAULT_DOCS))
@pytest.mark.parametrize("command", ["analyze", "grade-check", "triangularize", "irreducible"])
def test_invalid_algebras_are_reported_not_raised(capsys, tmp_path, fault, command):
    path = tmp_path / f"{fault}.json"
    path.write_text(json.dumps(FAULT_DOCS[fault]))
    assert main([command, "--input", str(path), "--report", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["grading_valid"] is False and report["violation"]
    assert ("witness_bracket" in report) == (fault == "grading")


def _input_error(capsys, tmp_path, text) -> str:
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["grade-check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_duplicate_keys_are_rejected(capsys, tmp_path):
    e12, e21 = '[[["0", "1"], ["0", "0"]]]', '[[["0", "0"], ["1", "0"]]]'
    text = (
        '{"ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [3]},'
        f' "components": {{"1": {e12}, "1": {e21}}}}}'
    )
    assert "$.components: duplicate key '1'" in _input_error(capsys, tmp_path, text)
    text = '{"ambient_dim": 2, "structure": "lie", "structure": "lie", "generators": []}'
    assert "$: duplicate key 'structure'" in _input_error(capsys, tmp_path, text)


def test_integer_literal_beyond_the_digit_limit(capsys, tmp_path):
    big = "1" + "0" * 4400
    text = '{"ambient_dim": 1, "structure": "lie", "generators": [[["%s"]]]}' % big
    err = _input_error(capsys, tmp_path, text)
    assert "$.generators[0][0][0]: real part: integer of 4401 digits" in err


def test_bare_json_integer_beyond_the_digit_limit(capsys, tmp_path):
    big = "1" + "0" * 4400
    text = '{"ambient_dim": 1, "structure": "lie", "generators": [[[%s]]]}' % big
    err = _input_error(capsys, tmp_path, text)
    assert "$.generators[0][0][0]: real part: integer of 4401 digits" in err
    text = '{"ambient_dim": %s, "structure": "lie", "generators": []}' % big
    assert "$.ambient_dim" in _input_error(capsys, tmp_path, text)


def test_non_finite_float_literal(capsys, tmp_path):
    text = '{"ambient_dim": 1, "structure": "lie", "mode": "float", "generators": [[[1e999]]]}'
    assert "$.generators[0][0][0]: non-finite literal" in _input_error(capsys, tmp_path, text)


def test_unread_options_are_gone(tmp_path):
    for argv in (
        ["analyze", "--input", "x.json", "--seed", "1"],
        ["irreducible", "--input", "x.json", "--tol", "0.1"],
        ["fuzz", "--lemma", "prime", "--tol", "0.1"],
        ["example", "pauli", "--seed", "1"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
