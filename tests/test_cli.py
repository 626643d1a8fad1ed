import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gradelie
from gradelie.cli import main
from gradelie.documents import (
    document_from,
    dumps_document,
    instance_digest,
    materialize,
    parse_document,
)
from gradelie.examples import build_example


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
    raw = capsys.readouterr().out
    assert json.loads(raw)["grading_valid"] is False
    # the violating degree pair and its witness bracket, byte for byte
    want = "ac46a525a781563ad0f45824821dca67d97caa86c3149ac8758a01314c90d65e"
    assert hashlib.sha256(raw.encode()).hexdigest() == want


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
    # the child process imports gradelie from where this process found it
    src = str(Path(gradelie.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "gradelie.cli", "example", "pauli", "--emit"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["structure"] == "subgraded"


def test_example_run_does_not_import_scipy(capsys, tmp_path):
    # no command needs scipy: with it unimportable, each run prints what it prints here
    commands = [["example", "pauli"]]
    for name in ("pauli", "e1"):
        assert main(["example", name, "--emit"]) == 0
        path = tmp_path / f"{name}.json"
        path.write_text(capsys.readouterr().out)
        commands += [[command, "--input", str(path)] for command in ("analyze", "triangularize", "irreducible")]
    codes = [main(argv) for argv in commands]
    printed = capsys.readouterr().out
    src = str(Path(gradelie.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gradelie.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + f"{codes}\n"


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


# exit code and sha256 of `grade-check` and `analyze --report json` on the
# document that is not bracket-closed: they pin the closure check's report
NOT_CLOSED_JSON_SHA256 = {
    "grade-check": (1, "7cfec7776f9c7d746f64827f3972e677eed8214004cb003bf8d0914f62d89a25"),
    "analyze": (1, "7cfec7776f9c7d746f64827f3972e677eed8214004cb003bf8d0914f62d89a25"),
}


def test_not_closed_report_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "not-closed.json"
    path.write_text(json.dumps(FAULT_DOCS["not-closed"]))
    for command, (code, want) in NOT_CLOSED_JSON_SHA256.items():
        assert main([command, "--input", str(path), "--report", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, command


@pytest.mark.parametrize("command", ["analyze", "grade-check", "triangularize", "irreducible"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    for text in ("[" * 100000 + "]" * 100000, '{"a":' * 50000 + "1" + "}" * 50000):
        path.write_text(text)
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: $")


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


# reducible, but its invariant lines need sqrt(-2), which is not in Q(i)
OUTSIDE_QI = [[["0", "1"], ["-2", "0"]]]


def test_analyze_decides_reducibility_without_a_witness(capsys, tmp_path):
    path = tmp_path / "outside.json"
    path.write_text(json.dumps({
        "ambient_dim": 2, "structure": "subgraded", "group": {"moduli": [2]},
        "components": {"1": OUTSIDE_QI},
    }))
    assert main(["analyze", "--input", str(path), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["irreducible"] is False and report["assoc_closure_dim"] == 2
    assert "error" not in report
    # irreducible prints a witness, so a failed search stays an error, with the verdict
    assert main(["irreducible", "--input", str(path), "--report", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"].startswith("witness search exhausted")
    assert report["irreducible"] is False and report["assoc_closure_dim"] == 2


def test_lie_analyze_keeps_the_witness_search(capsys, tmp_path):
    path = tmp_path / "outside-lie.json"
    path.write_text(json.dumps({"ambient_dim": 2, "structure": "lie", "generators": OUTSIDE_QI}))
    assert main(["analyze", "--input", str(path), "--report", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report == {
        "error": "witness search exhausted: closure dimension 2 < 4 but no witness was found",
        "irreducible": False,
        "assoc_closure_dim": 2,
    }


def test_lie_analyze_brackets_l_l_once(capsys, tmp_path, monkeypatch):
    # the trace-form test reads [L, L] off the derived series instead of bracketing again
    from gradelie import lie, matrices
    from gradelie.spectral import decide_irreducible

    calls = []
    real = matrices.bracket
    monkeypatch.setattr(matrices, "bracket", lambda a, b: calls.append(1) or real(a, b))
    for name in ("heisenberg", "sl2"):
        assert main(["example", name, "--emit"]) == 0
        path = tmp_path / f"{name}.json"
        path.write_text(capsys.readouterr().out)
        del calls[:]
        assert main(["analyze", "--input", str(path), "--report", "json"]) == 0
        capsys.readouterr()
        analyzed = len(calls)
        del calls[:]
        algebra = materialize(build_example(name))
        lie.derived_series(algebra)
        lie.lower_central_series(algebra)
        decide_irreducible(list(algebra.basis_mats))
        assert analyzed == len(calls) > 0, name


def test_fuzz_out_of_range_values_are_input_errors(capsys):
    # the table rows and the search mode check their parameters the same way
    for lemma in ("cartan", "three-product-search"):
        for flag, value in (("--dim-max", "1"), ("--dim-max", "0"), ("--trials", "-3")):
            assert main(["fuzz", "--lemma", lemma, flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: {flag}: ")


def test_fuzz_refuses_a_dim_max_beyond_the_weight_graded_generator(capsys):
    # gen_weight_graded stops at n = 6, so every campaign built on it refuses 7
    for lemma in ("prime", "cart", "ampliation", "findim2", "three-product-search"):
        assert main(["fuzz", "--lemma", lemma, "--trials", "8", "--dim-max", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: --dim-max: must be at most 6 for this campaign, got 7\n"
        )
    assert main(["fuzz", "--lemma", "cartan", "--trials", "0", "--dim-max", "7"]) == 0


# exit code and sha256 of `irreducible` and `triangularize --report json` on
# each built-in example: they pin the witness and flag bytes
EXAMPLE_JSON_SHA256 = {
    ("pauli", "irreducible"):
        (0, "cb049b97acecdaa25b285a578faa11ca6894ac377f5b4bb777407992f6022d48"),
    ("pauli", "triangularize"):
        (1, "5256a05fa36eb3bfe337e2815e39cfccddfbc2903c1241624ba9eeb443fad7e1"),
    ("e1", "irreducible"):
        (0, "cb049b97acecdaa25b285a578faa11ca6894ac377f5b4bb777407992f6022d48"),
    ("e1", "triangularize"):
        (1, "5256a05fa36eb3bfe337e2815e39cfccddfbc2903c1241624ba9eeb443fad7e1"),
    ("e2", "irreducible"):
        (0, "d7d14d67d82c18d64281d9e4b7b5e4f4dc781fdce86ae5e6b12b5971c1f295f8"),
    ("e2", "triangularize"):
        (1, "5256a05fa36eb3bfe337e2815e39cfccddfbc2903c1241624ba9eeb443fad7e1"),
    ("heisenberg", "irreducible"):
        (0, "0c3e861429edde9f73abccd677dcb302ff07b7209cc541d8ac4ff51af49bca9f"),
    ("heisenberg", "triangularize"):
        (0, "ca4fe03cd04b0eb62cf817d660b15d69684aa0757a4948f4c8beb383a1ca671f"),
    ("sl2", "irreducible"):
        (0, "cb049b97acecdaa25b285a578faa11ca6894ac377f5b4bb777407992f6022d48"),
    ("sl2", "triangularize"):
        (1, "5256a05fa36eb3bfe337e2815e39cfccddfbc2903c1241624ba9eeb443fad7e1"),
    ("jordan_upper", "irreducible"):
        (0, "459dcc35ef000fa164d0e1a3134c865d26732ef6b6fa5058b8ee210b24aae880"),
    ("jordan_upper", "triangularize"):
        (0, "95285408166ed0bfe337ee2b7d04aa256e207738c01da6fbaf0607baf3cb3c53"),
}


def test_example_certificates_are_byte_stable(capsys, tmp_path):
    for (name, command), (code, want) in EXAMPLE_JSON_SHA256.items():
        path = tmp_path / f"{name}.json"
        if not path.exists():
            assert main(["example", name, "--emit"]) == 0
            path.write_text(capsys.readouterr().out)
        assert main([command, "--input", str(path), "--report", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (name, command)


# exit code and sha256 of `triangularize --report json` on the document of
# gen_solvable(n, seed): they pin the deflated flags beyond the built-in examples
SOLVABLE_TRIANGULARIZE_SHA256 = {
    (2, 0): (0, "95285408166ed0bfe337ee2b7d04aa256e207738c01da6fbaf0607baf3cb3c53"),
    (2, 1): (0, "95285408166ed0bfe337ee2b7d04aa256e207738c01da6fbaf0607baf3cb3c53"),
    (2, 2): (0, "10c0782be1a409cf20f357c3670a0b791272c776a94043b72b61bed6cabf7411"),
    (3, 0): (0, "a3504e39c98841dc763f37c4b220b3efbe461c0c96ead0aff82176af09b90111"),
    (3, 1): (0, "bdd490661a2cea0b84f5dcb4055f915ca0a54e6cf59f610db87ee29a542c4737"),
    (3, 2): (0, "50ae6fdb6d561c0c2509aad861f3566059e15e96d43176beae302b2db17520f8"),
    (4, 0): (0, "53021ae582b735dec2f96435d3c9294aaff6c694b5f78c06c9be11a3010bfe37"),
    (4, 1): (0, "59c0635d4a32267cc1f2ffa77b0c0d48345631e6a90de8feba4bc30f78c45bee"),
    (4, 2): (0, "3cc0485862af6c094a9b4295de36215528a3d1d96cb04fbea26b0e74fc9c3236"),
    (5, 0): (0, "39756166ec108106175e38f9d4db5131634ced35dac2668ea97ad0d38fd01cf5"),
    (5, 1): (0, "32201255366d1bb303d64be8afa2f1ead3692bd2581aeaa5ad5ac4a66227b7b7"),
    (5, 2): (0, "fe0bc3e576dfb5f19c6caaf4a28835c168c5b242f28eb25691f33d24761b9330"),
}


def test_solvable_flags_are_byte_stable(capsys, tmp_path):
    from gradelie.generators import gen_solvable

    for (n, seed), (code, want) in SOLVABLE_TRIANGULARIZE_SHA256.items():
        path = tmp_path / f"solvable-{n}-{seed}.json"
        path.write_text(dumps_document(document_from(gen_solvable(n, seed))))
        assert main(["triangularize", "--input", str(path), "--report", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (n, seed)


# exit code and sha256 of `triangularize --tol 0 --report json` on the same
# documents, computed before the exact check of the flag ran only once
SOLVABLE_TRIANGULARIZE_TOL0_SHA256 = {
    (2, 0): (0, "95285408166ed0bfe337ee2b7d04aa256e207738c01da6fbaf0607baf3cb3c53"),
    (2, 1): (0, "95285408166ed0bfe337ee2b7d04aa256e207738c01da6fbaf0607baf3cb3c53"),
    (2, 2): (0, "10c0782be1a409cf20f357c3670a0b791272c776a94043b72b61bed6cabf7411"),
    (3, 0): (0, "a3504e39c98841dc763f37c4b220b3efbe461c0c96ead0aff82176af09b90111"),
    (3, 1): (0, "bdd490661a2cea0b84f5dcb4055f915ca0a54e6cf59f610db87ee29a542c4737"),
    (3, 2): (0, "50ae6fdb6d561c0c2509aad861f3566059e15e96d43176beae302b2db17520f8"),
    (4, 0): (0, "c36073a8f34ec01063ce6f1ea69b195b00fd1deff2f71f517896e3a56d12a432"),
    (4, 1): (0, "eefb6e26d4f5d8c6cee332f1445647c43d96a4843dffd57ef0822a9e53950d03"),
    (4, 2): (0, "918a8058456d1b228ba2985510de320bcdcdc75c24202b70c534f068cf3334c2"),
    (5, 0): (0, "310fde6afce72eec4a53fc478c04381fd0e7a2e11b71077a49286ef78c0c55b7"),
    (5, 1): (0, "5cc63fe872a7de32d12b24c353a9bed93c54f1d798290115d665fe61f052d76d"),
    (5, 2): (0, "cc2cf886b75ca2cde2a57b1a4e1f51fbb8bc513c90b6165d1c9c68bee831a8e9"),
}


def test_exact_triangularize_is_byte_stable(capsys, tmp_path):
    from gradelie.generators import gen_solvable

    for (n, seed), (code, want) in SOLVABLE_TRIANGULARIZE_TOL0_SHA256.items():
        path = tmp_path / f"solvable-{n}-{seed}.json"
        path.write_text(dumps_document(document_from(gen_solvable(n, seed))))
        assert main(["triangularize", "--input", str(path), "--tol", "0", "--report", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (n, seed)


def test_exact_triangularize_checks_the_flag_once(capsys, tmp_path, monkeypatch):
    from gradelie import cli, spectral
    from gradelie.generators import gen_solvable

    exact_checks = []
    real = spectral.verify_flag

    def counted(mats, flag, tol=0.0):
        exact_checks.append(tol)
        return real(mats, flag, tol)

    monkeypatch.setattr(spectral, "verify_flag", counted)
    monkeypatch.setattr(cli, "verify_flag", counted)
    path = tmp_path / "solvable-5-0.json"
    path.write_text(dumps_document(document_from(gen_solvable(5, 0))))
    assert main(["triangularize", "--input", str(path), "--tol", "0", "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert exact_checks == [0.0]


# sha256 of `fuzz --lemma NAME --trials 30 --seed 3 --report json`: campaign
# reports are byte-stable, so any change to these outputs is a finding
FUZZ_JSON_SHA256 = {
    "cartan-equivalence": "3688d2d9df921ce94fe217dbd19ac5fe7cf6ca9268482fd4ae4448080f311f4d",
    "scalar-zero": "9e880b7d66d9bac1bd2e3c86e03690d0e2d3ec39bc0adec510df811c4fc643a9",
    "scalar-zero-engel": "1a38dc6f0e098e9e31d3df189e090a2a7832cd64d63411497fc67561714e50dc",
    "engel-components": "d557ae300fb20c1e717ce3abc6fbdda78bbf4f0273f429b49526fdb2b3c13740",
    "engel-commutators": "df5736bac8a971b299bed057d8482df949a15ccb88a04a57cf37ddadc15cf71a",
    "engel-pairings": "ca899baff936fa20c49acdb21450a3038a8784bc708a0597912afd1ff782daae",
    "odd-engel": "502e81aeb58a274bf7c9b838b18dd5e81b4c78aacd41601744a12b0d6940d799",
    "nilpotent-sum": "7c5efbe56e56c97138b75303f8058f4f1d19caa1f4e891065f52cc73da872eca",
    "engel-sum": "e17253daea145d893eda1d6cf9233169336103df887f77812d59ca337b46e628",
    "triple-volterra": "39bfa5c8ce3706a7191bfaff7d757eef0b75999cd85aa5d7c1cace27ce5c699e",
    "jordan-volterra": "1931ffd3d7b70f303ecd5ad98aa6ea92fbccae428567e3a51b05b401ba6e68e8",
    "jordan-chain": "254c0ac0599ae1fae33f9a651d490cc90c4cf5ef636adb331793772ed9c2a39b",
    "ampliation": "43ea18f3f4b892cb369edcbe3707cff97a048aa96d6d0c15653b73c623693dec",
    "three-product-search": "317f7811f1c036dd5e42273498a8e2ed5b358631ec1239371bdce0244457ba55",
    "nonabelian-zero": "4879aa50ac3e4235fb5999eee7cc4aa5521715e411ad46e3cf27a2512461e08f",
}


def test_fuzz_json_is_byte_stable(capsys):
    from gradelie.campaigns import CAMPAIGNS

    assert sorted(FUZZ_JSON_SHA256) == sorted(CAMPAIGNS)
    for name, want in FUZZ_JSON_SHA256.items():
        argv = ["fuzz", "--lemma", name, "--trials", "30", "--seed", "3", "--report", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, name


def test_ampliation_violation_is_a_replayable_counterexample(capsys, monkeypatch):
    from gradelie import grading

    # every ampliation solvable, no algebra in gl(2) or gl(3) solvable: the
    # transfer down then breaks on every trial
    series = grading._ampliation_series_vanishes

    def ampliation_solvable(graded, derived):
        return derived or series(graded, derived)

    monkeypatch.setattr(grading, "_ampliation_series_vanishes", ampliation_solvable)
    monkeypatch.setattr(grading, "is_solvable", lambda algebra: algebra.ambient_dim > 3)
    argv = ["fuzz", "--lemma", "ampliation", "--trials", "3", "--dim-max", "3", "--report", "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and len(report["failures"]) == 3
    for t, failure in enumerate(report["failures"]):
        assert failure["conclusions"] == {"direct": True, "transfer_ok": False}
        assert failure["counterexample"]["detail"] == {"trial": t}
        replayed = materialize(parse_document(failure["counterexample"]["instance"]))
        assert instance_digest(document_from(replayed)) == failure["instance"]



def test_failed_ampliation_is_a_counterexample(capsys, monkeypatch):
    from gradelie import grading

    kronecker = grading._kronecker_subgrading

    def nondirect_above_gl3(group, back_map, big_n):
        s = kronecker(group, back_map, big_n)
        object.__setattr__(s, "is_direct", s.is_direct and big_n <= 3)
        return s

    monkeypatch.setattr(grading, "_kronecker_subgrading", nondirect_above_gl3)
    argv = ["fuzz", "--lemma", "ampliation", "--trials", "2", "--dim-max", "3", "--report", "json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert [f["conclusions"] for f in report["failures"]] == [{"ampliation_verified": False}] * 2
    detail = report["failures"][0]["counterexample"]["detail"]
    assert detail == {"trial": 0, "error": "ampliation failed to be direct"}

BIG = str(10**400)
# entries beyond the double range: the float guesses are skipped, the verdicts stay exact
OVERFLOW_2X2 = {"ambient_dim": 2, "structure": "lie", "generators": [[["1", BIG], ["0", "2"]]]}
OVERFLOW_3X3 = {
    "ambient_dim": 3,
    "structure": "lie",
    "generators": [[["2", "1", "0"], ["0", BIG, "1"], ["1", "0", "3"]]],
}
# entries within the double range whose numeric eigenvalues overflow to infinity
OVERFLOW_EIGENVALUES = {
    "ambient_dim": 2,
    "structure": "lie",
    "generators": [[["1", "1" + "0" * 308], ["1" + "0" * 308, "15" + "0" * 307]]],
}


def _report(capsys, tmp_path, doc, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path), "--report", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


def test_entries_beyond_the_double_range_end_in_reports(capsys, tmp_path):
    code, report = _report(capsys, tmp_path, OVERFLOW_2X2, "triangularize")
    assert code == 0 and report["verified"] is True and report["chain_dims"] == [1]
    for doc in (OVERFLOW_3X3, OVERFLOW_EIGENVALUES):
        code, report = _report(capsys, tmp_path, doc, "triangularize")
        assert code == 1 and report["certificate"] is None
        assert report["error"] == "no eigenvalue of the splitting element rationalizes to Q(i)"
    for command in ("analyze", "irreducible"):
        code, report = _report(capsys, tmp_path, OVERFLOW_3X3, command)
        assert code == 1 and report["irreducible"] is False
        assert report["error"].startswith("witness search exhausted")


_ENTRY = st.sampled_from(["0", "1", "-1", "2", "1/2", "i", "-i", "1+i", "-3/2i"])


@st.composite
def small_documents(draw):
    n = draw(st.integers(1, 3))
    matrix = st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    mats = st.lists(matrix, min_size=1, max_size=2)
    structure = draw(st.sampled_from(["lie", "subgraded", "triple", "jordan"]))
    if structure != "subgraded":
        return {"ambient_dim": n, "structure": structure, "generators": draw(mats)}
    moduli = draw(st.sampled_from([[2], [3], [2, 2]]))
    degrees = [",".join(map(str, g)) for g in itertools.product(*(range(m) for m in moduli))]
    components = draw(st.dictionaries(st.sampled_from(degrees), mats, min_size=1, max_size=3))
    return {
        "ambient_dim": n,
        "structure": "subgraded",
        "group": {"moduli": moduli},
        "components": components,
    }


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2
            return 2
    assert "Traceback" not in err.getvalue()
    return code


@given(small_documents(), st.sampled_from(["json", "text"]))
@example(OVERFLOW_2X2, "json")
@example(OVERFLOW_3X3, "json")
@settings(max_examples=40, derandomize=True, deadline=None)
def test_documents_always_end_in_an_exit_code(doc, report):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("analyze", "grade-check", "triangularize", "irreducible"):
            code = _exit_code([command, "--input", path, "--report", report])
            assert code in (0, 1, 2), (command, code)


_COUNT = st.one_of(st.integers(-10**6, 3), st.sampled_from(["", "x", "1.5"]))


@given(st.sampled_from(["cartan", "ampliation", "three-product-search"]), _COUNT, _COUNT)
@settings(max_examples=30, derandomize=True, deadline=None)
def test_fuzz_parameters_always_end_in_an_exit_code(lemma, trials, dim_max):
    argv = ["fuzz", "--lemma", lemma, "--trials", str(trials), "--dim-max", str(dim_max)]
    assert _exit_code(argv) in (0, 1, 2)
