"""CLI dispatch, JSON envelopes, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import adelic_kummer
from adelic_kummer import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def data_path(name):
    return str(resources.files("adelic_kummer").joinpath("data", name))


def test_superelliptic_example(capsys):
    code, body = run_cli(
        ["--p", "3", "superelliptic", "--f", data_path("x_xm1sq.json")], capsys
    )
    assert code == 0
    assert body["outputs"] == {
        "vec": {"0": 1, "1": 2},
        "ram": ["0", "1"],
        "class": {"0": 1, "1": 2},
        "admissible": True,
    }
    assert body["command"] == "superelliptic"


def test_conjugate_vectors(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"x0": 1, "x1": 2}))
    b.write_text(json.dumps({"x0": 2, "x1": 1}))
    code, body = run_cli(
        ["--p", "3", "conjugate", "--a", str(a), "--b", str(b)], capsys
    )
    assert code == 0
    assert body["outputs"] == {"verdict": True, "b": 2}


def test_conjugate_bundled_vectors(capsys):
    code, body = run_cli(
        ["--p", "3", "conjugate", "--a", data_path("vec_12.json"), "--b", data_path("vec_21.json")],
        capsys,
    )
    assert code == 0 and body["outputs"]["verdict"] is True


def test_product_and_inline_json(capsys):
    code, body = run_cli(
        ["--p", "3", "product", "--a", '{"x0": 1}', "--b", '{"x0": 2, "x1": 1}'],
        capsys,
    )
    assert code == 0
    assert body["outputs"] == {"vector": {"x1": 1}}


def test_classify_and_tuple(capsys):
    argv = [
        "--p", "3",
        "classify",
        "--t", data_path("idele_z.json"),
        "--g", data_path("aut_standard.json"),
        "--s", "1",
    ]
    code, body = run_cli(argv, capsys)
    assert code == 0
    assert body["outputs"] == {"vector": {"0": 1, "1": 2}}
    code, body = run_cli(
        ["--p", "3", "tuple", "--t", data_path("idele_z.json"), "--g", data_path("aut_standard.json")],
        capsys,
    )
    assert code == 0
    assert body["outputs"] == {"tuple": {"0": 1, "1": 2}}


def test_equivalent_and_conjugation(capsys):
    argv_tail = [
        "--t", data_path("idele_z.json"),
        "--g1", data_path("aut_standard.json"),
        "--g2", data_path("aut_twisted.json"),
    ]
    code, body = run_cli(["--p", "3", "equivalent", *argv_tail], capsys)
    assert code == 0 and body["outputs"]["verdict"] is True
    code, body = run_cli(["--p", "3", "conjugation", *argv_tail, "--s", "1"], capsys)
    assert code == 0
    assert body["outputs"]["verified"] is True
    assert body["outputs"]["tau_power"] == 2


def test_isom(capsys):
    a = json.dumps({"default": "1", "points": {"0": "z^1*(1)"}})
    b = json.dumps({"default": "1", "points": {"0": "z^4*(3)"}})
    code, body = run_cli(["--p", "3", "isom", "--a", a, "--b", b], capsys)
    assert code == 0
    assert body["outputs"]["verdict"] is True
    assert body["outputs"]["profile_a"] == {"0": 3}


def test_pairing(capsys):
    code, body = run_cli(
        ["--p", "3", "pairing", "--a", "1", "--lam", "z^1*(1)", "--t", "z^1*(1 + 1*z)"],
        capsys,
    )
    assert code == 0
    assert body["outputs"]["log"] == 1
    assert body["outputs"]["oracle_agrees"] is True


def test_domain_error_exit_2(capsys):
    f = json.dumps({"constant": "L0:[1]", "factors": [{"root": "L0:[0]", "exp": 1}]})
    code, body = run_cli(["--p", "3", "superelliptic", "--f", f], capsys)
    assert code == 2
    assert body["error"]["code"] == "NotAdmissible"
    code, body = run_cli(
        ["--p", "3", "pairing", "--a", "1", "--lam", "z^1*(1)", "--t", "z^3*(1)"],
        capsys,
    )
    assert code == 2
    assert body["error"]["code"] == "UnramifiedPoint"


def test_malformed_input_exit_1(capsys):
    code, body = run_cli(["--p", "3", "conjugate", "--a", "{not json", "--b", "{}"], capsys)
    assert code == 1
    assert body["error"]["code"] == "MalformedInput"


@pytest.mark.parametrize(
    "argv",
    [
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "L1:[6,5]*z + 1*z^2", "--t", "1*z"],
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "L0:[1,2]*z", "--t", "1*z"],
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "z", "--t", '{"val": 1, "coeffs": ["L2:[1]"], "prec": 1}'],
        ["--ell", "7", "--p", "3", "superelliptic", "--f", '{"constant": "L0:[1]", "factors": [{"root": "L1:[0,1]", "exp": 3}]}'],
    ],
)
def test_literal_outside_the_tower_is_malformed(argv, capsys):
    code, body = run_cli(argv, capsys)
    assert code == 1
    assert body["error"]["code"] == "MalformedInput"


@pytest.mark.parametrize(
    "argv",
    [
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "L0:[-1]*z + 1*z^2", "--t", "1*z"],
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "L0:[5]*z", "--t", "1*z"],
        ["--ell", "5", "--p", "3", "pairing", "--a", "1", "--lam", "z", "--t", '{"val": 1, "coeffs": ["L0:[6]"], "prec": 1}'],
        ["--ell", "7", "--p", "3", "superelliptic", "--f", '{"constant": "L0:[1]", "factors": [{"root": "L0:[-6]", "exp": 3}]}'],
    ],
)
def test_literal_coordinate_outside_f_ell_is_malformed(argv, capsys):
    code, body = run_cli(argv, capsys)
    assert code == 1
    assert body["error"]["code"] == "MalformedInput"
    assert "outside [0," in body["error"]["message"]


def test_usage_error(capsys):
    assert cli.main(["--p", "3", "no-such-verb"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--prec", "0", "classify", "--t", data_path("idele_z.json"), "--g", data_path("aut_standard.json")],
        ["--prec", "-3", "pairing", "--a", "1", "--lam", "z^1*(1)", "--t", "z^1*(1 + 1*z)"],
    ],
)
def test_non_positive_prec_is_a_usage_error(argv, capsys):
    assert cli.main(["--p", "3", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "precision must be positive" in captured.err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_adelic_prec_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("ADELIC_PREC", value)
    assert cli.main(["--p", "3", "pairing", "--a", "1", "--lam", "z^1*(1)", "--t", "z^1*(1 + 1*z)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "precision must be positive" in captured.err
    # an explicit --prec still wins over the environment
    assert cli.main(["--p", "3", "--prec", "6", "product", "--a", '{"x0": 1}', "--b", "{}"]) == 0


def test_selftest(capsys):
    code, body = run_cli(["--p", "3", "selftest"], capsys)
    assert code == 0
    assert body["outputs"]["failed"] == 0
    names = {c["name"] for c in body["outputs"]["checks"]}
    assert "pairing_oracle" in names and "conjugacy_agreement" in names


def test_byte_identical_runs(capsys):
    argv = ["--p", "3", "superelliptic", "--f", data_path("x_xm1sq.json")]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(adelic_kummer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "adelic_kummer.cli", "--p", "3", "product",
         "--a", '{"x0": 1}', "--b", '{"x0": 1}'],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["outputs"]["vector"] == {"x0": 2}


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"x0": 1})))
    code, body = run_cli(["--p", "3", "product", "--a", "-", "--b", '{"x0": 1}'], capsys)
    assert code == 0
    assert body["outputs"]["vector"] == {"x0": 2}
