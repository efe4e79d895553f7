"""CLI dispatch, JSON envelopes, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import adelic_kummer
from adelic_kummer import cli
from adelic_kummer import laurent as ls


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


# p = 107 is prime to 2 - 1, so zeta would need a tower step of degree
# ord_107(2) = 106; the tuple, equivalence and conjugation need none.
# The stdout digests were recorded where these requests still built zeta.
P107_T = json.dumps({"default": "1", "points": {"a": "z^1*(1)", "b": "z^3*(1 + 1*z)"}})
P107_G1 = json.dumps({
    "default_sigma": list(range(2, 108)) + [1],
    "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 2}},
})
P107_G2 = json.dumps({
    "default_sigma": [(j + 1) % 107 + 1 for j in range(1, 108)],
    "exceptions": {"a": {"kind": "ram", "a": 3}, "b": {"kind": "ram", "a": 6}},
})


@pytest.mark.parametrize("argv,outputs,digest", [
    (
        ["tuple", "--t", P107_T, "--g", P107_G1],
        {"tuple": {"a": 1, "b": 72}},
        "fb4f3e0c5b20d0aa71a6a6b8b27a52c12f8a9a28a67a618d7bd57a4be9a752c2",
    ),
    (
        ["equivalent", "--t", P107_T, "--g1", P107_G1, "--g2", P107_G2],
        {"verdict": True},
        "c4245fc3f86a5ef5cbab7444b56a2dc261e36af8864c958c84699d2d8e780eee",
    ),
    (
        ["conjugation", "--t", P107_T, "--g1", P107_G1, "--g2", P107_G2, "--s", "1"],
        {"verdict": True, "verified": True, "tau_power": 36, "split_perms": {}},
        "9256a0a24ab252817a62673543611a15a14c1b14be3e553ce5fc6c3ab8fc49e2",
    ),
], ids=["tuple", "equivalent", "conjugation"])
def test_requests_past_the_zeta_degree_cliff(argv, outputs, digest, capsys):
    code = cli.main(["--ell", "2", "--p", "107", "--prec", "32", *argv])
    out = capsys.readouterr().out
    assert code == 0
    body = json.loads(out)
    assert {k: body["outputs"][k] for k in outputs} == outputs
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_pairing_reports_a_failed_oracle_as_false(capsys, monkeypatch):
    from adelic_kummer import local_algebra as la
    from adelic_kummer.coeff_field import FieldCtx

    # c = 2: y^3 = w^3 T^6 folds through t twice
    lam, t = "z^2*(5 + 1*z)", "z^1*(1 + 1*z)"
    argv = ["--p", "3", "pairing", "--a", "1", "--lam", lam, "--t", t]

    def mul_without_fold(self, other, t_x):
        return la.LocalPart(la._pol_mul(t_x.ctx, self.data, other.data)[: len(self.data)])

    with monkeypatch.context() as m:
        m.setattr(la.LocalPart, "mul", mul_without_fold)
        ctx = FieldCtx(7, 3)
        assert la.oracle_pair(1, ls.from_text(ctx, lam, 8), ls.from_text(ctx, t, 8), ctx) is None
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["outputs"]["oracle_agrees"] is False
        code, body = run_cli(["--ell", "7", "--p", "3", "--prec", "8", "selftest"], capsys)
        assert code == 2
        assert {c["name"]: c["ok"] for c in body["outputs"]["checks"]}["pairing_oracle"] is False

    closed_form = la.kummer_pair

    def off_by_one(a, lam_val, t_val, ctx):
        return ctx.mul(closed_form(a, lam_val, t_val, ctx), ctx.ensure_zeta())

    monkeypatch.setattr(la, "kummer_pair", off_by_one)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["outputs"]["oracle_agrees"] is False


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


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--a", "[1]", "--b", "{}"],
        ["product", "--a", "1", "--b", "{}"],
        ["classify", "--t", "[]", "--g", "{}"],
        ["classify", "--t", '{"default": "1", "points": []}',
         "--g", '{"default_sigma": [1, 2, 0], "exceptions": {}}'],
    ],
)
def test_json_of_the_wrong_shape_is_malformed(argv, capsys):
    code = cli.main(["--p", "3", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["code"] == "MalformedInput"
    assert captured.err == ""


# a 3-cycle on four letters has order 3, but does not act on 1..3
BAD_SIGMA = json.dumps(
    {
        "default_sigma": [2, 3, 1],
        "exceptions": {"a": {"kind": "ram", "a": 1}, "u": {"kind": "unram", "sigma": [2, 3, 1, 4]}},
    }
)
GOOD_G = json.dumps({"default_sigma": [2, 3, 1], "exceptions": {"a": {"kind": "ram", "a": 1}}})
RAMIFIED_T = json.dumps({"default": "1", "points": {"a": "z"}})


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--t", RAMIFIED_T, "--g", BAD_SIGMA],
        ["tuple", "--t", RAMIFIED_T, "--g", BAD_SIGMA],
        ["conjugation", "--t", RAMIFIED_T, "--g1", BAD_SIGMA, "--g2", GOOD_G],
    ],
)
def test_split_sigma_not_on_1_to_p_is_malformed(argv, capsys):
    code = cli.main(["--p", "3", *argv])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["code"] == "MalformedInput"
    assert "not a permutation of 1..3" in error["message"]
    assert captured.err == ""


RAM_G = {"default_sigma": [2, 3, 1], "exceptions": {"0": {"kind": "ram", "a": 1}, "1": {"kind": "ram", "a": 1}}}


def with_exception(label, aut):
    return json.dumps({"default_sigma": [2, 3, 1], "exceptions": dict(RAM_G["exceptions"], **{label: aut})})


def superelliptic_request(factors):
    f = {"constant": "1", "factors": [{"root": r, "exp": e} for r, e in factors]}
    return ["superelliptic", "--f", json.dumps(f)]


@pytest.mark.parametrize(
    "argv, message",
    [
        # read as 1.5 and answered with rc 0 before
        (["product", "--a", '{"a": 1.5}', "--b", '{"b": 1}'], "valuation at a must be an integer, got 1.5"),
        (["conjugate", "--a", '{"a": 1.5}', "--b", '{"a": 3.0}'], "valuation at a must be an integer"),
        (["conjugate", "--a", '{"a": true}', "--b", '{"a": 1}'], "valuation at a must be an integer, got True"),
        (["conjugate", "--a", '{"a": 1}', "--b", '{"x0": "1"}'], "valuation at x0 must be an integer"),
        # "generator order does not divide p" before
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("0", {"kind": "ram", "a": 1.5})],
         "ramified exponent 'a' must be an integer, got 1.5"),
        (["classify", "--t", "@idele_z.json", "--g", with_exception("0", {"kind": "ram", "a": False})],
         "ramified exponent 'a' must be an integer"),
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("u", {"kind": "unram", "sigma": [3.0, 1.0, 2.0]})],
         "'sigma' must list integers"),
        # read as [2, 3, 1] with rc 0 before
        (["tuple", "--t", "@idele_z.json", "--g", '{"default_sigma": [2, 3, true]}'],
         "'default_sigma' must list integers, got [2, 3, True]"),
        # "tuple indices must be integers" before
        (["tuple", "--t", "@idele_z.json", "--g", '{"default_sigma": [2.0, 3.0, 1.0]}'],
         "'default_sigma' must list integers"),
        # an AttributeError text before
        (["classify", "--t", "@idele_z.json", "--g", '{"default_sigma": [2, 3, 1], "exceptions": [1]}'],
         "'exceptions' must be an object, got [1]"),
        # read as 1 with rc 0 before
        (superelliptic_request([("0", True), ("1", 2)]), "factor 'exp' must be a nonzero integer, got True"),
        # Python's TypeError text before
        (superelliptic_request([("0", 1.0), ("1", 2)]), "factor 'exp' must be a nonzero integer, got 1.0"),
        # the last exponent kept, "exponent sum 2" with rc 2 before
        (superelliptic_request([("0", 1), ("0", 2)]), "repeated root L0:[0]"),
        (superelliptic_request([("0", 1), ("7", 2)]), "repeated root L0:[0]"),
    ],
)
def test_a_non_integer_in_json_is_malformed(argv, message, capsys):
    argv = [data_path(a[1:]) if a.startswith("@") else a for a in argv]
    code = cli.main(["--p", "3", *argv])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["code"] == "MalformedInput"
    assert message in error["message"]
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        # Python's TypeError, KeyError or AttributeError texts before, naming no field
        (["tuple", "--t", "@idele_z.json", "--g", '{"default_sigma": 5}'], "'default_sigma' must be a list, got 5"),
        (["tuple", "--t", "@idele_z.json", "--g", '{"exceptions": {}}'], "'default_sigma' must be a list, got None"),
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("0", 1)], "exception at 0 must be an object, got 1"),
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("0", {"kind": "ram"})],
         "ramified exponent 'a' must be an integer, got None"),
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("u", {"kind": "unram"})], "'sigma' must be a list, got None"),
        (["tuple", "--t", "@idele_z.json", "--g", '[1]'], "automorphism must be an object, got [1]"),
        # read as an unram automorphism before
        (["tuple", "--t", "@idele_z.json", "--g", with_exception("u", {"kind": "split", "sigma": [3, 1, 2]})],
         "automorphism 'kind' must be \"ram\" or \"unram\", got 'split'"),
        (["tuple", "--t", "[1]", "--g", json.dumps(RAM_G)], "idele must be an object, got [1]"),
        (["isom", "--a", '{"points": ["z"]}', "--b", "@idele_z.json"], "'points' must be an object, got ['z']"),
        (["isom", "--a", '{"points": {"0": 1}}', "--b", "@idele_z.json"], "component at 0 must be a string, got 1"),
        (["isom", "--a", '{"default": 1}', "--b", "@idele_z.json"], "'default' must be a string, got 1"),
        (["product", "--a", "[1]", "--b", "{}"], "valuation vector must be an object, got [1]"),
        (["conjugate", "--a", "{}", "--b", "5"], "valuation vector must be an object, got 5"),
        (["superelliptic", "--f", '{"constant": "1", "factors": [1]}'], "a factor must be an object, got 1"),
        (["superelliptic", "--f", '{"constant": "1", "factors": {"0": 1}}'], "'factors' must be a list, got {'0': 1}"),
        (["superelliptic", "--f", '{"constant": "1", "factors": [{"exp": 1}]}'], "factor 'root' must be a string, got None"),
        (["superelliptic", "--f", '{"constant": "1", "factors": [{"root": "0"}]}'],
         "factor 'exp' must be a nonzero integer, got None"),
        (["superelliptic", "--f", '{"constant": 1, "factors": []}'], "'constant' must be a string, got 1"),
        (["superelliptic", "--f", "[1]"], "rational function must be an object, got [1]"),
        (["pairing", "--a", "1", "--lam", '{"val": 1}', "--t", "z"], "'coeffs' must be a list, got None"),
        (["pairing", "--a", "1", "--lam", '{"val": 1, "coeffs": [1], "prec": 1}', "--t", "z"],
         "series coefficient must be a string, got 1"),
        (["pairing", "--a", "1", "--lam", '{"val": 1.0, "coeffs": ["1"], "prec": 1}', "--t", "z"],
         "series 'val' must be an integer, got 1.0"),
    ],
)
def test_a_json_value_of_the_wrong_type_names_its_field(argv, message, capsys):
    argv = [data_path(a[1:]) if a.startswith("@") else a for a in argv]
    code, body = run_cli(["--p", "3", *argv], capsys)
    assert code == 1
    assert body["error"] == {"code": "MalformedInput", "message": f"ValueError: {message}"}


def superelliptic_argv(constant, roots):
    f = {"constant": constant, "factors": [{"root": r, "exp": e} for r, e in zip(roots, (1, 2))]}
    return ["--ell", "7", "--p", "3", "--prec", "8", "superelliptic", "--f", json.dumps(f)]


def test_bare_integers_are_field_elements_in_superelliptic_input(capsys):
    code, literal = run_cli(superelliptic_argv("L0:[1]", ["L0:[0]", "L0:[1]"]), capsys)
    assert code == 0
    assert run_cli(superelliptic_argv("1", ["L0:[0]", "L0:[1]"]), capsys) == (0, literal)
    assert run_cli(superelliptic_argv("8", ["0", "1"]), capsys) == (0, literal)
    assert run_cli(superelliptic_argv("-6", ["7", "1"]), capsys) == (0, literal)  # read mod 7


@pytest.mark.parametrize(
    "argv",
    [
        superelliptic_argv("x", ["L0:[0]", "L0:[1]"]),
        superelliptic_argv("L0:[1]", ["1.0", "L0:[1]"]),
        ["--p", "3", "pairing", "--a", "1", "--lam", "x*z", "--t", "z"],
        ["--p", "3", "pairing", "--a", "1", "--lam", "z", "--t", "1*z + y"],
    ],
)
def test_any_other_field_token_is_a_bad_literal(argv, capsys):
    code, body = run_cli(argv, capsys)
    assert code == 1
    assert body["error"]["code"] == "MalformedInput"
    assert "bad field element literal" in body["error"]["message"]


def test_conjugation_of_inequivalent_subgroups_exits_2(capsys):
    # tuples (1, 2) and (1, 1): no unit scales one to the other
    g2 = with_exception("1", {"kind": "ram", "a": 2})
    argv = ["--p", "3", "conjugation", "--t", data_path("idele_z.json"), "--g1", json.dumps(RAM_G), "--g2", g2]
    code, body = run_cli(argv, capsys)
    assert code == 2
    assert body["error"] == {"code": "NotEquivalent", "message": "subgroups differ on the ramified projection"}
    code, body = run_cli(["--p", "3", "equivalent", *argv[3:]], capsys)
    assert (code, body["outputs"]) == (0, {"verdict": False})


def test_usage_error(capsys):
    assert cli.main(["--p", "3", "no-such-verb"]) == 1


@pytest.mark.parametrize("n", ["0", "-1"])
def test_non_positive_rank_is_a_usage_error(n, capsys):
    idele = data_path("idele_z.json")
    assert cli.main(["--p", "3", "isom", "--a", idele, "--b", idele, "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"rank must be positive, got {n}" in captured.err


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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_adelic_prec_is_read_on_every_call(monkeypatch, capsys):
    argv = ["--p", "3", "product", "--a", '{"x0": 1}', "--b", "{}"]
    for value, prec in [("9", 9), ("11", 11), (None, ls.DEFAULT_PREC)]:
        if value is None:
            monkeypatch.delenv("ADELIC_PREC", raising=False)
        else:
            monkeypatch.setenv("ADELIC_PREC", value)
        code, body = run_cli(argv, capsys)
        assert code == 0 and body["inputs"]["prec"] == prec
    monkeypatch.setenv("ADELIC_PREC", "0")
    assert cli.main(argv) == 1
    assert "precision must be positive" in capsys.readouterr().err


def test_no_option_leaks_into_the_next_request(capsys):
    f = json.dumps({"constant": "L0:[1]", "factors": [{"root": "L0:[0]", "exp": 1}]})
    code, body = run_cli(["--p", "3", "superelliptic", "--f", f, "--lenient"], capsys)
    assert code == 0 and body["outputs"]["admissible"] is False
    code, body = run_cli(["--p", "3", "superelliptic", "--f", f], capsys)
    assert code == 2 and body["error"]["code"] == "NotAdmissible"

    classify = ["--p", "3", "classify", "--t", data_path("idele_z.json"),
                "--g", data_path("aut_standard.json")]
    code, body = run_cli([*classify, "--s", "2"], capsys)
    assert code == 0 and body["outputs"] == {"vector": {"0": 2, "1": 1}}
    code, body = run_cli(classify, capsys)  # s = 1
    assert code == 0 and body["outputs"] == {"vector": {"0": 1, "1": 2}}


def test_selftest(capsys):
    code, body = run_cli(["--p", "3", "selftest"], capsys)
    assert code == 0
    assert body["outputs"]["failed"] == 0
    names = {c["name"] for c in body["outputs"]["checks"]}
    assert "pairing_oracle" in names and "conjugacy_agreement" in names


def test_selftest_reports_a_failed_conjugation_check(capsys, monkeypatch):
    from adelic_kummer import global_galois as gg

    monkeypatch.setattr(gg, "verify_conjugation", lambda phi, G1, G2: False)
    code, body = run_cli(["--p", "3", "selftest"], capsys)
    assert code == 2
    assert {c["name"]: c["ok"] for c in body["outputs"]["checks"]}["conjugacy_agreement"] is False


def test_a_germ_route_that_drops_a_factor_exits_2(capsys, monkeypatch):
    from adelic_kummer import p1_ingest as p1

    germ_idele = p1.germ_idele

    def without_first_factor(f, prec):
        rest = dict(list(f.factors.items())[1:])
        return germ_idele(p1.RationalFunction(f.ctx, f.constant, rest), prec)

    monkeypatch.setattr(p1, "germ_idele", without_first_factor)
    code, body = run_cli(["--p", "3", "superelliptic", "--f", data_path("x_xm1sq.json")], capsys)
    assert code == 2
    assert body["error"]["code"] == "CheckFailed"
    assert body["error"]["message"] == "divisor route and germ route disagree"


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
