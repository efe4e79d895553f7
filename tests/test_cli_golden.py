"""Golden CLI outputs: exit code and ``outputs`` member for fixed requests.

The expected values were recorded from the CLI before the two models of a
local-algebra element were merged into one, and pin that the merge changed
no output.  The ``superelliptic_p*`` requests and ``conjugation_p5_unram``
were recorded later, before products with a monomial or trimmed operand
and the binomial germs went in, and pin that those changed no output.
The ``pairing_*`` requests, each with a class that is not a unit times a
p-th power (c != 0), were recorded before the pairing oracle was rebuilt
on ``LocalPart`` and pin that the rebuild changed no output.  The
``conjugate_trivial_*``, ``equivalent_p5_false`` and ``tuple_p5`` requests
were recorded before the ramified tuple became a valuation vector and
conjugacy and Galois equivalence came to share one scalar search, and pin
that this changed no output.  ``conjugation_split_equals_default``, whose
split permutation equals the default one, and ``selftest_p7`` were
recorded before a conjugation came to be verified on its description
instead of on random samples, and pin that this changed no output.
``classify_p5``, ``product_p5`` and ``conjugate_p5`` were recorded before
an extension class became a bare valuation vector, and pin that this
changed no output.  ``classify_redundant_exceptions``, whose idele lists a
unit component and whose generator lists a split permutation equal to its
default, and ``isom_n6`` were recorded before ideles, global automorphisms
and algebra elements came to share one finite-support form, and pin that
the shared pruning changed no output.  ``classify_ell2_p5``, at a
context where p does not divide ell - 1, was recorded before the
eigenvector check came to be decided on the primitive element's
description, and pins that this changed no output.  Only
``outputs`` is compared, so the rest of the envelope may grow.  Paths
written ``@name`` are bundled ``data/`` files.
"""

import argparse
import json
from importlib import resources

import pytest

from adelic_kummer import cli

DATA = str(resources.files("adelic_kummer").joinpath("data"))


def conj(ell, p, points, g1, g2, s=1):
    t = {"default": "1", "points": points}
    return ["--ell", str(ell), "--p", str(p), "--prec", "8", "conjugation", "--t", json.dumps(t),
            "--g1", json.dumps(g1), "--g2", json.dumps(g2), "--s", str(s)]


def superelliptic(ell, p, constant, factors, *flags):
    f = {"constant": constant, "factors": [{"root": r, "exp": e} for r, e in factors]}
    return ["--ell", str(ell), "--p", str(p), "--prec", "8", "superelliptic", "--f", json.dumps(f), *flags]


# an idele over four points at p = 5, three of them ramified, and two
# subgroups whose ramified tuples (1, 4, 2) and (2, 3, 3) are not proportional
T_P5 = {"default": "1", "points": {"a": "z^1*(3 + 1*z)", "b": "z^2*(1 + 5*z^3)", "c": "z^-3*(2 + 1*z)", "d": "z^5*(4)"}}
G1_P5 = {"default_sigma": [2, 3, 4, 5, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 3}, "c": {"kind": "ram", "a": 4}}}
G2_P5 = {"default_sigma": [3, 4, 5, 1, 2], "exceptions": {"a": {"kind": "ram", "a": 2}, "b": {"kind": "ram", "a": 1}, "c": {"kind": "ram", "a": 1}, "d": {"kind": "unram", "sigma": [5, 1, 2, 3, 4]}}}

T_REDUNDANT = {"default": "1", "points": {"x0": "z^1*(1)", "x1": "z^2*(3 + 1*z)", "x2": "1", "x3": "z^3*(2)"}}
G_REDUNDANT = {"default_sigma": [2, 3, 1], "exceptions": {"x0": {"kind": "ram", "a": 1}, "x1": {"kind": "ram", "a": 2},
    "x2": {"kind": "unram", "sigma": [2, 3, 1]}, "x3": {"kind": "unram", "sigma": [3, 1, 2]}}}

T_ELL2_P5 = {"default": "1", "points": {"a": "z^1*(1 + 1*z)", "b": "z^5*(1 + 1*z^2)", "c": "z^-2*(1)"}}
G_ELL2_P5 = {"default_sigma": [2, 3, 4, 5, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "c": {"kind": "ram", "a": 3},
    "b": {"kind": "unram", "sigma": [3, 4, 5, 1, 2]}}}

REQUESTS = {
    "classify_standard": ["--p", "3", "--prec", "8", "classify", "--t", "@idele_z.json", "--g", "@aut_standard.json", "--s", "1"],
    "classify_twisted": ["--p", "3", "--prec", "8", "classify", "--t", "@idele_z.json", "--g", "@aut_twisted.json", "--s", "2"],
    "tuple_standard": ["--p", "3", "--prec", "8", "tuple", "--t", "@idele_z.json", "--g", "@aut_standard.json"],
    "tuple_twisted": ["--p", "3", "--prec", "8", "tuple", "--t", "@idele_z.json", "--g", "@aut_twisted.json"],
    "equivalent": ["--p", "3", "--prec", "8", "equivalent", "--t", "@idele_z.json", "--g1", "@aut_standard.json", "--g2", "@aut_twisted.json"],
    "conjugation": ["--p", "3", "--prec", "8", "conjugation", "--t", "@idele_z.json", "--g1", "@aut_standard.json", "--g2", "@aut_twisted.json", "--s", "1"],
    "conjugate": ["--p", "3", "conjugate", "--a", "@vec_12.json", "--b", "@vec_21.json"],
    "product": ["--p", "3", "product", "--a", "@vec_12.json", "--b", "@vec_21.json"],
    "superelliptic_x_xm1sq": ["--p", "3", "--prec", "8", "superelliptic", "--f", "@x_xm1sq.json"],
    "superelliptic_cubic_shifted": ["--p", "3", "--prec", "8", "superelliptic", "--f", "@cubic_shifted.json"],
    "isom": ["--p", "3", "--prec", "8", "isom", "--a", "@idele_z.json", "--b", "@idele_z.json"],
    "pairing": ["--p", "3", "--prec", "8", "pairing", "--a", "2", "--lam", "z^2*(3 + 1*z)", "--t", "z^1*(1 + 4*z^2)"],
    "pairing_p2": ["--ell", "7", "--p", "2", "--prec", "8", "pairing", "--a", "1", "--lam", "z^3*(5 + 2*z + 1*z^3)", "--t", "z^-1*(3 + 1*z)"],
    "pairing_p5": ["--ell", "11", "--p", "5", "--prec", "8", "pairing", "--a", "2", "--lam", "z^3*(4 + 1*z + 7*z^2)", "--t", "z^2*(6 + 3*z)"],
    # zeta at level 1
    "pairing_ell3_p5": ["--ell", "3", "--p", "5", "--prec", "8", "pairing", "--a", "3", "--lam", "z^-2*(2 + 1*z)", "--t", "z^1*(1 + 2*z^2)"],
    "conjugation_p2": conj(7, 2, {"a": "z^1*(1 + 2*z)", "b": "z^-3*(3 + 1*z^2)", "c": "z^2*(5 + 1*z)"},
        {"default_sigma": [2, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 1}, "u": {"kind": "unram", "sigma": [2, 1]}}},
        {"default_sigma": [2, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 1}}}),
    "conjugation_p3": conj(7, 3, {"a": "z^1*(2 + 1*z)", "b": "z^2*(1 + 3*z)", "c": "z^3*(4)"},
        {"default_sigma": [2, 3, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 2}, "u": {"kind": "unram", "sigma": [3, 1, 2]}}},
        {"default_sigma": [3, 1, 2], "exceptions": {"a": {"kind": "ram", "a": 2}, "b": {"kind": "ram", "a": 1}}}, s=2),
    "conjugation_p5": conj(11, 5, {"a": "z^1*(3 + 1*z)", "b": "z^-2*(1 + 5*z^3)", "c": "z^5*(2)"},
        {"default_sigma": [2, 3, 4, 5, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "b": {"kind": "ram", "a": 3}}},
        {"default_sigma": [3, 4, 5, 1, 2], "exceptions": {"a": {"kind": "ram", "a": 2}, "b": {"kind": "ram", "a": 1}, "c": {"kind": "unram", "sigma": [5, 1, 2, 3, 4]}}}, s=3),
    "conjugation_p5_unram": conj(11, 5, {"a": "z^2*(4 + 1*z + 3*z^2)", "b": "z^-1*(7 + 2*z)", "d": "z^5*(1 + 1*z)"},
        {"default_sigma": [3, 4, 5, 1, 2], "exceptions": {"a": {"kind": "ram", "a": 2}, "b": {"kind": "ram", "a": 4}, "u": {"kind": "unram", "sigma": [2, 3, 4, 5, 1]}}},
        {"default_sigma": [2, 3, 4, 5, 1], "exceptions": {"a": {"kind": "ram", "a": 4}, "b": {"kind": "ram", "a": 3}, "d": {"kind": "unram", "sigma": [4, 5, 1, 2, 3]}}}, s=2),
    "superelliptic_p2": superelliptic(7, 2, "L0:[3]", [("L0:[0]", 1), ("L0:[2]", 1), ("L0:[4]", 1), ("L0:[6]", 1)]),
    # exponent gcd 2 and a root at 0
    "superelliptic_p5_gcd2": superelliptic(11, 5, "L0:[6]", [("L0:[0]", 2), ("L0:[3]", 2), ("L0:[7]", 2), ("L0:[9]", 4)]),
    # a negative exponent and a ramified infinity
    "superelliptic_p5_lenient": superelliptic(11, 5, "L0:[2]", [("L0:[1]", 3), ("L0:[4]", -1), ("L0:[5]", 4)], "--lenient"),
    "conjugate_trivial_trivial": ["--p", "3", "conjugate", "--a", "{}", "--b", "{}"],
    "conjugate_trivial_nontrivial": ["--p", "3", "conjugate", "--a", "{}", "--b", '{"x0": 1}'],
    "equivalent_p5_false": ["--ell", "11", "--p", "5", "--prec", "8", "equivalent", "--t", json.dumps(T_P5),
        "--g1", json.dumps(G1_P5), "--g2", json.dumps(G2_P5)],
    "tuple_p5": ["--ell", "11", "--p", "5", "--prec", "8", "tuple", "--t", json.dumps(T_P5), "--g", json.dumps(G1_P5)],
    "classify_p5": ["--ell", "11", "--p", "5", "--prec", "8", "classify", "--t", json.dumps(T_P5), "--g", json.dumps(G1_P5), "--s", "2"],
    "product_p5": ["--ell", "11", "--p", "5", "product", "--a", '{"a": 1, "b": 3, "x": 4}', "--b", '{"a": 4, "b": 3, "y": 2}'],
    # the first vector is 3 times the second
    "conjugate_p5": ["--ell", "11", "--p", "5", "conjugate", "--a", '{"a": 3, "b": 1, "c": 2}', "--b", '{"a": 1, "b": 2, "c": 4}'],
    # split_perms lists u with the default permutation
    "conjugation_split_equals_default": conj(7, 3, {"a": "z^1*(1 + 1*z)"},
        {"default_sigma": [2, 3, 1], "exceptions": {"a": {"kind": "ram", "a": 1}, "u": {"kind": "unram", "sigma": [3, 1, 2]}}},
        {"default_sigma": [3, 1, 2], "exceptions": {"a": {"kind": "ram", "a": 1}, "u": {"kind": "unram", "sigma": [2, 3, 1]}}}),
    # x2 is a unit component of t and an unram entry equal to the default
    "classify_redundant_exceptions": ["--p", "3", "--prec", "8", "classify", "--t", json.dumps(T_REDUNDANT), "--g", json.dumps(G_REDUNDANT), "--s", "1"],
    # zeta would sit at level 1; a ramified, a split and a default point
    "classify_ell2_p5": ["--ell", "2", "--p", "5", "--prec", "8", "classify", "--t", json.dumps(T_ELL2_P5), "--g", json.dumps(G_ELL2_P5), "--s", "2"],
    "isom_n6": ["--p", "3", "--prec", "8", "isom", "--n", "6",
        "--a", json.dumps({"default": "1", "points": {"x0": "z^2*(1)", "x1": "z^3*(2 + 1*z)", "x2": "1"}}),
        "--b", json.dumps({"default": "1", "points": {"x0": "z^4*(3)", "x1": "z^1*(1)"}})],
    "selftest_p2": ["--ell", "7", "--p", "2", "--prec", "8", "selftest"],
    "selftest_p3": ["--ell", "7", "--p", "3", "--prec", "8", "selftest"],
    "selftest_p5": ["--ell", "11", "--p", "5", "--prec", "8", "selftest"],
    "selftest_p7": ["--ell", "29", "--p", "7", "--prec", "8", "selftest"],
}

EXPECTED = json.loads(
    """{
 "classify_standard": {"outputs": {"vector": {"0": 1, "1": 2}}, "rc": 0},
 "classify_twisted": {"outputs": {"vector": {"0": 1, "1": 2}}, "rc": 0},
 "classify_redundant_exceptions": {"outputs": {"vector": {"x0": 1, "x1": 1}}, "rc": 0},
 "classify_p5": {"outputs": {"vector": {"a": 2, "b": 3, "c": 1}}, "rc": 0},
 "classify_ell2_p5": {"outputs": {"vector": {"a": 2, "c": 2}}, "rc": 0},
 "conjugate_p5": {"outputs": {"b": 3, "verdict": true}, "rc": 0},
 "conjugate": {"outputs": {"b": 2, "verdict": true}, "rc": 0},
 "conjugate_trivial_nontrivial": {"outputs": {"b": null, "verdict": false}, "rc": 0},
 "conjugate_trivial_trivial": {"outputs": {"b": 1, "verdict": true}, "rc": 0},
 "conjugation": {"outputs": {"default_perm": [1, 2, 3], "split_perms": {}, "tau_power": 2, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "conjugation_p2": {"outputs": {"default_perm": [1, 2], "split_perms": {}, "tau_power": 1, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "conjugation_p3": {"outputs": {"default_perm": [1, 2, 3], "split_perms": {"u": [1, 3, 2]}, "tau_power": 2, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "conjugation_p5": {"outputs": {"default_perm": [1, 2, 3, 4, 5], "split_perms": {"c": [1, 4, 2, 5, 3]}, "tau_power": 3, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "conjugation_split_equals_default": {"outputs": {"default_perm": [1, 3, 2], "split_perms": {"u": [1, 3, 2]}, "tau_power": 1, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "conjugation_p5_unram": {"outputs": {"default_perm": [1, 5, 4, 3, 2], "split_perms": {"d": [1, 4, 2, 5, 3], "u": [1, 3, 5, 2, 4]}, "tau_power": 3, "u": {"default": "1", "points": {}}, "verdict": true, "verified": true}, "rc": 0},
 "equivalent": {"outputs": {"verdict": true}, "rc": 0},
 "equivalent_p5_false": {"outputs": {"verdict": false}, "rc": 0},
 "isom_n6": {"outputs": {"profile_a": {"x0": 3, "x1": 2}, "profile_b": {"x0": 3, "x1": 6}, "verdict": false}, "rc": 0},
 "isom": {"outputs": {"profile_a": {"0": 3, "1": 3}, "profile_b": {"0": 3, "1": 3}, "verdict": true}, "rc": 0},
 "pairing": {"outputs": {"log": 1, "oracle_agrees": true, "pair": "L0:[2]"}, "rc": 0},
 "pairing_ell3_p5": {"outputs": {"log": 4, "oracle_agrees": true, "pair": "L1:[1,1,1,0]"}, "rc": 0},
 "pairing_p2": {"outputs": {"log": 1, "oracle_agrees": true, "pair": "L0:[6]"}, "rc": 0},
 "pairing_p5": {"outputs": {"log": 3, "oracle_agrees": true, "pair": "L0:[5]"}, "rc": 0},
 "product": {"outputs": {"vector": {}}, "rc": 0},
 "product_p5": {"outputs": {"vector": {"b": 1, "x": 4, "y": 2}}, "rc": 0},
 "selftest_p2": {"outputs": {"checks": [{"name": "zeta_order", "ok": true}, {"name": "tower_roots", "ok": true}, {"name": "hensel_roots", "ok": true}, {"name": "pairing_oracle", "ok": true}, {"name": "conjugacy_agreement", "ok": true}, {"name": "stratification_count", "ok": true}], "failed": 0, "passed": 6}, "rc": 0},
 "selftest_p3": {"outputs": {"checks": [{"name": "zeta_order", "ok": true}, {"name": "tower_roots", "ok": true}, {"name": "hensel_roots", "ok": true}, {"name": "pairing_oracle", "ok": true}, {"name": "conjugacy_agreement", "ok": true}, {"name": "stratification_count", "ok": true}, {"name": "superelliptic_example", "ok": true}], "failed": 0, "passed": 7}, "rc": 0},
 "selftest_p5": {"outputs": {"checks": [{"name": "zeta_order", "ok": true}, {"name": "tower_roots", "ok": true}, {"name": "hensel_roots", "ok": true}, {"name": "pairing_oracle", "ok": true}, {"name": "conjugacy_agreement", "ok": true}, {"name": "stratification_count", "ok": true}], "failed": 0, "passed": 6}, "rc": 0},
 "selftest_p7": {"outputs": {"checks": [{"name": "zeta_order", "ok": true}, {"name": "tower_roots", "ok": true}, {"name": "hensel_roots", "ok": true}, {"name": "pairing_oracle", "ok": true}, {"name": "conjugacy_agreement", "ok": true}, {"name": "stratification_count", "ok": true}], "failed": 0, "passed": 6}, "rc": 0},
 "superelliptic_cubic_shifted": {"outputs": {"admissible": true, "class": {"2": 1, "3": 1, "4": 1}, "ram": ["2", "3", "4"], "vec": {"2": 1, "3": 1, "4": 1}}, "rc": 0},
 "superelliptic_p2": {"outputs": {"admissible": true, "class": {"0": 1, "2": 1, "4": 1, "6": 1}, "ram": ["0", "2", "4", "6"], "vec": {"0": 1, "2": 1, "4": 1, "6": 1}}, "rc": 0},
 "superelliptic_p5_gcd2": {"outputs": {"admissible": true, "class": {"0": 1, "3": 1, "7": 1, "9": 2}, "ram": ["0", "3", "7", "9"], "vec": {"0": 2, "3": 2, "7": 2, "9": 4}}, "rc": 0},
 "superelliptic_p5_lenient": {"outputs": {"admissible": false, "class": {"1": 1, "4": 3, "5": 3, "\u221e": 3}, "ram": ["1", "4", "5", "\u221e"], "vec": {"1": 3, "4": 4, "5": 4, "\u221e": 4}}, "rc": 0},
 "superelliptic_x_xm1sq": {"outputs": {"admissible": true, "class": {"0": 1, "1": 2}, "ram": ["0", "1"], "vec": {"0": 1, "1": 2}}, "rc": 0},
 "tuple_standard": {"outputs": {"tuple": {"0": 1, "1": 2}}, "rc": 0},
 "tuple_p5": {"outputs": {"tuple": {"a": 1, "b": 4, "c": 2}}, "rc": 0},
 "tuple_twisted": {"outputs": {"tuple": {"0": 2, "1": 1}}, "rc": 0}
}"""
)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_outputs(name, capsys):
    argv = [f"{DATA}/{a[1:]}" if a.startswith("@") else a for a in REQUESTS[name]]
    rc = cli.main(argv)
    body = json.loads(capsys.readouterr().out)
    assert rc == EXPECTED[name]["rc"]
    assert body["outputs"] == EXPECTED[name]["outputs"]


def subcommands():
    """The subcommand names that the CLI parser accepts."""
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_every_subcommand_is_pinned():
    commands = subcommands()
    pinned = {a for argv in REQUESTS.values() for a in argv if a in commands}
    assert pinned == set(commands)


def test_one_process_forward_then_reverse(capsys):
    # every request through the same parser, in both orders: no parse leaks state
    names = sorted(REQUESTS)
    for name in names + names[::-1]:
        argv = [f"{DATA}/{a[1:]}" if a.startswith("@") else a for a in REQUESTS[name]]
        rc = cli.main(argv)
        body = json.loads(capsys.readouterr().out)
        assert (rc, body["outputs"]) == (EXPECTED[name]["rc"], EXPECTED[name]["outputs"]), name
