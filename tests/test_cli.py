"""CLI tests: golden JSON documents, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twobridge import cli, orders
from twobridge.alexander import lspace_form, lspace_surgery_verdict
from twobridge.certify import CertificateReport, Counterexample, SampleBudget
from twobridge.cfrac import knot_params
from twobridge.errors import InternalCheckFailed
from twobridge.groups import W, g1_normal_form, g2_normal_form, presentations
from twobridge.numberfield import FieldElement
from twobridge.orders import g1_realization

GOLDEN_KNOT_INFO_3_4 = {
    "schema_version": 1,
    "command": "knot-info",
    "c1": 3,
    "c2": 4,
    "b1": 1,
    "b2": 2,
    "p": 11,
    "q": 4,
    "slope": 8,
    "mirrored": False,
    "fibered": True,
    "genus": 2,
    "lens": [11, 4],
    "even_expansion": [2, -2, -2, -2],
    "alexander": {
        "coefficients": [[-2, 1], [-1, -3], [0, 3], [1, -3], [2, 1]],
        "determinant": 11,
        "value_at_1": -1,
        "span": 4,
        "monic": True,
    },
    "lspace": {
        "admits": False,
        "reason": "DeterminantExceedsGenusBound",
        "determinant": 11,
        "genus": 2,
        "bound": 5,
    },
}

GOLDEN_PRESENTATION_3_4 = {
    "schema_version": 1,
    "command": "presentation",
    "c1": 3,
    "c2": 4,
    "g1": {"generators": ["a", "b"], "relators": ["a^2 b^-3"]},
    "g2": {"generators": ["x", "y", "z"],
           "relators": ["x^-1 y x y", "y z^-2"]},
    "amalgam": {"generators": ["x", "y", "z", "a", "b"],
                "relators": ["x^-1 y x y", "y z^-2", "a^2 b^-3",
                             "b^-1 a y^-1", "a^2 x^-2 z^-1"]},
    "gluing": {"mu": "b^-1 a", "h": "a^2", "mu_image": "y",
               "h_image": "z x^2"},
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_knot_info_golden(capsys):
    code, doc = run_cli(capsys, ["knot-info", "--c1", "3", "--c2", "4"])
    assert code == 0
    assert doc == GOLDEN_KNOT_INFO_3_4


def test_knot_info_mirrored(capsys):
    code, doc = run_cli(capsys, ["knot-info", "--c1", "-3", "--c2", "4"])
    assert code == 0
    assert doc["mirrored"] is True
    assert doc["c1"] == 3 and doc["c2"] == -4


def test_out_of_family_exit_2(capsys):
    code, doc = run_cli(capsys, ["knot-info", "--c1", "3", "--c2", "2"])
    assert code == 2
    assert doc["error"]["code"] == "OutOfFamily"
    code, doc = run_cli(capsys, ["certify", "--c1", "4", "--c2", "4"])
    assert code == 2
    assert doc["error"]["code"] == "OutOfFamily"


def test_presentation_golden(capsys):
    code, doc = run_cli(capsys, ["presentation", "--c1", "3", "--c2", "4"])
    assert code == 0
    assert doc == GOLDEN_PRESENTATION_3_4


def test_order_sign_meridian(capsys):
    code, doc = run_cli(capsys, ["order-sign", "--group", "g1",
                                 "--c1", "3", "--c2", "4", "b^-1 a"])
    assert code == 0
    assert doc["sign"] == "Positive"
    assert doc["trace"] == {"decided_by": "test-point", "test_point": 1,
                            "group": "g1"}


def test_order_sign_huge_g1_exponent_answers(capsys):
    # n = 7 and 10^8 = 2 + 7 * 14285714, so b^(10^8) = b^2 h^14285714
    # with h = a^2: both words must get the same document
    argv = ["order-sign", "--group", "g1", "--c1", "7", "--c2", "4"]
    code, doc = run_cli(capsys, argv + ["b^100000000"])
    assert code == 0 and doc["sign"] == "Positive"
    code, same = run_cli(capsys, argv + ["b^2 a^28571428"])
    assert code == 0
    assert {k: v for k, v in doc.items() if k != "word"} == \
        {k: v for k, v in same.items() if k != "word"}


def test_order_sign_conjugated_reversed(capsys):
    code, doc = run_cli(capsys, ["order-sign", "--group", "g2",
                                 "--c1", "3", "--c2", "4",
                                 "--conjugator", "x", "--reversed", "y"])
    assert code == 0
    assert doc["sign"] == "Positive"
    assert doc["trace"] == {"group": "g2", "decided_by": "layer-2-t",
                            "t": -2}
    assert doc["reversed"] is True


def test_order_sign_layer3_trace(capsys):
    code, doc = run_cli(capsys, ["order-sign", "--group", "g2",
                                 "--c1", "3", "--c2", "4",
                                 "z x^-1 z x z^-1 x^-1 z^-1 x"])
    assert code == 0
    assert doc["sign"] == "Negative"
    assert doc["trace"]["decided_by"] == "layer-3-magnus"


def test_order_sign_identity_conjugator_matches_default(capsys):
    for group, word in (("g1", "b^-1 a"), ("g2", "z x^-1 z")):
        argv = ["order-sign", "--c1", "3", "--c2", "4", "--group", group,
                word]
        code, default = run_cli(capsys, argv)
        assert code == 0 and default["conjugator"] == "1"
        assert run_cli(capsys, argv + ["--conjugator", "1"]) == (0, default)


def test_order_sign_parse_error_exit_3(capsys):
    code, doc = run_cli(capsys, ["order-sign", "--group", "g1",
                                 "--c1", "3", "--c2", "4", "q v"])
    assert code == 3
    assert doc["error"]["code"] == "ParseError"


def test_rejected_generators_error_is_independent_of_the_hash_seed():
    # the message names the rejected generators sorted, not in set order,
    # which would change with the interpreter's string hash seed
    argv = [sys.executable, "-m", "twobridge", "order-sign", "--c1", "3",
            "--c2", "4", "--group", "g2", "b a"]
    src = str(Path(cli.__file__).parent.parent)
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 3, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["error"] == {
        "code": "ParseError",
        "message": "G2 words use generators x, y, z only, got a, b"}


@pytest.mark.parametrize("word", ["x^1_0", "z x^\u0663", "y^-\u0661"])
def test_order_sign_malformed_exponent_exit_3(capsys, word):
    code, doc = run_cli(capsys, ["order-sign", "--group", "g2",
                                 "--c1", "3", "--c2", "4", word])
    assert code == 3
    assert doc["error"]["code"] == "ParseError"
    code, doc = run_cli(capsys, ["order-sign", "--group", "g2",
                                 "--c1", "3", "--c2", "4",
                                 "--conjugator", word, "x"])
    assert code == 3
    assert doc["error"]["code"] == "ParseError"


def test_internal_check_failed_exit_4(capsys, monkeypatch):
    def explode(params, group):
        raise InternalCheckFailed("synthetic")

    monkeypatch.setattr(cli, "ConeOracle", explode)
    code, doc = run_cli(capsys, ["order-sign", "--group", "g1",
                                 "--c1", "3", "--c2", "4", "a"])
    assert code == 4
    assert doc["error"]["code"] == "InternalCheckFailed"


def test_order_sign_undecided_magnus_exit_4(capsys, monkeypatch):
    # a Magnus search that finds no nonzero coefficient up to the syllable
    # count contradicts the bound, so order-sign must exit 4
    monkeypatch.setattr(orders, "_magnus_first_sign",
                        lambda letters, max_degree: (0, max_degree))
    code, doc = run_cli(capsys, ["order-sign", "--group", "g2",
                                 "--c1", "3", "--c2", "4",
                                 "z x^-1 z x z^-1 x^-1 z^-1 x"])
    assert code == 4
    assert doc["error"]["code"] == "InternalCheckFailed"
    assert "syllable count" in doc["error"]["message"]


def test_certify_internal_check_failed_exit_4(capsys, monkeypatch):
    # a sign regression that answers 0 ("undecided") instead of refining,
    # here for every element with a coordinate above 1 in absolute value:
    # the lifted action then calls a nontrivial word the identity, and the
    # normal-form cross-check must end the run with exit 4, not a verdict
    g1_realization(knot_params(3, 4))  # built with exact signs
    exact = FieldElement.sign

    def lossy(self):
        return 0 if max(abs(c) for c in self.coeffs) > 1 else exact(self)

    monkeypatch.setattr(FieldElement, "sign", lossy)
    code, doc = run_cli(capsys, [
        "certify", "--c1", "3", "--c2", "4", "--radius", "3",
        "--conj-len", "2", "--peripheral-box", "2", "--samples", "50",
        "--members", "4", "--check", "cone"])
    assert code == 4
    assert doc["error"]["code"] == "InternalCheckFailed"
    assert "normal form disagree" in doc["error"]["message"]


def test_certify_broken_lift_invariant_exit_4(capsys, monkeypatch):
    # a sign regression that answers 0 everywhere makes the lifted action
    # canonicalize a point to [0 : 0]: a broken internal invariant, which
    # must end the run with exit 4 rather than an Error verdict
    g1_realization(knot_params(3, 4))  # built with exact signs
    monkeypatch.setattr(FieldElement, "sign", lambda self: 0)
    code, doc = run_cli(capsys, [
        "certify", "--c1", "3", "--c2", "4", "--radius", "1",
        "--samples", "1", "--check", "cone"])
    assert code == 4
    assert doc["error"]["code"] == "InternalCheckFailed"
    assert "[0 : 0]" in doc["error"]["message"]


def test_certify_budget_below_one_exit_3(capsys):
    code, doc = run_cli(capsys, ["certify", "--c1", "3", "--c2", "4",
                                 "--radius", "0"])
    assert code == 3
    assert doc["error"]["code"] == "ParseError"
    assert "ball_radius" in doc["error"]["message"]


def test_certify_members_beyond_conjugator_pool_exit_3(capsys):
    # only 7 reduced conjugators over x, y, z have length <= 1, and 17
    # over a, b have length <= 2: 50 distinct members cannot be sampled
    argv = ["certify", "--c1", "3", "--c2", "4", "--conj-len", "1",
            "--members", "50"]
    code, doc = run_cli(capsys, argv)
    assert code == 3
    assert doc["error"]["code"] == "ParseError"
    assert "restrict" in doc["error"]["message"]
    code, doc = run_cli(capsys, argv + ["--check", "compat"])
    assert code == 3 and "17" in doc["error"]["message"]
    # navas enumerates its conjugators and samples no members
    code, doc = run_cli(capsys, argv + ["--check", "navas",
                                        "--peripheral-box", "1"])
    assert code == 0 and doc["verdict"] == "Certified"


def test_certify_restrict_with_one_member_exit_3(capsys):
    # restrict always samples 1 and x, so one member cannot be honoured
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "1",
            "--conj-len", "1", "--peripheral-box", "1", "--samples", "1"]
    one = argv + ["--members", "1"]
    for check in ("restrict", "all"):
        code, doc = run_cli(capsys, one + ["--check", check])
        assert code == 3
        assert doc["error"]["code"] == "ParseError"
        assert "restrict" in doc["error"]["message"]
    # compat forces only 1, so one member is one member
    code, doc = run_cli(capsys, one + ["--check", "compat"])
    assert code == 0
    assert doc["reports"][0]["counts"]["member-selection"]["passes"] == 1
    code, doc = run_cli(capsys, argv + ["--members", "2", "--check",
                                        "restrict"])
    assert code == 0
    counts = doc["reports"][0]["counts"]
    assert counts["exactly-one-variant"]["passes"] == 2


def test_certify_small_run(capsys):
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "3",
            "--conj-len", "2", "--peripheral-box", "2", "--samples", "200",
            "--members", "6", "--check", "cone"]
    code, doc = run_cli(capsys, argv)
    assert code == 0
    assert doc["verdict"] == "Certified"
    assert [r["check"] for r in doc["reports"]] == ["cone-g1", "cone-g2"]
    assert all(r["verdict"] == "Certified" for r in doc["reports"])
    assert doc["budget"]["seed"] == 0


def test_certify_seed_sources(capsys, monkeypatch):
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "3",
            "--conj-len", "2", "--peripheral-box", "2", "--samples", "50",
            "--members", "4", "--check", "restrict"]
    monkeypatch.setenv("TWOBRIDGE_SEED", "7")
    code, doc = run_cli(capsys, argv)
    assert code == 0 and doc["budget"]["seed"] == 7
    code, doc = run_cli(capsys, argv + ["--seed", "9"])
    assert code == 0 and doc["budget"]["seed"] == 9


def test_certify_deterministic_output(capsys):
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "3",
            "--conj-len", "2", "--peripheral-box", "2", "--samples", "100",
            "--members", "5", "--check", "navas"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


# sha256 of the stdout of `certify --check all` at the benchmark's
# certify-reps budget.  Changes to the arithmetic under the g1 path (the
# ring kernel, the lifted product, word lifting) must leave every byte of
# these documents as it was.
CERTIFY_REPS_DIGESTS = {
    (3, 4): "fb8b3d810f9985c29dbe60ee61ce6f50"
            "19217ed173c7e476d8c2922408f14dba",
    (3, -4): "d6e9034bc64f2eea24270f8f442b8051"
             "75e056644941912694ce20762a9801dd",
    (5, 4): "615c8684e81cda265db6ffe7724ae54f"
            "1e60aa64b3bd58d0c5886b33b78438b0",
    (7, -6): "80388a9cef5d1452df752319f55d6591"
             "2c475d2a5d3cc465051cb10e62858eed",
}


def test_certify_reps_budget_reports_pinned(capsys):
    got = {}
    for c1, c2 in CERTIFY_REPS_DIGESTS:
        argv = ["certify", "--c1", str(c1), "--c2", str(c2), "--check",
                "all", "--radius", "3", "--conj-len", "2",
                "--peripheral-box", "2", "--samples", "300", "--members",
                "10", "--seed", "0"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        got[c1, c2] = hashlib.sha256(out.encode()).hexdigest()
    assert got == CERTIFY_REPS_DIGESTS


# sha256 of the stdout of `certify --check all` at the default budget, and
# of `selftest`, which also runs the five mutation reports.
DEFAULT_BUDGET_DIGESTS = {
    (3, 4): "e1c828c9658eaecd3f1f2892cbe4525b"
            "d6c674147ad66a8e03cc1ccdfae8afae",
    (3, -4): "d6c47394179533f906fa4f3a0bda5146"
             "e6ddd083c24339886ee067ee2510a0e6",
    (5, 4): "d5114fbb67a4956531887e7eed43f9f9"
            "2e3bf5f8d8d77c0497ffcbe0fb3df74e",
    (7, -6): "381c8c4f5a92e6b85a432c5259668029"
             "424b115b057e05ba1bba78db0aa19e04",
    "selftest": "522d6d2ee2a43b237b5a04178fe02e75"
                "05ca6f556150f98279585fbad416df25",
}


def test_default_budget_reports_pinned(capsys):
    got = {}
    for key in DEFAULT_BUDGET_DIGESTS:
        if key == "selftest":
            argv = ["selftest"]
        else:
            argv = ["certify", "--c1", str(key[0]), "--c2", str(key[1]),
                    "--check", "all"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        got[key] = hashlib.sha256(out.encode()).hexdigest()
    assert got == DEFAULT_BUDGET_DIGESTS


# (exit code, sha256 of stdout) of the smaller subcommands: knot-info,
# presentation, and order-sign on both groups for a base member, a
# conjugated one, a reversed one, the identity and a rejected word.
CLI_DOCUMENT_DIGESTS = {
    ("knot-info", "--c1", "3", "--c2", "4"):
        (0, "c21efce7ede55c53046d8089ffa16d55"
            "fb4dc631e1485e3449f2e6e068c0f21a"),
    ("knot-info", "--c1", "-5", "--c2", "6"):
        (0, "e7e35ad548cdf0aac6efd753f329df19"
            "01dfe3b757242597383246299358b061"),
    ("presentation", "--c1", "3", "--c2", "4"):
        (0, "fd0e9750baaa43390cd6daaa47ac063e"
            "8c1a2960e5a60e3c2cec19e7c8628a87"),
    ("presentation", "--c1", "7", "--c2", "-6"):
        (0, "e6895d6c0063a992c15b7fd0ce700c45"
            "0ce547652aa9dab75e2563b1818ee2a8"),
    ("order-sign", "--c1", "3", "--c2", "4", "--group", "g1", "b^-1 a"):
        (0, "05691a4b2eb804086a8cab3530b32f4d"
            "42c08c9757e3ff018362de0208612439"),
    ("order-sign", "--c1", "3", "--c2", "4", "--group", "g1", "--conjugator",
     "a b", "b^-1 a"):
        (0, "f895794b4cc7c4406fd95f68d6409340"
            "a55b6d0913d93c0ecdd298c00fc5d9b0"),
    ("order-sign", "--c1", "3", "--c2", "4", "--group", "g1", "--conjugator",
     "b", "--reversed", "a b^-2"):
        (0, "9b1490fda9f24c6e110a2644faf40aca"
            "5bae58e6516d9251955ba4302f638a97"),
    ("order-sign", "--c1", "3", "--c2", "4", "--group", "g1", "--conjugator",
     "a", "a^2 b^-3"):
        (0, "31ea9a310e313e6138bd73312941c1ce"
            "f10ed186b5e4d1319fb9204e1191ce0c"),
    ("order-sign", "--c1", "3", "--c2", "4", "--group", "g1", "x y"):
        (3, "5172a065bf4fc3df6b5ce2025b780e41"
            "48ae668e96f5027fc093c593ad3c34b9"),
    ("order-sign", "--c1", "7", "--c2", "-6", "--group", "g2", "z x^-1 z"):
        (0, "5d29223641a314891659127f13d69383"
            "0db18f649080033056dac35518bf4b7a"),
    ("order-sign", "--c1", "7", "--c2", "-6", "--group", "g2", "--conjugator",
     "x z", "y"):
        (0, "4b4e5d67ca1adf513cee34ff9ad5af34"
            "cf2edf774eafd392b285a3d94821c409"),
    ("order-sign", "--c1", "7", "--c2", "-6", "--group", "g2", "--conjugator",
     "x", "--reversed", "z x^-1 z x z^-1 x^-1 z^-1 x"):
        (0, "4487cadab87a5c67fd8a873a6b9686cc"
            "ddda54053f5cd4cbe8debe5e6196eec3"),
    ("order-sign", "--c1", "7", "--c2", "-6", "--group", "g2", "--reversed",
     "y z^3"):
        (0, "8b477f9dcc0316c1b1481ac8cbf5c050"
            "358892b22dda382c68772823f20b3018"),
    ("order-sign", "--c1", "7", "--c2", "-6", "--group", "g2", "b a"):
        (3, "112fd64213a5e9004acd0c42bb8e10e9"
            "d597cd5110217989ca58714a969e367d"),
}


def test_cli_documents_pinned(capsys):
    got = {}
    for argv in CLI_DOCUMENT_DIGESTS:
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        got[argv] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == CLI_DOCUMENT_DIGESTS


def test_out_file_writes_copy(capsys, tmp_path):
    target = tmp_path / "info.json"
    code, doc = run_cli(capsys, ["knot-info", "--c1", "3", "--c2", "4",
                                 "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text()) == doc


def test_unwritable_out_exits_3_and_runs_nothing(capsys, monkeypatch,
                                                 tmp_path):
    def fail(*args):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli, "knot_params", fail)
    missing = str(tmp_path / "missing" / "f.json")
    for target, named in ((missing, "missing"), ("", "''")):
        for command in ("knot-info", "certify"):
            code, doc = run_cli(capsys, [command, "--c1", "3", "--c2", "4",
                                         "--out", target])
            assert code == 3 and doc["error"]["code"] == "ParseError"
            assert named in doc["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["knot-info", "--c1", "1_1", "--c2", "4"],
    ["knot-info", "--c1", "3", "--c2", "\u0664"],
    ["certify", "--c1", "3", "--c2", "4", "--radius", "\u0663"],
    ["certify", "--c1", "3", "--c2", "4", "--seed", "1_0"],
    ["certify", "--c1", "3", "--c2", "4", "--radius", " 3"],
])
def test_integer_flags_take_a_sign_and_ascii_digits(argv):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(argv)
    assert exc_info.value.code == 64


@pytest.mark.parametrize("raw", ["1_0", "\u0663", "abc", "3.0"])
def test_seed_variable_takes_a_sign_and_ascii_digits(capsys, monkeypatch,
                                                     raw):
    monkeypatch.setenv("TWOBRIDGE_SEED", raw)
    code, doc = run_cli(capsys, ["certify", "--c1", "3", "--c2", "4",
                                 "--check", "cone"])
    assert code == 3 and doc["error"]["code"] == "ParseError"


def test_signed_integers_accepted(capsys, monkeypatch):
    code, doc = run_cli(capsys, ["knot-info", "--c1", "3", "--c2", "-4"])
    assert code == 0 and doc["c2"] == -4
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "2",
            "--samples", "20", "--check", "cone"]
    code, doc = run_cli(capsys, argv + ["--seed", "+3"])
    assert code == 0 and doc["budget"]["seed"] == 3
    monkeypatch.setenv("TWOBRIDGE_SEED", "-2")
    code, doc = run_cli(capsys, argv)
    assert code == 0 and doc["budget"]["seed"] == -2


def test_selftest_passes(capsys):
    code, doc = run_cli(capsys, ["selftest"])
    assert code == 0
    assert doc["passed"] is True
    names = {r["name"] for r in doc["results"]}
    assert names == {"alexander-b(3,1)", "alexander-b(5,3)",
                     "alexander-family-(3,4)", "exact-lift-identities",
                     "corrupted-minpoly-rejected", "mutation-detection"}
    assert all(r["passed"] for r in doc["results"])


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["knot-info", "--c1", "3"])
    assert exc_info.value.code == 64
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["certify", "--c1", "3", "--c2", "4", "--check", "bogus"])
    assert exc_info.value.code == 64


def test_parser_is_built_once_and_reads_the_seed_per_run(capsys,
                                                          monkeypatch):
    argv = ["certify", "--c1", "3", "--c2", "4", "--radius", "2",
            "--conj-len", "1", "--peripheral-box", "1", "--samples", "20",
            "--members", "2", "--check", "cone"]
    seeds = []
    for raw in ("5", "-3", ""):
        monkeypatch.setenv("TWOBRIDGE_SEED", raw)
        seeds.append(run_cli(capsys, argv)[1]["budget"]["seed"])
    assert seeds == [5, -3, 0]
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twobridge")
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["certify", "--c1", "3"])
    assert exc_info.value.code == 64


def test_certify_from_a_cold_syllable_table():
    # a fresh interpreter: every syllable the run makes first enters the
    # table there, so a word built outside the table fails on inversion
    argv = [sys.executable, "-m", "twobridge", "certify", "--c1", "3",
            "--c2", "4", "--radius", "3", "--conj-len", "2",
            "--peripheral-box", "2", "--samples", "300", "--members", "10"]
    src = str(Path(cli.__file__).parent.parent)
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "Certified"
    assert all(r["error"] is None for r in doc["reports"])


def test_import_loads_neither_dataclasses_nor_inspect():
    # without site, only the package's own imports load modules
    src = str(Path(cli.__file__).parent.parent)
    code = ("import sys, twobridge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_value_types_are_immutable_and_hashable():
    params = knot_params(3, -4)
    p1, _, _, gluing = presentations(params)
    fields = [(params, "b2"), (p1, "relators"), (gluing, "mu"),
              (g1_normal_form(params, W("a b^-2")), "central"),
              (g2_normal_form(params, W("x z y")), "tail"),
              (lspace_form({0: -1, 1: 1, -1: 1}), "matches"),
              (lspace_surgery_verdict(params), "reason"),
              (SampleBudget(), "seed"),
              (Counterexample("navas", ("a",), ("Positive",)), "note")]
    assert len({type(v) for v, _ in fields}) == 9
    for v, name in fields:
        hash(v)
        before = getattr(v, name)
        with pytest.raises(AttributeError):
            setattr(v, name, None)
        with pytest.raises(AttributeError):
            v.extra = None
        assert getattr(v, name) is before


def test_certificate_report_compares_by_fields_and_is_unhashable():
    budget = SampleBudget(ball_radius=3)
    report = CertificateReport("navas", (3, 4), budget)
    assert report == CertificateReport("navas", (3, 4), budget)
    report.record("sign-law", False, Counterexample("navas", (), ()))
    assert report != CertificateReport("navas", (3, 4), budget)
    assert repr(report) == (
        "CertificateReport(check='navas', knot=(3, 4), budget=SampleBudget("
        "ball_radius=3, conjugator_length=4, peripheral_bound=5, "
        "semigroup_samples=10000, member_samples=200, seed=0), "
        "counts={'sign-law': {'passes': 0, 'failures': 1}}, "
        "counterexamples=[Counterexample(check='navas', words=(), signs=(), "
        "member=None, note='')], error=None)")
    with pytest.raises(TypeError):
        hash(report)
