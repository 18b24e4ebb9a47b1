import json
import os
import subprocess
import sys
import time

import pytest

import grassmann
from grassmann.cli import main
from grassmann.algebra import parse_element
from grassmann.endo import format_endomorphism, identity_endo, parse_endomorphism
from grassmann.rings import GF, QQ
from grassmann.sampling import random_gamma_gl, spawn
from grassmann.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestElementCommands:
    def test_mul_example(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--n", "4", "x2", "x1")
        assert code == 0
        assert out == "-x1x2"

    def test_mul_prime_field(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--n", "4", "--field", "prime:7",
                               "x2", "x1")
        assert code == 0
        assert out == "6*x1x2"

    def test_mul_json(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--n", "4", "--format", "json",
                               "x1", "x2")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "grassmann/1"
        assert data["terms"] == [{"mask": 3, "monomial": "x1x2", "coeff": "1"}]

    def test_apply(self, capsys):
        code, out, _ = run_cli(capsys, "apply", "--n", "3",
                               "--endo", "x1 -> x2; x2 -> x1; x3 -> x3", "x1x2")
        assert code == 0
        assert out == "-x1x2"

    def test_parse_error_reported(self, capsys):
        code, _, err = run_cli(capsys, "mul", "--n", "4", "x9", "x1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("field, out", [("rational", "-x1x2x3"),
                                            ("prime:7", "6*x1x2x3")])
    def test_shuffled_monomial_keeps_its_sign(self, capsys, field, out):
        # x2x1 is the product x2 * x1, so the same as `mul x2 x1`
        assert run_cli(capsys, "mul", "--n", "3", "--field", field,
                       "x2x1", "x3") == (0, out, "")
        assert run_cli(capsys, "mul", "--n", "3", "--field", field,
                       "x2", "x1x3") == (0, out, "")

    @pytest.mark.parametrize("field, coeff, message", [
        ("rational", "1/0", "coefficient '1/0' has denominator 0, which is zero in QQ"),
        ("prime:7", "1/0", "coefficient '1/0' has denominator 0, which is zero in GF(7)"),
        ("prime:7", "1/7", "coefficient '1/7' has denominator 7, which is zero in GF(7)"),
    ])
    def test_zero_denominator_named(self, capsys, field, coeff, message):
        assert run_cli(capsys, "mul", "--n", "2", "--field", field,
                       f"{coeff}*x1", "x2") == (2, "", f"error: {message}")

    @pytest.mark.parametrize("field", ["rational", "prime:7"])
    @pytest.mark.parametrize("text", ["2*3", "2*", "2*-x1"])
    def test_dangling_star_rejected(self, capsys, field, text):
        code, out, err = run_cli(capsys, "mul", "--n", "2", "--field", field, text, "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestJacobianCommand:
    def test_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobian", "--n", "3",
            "--endo", "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3")
        assert code == 0
        assert out == "1 + x2x3"

    def test_parity_error(self, capsys):
        code, _, err = run_cli(
            capsys, "jacobian", "--n", "2",
            "--endo", "x1 -> x1 + x1x2; x2 -> x2")
        assert code == 2
        assert "odd" in err


class TestInvertCommand:
    @pytest.mark.parametrize("strategy", ["iteration", "formula"])
    def test_forced_inverse(self, capsys, strategy):
        code, out, _ = run_cli(
            capsys, "invert", "--n", "4", "--strategy", strategy,
            "--endo", "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert code == 0
        assert parse_endomorphism(QQ, 4, out) == parse_endomorphism(
            QQ, 4, "x1 -> x1 - x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_strategies_print_identical_output(self, capsys, fmt):
        sigma = random_gamma_gl(spawn(7, "cli-invert", fmt), QQ, 8)
        argv = ["invert", "--n", "8", "--format", fmt,
                "--endo", format_endomorphism(sigma)]
        by_strategy = {}
        for strategy in ("iteration", "formula"):
            code, out, _ = run_cli(capsys, *argv, "--strategy", strategy)
            assert code == 0
            by_strategy[strategy] = out
        assert by_strategy["formula"] == by_strategy["iteration"]
        inverse = sigma.inverse("iteration")
        assert inverse.compose(sigma) == identity_endo(QQ, 8)
        if fmt == "text":
            assert parse_endomorphism(QQ, 8, by_strategy["formula"]) == inverse


class TestDecomposeCommand:
    @pytest.mark.parametrize("mode", ["oga", "unipotent", "gamma",
                                      "sigma-prime", "layers"])
    def test_identity_everywhere(self, capsys, mode):
        code, out, _ = run_cli(
            capsys, "decompose", "--n", "4", "--mode", mode,
            "--endo", "x1 -> x1; x2 -> x2; x3 -> x3; x4 -> x4")
        assert code == 0
        assert "verified: True" in out

    def test_gamma_word_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--n", "4", "--mode", "gamma", "--format", "json",
            "--endo", "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["kind"] == "scaling-and-shifts"

    @pytest.mark.parametrize("field", ["rational", "prime:7"])
    def test_oga_non_automorphism(self, capsys, field):
        code, out, err = run_cli(
            capsys, "decompose", "--n", "3", "--mode", "oga", "--field", field,
            "--endo", "x1 -> x1 + x2; x2 -> x1 + x2; x3 -> x3")
        assert code == 2
        assert out == ""
        assert err == "error: input is not an automorphism"


class TestMemberCommand:
    def test_sigma_membership(self, capsys):
        code, out, _ = run_cli(
            capsys, "member", "--n", "4", "--group", "sigma",
            "--endo", "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert code == 0
        assert out == "true"

    def test_gamma_asc(self, capsys):
        code, out, _ = run_cli(
            capsys, "member", "--n", "4", "--group", "gamma-asc:4",
            "--endo", "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert code == 0
        assert out == "true"

    @pytest.mark.parametrize("endo", ["x1 -> x1; x2 -> x2; x3 -> x3",
                                      "x1 -> x2; x2 -> x2; x3 -> x3"])
    def test_bad_ascent_level_refused_on_any_map(self, capsys, endo):
        # the second map is not an automorphism: the level is refused all the same
        code, out, err = run_cli(capsys, "member", "--n", "3", "--field", "7",
                                 "--endo", endo, "--group", "gamma-asc:3")
        assert (code, out) == (2, "")
        assert err == "error: Jacobian ascent levels are even and >= 2"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("alias, name", [("sigma'", "sigma-prime"),
                                             ("sigma''", "sigma-double-prime")])
    @pytest.mark.parametrize("endo", [
        "x1 -> x1; x2 -> x2; x3 -> x3; x4 -> x4",
        "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4"])
    def test_dims_aliases_name_the_same_group(self, capsys, fmt, alias, name, endo):
        # the spellings that `dims` accepts select the same group here
        runs = [run_cli(capsys, "member", "--n", "4", "--group", group,
                        "--format", fmt, "--endo", endo)
                for group in (alias, name)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_negative_parameter_read_as_an_integer(self, capsys):
        # only the kind's '-' become '_': the identity lies in every level
        ident = "x1 -> x1; x2 -> x2; x3 -> x3; x4 -> x4"
        code, out, _ = run_cli(capsys, "member", "--n", "4", "--endo", ident,
                               "--group", "u-pow:-4")
        assert (code, out) == (0, "true")
        code, out, err = run_cli(capsys, "member", "--n", "4", "--endo", ident,
                                 "--group", "gamma-asc:-2")
        assert (code, out) == (2, "")
        assert err == "error: Jacobian ascent levels are even and >= 2"

    def test_malformed_group_parameter(self, capsys):
        for argv, group in [
                (("member", "--n", "4", "--endo",
                  "x1 -> x1; x2 -> x2; x3 -> x3; x4 -> x4"), "sigma:"),
                (("dims", "--n", "6"), "gamma-asc:x")]:
            code, out, err = run_cli(capsys, *argv, "--group", group)
            assert (code, out) == (2, "")
            assert err == (f"error: group {group!r}: the parameter after ':' "
                           f"must be an integer")


class TestPreimageCommand:
    def test_odd_n(self, capsys):
        code, out, _ = run_cli(capsys, "preimage", "--n", "5", "1 + x1x2")
        assert code == 0
        sigma = parse_endomorphism(QQ, 5, out)
        assert sigma.jacobian().det == parse_element(QQ, 5, "1 + x1x2")

    def test_even_n_refused(self, capsys):
        code, out, _ = run_cli(capsys, "preimage", "--n", "4", "1 + x1x2x3x4")
        assert code == 1
        assert "no preimage" in out

    def test_even_n_inexact(self, capsys):
        code, out, _ = run_cli(capsys, "preimage", "--n", "4", "--inexact",
                               "1 + x1x2x3x4")
        assert code == 0
        assert "forced top coefficient: 0" in out


class TestDimsCommand:
    def test_sigma_n4(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--group", "sigma", "--n", "4")
        assert code == 0
        assert out == "formula=10 coordinates=10"

    def test_ascent(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--group", "gamma-asc:4", "--n", "6")
        assert code == 0
        formula = int(out.split()[0].split("=")[1])
        coords = int(out.split()[1].split("=")[1])
        assert formula == coords

    def test_parameter_refused_as_member_refuses_it(self, capsys):
        ident = "; ".join(f"x{i} -> x{i}" for i in range(1, 6))
        dims = run_cli(capsys, "dims", "--n", "5", "--group", "sigma:5")
        member = run_cli(capsys, "member", "--n", "5", "--endo", ident,
                         "--group", "sigma:5")
        assert dims == member == (2, "", "error: group sigma takes no parameter")
        assert run_cli(capsys, "dims", "--n", "5", "--group", "xi-space:2") == (
            2, "", "error: group xi_space takes no parameter")


class TestGeneratorsCommand:
    def test_gamma_n4(self, capsys):
        code, out, _ = run_cli(capsys, "generators", "--n", "4", "--group", "gamma")
        assert code == 0
        assert out.endswith("total: 16")


class TestVerifyCommand:
    def test_deterministic_runs(self, capsys):
        args = ("verify", "--suite", "all", "--n", "5", "--samples", "3",
                "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("suite", SUITES)
    def test_small_n_passes_or_fails_fast(self, capsys, suite, n):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", str(n),
                                 "--samples", "2")
        if code == 2:
            assert err.startswith("error: suite ") and f"got n={n}" in err
            assert "Traceback" not in err
        else:
            assert code == 0 and "FAIL" not in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_refused(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--suite", "algebra",
                                 "--n", "4", "--samples", samples)
        assert code == 2
        assert "[PASS]" not in out
        assert err == f"error: samples must be at least 1, got {samples}"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "n3",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "verification"
        assert all(r["passed"] for r in data["results"])


class TestRoundTrips:
    def test_element_print_parse(self, capsys):
        for field, ring in (("rational", QQ), ("prime:7", GF(7))):
            code, out, _ = run_cli(capsys, "mul", "--n", "5", "--field", field,
                                   "1 + 2*x1x2", "1 - x3x4x5")
            assert code == 0
            e = parse_element(ring, 5, out)
            want = parse_element(ring, 5, "1 + 2*x1x2") * parse_element(
                ring, 5, "1 - x3x4x5")
            assert e == want

    def test_endo_print_parse(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--n", "5",
            "--endo",
            "x1 -> x1 + x2x3x4; x2 -> x2 + x3x4x5; x3 -> x3; x4 -> x4; x5 -> x5")
        assert code == 0
        sigma = parse_endomorphism(QQ, 5, out)
        orig = parse_endomorphism(
            QQ, 5,
            "x1 -> x1 + x2x3x4; x2 -> x2 + x3x4x5; x3 -> x3; x4 -> x4; x5 -> x5")
        from grassmann.endo import identity_endo
        assert orig.compose(sigma) == identity_endo(QQ, 5)


class TestGeneratorCount:
    @pytest.mark.parametrize("argv", [
        ("dims", "--n", "200", "--group", "sigma"),
        ("dims", "--n", "-3", "--group", "sigma"),
        ("dims", "--n", "17", "--group", "gamma-asc:4"),
        ("generators", "--n", "-3", "--group", "phi"),
        ("generators", "--n", "0", "--group", "sigma"),
        ("generators", "--n", "200", "--group", "gamma"),
        ("verify", "--suite", "dims", "--n", "200"),
        ("verify", "--suite", "n3", "--n", "17")])
    def test_refused_fast(self, capsys, argv):
        # the coordinate count and the generator lists grow exponentially in
        # n, and the dims and n3 suites ignore it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        n = argv[argv.index("--n") + 1]
        assert err == f"error: generator count must be in 1..16, got {n}"


class TestFieldValidation:
    def test_even_characteristic_rejected(self, capsys):
        code, _, err = run_cli(capsys, "mul", "--n", "3", "--field", "prime:2",
                               "x1", "x2")
        assert code == 2
        assert "2" in err

    def test_large_prime_field(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--n", "2", "--field",
                               "prime:1000000000000000003", "x2", "x1")
        assert code == 0
        assert out == "1000000000000000002*x1x2"

    def test_primality_limit_fails_fast(self, capsys):
        code, _, err = run_cli(capsys, "mul", "--n", "2", "--field",
                               f"prime:{2 ** 89 - 1}", "x1", "x2")
        assert code == 2
        assert "only below" in err

    def test_module_entry_point(self):
        # the child imports grassmann from where this process found it
        src = os.path.dirname(os.path.dirname(grassmann.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "grassmann", "mul", "--n", "4", "x2", "x1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-x1x2"


class TestParserReuse:
    ENDO = "x1 -> x1 + x2x3x4; x2 -> x2 + x3x4x5; x3 -> x3; x4 -> x4; x5 -> x5"
    # options given once and then left out, so a default that stuck to the
    # shared parser would show
    SEQUENCE = [
        ("mul", "--n", "4", "x2", "x1"),
        ("invert", "--n", "5", "--strategy", "formula", "--format", "json",
         "--endo", ENDO),
        ("invert", "--n", "5", "--endo", ENDO),
        ("preimage", "--n", "4", "--inexact", "1 + x1x2x3x4"),
        ("preimage", "--n", "4", "1 + x1x2x3x4"),
        ("verify", "--suite", "dims", "--n", "200"),
        ("verify", "--suite", "n3", "--n", "4", "--field", "rational"),
        ("mul", "--n", "3", "x1", "x2"),
        ("dims", "--n", "5", "--group", "sigma"),
    ]

    def test_parser_built_once(self, capsys, monkeypatch):
        from grassmann import cli
        built = []

        def counting():
            built.append(1)
            return build()

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in self.SEQUENCE[:3]:
                run_cli(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_repeated_main_matches_separate_processes(self, capsys):
        src = os.path.dirname(os.path.dirname(grassmann.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv in self.SEQUENCE:
            in_process = run_cli(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "grassmann", *argv],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path})
            assert in_process == (proc.returncode, proc.stdout.strip(),
                                  proc.stderr.strip()), argv


class TestFileInputs:
    def test_endo_from_file(self, capsys, tmp_path):
        path = tmp_path / "endo.txt"
        path.write_text("x1 -> x1 + x2x3x4\nx2 -> x2\nx3 -> x3\nx4 -> x4\n")
        code, out, _ = run_cli(capsys, "invert", "--n", "4",
                               "--endo", f"@{path}")
        assert code == 0
        assert "x1 -> x1 - x2x3x4" in out

    def test_element_from_file(self, capsys, tmp_path):
        path = tmp_path / "elem.txt"
        path.write_text("1 + x1x2\n")
        code, out, _ = run_cli(capsys, "preimage", "--n", "5", f"@{path}")
        assert code == 0

    def test_missing_file_reported(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "apply", "--n", "3",
                                 "--endo", f"@{path}", "x1")
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: No such file or directory"

    def test_directory_reported(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "apply", "--n", "3",
                                 "--endo", "x1 -> x1\nx2 -> x2\nx3 -> x3",
                                 f"@{tmp_path}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {tmp_path}: ")
