"""Fixed CLI runs must print byte-identical text and JSON.

``tests/fixtures/cli_golden.json`` holds one record per run: the argv, the
exit code, stdout and stderr.  The runs are ``invert`` (both strategies),
``apply``, ``jacobian`` and ``decompose --mode oga``, in text and JSON, on
three seeded shift*linear maps over QQ at n = 6 whose linear parts carry
wide denominators (-13/6, 5/11, 1/7, 3/4, -2/9) and two seeded maps over
GF(7) at n = 5; then ``invert`` and ``jacobian`` on two n = 3 maps that
fail (a singular linear part, an image that does not square to zero).
Last come the factorizations and the Jacobian preimage over QQ and GF(7),
in text and JSON: ``decompose --mode unipotent|gamma|sigma-prime|layers`` on
seeded members of U, Gamma, Sigma' and Gamma at n = 5 and 6, and
``preimage`` on a seeded target at n = 5 (exact) and at n = 6, where the
exact request is refused and ``--inexact`` returns the forced top
coefficient.  Then, over QQ and GF(7): ``mul`` at n = 5; ``member`` on a
seeded member and a seeded non-member of omega, omega-graded:1, u, gamma,
phi, sigma, sigma-prime and gamma-asc:2 at n = 5; and ``generators`` for
sigma at n = 7 and sigma-prime at n = 5 and 6.  ``dims`` (which takes no
field) runs on four groups, and four runs are refused with exit 2:
``member --group gamma-asc:3`` on a shift and on a map that is not an
automorphism, ``dims --n 3 --group sigma`` and ``generators --n 6 --group
sigma``.  Last, the group parameters: ``dims --group sigma:5`` is refused,
and on the identity at n = 4 ``member --group u-pow:-4`` holds while
``member --group gamma-asc:-2`` is refused.

Regenerate the file only for a deliberate change of output:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from grassmann.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"
RECORDS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _option(record, name, default=None):
    argv = record["argv"]
    return argv[argv.index(name) + 1] if name in argv else default


def _case_id(record):
    argv = record["argv"]
    field = _option(record, "--field")
    return "-".join([argv[0], *([field] if field else []), "n" + _option(record, "--n"),
                     _option(record, "--format", "text"),
                     _option(record, "--strategy") or _option(record, "--mode")
                     or _option(record, "--group", ""),
                     "inexact" if "--inexact" in argv else ""]).rstrip("-")


@pytest.mark.parametrize("record", RECORDS,
                         ids=[f"{i:02d}-{_case_id(r)}" for i, r in enumerate(RECORDS)])
def test_cli_output_unchanged(record):
    assert run(record["argv"]) == record


def test_fixture_covers_both_fields_and_failures():
    fields = {_option(r, "--field") for r in RECORDS}
    assert fields == {"rational", "prime:7", None}  # None: dims takes no field
    assert {r["argv"][0] for r in RECORDS} == {
        "mul", "apply", "jacobian", "invert", "decompose", "member", "preimage",
        "dims", "generators"}
    for field in ("rational", "prime:7"):
        runs = [r for r in RECORDS if _option(r, "--field") == field]
        modes = {_option(r, "--mode") for r in runs if r["argv"][0] == "decompose"}
        assert modes == {"oga", "unipotent", "gamma", "sigma-prime", "layers"}
        preimages = {(_option(r, "--n"), "--inexact" in r["argv"], r["code"])
                     for r in runs if r["argv"][0] == "preimage"}
        assert preimages == {("5", False, 0), ("6", False, 1), ("6", True, 0)}
        verdicts = {(_option(r, "--group"), r["stdout"]) for r in runs
                    if r["argv"][0] == "member" and r["code"] == 0
                    and _option(r, "--format", "text") == "text"}
        groups = ("omega", "omega-graded:1", "u", "gamma", "phi", "sigma",
                  "sigma-prime", "gamma-asc:2")
        assert verdicts == {(g, v) for g in groups for v in ("true\n", "false\n")}
        families = {(_option(r, "--group"), _option(r, "--n")) for r in runs
                    if r["argv"][0] == "generators" and r["code"] == 0}
        assert families == {("sigma", "7"), ("sigma-prime", "5"), ("sigma-prime", "6")}
    failures = [r for r in RECORDS if r["code"] == 2]
    assert failures and all(r["stderr"].startswith("error: ") for r in failures)
    assert {r["argv"][0] for r in failures} >= {"member", "dims", "generators"}
    refused = [r for r in RECORDS if r["code"] == 1]
    assert refused and all(r["stdout"].startswith(("no preimage: ", "{"))
                           for r in refused)


def _generate():
    from grassmann import sampling
    from grassmann.algebra import GrassmannElement, format_element
    from grassmann.endo import format_endomorphism, linear_endo
    from grassmann.groups import jacobian_preimage
    from grassmann.rings import GF, QQ, mat_det

    wide = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), Fraction(3, 4),
            Fraction(-2, 9), Fraction(1), Fraction(-1)]

    def wide_linear(rng, n):
        while True:
            m = [[rng.choice(wide + [Fraction(0)]) for _ in range(n)]
                 for _ in range(n)]
            if mat_det(QQ, m) != 0:
                return linear_endo(QQ, m)

    def element(rng, ring, n):
        pool = wide if ring.modulus is None else list(range(1, ring.modulus))
        return GrassmannElement(ring, n, {m: rng.choice(pool) for m in range(1 << n)
                                          if rng.random() < 0.4})

    def commands(n, field, endo, elem):
        base = ["--n", str(n), "--field", field]
        for fmt in ("text", "json"):
            f = [*base, "--format", fmt]
            for strategy in ("iteration", "formula"):
                yield ["invert", *f, "--endo", endo, "--strategy", strategy]
            yield ["apply", *f, "--endo", endo, elem]
            yield ["jacobian", *f, "--endo", endo]
            yield ["decompose", *f, "--endo", endo, "--mode", "oga"]

    argvs = []
    for seed in (1, 2, 3):
        rng = random.Random(f"cli-golden:qq:{seed}")
        sigma = sampling.random_gamma(rng, QQ, 6, terms=2).compose(wide_linear(rng, 6))
        argvs += commands(6, "rational", format_endomorphism(sigma),
                          format_element(element(rng, QQ, 6)))
    for seed in (1, 2):
        rng = random.Random(f"cli-golden:gf7:{seed}")
        sigma = sampling.random_gamma_gl(rng, GF(7), 5, terms=3)
        argvs += commands(5, "prime:7", format_endomorphism(sigma),
                          format_element(element(rng, GF(7), 5)))
    for endo in ("x1 -> x1 + x2; x2 -> 2*x1 + 2*x2; x3 -> x3",
                 "x1 -> x1 + x2x3; x2 -> x2; x3 -> x3"):
        base = ["--n", "3", "--field", "rational", "--endo", endo]
        argvs += [["invert", *base, "--strategy", "iteration"],
                  ["invert", *base, "--strategy", "formula"],
                  ["jacobian", *base]]

    def formats(argv):
        for fmt in ("text", "json"):
            yield [*argv[:5], "--format", fmt, *argv[5:]]

    for ring, field in ((QQ, "rational"), (GF(7), "prime:7")):
        rng = random.Random(f"cli-golden:factor:{field}")
        for n, mode, sigma in (
                (5, "unipotent", sampling.random_unipotent(rng, ring, 5)),
                (6, "unipotent", sampling.random_unipotent(rng, ring, 6)),
                (5, "gamma", sampling.random_gamma(rng, ring, 5)),
                (6, "gamma", sampling.random_gamma(rng, ring, 6, terms=2)),
                (5, "sigma-prime", sampling.random_sigma_prime_word(rng, ring, 5)),
                (6, "sigma-prime", sampling.random_sigma_prime_word(rng, ring, 6)),
                (5, "layers", sampling.random_gamma(rng, ring, 5)),
                (6, "layers", sampling.random_gamma(rng, ring, 6, terms=2))):
            argvs += formats(["decompose", "--n", str(n), "--field", field,
                              "--endo", format_endomorphism(sigma), "--mode", mode])
        one = GrassmannElement.one
        odd = one(ring, 5) + sampling.random_even(rng, ring, 5)
        argvs += formats(["preimage", "--n", "5", "--field", field, format_element(odd)])
        even = one(ring, 6) + sampling.random_even(rng, ring, 6)
        # move the top coefficient off the forced value: no exact preimage exists
        top = (1 << 6) - 1
        forced = jacobian_preimage(even, exact=False).forced_top
        even = even + GrassmannElement.monomial(
            ring, 6, top, forced + 1 - even.coefficient(top))
        target = format_element(even)
        argvs += formats(["preimage", "--n", "6", "--field", field, target])
        argvs += formats(["preimage", "--n", "6", "--field", field, "--inexact", target])
    for ring, field in ((QQ, "rational"), (GF(7), "prime:7")):
        rng = random.Random(f"cli-golden:groups:{field}")
        argvs += formats(["mul", "--n", "5", "--field", field,
                          format_element(element(rng, ring, 5)),
                          format_element(element(rng, ring, 5))])
        for group, inside, outside in (
                ("omega", sampling.random_omega, sampling.random_phi),
                ("omega-graded:1", sampling.random_omega, sampling.random_gamma),
                ("u", sampling.random_unipotent, sampling.random_gamma_gl),
                ("gamma", sampling.random_gamma, sampling.random_omega),
                ("phi", sampling.random_phi, sampling.random_gamma),
                ("sigma", sampling.random_sigma_word, sampling.random_phi),
                ("sigma-prime", sampling.random_sigma_prime_word,
                 sampling.random_sigma_word),
                ("gamma-asc:2", sampling.random_gamma, sampling.random_omega)):
            for sample in (inside, outside):
                argvs += formats(["member", "--n", "5", "--field", field, "--endo",
                                  format_endomorphism(sample(rng, ring, 5)),
                                  "--group", group])
        for n, group in ((7, "sigma"), (5, "sigma-prime"), (6, "sigma-prime")):
            argvs += formats(["generators", "--n", str(n), "--field", field,
                              "--group", group])
    for n, group in ((7, "sigma"), (6, "sigma-prime"), (6, "gamma-asc:4"),
                     (6, "gamma/sigma")):
        argvs += [["dims", "--n", str(n), "--format", fmt, "--group", group]
                  for fmt in ("text", "json")]
    rng = random.Random("cli-golden:refusals")
    argvs += [["member", "--n", "5", "--field", "rational", "--endo",
               format_endomorphism(sampling.random_gamma(rng, QQ, 5)),
               "--group", "gamma-asc:3"],
              ["dims", "--n", "3", "--group", "sigma"],
              ["generators", "--n", "6", "--field", "rational", "--group", "sigma"],
              ["member", "--n", "3", "--field", "prime:7", "--endo",
               "x1 -> x2; x2 -> x2; x3 -> x3", "--group", "gamma-asc:3"]]
    ident = "x1 -> x1; x2 -> x2; x3 -> x3; x4 -> x4"
    argvs += [["dims", "--n", "5", "--group", "sigma:5"],
              ["member", "--n", "4", "--endo", ident, "--group", "u-pow:-4"],
              ["member", "--n", "4", "--endo", ident, "--group", "gamma-asc:-2"]]
    with FIXTURE.open("w") as fh:
        json.dump([run(argv) for argv in argvs], fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _generate()
