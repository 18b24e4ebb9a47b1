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
coefficient.

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


def _case_id(record):
    argv = record["argv"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    return "-".join([argv[0], opts["--field"], "n" + opts["--n"],
                     opts.get("--format", "text"),
                     opts.get("--strategy", opts.get("--mode", "")),
                     "inexact" if "--inexact" in argv else ""]).rstrip("-")


@pytest.mark.parametrize("record", RECORDS,
                         ids=[f"{i:02d}-{_case_id(r)}" for i, r in enumerate(RECORDS)])
def test_cli_output_unchanged(record):
    assert run(record["argv"]) == record


def test_fixture_covers_both_fields_and_failures():
    fields = {r["argv"][r["argv"].index("--field") + 1] for r in RECORDS}
    assert fields == {"rational", "prime:7"}
    assert {r["argv"][0] for r in RECORDS} == {"invert", "apply", "jacobian",
                                               "decompose", "preimage"}
    for field in ("rational", "prime:7"):
        runs = [r for r in RECORDS if r["argv"][r["argv"].index("--field") + 1] == field]
        modes = {r["argv"][r["argv"].index("--mode") + 1] for r in runs
                 if r["argv"][0] == "decompose"}
        assert modes == {"oga", "unipotent", "gamma", "sigma-prime", "layers"}
        preimages = {(r["argv"][r["argv"].index("--n") + 1], "--inexact" in r["argv"],
                      r["code"]) for r in runs if r["argv"][0] == "preimage"}
        assert preimages == {("5", False, 0), ("6", False, 1), ("6", True, 0)}
    failures = [r for r in RECORDS if r["code"] == 2]
    assert failures and all(r["stderr"].startswith("error: ") for r in failures)
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
    with FIXTURE.open("w") as fh:
        json.dump([run(argv) for argv in argvs], fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _generate()
