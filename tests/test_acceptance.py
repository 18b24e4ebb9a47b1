"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every comparison is exact (integer, rational, or prime-field equality); the
sample counts follow the stated criteria.  The properties are the
``grassmann.verify`` checks; this file fixes their fields, n values, sample
counts and seed.  Run with ``pytest -s`` to see the per-criterion lines.
"""

import time

from grassmann.algebra import GrassmannElement
from grassmann.dims import dim_by_coordinates, dim_formula
from grassmann.endo import Endomorphism, inner
from grassmann.groups import (
    OMEGA,
    SIGMA_PRIME,
    U,
    decompose_gamma,
    decompose_unipotent,
    member,
)
from grassmann.identities import nonnormality_witness
from grassmann.rings import GF, QQ
from grassmann.sampling import (
    random_gamma,
    random_sigma_prime_word,
    random_unipotent,
    spawn,
)
from grassmann.verify import (
    check_al2_random,
    check_ascent_distinctness,
    check_chain_rule,
    check_dimension_consistency,
    check_dimension_tables,
    check_even_collapse,
    check_gamma_word_roundtrip,
    check_identity_battery,
    check_identity_battery_random,
    check_identity_operator,
    check_inverse_strategies,
    check_layers_roundtrip,
    check_n3_exhaustive,
    check_oga_roundtrip,
    check_operator_relations,
    check_partial_solver,
    check_partial_solver_pair_rejection,
    check_preimage_even_refusal,
    check_preimage_odd,
    check_sigma_prime_roundtrip,
    check_skew_leibniz,
    check_taylor,
    check_unipotent_roundtrip,
    check_xi_solver,
    check_xi_solver_pair_rejection,
)

SEED = 20240917


def report(number: int, label: str, passed: bool, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {label} "
          f"({time.time() - started:.1f}s)", flush=True)
    assert passed, f"criterion {number}: {label}"


def sampled(check, *args) -> bool:
    """check(*args, SEED) passed on at least its requested sample count."""
    result = check(*args, SEED)
    return result.passed and result.samples >= args[-1]


def test_criterion_1_dimension_tables():
    started = time.time()
    ok = check_dimension_tables().passed
    spot = [
        ("sigma", 4, 10), ("sigma", 5, 40), ("sigma", 6, 126),
        ("gamma", 5, 55), ("sigma_prime", 6, 60),
        ("sigma_double_prime", 6, 81),
        ("gamma_mod_sigma", 5, 15), ("gamma_mod_sigma", 6, 30),
    ]
    for g, n, want in spot:
        ok = ok and dim_formula(g, n) == want == dim_by_coordinates(g, n)
    report(1, "dimension tables, formulas vs coordinate counts (n = 4..10)",
           ok, started)


def test_criterion_2_consistency_identities():
    started = time.time()
    ok = check_dimension_consistency().passed
    report(2, "dimension consistency identities (n = 4..10)", ok, started)


def test_criterion_3_inversion_formula():
    started = time.time()
    ok = (sampled(check_inverse_strategies, GF(7), 5, 200)
          and sampled(check_inverse_strategies, QQ, 5, 50))
    report(3, "inversion formula vs iteration (200 over GF(7), 50 over Q, n=5)",
           ok, started)


def test_criterion_4_chain_rules():
    started = time.time()
    ok = all(sampled(check_chain_rule, GF(7), n, 100) for n in (4, 5))
    report(4, "Jacobian chain rules on 200 random pairs (n = 4, 5)", ok, started)


def test_criterion_5_factorization_roundtrips():
    started = time.time()
    ring = GF(7)
    checks = (check_oga_roundtrip, check_unipotent_roundtrip,
              check_gamma_word_roundtrip, check_sigma_prime_roundtrip,
              check_layers_roundtrip)
    ok = all(sampled(check, ring, n, 50) for check in checks for n in (5, 6))
    # factor membership and the shape of the shift words, which the checks
    # leave out
    for n in (5, 6):
        one = GrassmannElement.one(ring, n)
        for k in range(50):
            rng = spawn(SEED, "c5", n, k)
            word = decompose_unipotent(random_unipotent(rng, ring, n, factors=3))
            for kind, data in word.factors:
                if kind == "inner":
                    ok = ok and member(inner(one + data), OMEGA)
                else:
                    shift = Endomorphism(
                        [GrassmannElement.generator(ring, n, i + 1) + data[i]
                         for i in range(n)], check=False)
                    ok = ok and member(shift, U)
            gword = decompose_gamma(random_gamma(rng, ring, n, terms=2))
            for degree, cs in gword.xis.items():
                for i, c in enumerate(cs, start=1):
                    ok = ok and c.support_avoids(i)
                    ok = ok and (not c or c.is_homogeneous(degree))
            ok = ok and member(random_sigma_prime_word(rng, ring, n, length=4),
                               SIGMA_PRIME)
            if not ok:
                break
    report(5, "five factorizations round-trip on 100 random inputs (n = 5, 6)",
           ok, started)


def test_criterion_6_n3_exhaustive():
    started = time.time()
    report(6, "n = 3 exhaustive over GF(3): trivial kernel, bijective Jacobian",
           check_n3_exhaustive().passed, started)


def test_criterion_7_surjectivity_dichotomy():
    started = time.time()
    ok = (sampled(check_preimage_odd, GF(5), 5, 50)
          and sampled(check_preimage_even_refusal, GF(7), 4, 1000))
    report(7, "Jacobian surjectivity at n = 5, refusal of the top layer at n = 4",
           ok, started)


def test_criterion_8_even_collapse_and_distinctness():
    started = time.time()
    ring = GF(7)
    ok = all(sampled(check_even_collapse, ring, n, 150) for n in (4, 6))
    ok = ok and all(check_ascent_distinctness(ring, n).passed for n in (5, 6, 7))
    report(8, "even-n ascent collapse (n = 4, 6) and distinctness witnesses "
              "(n = 5, 6, 7)", ok, started)


def test_criterion_9_identity_battery():
    started = time.time()
    ring = GF(7)
    ok = check_identity_battery(ring, SEED).passed
    ok = ok and check_identity_battery(QQ, SEED).passed
    ok = ok and sampled(check_identity_battery_random, ring, 5, 25)
    ok = ok and sampled(check_al2_random, ring, 50)
    ok = ok and nonnormality_witness(ring)
    report(9, "commutator and group-law identity battery (n <= 9)", ok, started)


def test_criterion_10_calculus_suite():
    started = time.time()
    rows = [(check_skew_leibniz, 200), (check_operator_relations, 200),
            (check_taylor, 100), (check_identity_operator, 200),
            (check_xi_solver, 100), (check_xi_solver_pair_rejection, 50),
            (check_partial_solver, 100), (check_partial_solver_pair_rejection, 50)]
    ok = all(sampled(check, GF(7), 6, samples) for check, samples in rows)
    report(10, "calculus and solver suite on random cases at n = 6", ok, started)
