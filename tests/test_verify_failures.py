"""Failing verify rows keep their name, sample count and first-failure text.

The golden verify fixtures hold only passing rows, so these tests break one
callee of a check at a chosen sample (by monkeypatching it) and pin the
whole ``CheckResult`` the check returns.  The expected maps are the seeded
draws of that sample, so a change of spawn tag or draw order shows here too.
"""

from grassmann import verify
from grassmann.endo import Endomorphism, identity_endo
from grassmann.rings import GF
from grassmann.verify import (
    CheckResult,
    check_inverse_strategies,
    check_sigma_prime_roundtrip,
    check_unit_inversion,
)

RING = GF(7)


def fail_on_call(real, index, wrong):
    """``real`` except that call number ``index`` (from 0) returns ``wrong(*args)``."""
    calls = []

    def patched(*args):
        calls.append(args)
        return wrong(*args) if len(calls) - 1 == index else real(*args)

    return patched


def test_sample_row(monkeypatch):
    # invert_unit runs once per sample, so call 2 is sample 2
    monkeypatch.setattr(verify, "invert_unit", fail_on_call(
        verify.invert_unit, 2, lambda e: e))
    assert check_unit_inversion(RING, 5, 6, 1) == CheckResult(
        "unit inversion n=5", False, 6, "first failure: sample 2")


def test_row_formats_the_input_map(monkeypatch):
    class Unrecomposable:
        def recompose(self):
            return identity_endo(RING, 5)

    monkeypatch.setattr(verify, "decompose_sigma_prime", fail_on_call(
        verify.decompose_sigma_prime, 1, lambda sigma: Unrecomposable()))
    assert check_sigma_prime_roundtrip(RING, 5, 3, 1) == CheckResult(
        "pair-scaling coordinates n=5", False, 3,
        "first failure: recomposition failed on sample 1: "
        "x1 -> x1 + 4*x1x2x5; x2 -> x2 + 5*x1x2x5; "
        "x3 -> x3 + x2x3x4 + 2*x1x3x5 + 4*x2x3x5; x4 -> x4; x5 -> x5 + x2x4x5")


def test_strategy_mismatch_skips_the_rest_of_its_sample(monkeypatch):
    # a None inverse differs from the formula inverse; composing with it
    # would raise, so the check returns only if the sample stops there
    monkeypatch.setattr(Endomorphism, "_inverse_iteration", fail_on_call(
        Endomorphism._inverse_iteration, 1, lambda sigma: None))
    assert check_inverse_strategies(RING, 4, 3, 1) == CheckResult(
        "inversion strategies n=4 (GF(7))", False, 3,
        "first failure: strategy mismatch on sample 1: "
        "x1 -> 5*x1 + 3*x3 + 3*x4 + 4*x1x2x4 + 6*x1x3x4 + x2x3x4; "
        "x2 -> x1 + 4*x2 + x3 + 6*x4 + 2*x1x2x4 + x1x3x4 + 2*x2x3x4; "
        "x3 -> 4*x1 + 6*x2 + 5*x3 + 6*x4 + 4*x1x2x4 + 6*x1x3x4 + 4*x2x3x4; "
        "x4 -> 2*x1 + 4*x2 + x3 + x1x2x4 + 3*x1x3x4 + 4*x2x3x4")
