import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_product,
    reference_element_to_json,
    reference_format_element,
    reference_parse_element,
)
from grassmann.algebra import (
    GrassmannElement,
    component,
    dot,
    element_from_json,
    element_to_json,
    even_part,
    format_element,
    involution,
    invert_unit,
    lincomb,
    parse_element,
)
from grassmann.endo import parse_endomorphism
from grassmann.rings import GF, QQ, NotAUnitError, PrimeField, ZeroDenominatorError, _is_prime
from grassmann.sampling import random_element, random_odd, spawn
from grassmann.skewcalc import skew_partial
from grassmann.verify import (
    check_associativity,
    check_center,
    check_defining_relations,
    check_involution,
    check_nilpotency,
    check_odd_squares,
    check_unit_inversion,
)


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def elem(ring, n, text):
    return parse_element(ring, n, text)


class TestMultiplication:
    def test_ascending_pair(self, ring):
        assert gen(ring, 4, 1) * gen(ring, 4, 2) == elem(ring, 4, "x1x2")

    def test_single_inversion(self, ring):
        assert gen(ring, 4, 2) * gen(ring, 4, 1) == elem(ring, 4, "-x1x2")

    def test_three_letter_sign(self, ring):
        # brute-force letter sorting also yields one transposition here
        left = elem(ring, 4, "x1x3")
        right = gen(ring, 4, 2)
        assert brute_force_product(left, right) == elem(ring, 4, "-x1x2x3")
        assert left * right == elem(ring, 4, "-x1x2x3")

    def test_square_truncation(self, ring):
        one = GrassmannElement.one(ring, 3)
        assert (one + gen(ring, 3, 1)) * (one - gen(ring, 3, 1)) == one

    def test_dimension_mismatch(self, ring):
        with pytest.raises(ValueError):
            gen(ring, 3, 1) * gen(ring, 4, 1)

    @pytest.mark.parametrize("n", [4, 6, 10, 16])
    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
    def test_against_brute_force(self, ring, rng, n):
        for _ in range(40):
            e = random_element(rng, ring, n, terms=4)
            f = random_element(rng, ring, n, terms=4)
            assert e * f == brute_force_product(e, f)

    @pytest.mark.parametrize("n", [4, 6, 10, 16])
    def test_against_brute_force_coprime_denominators(self, rng, n):
        # the integer-numerator kernel scales by lcms of these denominators
        # and reduces each output term; the letter product does neither
        pool = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7),
                Fraction(-9, 4), Fraction(22, 15), Fraction(3), Fraction(-1)]
        for _ in range(40):
            e, f = (GrassmannElement(QQ, n, {rng.randrange(1 << n): rng.choice(pool)
                                             for _ in range(6)})
                    for _ in range(2))
            assert e * f == brute_force_product(e, f)

    def test_cancelling_denominators(self):
        # 6 * (1/6) and 1/2 - 1/2: the output is built from the reduced
        # numerators, so exact zeros and integers come out as such
        x = parse_element(QQ, 3, "1/6*x1 + 1/2*x2")
        y = parse_element(QQ, 3, "6*x3 - x1 - 3*x2")
        assert x * y == parse_element(QQ, 3, "x1x3 + 3*x2x3")
        assert (x * y).coefficient(0b101) == Fraction(1)

    def test_associativity_random(self, ring, battery):
        for n in (4, 6, 8):
            battery(check_associativity, ring, n, 67)

    def test_anticommutation_and_squares(self, ring):
        assert check_defining_relations(ring, 6).passed

    def test_nilpotency_of_augmentation_ideal(self, ring, battery):
        battery(check_nilpotency, ring, 5, 20)


@st.composite
def small_elements(draw, n=4):
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          max_size=5))
    coeffs = draw(st.lists(st.integers(min_value=-4, max_value=4),
                           min_size=len(masks), max_size=len(masks)))
    terms = {}
    for m, c in zip(masks, coeffs):
        terms[m] = terms.get(m, 0) + c
    return GrassmannElement(QQ, n, {m: Fraction(c) for m, c in terms.items()})


class TestHypothesisInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_elements(), small_elements(), small_elements())
    def test_associativity(self, e, f, g):
        assert (e * f) * g == e * (f * g)

    @settings(max_examples=60, deadline=None)
    @given(small_elements(), small_elements())
    def test_involution_is_multiplicative(self, e, f):
        assert involution(e * f) == involution(e) * involution(f)

    @settings(max_examples=60, deadline=None)
    @given(small_elements())
    def test_involution_order_two(self, e):
        assert involution(involution(e)) == e

    @settings(max_examples=60, deadline=None)
    @given(small_elements())
    def test_parity_parts_sum(self, e):
        assert component(e, "even") + component(e, "odd") == e


@st.composite
def field_elements(draw, ring, n=5):
    """Elements with rational or residue coefficients over ``ring``."""
    if ring.modulus is None:
        coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
    else:
        coeffs = st.integers(min_value=0, max_value=ring.modulus - 1)
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1),
                                 coeffs, max_size=8))
    return GrassmannElement(ring, n, terms)


# the alphabet of both grammars, spaces and newlines included
GRAMMAR_TEXT = st.text(alphabet="0123456789x+-*/;> \n", max_size=40)


class TestHypothesisRoundTrips:
    @pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["QQ", "GF7"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_text_round_trip(self, ring, data):
        e = data.draw(field_elements(ring))
        assert parse_element(ring, 5, format_element(e)) == e

    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_json_round_trip(self, ring, data):
        n = data.draw(st.integers(1, 8))
        e = data.draw(field_elements(ring, n))
        assert element_from_json(ring, n, element_to_json(e)) == e

    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
    def test_json_rejects_a_repeated_mask(self, ring):
        data = element_to_json(elem(ring, 4, "1/2*x1 + x2x3"))
        data["terms"].append(dict(data["terms"][0], coeff="1"))
        with pytest.raises(ValueError, match="mask 1 occurs twice"):
            element_from_json(ring, 4, data)
        data["terms"][-1] = {"mask": 16, "monomial": "x5", "coeff": "1"}
        with pytest.raises(ValueError, match="mask 16 out of range"):
            element_from_json(ring, 4, data)

    @settings(max_examples=300, deadline=None)
    @given(GRAMMAR_TEXT)
    def test_parsers_fail_only_with_named_errors(self, text):
        for ring in (QQ, GF(7)):
            for parse in (parse_element, parse_endomorphism):
                try:
                    parse(ring, 3, text)
                except (ValueError, ArithmeticError):
                    pass


ORACLE_RINGS = [QQ, GF(3), GF(7)]
_ORACLE_IDS = ["QQ", "GF3", "GF7"]


@st.composite
def written_texts(draw, ring):
    """``(n, text, ascending)``: a valid element text with stacked signs,
    repeated and cancelling masks, a '*' left out, spaces, large numerators
    and denominators and monomials written in any order; ``ascending`` is
    the same text with every monomial ascending and an odd reordering
    written as one more '-', which is how ``parse_element`` reads it."""
    n = draw(st.integers(1, 12))
    p = ring.modulus
    words = draw(st.lists(st.lists(st.integers(1, n), unique=True, max_size=min(n, 4)),
                          min_size=1, max_size=4))
    big = st.integers(0, 10 ** 30)
    den = st.integers(1, 10 ** 30).filter(lambda q: p is None or q % p)
    coeffs = st.one_of(st.none(), big.map(str), st.tuples(big, den).map(
        lambda aq: f"{aq[0]}/{aq[1]}"))
    term = st.tuples(st.lists(st.sampled_from("+-"), max_size=3), coeffs,
                     st.booleans(), st.integers(0, len(words) - 1))
    terms = draw(st.lists(term, min_size=1, max_size=10))
    for k in draw(st.lists(st.integers(0, len(terms) - 1), max_size=3)):
        signs, coeff, star, w = terms[k]
        terms.append((["-"] + signs, coeff, star, w))  # cancels term k
    space = st.sampled_from(["", " ", "  "])
    written, ascending = [], []
    for k, (signs, coeff, star, w) in enumerate(terms):
        word = words[w]
        if coeff is None and not word:
            coeff = "1"
        if k and not signs:
            signs = ["+"]
        order = draw(st.permutations(word))
        odd = sum(a > b for j, a in enumerate(order) for b in order[j + 1:]) & 1
        for out, mono, extra in ((written, order, []), (ascending, sorted(word), ["-"] * odd)):
            pieces = extra + signs
            if coeff is not None:
                pieces.append(coeff)
                if mono and star:
                    pieces.append("*")
            if mono:
                pieces.append("".join(f"x{i}" for i in mono))
            out.append(pieces)
    gaps = iter(draw(st.lists(space, min_size=200, max_size=200)))
    join = lambda text: "".join(piece + next(gaps) for term in text for piece in term)
    return n, join(written), join(ascending)


def _ascending_monomials(text):
    """Whether every monomial in text lists its generators ascending."""
    for mono in re.findall(r"(?:x\d+)+", "".join(text.split())):
        indices = [int(i) for i in mono[1:].split("x")]
        if indices != sorted(indices):
            return False
    return True


def _outcome(parse, ring, n, text):
    try:
        return parse(ring, n, text)
    except (ValueError, ArithmeticError) as err:
        return err


class TestReferenceCodec:
    """``parse_element``, ``format_element`` and ``element_to_json`` against
    the field-element references in ``conftest``."""

    @pytest.mark.parametrize("ring", ORACLE_RINGS, ids=_ORACLE_IDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_texts_match_reference(self, ring, data):
        n, text, ascending = data.draw(written_texts(ring))
        got = parse_element(ring, n, text)
        want = reference_parse_element(ring, n, ascending)
        assert got == want
        assert list(got.num) == list(want.num)  # the same term order
        assert format_element(got) == reference_format_element(got)
        assert element_to_json(got) == reference_element_to_json(got)

    @pytest.mark.parametrize("ring", ORACLE_RINGS, ids=_ORACLE_IDS)
    @settings(max_examples=200, deadline=None)
    @given(text=GRAMMAR_TEXT, n=st.integers(1, 12))
    def test_grammar_text_matches_reference(self, ring, text, n):
        got = _outcome(parse_element, ring, n, text)
        want = _outcome(reference_parse_element, ring, n, text)
        if isinstance(want, ZeroDivisionError):
            # the one changed error: a named denominator, still a ZeroDivisionError
            assert isinstance(got, ZeroDenominatorError) and isinstance(got, type(want))
        elif isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert isinstance(got, GrassmannElement), got
            if _ascending_monomials(text):
                assert got == want and list(got.num) == list(want.num)

    @pytest.mark.parametrize("ring", ORACLE_RINGS, ids=_ORACLE_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_format_matches_reference(self, ring, data):
        e = data.draw(field_elements(ring))
        assert format_element(e) == reference_format_element(e)
        assert element_to_json(e) == reference_element_to_json(e)


class TestComponents:
    def test_degree_projection(self, ring):
        e = elem(ring, 3, "1 + x1 + x1x2")
        assert component(e, 1) == elem(ring, 3, "x1")

    def test_odd_projection(self, ring):
        e = elem(ring, 3, "x1 + x1x2x3")
        assert component(e, "odd") == e

    def test_even_projection_kills_generator(self, ring):
        assert not component(gen(ring, 3, 1), "even")

    def test_bad_selector(self, ring):
        with pytest.raises(ValueError):
            component(gen(ring, 3, 1), "weird")


class TestInvolution:
    def test_example(self, ring):
        assert involution(elem(ring, 3, "x1x2 + x3")) == elem(ring, 3, "x1x2 - x3")

    def test_fixes_one(self, ring):
        one = GrassmannElement.one(ring, 3)
        assert involution(one) == one

    def test_normality_relation(self, ring, battery):
        # x_i a == involution(a) x_i, with multiplicativity and order two
        battery(check_involution, ring, 5, 100)

    def test_odd_squares_vanish(self, ring, battery):
        battery(check_odd_squares, ring, 6, 200)

    def test_norm_form(self, ring, rng, battery):
        # a * involution(a) and involution(a) * a equal the even part squared
        battery(check_odd_squares, ring, 5, 200)
        n = 5
        for _ in range(200):
            a = random_element(rng, ring, n, terms=4)
            ev = even_part(a)
            assert involution(a) * a == ev * ev

    def test_odd_part_bracket_is_central(self, ring, rng):
        # brackets of odd elements land in the even part, which is central
        n = 5
        for _ in range(30):
            a = random_odd(rng, ring, n, terms=3)
            b = random_element(rng, ring, n, terms=3)
            br = a * b - b * a
            assert br == even_part(br)
            c = random_element(rng, ring, n, terms=3)
            assert br * c == c * br


class TestLincomb:
    """lincomb against scale-and-add as the oracle."""

    @staticmethod
    def oracle(ring, n, pairs):
        acc = GrassmannElement.zero(ring, n)
        for c, e in pairs:
            acc = acc + e.scale(c)
        return acc

    def test_coprime_and_negative_denominators(self, rng):
        n = 6
        pool = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), Fraction(0),
                Fraction(-9, 4), Fraction(3)]
        for _ in range(40):
            pairs = [(rng.choice(pool),
                      GrassmannElement(QQ, n, {rng.randrange(1 << n): rng.choice(pool)
                                               for _ in range(5)}))
                     for _ in range(rng.randrange(1, 6))]
            assert lincomb(QQ, n, pairs) == self.oracle(QQ, n, pairs)

    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
    def test_random_pairs(self, ring, rng):
        n = 5
        for _ in range(40):
            pairs = [(ring.random(rng), random_element(rng, ring, n, terms=4))
                     for _ in range(rng.randrange(1, 6))]
            assert lincomb(ring, n, pairs) == self.oracle(ring, n, pairs)

    def test_zero_coefficients_and_empty(self, ring):
        zero = GrassmannElement.zero(ring, 3)
        e = elem(ring, 3, "1 + x1x2")
        assert lincomb(ring, 3, []) == zero
        assert lincomb(ring, 3, [(ring.zero, e), (ring.one, zero)]) == zero
        assert lincomb(ring, 3, [(ring.zero, e), (ring.from_int(2), e)]) == e.scale(2)
        # full cancellation leaves no zero terms behind
        assert lincomb(ring, 3, [(ring.one, e), (ring.from_int(-1), e)]).terms == {}

    def test_cancelling_denominators(self):
        x = parse_element(QQ, 3, "1/6*x1 + 1/2*x2")
        y = parse_element(QQ, 3, "5/6*x1 + 1/3*x3")
        out = lincomb(QQ, 3, [(Fraction(6), x), (Fraction(6, 5), y)])
        assert out == parse_element(QQ, 3, "2*x1 + 3*x2 + 2/5*x3")
        assert out.coefficient(0b001) == Fraction(2)


class TestDot:
    """dot against the sum of products, cut at the degree cap afterwards."""

    @staticmethod
    def oracle(ring, n, pairs, cap):
        acc = GrassmannElement.zero(ring, n)
        for a, b in pairs:
            acc = acc + a * b
        return GrassmannElement(ring, n, {m: c for m, c in acc.terms.items()
                                          if m.bit_count() <= cap})

    @staticmethod
    def caps(n):
        return (0, 1, n - 1, n, n + 2)

    def test_coprime_and_negative_denominators(self, rng):
        n = 6
        pool = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), Fraction(0),
                Fraction(-9, 4), Fraction(3)]

        def element():
            return GrassmannElement(QQ, n, {rng.randrange(1 << n): rng.choice(pool)
                                            for _ in range(5)})

        for _ in range(40):
            pairs = [(element(), element()) for _ in range(rng.randrange(1, 5))]
            for cap in self.caps(n):
                assert dot(QQ, n, pairs, cap) == self.oracle(QQ, n, pairs, cap)

    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=["QQ", "GF7", "GF3"])
    def test_random_pairs(self, ring, rng):
        n = 5
        for _ in range(40):
            pairs = [(random_element(rng, ring, n, terms=4),
                      random_element(rng, ring, n, terms=4))
                     for _ in range(rng.randrange(1, 5))]
            for cap in self.caps(n):
                assert dot(ring, n, pairs, cap) == self.oracle(ring, n, pairs, cap)

    def test_zero_elements_and_empty(self, ring):
        n = 3
        zero = GrassmannElement.zero(ring, n)
        e = elem(ring, n, "1 + x1 - x2x3")
        for cap in self.caps(n):
            assert dot(ring, n, [], cap) == zero
            assert dot(ring, n, [(zero, e), (e, zero)], cap) == zero
            assert dot(ring, n, [(zero, e), (e, e)], cap) == self.oracle(
                ring, n, [(e, e)], cap)
        # full cancellation leaves no zero terms behind
        assert dot(ring, n, [(e, e), (-e, e)], n).terms == {}

    def test_start_is_added_uncut(self, rng):
        # the fused row operation of the elimination: a - f*b as start=a
        pool = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), Fraction(3)]
        for ring in (QQ, GF(7), GF(3)):
            p = ring.modulus
            coeffs = [c for c in pool if p is None or c.denominator % p]
            n = 4
            for _ in range(30):
                a, f, b = (GrassmannElement(ring, n, {rng.randrange(1 << n): rng.choice(coeffs)
                                                      for _ in range(4)})
                           for _ in range(3))
                num = dict(a.num)
                assert dot(ring, n, [(-f, b)], n, a) == a - f * b
                assert a.num == num  # the start's numerators are copied
                for cap in self.caps(n):
                    assert dot(ring, n, [(f, b)], cap, a) == a + self.oracle(
                        ring, n, [(f, b)], cap)
            assert dot(ring, n, [(a, a)], n, -(a * a)) == GrassmannElement.zero(ring, n)

    def test_left_terms_above_cap_are_skipped(self, ring):
        # x1x2 * 1 would land above the cap; x3 * x1 lands on it
        n = 3
        left = elem(ring, n, "x1x2 + x3")
        right = elem(ring, n, "1 + x1")
        assert dot(ring, n, [(left, right)], 2) == elem(ring, n, "x1x2 + x3 - x1x3")
        assert dot(ring, n, [(left, right)], 1) == elem(ring, n, "x3")
        assert dot(ring, n, [(left, right)], 0) == GrassmannElement.zero(ring, n)


class TestUnitInversion:
    def test_top_pair(self, ring):
        e = elem(ring, 3, "1 + x1x2")
        assert invert_unit(e) == elem(ring, 3, "1 - x1x2")

    def test_scalar(self):
        e = GrassmannElement.scalar(QQ, 3, 2)
        assert invert_unit(e) == GrassmannElement.scalar(QQ, 3, Fraction(1, 2))

    def test_mixed_unit(self, ring):
        e = elem(ring, 3, "1 + x1 + x1x2")
        one = GrassmannElement.one(ring, 3)
        assert e * invert_unit(e) == one
        assert invert_unit(e) * e == one

    def test_random_units(self, ring, battery):
        battery(check_unit_inversion, ring, 5, 50)

    def test_non_unit_rejected(self, ring):
        with pytest.raises(NotAUnitError):
            invert_unit(gen(ring, 3, 1))

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    def test_series_in_every_size(self, ring):
        # e * e^-1 = 1 for units lam (1 - f) with lam != 1, f random plus the
        # pair sum g = x1x2 + x3x4 + ..., whose powers stay nonzero up to
        # g^(n // 2), so the series runs to its end
        rng = spawn(17, "unit-series", str(ring))
        for n in range(1, 11):
            one = GrassmannElement.one(ring, n)
            g = GrassmannElement(ring, n, {3 << 2 * k: 1 for k in range(n // 2)})
            want = one  # (1 - g)^-1 by repeated products
            power = one
            for _ in range(n // 2):
                power = power * g
                want = want + power
            assert invert_unit(one - g) == want
            for _ in range(4):
                lam = ring.random_nonzero(rng)
                while lam == ring.one:
                    lam = ring.random_nonzero(rng)
                f = random_element(rng, ring, n, degrees=range(1, n + 1), terms=4) + g
                e = (one - f).scale(lam)
                inv = invert_unit(e)
                assert e * inv == one
                assert inv * e == one
            lam = ring.normalize(Fraction(2, 5))
            scalar = GrassmannElement.scalar(ring, n, lam)
            assert invert_unit(scalar) == GrassmannElement.scalar(ring, n, ring.invert(lam))
            with pytest.raises(NotAUnitError):
                invert_unit(g + gen(ring, n, 1))


class TestCenter:
    @pytest.mark.parametrize("n", [4, 5])
    def test_monomial_commutant(self, ring, n):
        assert check_center(ring, n).passed


class TestGrammar:
    CASES = ["0", "1", "-1", "x1", "-x1x2", "1 - 3/2*x1x3 + x2x4",
             "2*x1 + 1/3*x2x3x4", "5"]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_rational(self, text):
        e = parse_element(QQ, 4, text)
        assert parse_element(QQ, 4, format_element(e)) == e

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_prime(self, text):
        ring = GF(7)
        e = parse_element(ring, 4, text)
        assert parse_element(ring, 4, format_element(e)) == e

    def test_whitespace_insensitive(self):
        assert parse_element(QQ, 4, "1-3/2*x1x3+x2x4") == parse_element(
            QQ, 4, " 1 - 3/2 * x1x3 + x2x4 ")

    def test_two_digit_indices(self):
        e = parse_element(QQ, 12, "x12 + x1x2")
        assert e.coefficient(1 << 11) == 1
        assert e.coefficient(0b11) == 1
        assert parse_element(QQ, 12, format_element(e)) == e

    def test_random_round_trips(self, ring, rng):
        for _ in range(50):
            e = random_element(rng, ring, 5, terms=5)
            assert parse_element(ring, 5, format_element(e)) == e

    def test_repeated_generator_rejected(self):
        with pytest.raises(ValueError):
            parse_element(QQ, 4, "x1x1")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_element(QQ, 4, "x5")

    @pytest.mark.parametrize("text", ["2*3", "2*", "2*-x1"])
    def test_star_needs_a_monomial(self, ring, text):
        with pytest.raises(ValueError, match="must be followed by a monomial"):
            parse_element(ring, 2, text)

    @pytest.mark.parametrize("text", [
        "x1 - x1", "x1 + x1", "x1 - x1 + x1", "2*x1x2 - 3*x1x2 + x1x2 + x3",
        "1 + 1 - 2 + x2", "3*x1 + 4*x1 - x2 + x1", "x3 - 5*x1x2 + 5*x1x2 + 1",
        "0*x1 + x2 - -x2"])
    def test_repeated_monomials_sum_termwise(self, ring, text):
        # reference: the signed terms parsed one by one and added in order
        ref = GrassmannElement.zero(ring, 3)
        for term in text.replace("- -", "+").replace("-", "+-").split("+"):
            if term.strip():
                ref = ref + parse_element(ring, 3, term)
        got = parse_element(ring, 3, text)
        assert got == ref
        assert list(got.terms.items()) == list(ref.terms.items())

    @pytest.mark.parametrize("word", [(2, 1), (3, 1, 2), (3, 2, 1), (1, 3, 2),
                                      (4, 2, 3, 1), (2, 4, 1, 3)])
    def test_shuffled_monomial_is_the_written_product(self, ring, word):
        n = 4
        product = GrassmannElement.one(ring, n)
        for i in word:
            product = product * gen(ring, n, i)
        text = "".join(f"x{i}" for i in word)
        assert parse_element(ring, n, text) == product
        assert parse_element(ring, n, f"-{text}") == -product
        assert parse_element(ring, n, f"3/2*{text}") == product.scale(Fraction(3, 2))
        assert parse_element(ring, n, f"{text} + x1x2x3x4") == product + gen(
            ring, n, 1) * gen(ring, n, 2) * gen(ring, n, 3) * gen(ring, n, 4)

    @pytest.mark.parametrize("text, message", [
        ("", "empty element expression"),
        (" \n ", "empty element expression"),
        ("x1 + y + x2", "cannot parse element near 'y+x2'"),
        ("1 + 2.5", "cannot parse element near '.5'"),
        ("x1 -", "dangling sign in element expression"),
        ("+ - ", "dangling sign in element expression"),
        ("*x1", "unexpected token '*'"),
        ("x1 + *x2", "unexpected token '*'"),
        ("x5", "generator x5 out of range for n=4"),
        ("2*x0x1", "generator x0 out of range for n=4"),
        ("x2x1x2", "repeated generator x2 in monomial 'x2x1x2'"),
        ("2*3", "'*' must be followed by a monomial"),
    ])
    def test_error_messages(self, ring, text, message):
        with pytest.raises(ValueError) as info:
            parse_element(ring, 4, text)
        assert str(info.value) == message

    @pytest.mark.parametrize("ring, coeff, q", [
        (QQ, "1/0", 0), (QQ, "0/0", 0), (GF(7), "1/7", 7), (GF(7), "3/0", 0),
        (GF(7), "2/14", 14)], ids=["QQ-1/0", "QQ-0/0", "GF7-1/7", "GF7-3/0", "GF7-2/14"])
    def test_zero_denominator_is_named(self, ring, coeff, q):
        message = f"coefficient {coeff!r} has denominator {q}, which is zero in {ring!r}"
        for text in (f"{coeff}*x1", f"x2 - {coeff}", f"0*x1 + {coeff}*x3"):
            with pytest.raises(ValueError) as info:
                parse_element(ring, 3, text)
            assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            ring.parse(coeff)
        assert str(info.value) == message

    def test_repeated_monomials_examples(self):
        assert parse_element(QQ, 3, "x1 - x1") == GrassmannElement.zero(QQ, 3)
        assert parse_element(QQ, 3, "x2 + x1 + x1") == parse_element(QQ, 3, "2*x1 + x2")
        assert parse_element(GF(7), 3, "3*x1 + 4*x1 - x2") == parse_element(GF(7), 3, "6*x2")

    def test_parse_is_linear_in_the_term_count(self):
        n = 14
        e = GrassmannElement(QQ, n, {m: Fraction(m % 7 - 3, 1 + m % 2) or 1
                                     for m in range(1 << n)})
        text = format_element(e)
        t0 = time.perf_counter()
        got = parse_element(QQ, n, text)
        assert time.perf_counter() - t0 < 1.0
        assert got == e

    def test_format_is_linear_in_the_term_count(self):
        n = 14
        e = GrassmannElement(QQ, n, {m: Fraction(m % 7 - 3, 1 + m % 2) or 1
                                     for m in range(1 << n)})
        t0 = time.perf_counter()
        text = format_element(e)
        data = element_to_json(e)
        assert time.perf_counter() - t0 < 1.0
        assert parse_element(QQ, n, text) == e
        assert element_from_json(QQ, n, data) == e


class TestBounds:
    def test_generator_cap(self):
        e = GrassmannElement.generator(QQ, 16, 16)
        assert e.coefficient(1 << 15) == 1
        with pytest.raises(ValueError):
            GrassmannElement.zero(QQ, 17)
        with pytest.raises(ValueError):
            GrassmannElement.zero(QQ, 0)

    def test_even_characteristic_rejected(self):
        with pytest.raises(ValueError):
            GF(2)
        with pytest.raises(ValueError):
            GF(9)

    def test_primality_matches_trial_division(self):
        for p in range(-3, 3000):
            want = p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
            assert _is_prime(p) == want, p

    def test_large_prime_modulus_accepted_fast(self):
        t0 = time.perf_counter()
        ring = PrimeField(10 ** 18 + 3)
        assert time.perf_counter() - t0 < 0.1
        assert ring.normalize(ring.invert(2) * 2) == 1

    @pytest.mark.parametrize("p", [561, 3215031751])
    def test_pseudoprimes_rejected(self, p):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # the bases 2, 3, 5 and 7
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(p)

    def test_primality_limit_is_named(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            PrimeField(2 ** 89 - 1)  # a Mersenne prime above the exact range

    def test_prime_field_parses_fractions(self):
        ring = GF(7)
        assert ring.parse("3/2") == ring.normalize(3 * ring.invert(2))

    def test_prime_field_normalizes_fractions(self):
        ring = GF(7)
        assert ring.normalize(Fraction(-13, 6)) == 6 == ring.parse("-13/6")
        assert GrassmannElement.scalar(ring, 3, Fraction(-13, 6)) == parse_element(
            ring, 3, "-13/6")
        with pytest.raises(NotAUnitError):
            ring.normalize(Fraction(1, 7))
        with pytest.raises(NotAUnitError):
            ring.parse("1/7")

    def test_prime_field_fraction_scalars(self):
        # every Fraction scalar over GF(p) goes through normalize: a/b is a*b^-1
        ring = GF(7)
        x1 = gen(ring, 3, 1)
        got = lincomb(ring, 3, [(Fraction(1, 3), x1)])
        assert got == x1.scale(Fraction(1, 3)) == x1.scale(5)
        assert format_element(got) == "5*x1"
        assert lincomb(ring, 3, [(Fraction(7, 3), x1)]) == GrassmannElement.zero(ring, 3)
        with pytest.raises(NotAUnitError):
            lincomb(ring, 3, [(Fraction(1, 7), x1)])

    def test_prime_field_inverts_fractions(self):
        ring = GF(7)
        assert ring.invert(Fraction(1, 3)) == 3
        assert ring.invert(Fraction(-13, 6)) == ring.invert(6)
        with pytest.raises(NotAUnitError):
            ring.invert(Fraction(7, 3))
        with pytest.raises(NotAUnitError):
            ring.invert(Fraction(1, 7))

    def test_prime_field_unit_test_on_fractions(self):
        ring = GF(7)
        assert ring.is_unit(Fraction(2, 3))
        assert not ring.is_unit(Fraction(14, 3))
        with pytest.raises(NotAUnitError):
            ring.is_unit(Fraction(1, 7))

    def test_ring_constants_are_shared(self):
        # one immutable object per constant, not a new Fraction per read
        assert QQ.zero is QQ.zero and QQ.one is QQ.one
        assert QQ.zero == 0 and QQ.one == 1 and type(QQ.one) is Fraction
        assert GF(7).zero == 0 and GF(7).one == 1

    def test_two_is_invertible(self, ring):
        two = ring.from_int(2)
        assert ring.normalize(ring.invert(two) * two) == ring.one

    def test_desk_scale_smoke(self, ring, rng):
        # sparse arithmetic stays exact and calm at the upper desk sizes
        for n in (10, 16):
            e = random_element(rng, ring, n, terms=6)
            f = random_element(rng, ring, n, terms=6)
            g = random_element(rng, ring, n, terms=6)
            assert (e * f) * g == e * (f * g)
            assert involution(e * f) == involution(e) * involution(f)


class TestRepresentation:
    """Every element is num/den in canonical form, and ``terms`` views it."""

    POOL = [Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7)]

    @staticmethod
    def assert_canonical(e):
        num, den = e.num, e.den
        assert type(den) is int and den > 0
        assert all(type(c) is int and c != 0 for c in num.values())
        assert gcd(den, *num.values()) == 1
        p = e.ring.modulus
        if p is None:
            assert e.terms == {m: Fraction(c, den) for m, c in num.items()}
        else:
            assert den == 1 and all(0 < c < p for c in num.values())
            assert e.terms is num
        # the same element built from field elements: equal, same hash, same form
        rebuilt = GrassmannElement(e.ring, e.n, dict(e.terms))
        assert rebuilt == e and hash(rebuilt) == hash(e)
        assert (rebuilt.num, rebuilt.den) == (num, den)
        assert rebuilt.terms == e.terms

    def pool(self, ring):
        # over GF(p), the fractions whose denominators are units mod p
        p = ring.modulus
        return [c for c in self.POOL if p is None or c.denominator % p]

    def element(self, rng, ring, n, terms=4, constant=False):
        pool = self.pool(ring)
        out = {rng.randrange(1 << n): rng.choice(pool) for _ in range(terms)}
        if constant:
            out[0] = rng.choice(pool)
        return GrassmannElement(ring, n, out)

    def results(self, rng, ring, n):
        e = self.element(rng, ring, n)
        f = self.element(rng, ring, n)
        u = self.element(rng, ring, n, constant=True)
        c = rng.choice(self.pool(ring))
        yield from (e, f, u, e + f, e - f, e - e, -e, e * f, f * e, u * u)
        yield from (e.scale(c), e.scale(-1), c * e)
        yield lincomb(ring, n, [(c, e), (rng.choice(self.pool(ring)), f), (-c, e)])
        yield lincomb(ring, n, [(1, e), (-1, e)])
        for cap in (0, 1, n - 1, n):
            yield dot(ring, n, [(e, f), (f, u)], cap)
        for i in range(1, n + 1):
            yield skew_partial(i, e)
            yield skew_partial(i, u)
        for selector in ("even", "odd", 0, 1, 2):
            yield component(e, selector)
        yield invert_unit(u)
        yield invert_unit(u.scale(-1))
        yield parse_element(ring, n, format_element(e))

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=["QQ", "GF3", "GF7"])
    def test_every_result_is_canonical(self, ring, rng):
        for n in (3, 5):
            for _ in range(15):
                for e in self.results(rng, ring, n):
                    self.assert_canonical(e)

    def test_subsets_and_sums_are_reduced(self):
        # (2*x1 + 3*x1x2) / 6: dropping a term or summing can leave a common factor
        e = parse_element(QQ, 3, "1/3*x1 + 1/2*x1x2")
        assert (e.num, e.den) == ({0b001: 2, 0b011: 3}, 6)
        cases = [
            (component(e, 1), ({0b001: 1}, 3)),
            (component(e, 2), ({0b011: 1}, 2)),
            (skew_partial(2, e), ({0b001: -1}, 2)),
            (e + parse_element(QQ, 3, "-1/3*x1 + 1/2*x1x2"), ({0b011: 1}, 1)),
            (e.scale(6), ({0b001: 2, 0b011: 3}, 1)),
            (lincomb(QQ, 3, [(Fraction(3, 2), e)]), ({0b001: 2, 0b011: 3}, 4)),
            # (-13/6 + x1x2)^-1 = -6/13 - 36/169*x1x2: a negative constant numerator
            (invert_unit(parse_element(QQ, 3, "-13/6 + x1x2")),
             ({0: -78, 0b011: -36}, 169)),
        ]
        for got, form in cases:
            self.assert_canonical(got)
            assert (got.num, got.den) == form

    def test_same_element_by_every_route(self):
        n = 3
        routes = [
            GrassmannElement(QQ, n, {0b001: Fraction(-13, 6), 0b110: Fraction(5, 11)}),
            parse_element(QQ, n, "-13/6*x1 + 5/11*x2x3"),
            parse_element(QQ, n, "-13/6*x1") + parse_element(QQ, n, "5/11*x2x3"),
            parse_element(QQ, n, "-143*x1 + 30*x2x3").scale(Fraction(1, 66)),
            lincomb(QQ, n, [(Fraction(-13, 6), gen(QQ, n, 1)),
                            (Fraction(5, 11), gen(QQ, n, 2) * gen(QQ, n, 3))]),
            dot(QQ, n, [(GrassmannElement.scalar(QQ, n, Fraction(1, 7)),
                         parse_element(QQ, n, "-91/6*x1 + 35/11*x2x3"))], n),
        ]
        first = routes[0]
        for e in routes:
            self.assert_canonical(e)
            assert e == first and hash(e) == hash(first) and e.terms == first.terms
            assert format_element(e) == "-13/6*x1 + 5/11*x2x3"
