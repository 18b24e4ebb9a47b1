import pytest

from grassmann.algebra import GrassmannElement, parse_element
from grassmann.sampling import random_element
from grassmann.skewcalc import (
    apply_partial_word,
    coordinate_projection,
    phi_projection,
    skew_partial,
    taylor_reconstruct,
)
from grassmann.verify import (
    check_identity_operator,
    check_operator_relations,
    check_projections,
    check_skew_leibniz,
    check_taylor,
)


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def elem(ring, n, text):
    return parse_element(ring, n, text)


class TestSkewPartial:
    def test_middle_letter_sign(self, ring):
        assert skew_partial(2, elem(ring, 3, "x1x2x3")) == elem(ring, 3, "-x1x3")

    def test_first_letter(self, ring):
        assert skew_partial(1, elem(ring, 3, "x1")) == GrassmannElement.one(ring, 3)

    def test_absent_letter(self, ring):
        assert not skew_partial(1, elem(ring, 3, "x2x3"))

    def test_kronecker_on_generators(self, ring):
        n = 4
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = (GrassmannElement.one(ring, n) if i == j
                        else GrassmannElement.zero(ring, n))
                assert skew_partial(i, gen(ring, n, j)) == want

    def test_out_of_range(self, ring):
        with pytest.raises(ValueError):
            skew_partial(5, elem(ring, 3, "x1"))

    def test_skew_leibniz(self, ring, battery):
        battery(check_skew_leibniz, ring, 6, 200)

    def test_operator_relations(self, ring, battery):
        # d_i^2 = 0, d_i d_j = -d_j d_i and d_i x_j + x_j d_i = delta_ij
        battery(check_operator_relations, ring, 5, 100)


class TestPartialWord:
    def test_lowest_index_acts_first(self, ring):
        # word over {1, 2} applied to x1x2: d1 then d2 gives +1
        e = elem(ring, 2, "x1x2")
        assert apply_partial_word(e, 0b11) == GrassmannElement.one(ring, 2)

    def test_matches_explicit_composition(self, ring, rng):
        n = 5
        for _ in range(50):
            e = random_element(rng, ring, n, terms=4)
            mask = rng.randrange(1 << n)
            direct = e
            for i in range(1, n + 1):
                if (mask >> (i - 1)) & 1:
                    direct = skew_partial(i, direct)
            assert apply_partial_word(e, mask) == direct


class TestProjections:
    def test_kills_coordinate(self, ring):
        assert coordinate_projection(1, elem(ring, 3, "x1 + x2")) == elem(ring, 3, "x2")

    def test_annihilates_own_multiples(self, ring):
        assert not coordinate_projection(2, elem(ring, 3, "x1x2"))

    def test_idempotent(self, ring, battery):
        battery(check_projections, ring, 5, 50)

    def test_constant_projection_values(self, ring):
        assert phi_projection(elem(ring, 3, "1 + 3*x1 + 2*x1x2")) == ring.one
        assert phi_projection(elem(ring, 3, "x1x2")) == ring.zero

    def test_composition_equals_word_expansion(self, ring, battery):
        # the composite projection equals the alternating sum of word
        # operators and the constant term
        battery(check_projections, ring, 5, 100)


class TestTaylor:
    def test_monomial_fixed_point(self, ring):
        e = elem(ring, 3, "x1x2")
        assert taylor_reconstruct(e, "at_zero") == e
        assert taylor_reconstruct(e, "projected") == e

    def test_zero(self, ring):
        z = GrassmannElement.zero(ring, 3)
        assert taylor_reconstruct(z, "at_zero") == z
        assert taylor_reconstruct(z, "projected") == z

    def test_random_round_trip(self, ring, battery):
        battery(check_taylor, ring, 6, 100)

    def test_bad_mode(self, ring):
        with pytest.raises(ValueError):
            taylor_reconstruct(GrassmannElement.one(ring, 3), "sideways")


class TestIdentityOperator:
    def test_triangular_decomposition(self, ring, battery):
        battery(check_identity_operator, ring, 6, 100)
