import pytest

from grassmann.algebra import GrassmannElement, component
from grassmann.endo import linear_endo
from grassmann.identities import (
    ConstraintError,
    check_com1,
    check_dvac1,
    check_dvac2,
    check_g3ab,
    check_g4ab,
    check_g5ab,
    check_g6ab,
    check_gcom1,
    check_gcom2,
    check_invabA,
    check_mul1,
    check_slsA,
    check_xijam,
    check_xijam1,
    check_xipq1,
    check_xipq2,
    commutator,
    nonnormality_witness,
    ordered_product,
)
from grassmann.rings import GF, QQ
from grassmann.sampling import (
    random_gamma,
    random_gamma_gl,
    random_invertible_matrix,
    random_odd,
    random_omega,
    spawn,
)
from grassmann.verify import check_al2_random, check_n3_law_random


@pytest.fixture(params=[QQ, GF(7)], ids=["QQ", "GF7"])
def iring(request):
    return request.param


class TestOrderedProduct:
    def test_order_carries_sign(self, iring):
        assert ordered_product(iring, 3, (2, 1)) == ordered_product(
            iring, 3, (1, 2)).scale(iring.from_int(-1))

    def test_repeated_index_vanishes(self, iring):
        assert not ordered_product(iring, 3, (1, 1))


class TestShiftCommutators:
    def test_gcom1(self, iring):
        assert check_gcom1(iring, 7, 1, 2, (3, 4, 5), (6, 7),
                           iring.from_int(2), iring.from_int(3))

    def test_gcom1_rejects_wrong_parity(self, iring):
        # an even first support violates the side conditions
        with pytest.raises(ConstraintError):
            check_gcom1(iring, 7, 1, 2, (3, 4), (5, 6),
                        iring.one, iring.one)

    def test_gcom2(self, iring):
        assert check_gcom2(iring, 6, 1, (2, 3), (4, 5, 6),
                           iring.from_int(2), iring.from_int(3))

    def test_xijam(self, iring):
        assert check_xijam(iring, 7, 1, 2, (3, 4), (5, 6, 7),
                           iring.from_int(2), iring.from_int(3))

    def test_xijam1_disjoint(self, iring):
        assert check_xijam1(iring, 8, 1, 2, (3, 4, 5), (6, 7, 8),
                            iring.from_int(2), iring.from_int(3))

    def test_xijam1_shared_support(self, iring):
        assert check_xijam1(iring, 5, 1, 2, (3, 4, 5), (3, 4, 5),
                            iring.from_int(2), iring.from_int(3))

    def test_com1(self, iring):
        assert check_com1(iring, 6, 1, 2, (3, 4), (5, 6),
                          iring.one, iring.one)

    def test_com1_lands_in_scaling_group(self, iring):
        from grassmann.groups import SIGMA_PRIME, member
        from grassmann.identities import _shift
        lhs = commutator(_shift(iring, 6, 1, (2, 3, 4), iring.one),
                         _shift(iring, 6, 2, (1, 5, 6), iring.one))
        assert member(lhs, SIGMA_PRIME)

    def test_dvac1(self, iring):
        assert check_dvac1(iring, 8, 1, 2, (3, 4), (5, 6), (7, 8),
                           iring.from_int(2), iring.from_int(3), iring.from_int(2))

    def test_dvac2_overlapping(self, iring):
        assert check_dvac2(iring, 7, 1, 2, (3, 4), (5, 6), (3, 6, 7),
                           iring.from_int(2), iring.from_int(3), iring.from_int(2))

    def test_dvac2_disjoint(self, iring):
        assert check_dvac2(iring, 9, 1, 2, (3, 4), (5, 6), (7, 8, 9),
                           iring.from_int(2), iring.from_int(3), iring.from_int(2))

    @pytest.mark.parametrize("indices", [(1, 2, 3), (1, 2, 3, 4, 5),
                                         (2, 4, 1, 3, 5)])
    def test_g6ab(self, iring, indices):
        assert check_g6ab(iring, 5, indices, iring.from_int(2))

    def test_g6ab_seven_letters(self, iring):
        assert check_g6ab(iring, 7, (1, 2, 3, 4, 5, 6, 7),
                          iring.from_int(2))

    def test_xipq1_base(self, iring):
        assert check_xipq1(iring, 8, 1, 2, (), 3, 4, 5,
                           iring.from_int(2))

    def test_xipq1_one_round(self, iring):
        assert check_xipq1(iring, 9, 1, 2, ((3, 4), (5, 6)), 7, 8, 9,
                           iring.from_int(2))

    def test_xipq2(self, iring):
        assert check_xipq2(iring, 7, 1, 2, ((3, 4),), 5, 6, 7,
                           iring.from_int(2))

    def test_g5ab_random(self, iring):
        n = 5
        for k in range(20):
            rng = spawn(31, "g5ab", k, str(iring))
            sigma = random_gamma_gl(rng, iring, n)
            a = random_odd(rng, iring, n, terms=2)
            a = a - GrassmannElement.monomial(iring, n, 0, a.constant_term())
            assert check_g5ab(iring, n, sigma, a)


class TestGroupLaws:
    def test_mul1_random(self, iring):
        n = 5
        for k in range(30):
            rng = spawn(32, "mul1", k, str(iring))
            a1 = random_odd(rng, iring, n, terms=2)
            a1 = component(a1, 1) + component(a1, 3)
            a2 = random_odd(rng, iring, n, terms=2)
            a2 = component(a2, 1) + component(a2, 3)
            g1 = random_gamma(rng, iring, n, terms=1)
            g2 = random_gamma(rng, iring, n, terms=1)
            m1 = random_invertible_matrix(rng, iring, n)
            m2 = random_invertible_matrix(rng, iring, n)
            assert check_mul1(iring, n, a1, g1.images, m1,
                              a2, g2.images, m2)

    def test_invabA_random(self, iring):
        n = 5
        for k in range(30):
            rng = spawn(33, "invab", k, str(iring))
            a1 = random_odd(rng, iring, n, terms=2)
            a1 = component(a1, 1) + component(a1, 3)
            g1 = random_gamma(rng, iring, n, terms=1)
            m1 = random_invertible_matrix(rng, iring, n)
            assert check_invabA(iring, n, a1, g1.images, m1)

    def test_slsA_random(self, iring):
        for n in (4, 5):
            for k in range(20):
                rng = spawn(34, "slsa", k, n, str(iring))
                sigma = random_omega(rng, iring, n, terms=2).compose(
                    random_gamma(rng, iring, n, terms=1)).compose(
                        linear_endo(iring, random_invertible_matrix(rng, iring, n)))
                lam = [iring.random(rng) for _ in range(n)]
                assert check_slsA(iring, n, sigma, lam)

    def test_al2_random(self, iring, battery):
        battery(check_al2_random, iring, 40)

    def test_n3_law_random(self, iring, battery):
        battery(check_n3_law_random, iring, 20)

    def test_nonnormality(self, iring):
        assert nonnormality_witness(iring)


class TestRewritingIdentities:
    @pytest.mark.parametrize("indices,n", [
        ((1, 2, 3), 5), ((1, 2, 3, 4, 5), 5), ((3, 1, 7, 2, 5), 7),
        ((1, 2, 3, 4, 5, 6, 7), 7)])
    def test_left_nested_rewrite(self, iring, indices, n):
        assert check_g3ab(iring, n, indices, iring.from_int(2))

    @pytest.mark.parametrize("i,indices,n", [
        (1, (2, 3, 4), 4), (1, (2, 3, 4, 5, 6), 6),
        (2, (1, 3, 4, 5, 6, 7, 8), 8)])
    def test_right_nested_rewrite(self, iring, i, indices, n):
        assert check_g4ab(iring, n, i, indices, iring.from_int(3))

    def test_rewrites_reject_repeats(self, iring):
        with pytest.raises(ConstraintError):
            check_g3ab(iring, 5, (1, 2, 2), iring.one)
        with pytest.raises(ConstraintError):
            check_g4ab(iring, 5, 1, (1, 2, 3), iring.one)
