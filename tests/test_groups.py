import pytest

from conftest import composed_iteration_inverse, dense_gamma
from grassmann.algebra import (
    GrassmannElement,
    component,
    indices_mask,
    invert_unit,
    odd_part,
    parse_element,
    restrict,
)
from grassmann.endo import (
    Endomorphism,
    NotInvertibleError,
    coordinate_shift,
    identity_endo,
    _det_central,
    _skew_matrix,
    inner,
    linear_endo,
    parse_endomorphism,
)
from grassmann.groups import (
    GAMMA,
    GroupId,
    MembershipError,
    NoPreimageError,
    OMEGA,
    PHI,
    SIGMA,
    SIGMA_DOUBLE_PRIME,
    SIGMA_PRIME,
    U,
    _layer_jacobian,
    decompose_gamma,
    decompose_layers,
    decompose_omega_gamma_linear,
    decompose_sigma_prime,
    decompose_unipotent,
    enumerate_generators,
    jacobian_preimage,
    layer_scaling,
    member,
    omega_witness,
    parse_group_id,
    rho_endo,
)
from grassmann.linsolve import layer_split
from grassmann.rings import GF, QQ
from grassmann.sampling import (
    random_automorphism,
    random_even,
    random_gamma,
    random_gamma_gl,
    random_gamma_pow,
    random_linear,
    random_odd,
    random_omega,
    random_phi,
    random_shift_word,
    random_sigma_prime_word,
    random_sigma_word,
    random_unipotent,
    spawn,
)
from grassmann.verify import (
    check_ascent_chain,
    check_ascent_distinctness,
    check_coset_criterion,
    check_even_collapse,
    check_gamma_word_roundtrip,
    check_layers_roundtrip,
    check_n3_exhaustive,
    check_oga_roundtrip,
    check_preimage_odd,
    check_sigma_closure,
    check_sigma_prime_roundtrip,
    check_unipotent_roundtrip,
)


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def endo(ring, n, text):
    return parse_endomorphism(ring, n, text)


class TestGroupId:
    def test_parse(self):
        assert parse_group_id("sigma") == SIGMA
        assert parse_group_id("gamma-asc:4") == GroupId("gamma_asc", 4)
        assert parse_group_id("sigma-prime") == SIGMA_PRIME

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GroupId("sigma", 3)
        with pytest.raises(ValueError):
            GroupId("gamma_asc")
        with pytest.raises(ValueError):
            GroupId("nonsense")

    def test_parameter_presence_pinned(self):
        with pytest.raises(ValueError, match="group gamma takes no parameter"):
            GroupId("gamma", 2)
        with pytest.raises(ValueError, match="group gamma_asc needs a parameter"):
            GroupId("gamma_asc")


class TestMembership:
    def test_identity_in_everything(self, ring):
        n = 5
        ident = identity_endo(ring, n)
        for g in (OMEGA, GAMMA, U, PHI, SIGMA, SIGMA_PRIME, SIGMA_DOUBLE_PRIME,
                  GroupId("phi_prime"), GroupId("g_even"), GroupId("g_odd"),
                  GroupId("gamma_asc", 4), GroupId("gamma_pow", 5),
                  GroupId("u_pow", 3), GroupId("phi_at", 2),
                  GroupId("g_zgraded", 3), GroupId("gamma_graded", 2),
                  GroupId("omega_graded", 3), GroupId("sigma_prime_pow", 5),
                  GroupId("phi_pow", 5), GroupId("phi_prime_layer", 3),
                  # above every difference degree: the identity has none
                  GroupId("u_pow", n + 2), GroupId("gamma_pow", n + 2),
                  GroupId("phi_pow", n + 2), GroupId("sigma_prime_pow", n + 2)):
            assert member(ident, g), g

    def test_triple_shift_in_sigma(self, ring):
        n = 4
        xi = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        assert member(xi, SIGMA)
        assert member(xi, SIGMA_DOUBLE_PRIME)
        assert member(xi, GAMMA)
        assert not member(xi, PHI)

    def test_inner_not_in_gamma(self, ring):
        n = 4
        omega = inner(GrassmannElement.one(ring, n) + gen(ring, n, 1))
        assert member(omega, OMEGA)
        assert member(omega, U)
        assert not member(omega, GAMMA)
        for i in range(n):
            diff = omega.images[i] - gen(ring, n, i + 1)
            assert not odd_part(diff)

    def test_omega_witness_round_trip(self, ring, rng):
        n = 5
        one = GrassmannElement.one(ring, n)
        for _ in range(20):
            a = random_odd(rng, ring, n, terms=3)
            sigma = inner(one + a)
            w = omega_witness(sigma)
            assert w is not None
            assert inner(one + w) == sigma

    def test_non_inner_has_no_witness(self, ring):
        n = 4
        sigma = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        assert omega_witness(sigma) is None

    def test_scaling_membership(self, ring, rng):
        n = 5
        phi = random_phi(rng, ring, n)
        assert member(phi, PHI)
        assert member(phi, GroupId("phi_prime"))
        for i in range(1, n + 1):
            assert member(phi, GroupId("phi_at", i))

    def test_phi_closed_under_inverse(self, ring, rng):
        n = 5
        for _ in range(10):
            phi = random_phi(rng, ring, n)
            assert member(phi.inverse(), PHI)

    def test_phi_prime_structure(self, ring, rng):
        # conjugation * scaling * invertible-diagonal preserves every (x_i)
        n = 4
        diag = [[ring.from_int(0)] * n for _ in range(n)]
        for i in range(n):
            diag[i][i] = ring.from_int(2 + i % 2)
        sigma = random_omega(rng, ring, n, terms=2).compose(
            random_phi(rng, ring, n)).compose(linear_endo(ring, diag))
        assert member(sigma, GroupId("phi_prime"))
        fact = decompose_omega_gamma_linear(sigma)
        assert member(Endomorphism(
            [gen(ring, n, i + 1) + fact.b[i] for i in range(n)], check=False), PHI)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert fact.matrix[i][j] == ring.zero

    def test_parity_membership(self, ring, rng):
        n = 4
        gam = random_gamma_gl(rng, ring, n)
        assert member(gam, GroupId("g_odd"))
        omg = random_omega(rng, ring, n, terms=2).compose(random_linear(rng, ring, n))
        assert member(omg, GroupId("g_even"))

    def test_graded_membership_and_factors(self, ring, rng):
        # even step: shift part supported on degrees 1 + js; odd step: inner part
        n = 6
        s = 2
        degrees = [1 + j * s for j in range(1, (n - 1) // s + 1)]
        images = []
        for i in range(1, n + 1):
            extra = GrassmannElement.monomial(
                ring, n,
                indices_mask(rng.sample([k for k in range(1, n + 1)], 5)),
                ring.random(rng))
            images.append(gen(ring, n, i) + extra)
        cand = Endomorphism(images, check=False).compose(random_linear(rng, ring, n))
        assert member(cand, GroupId("g_zgraded", s))
        fact = decompose_omega_gamma_linear(cand)
        gamma_part = Endomorphism(
            [gen(ring, n, i + 1) + fact.b[i] for i in range(n)], check=False)
        assert member(gamma_part, GroupId("gamma_graded", s))
        assert not fact.a

    def test_graded_odd_step(self, ring, rng):
        n = 6
        s = 3
        a = GrassmannElement.monomial(ring, n, indices_mask((1, 2, 3)), ring.one)
        cand = inner(GrassmannElement.one(ring, n) + a).compose(
            random_linear(rng, ring, n))
        assert member(cand, GroupId("g_zgraded", s))
        # cand includes a linear part, so it is not purely a conjugation
        assert not member(cand, GroupId("omega_graded", s))
        conj_only = inner(GrassmannElement.one(ring, n) + a)
        assert member(conj_only, GroupId("omega_graded", s))

    def test_sigma_double_prime_boundary(self):
        ring = GF(7)
        n = 6
        stage1 = rho_endo(ring, n, 1, 2, indices_mask((3, 4)), ring.one)
        assert member(stage1, SIGMA_PRIME)
        assert not member(stage1, SIGMA_DOUBLE_PRIME)
        stage2 = rho_endo(ring, n, 1, 2, indices_mask((3, 4, 5, 6)), ring.one)
        assert member(stage2, SIGMA_PRIME)
        assert member(stage2, SIGMA_DOUBLE_PRIME)

    @pytest.mark.parametrize("group, message", [
        (GroupId("omega_graded", 2), "odd step"),
        (GroupId("gamma_graded", 3), "even step"),
        (GroupId("gamma_asc", 3), "even and >= 2"),
        (GroupId("g_zgraded", 1), "modulus must be >= 2"),
        (GroupId("phi_at", 0), "index 0 out of range"),
        (GroupId("phi_at", 6), "index 6 out of range"),
        (GroupId("phi_prime_layer", 4), "odd levels"),
        (GroupId("phi_prime_layer", 7), "level 7 out of range for n=5"),
    ])
    def test_bad_parameter_refused(self, ring, group, message):
        # refused before any answer: on an automorphism and on a map that
        # is not one alike
        collapse = endo(ring, 5, "x1 -> x2; x2 -> x2; x3 -> x3; x4 -> x4; x5 -> x5")
        for sigma in (identity_endo(ring, 5), collapse):
            with pytest.raises(MembershipError, match=message):
                member(sigma, group)

    def test_non_automorphism_everywhere_false(self, ring):
        sigma = Endomorphism([gen(ring, 2, 2), gen(ring, 2, 2)], check=False)
        for g in (OMEGA, GAMMA, U, PHI, SIGMA):
            assert not member(sigma, g)


class TestSigmaGroupFacts:
    def test_closure(self, rng, battery):
        # products and inverses of Jacobian-1 words; the words themselves
        ring = GF(7)
        n = 5
        battery(check_sigma_closure, ring, n, 100)
        for _ in range(100):
            assert member(random_sigma_word(rng, ring, n, length=4), SIGMA)

    def test_coset_criterion(self, battery):
        battery(check_coset_criterion, GF(7), 5, 40)

    def test_filtration_inside_ascents(self, battery):
        # each sample takes every s, and checks membership against the valuation
        for n in (5, 6):
            battery(check_ascent_chain, GF(7), n, 10)

    def test_ascent_chain_monotone(self, battery):
        battery(check_ascent_chain, GF(7), 6, 20)

    def test_sigma_not_normal_witness(self):
        # at n = 5 an explicit conjugate of a Jacobian-1 map escapes
        from grassmann.identities import nonnormality_witness
        assert nonnormality_witness(GF(7))
        assert nonnormality_witness(QQ)

    def test_sigma_prime_not_normal_in_sigma(self, ring):
        # explicit witness at n = 6
        n = 6
        sigma = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        one = GrassmannElement.one(ring, n)
        tau_images = [gen(ring, n, i) for i in range(1, n + 1)]
        tau_images[0] = tau_images[0] * (one + parse_element(ring, n, "x5x6"))
        tau_images[1] = tau_images[1] * (one - parse_element(ring, n, "x5x6"))
        tau = Endomorphism(tau_images)
        assert member(tau, SIGMA_PRIME)
        comm = sigma.compose(tau).compose(sigma.inverse()).compose(tau.inverse())
        assert member(comm, SIGMA)
        assert not member(comm, SIGMA_PRIME)


class TestOmegaGammaLinear:
    def test_identity(self, ring):
        n = 4
        fact = decompose_omega_gamma_linear(identity_endo(ring, n))
        assert not fact.a
        assert all(not b for b in fact.b)
        assert fact.matrix == [[ring.one if i == j else ring.zero
                                for j in range(n)] for i in range(n)]

    def test_pure_inner(self, ring):
        n = 3
        sigma = inner(GrassmannElement.one(ring, n) + gen(ring, n, 1))
        fact = decompose_omega_gamma_linear(sigma)
        assert fact.a == gen(ring, n, 1)
        assert all(not b for b in fact.b)

    def test_recovers_parts(self, rng, battery):
        # the shift and linear parts and the recomposition; then the inner
        # element itself, which is unique in degrees 1..n-1
        ring = GF(7)
        n = 5
        battery(check_oga_roundtrip, ring, n, 100)
        one = GrassmannElement.one(ring, n)
        for _ in range(100):
            a = random_odd(rng, ring, n, terms=2)
            a = component(a, 1) + component(a, 3)
            sigma = inner(one + a).compose(random_gamma(rng, ring, n, terms=2)).compose(
                random_linear(rng, ring, n))
            assert decompose_omega_gamma_linear(sigma).a == a

    def test_rejects_non_automorphism(self, ring):
        sigma = Endomorphism([gen(ring, 2, 2), gen(ring, 2, 2)], check=False)
        with pytest.raises(Exception):
            decompose_omega_gamma_linear(sigma)

    def test_non_automorphism_message(self, ring):
        # odd images, so the map is well defined; its linear part is singular
        sigma = parse_endomorphism(ring, 3, "x1 -> x1 + x2 + x1x2x3; x2 -> x1 + x2; "
                                            "x3 -> x3")
        with pytest.raises(NotInvertibleError, match="^input is not an automorphism$"):
            decompose_omega_gamma_linear(sigma)


class TestUnipotentWord:
    def test_single_shift(self, ring):
        n = 4
        sigma = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        word = decompose_unipotent(sigma)
        kinds = [k for k, _ in word.factors]
        assert kinds == ["shift"]
        assert word.recompose() == sigma

    def test_single_inner(self, ring):
        n = 4
        sigma = inner(GrassmannElement.one(ring, n) + gen(ring, n, 1))
        word = decompose_unipotent(sigma)
        kinds = [k for k, _ in word.factors]
        assert kinds == ["inner"]
        a = word.factors[0][1]
        assert a == gen(ring, n, 1)

    def test_random_round_trip(self, rng, battery):
        # recomposition and odd factors; then each factor's group
        ring = GF(7)
        for n in (5, 6):
            battery(check_unipotent_roundtrip, ring, n, 50)
            for _ in range(50):
                word = decompose_unipotent(random_unipotent(rng, ring, n, factors=3))
                for kind, data in word.factors:
                    if kind == "inner":
                        assert member(inner(GrassmannElement.one(ring, n) + data),
                                      OMEGA)
                    else:
                        shift = Endomorphism(
                            [gen(ring, n, i + 1) + data[i] for i in range(n)],
                            check=False)
                        assert member(shift, GAMMA) or all(
                            b.is_homogeneous(1) for b in data if b)

    def test_levels_ascend(self, rng):
        ring = GF(7)
        n = 6
        sigma = random_unipotent(rng, ring, n, factors=4)
        word = decompose_unipotent(sigma)
        levels = []
        for kind, data in word.factors:
            if kind == "inner":
                levels.append(data.min_degree() + 1)
            else:
                levels.append(min(b.min_degree() for b in data if b))
        assert levels == sorted(levels)

    def test_rejects_linear_part(self, ring, rng):
        sigma = random_linear(rng, ring, 3)
        if not sigma.is_identity():
            with pytest.raises(Exception):
                decompose_unipotent(sigma)


class TestGammaWord:
    def test_scaling_input_gives_trivial_shifts(self, ring, rng):
        n = 5
        phi = random_phi(rng, ring, n)
        word = decompose_gamma(phi)
        assert word.phi == phi
        assert all(not c for cs in word.xis.values() for c in cs)

    def test_single_shift_lands_in_degree_three(self, ring):
        n = 5
        sigma = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        word = decompose_gamma(sigma)
        assert word.phi == identity_endo(ring, n)
        assert word.xi_factor(3) == sigma
        assert all(not c for c in word.xis[5])
        assert word.recompose() == sigma

    def test_random_round_trip(self, rng, battery):
        # recomposition and the scaling part; then the shift words' shape
        ring = GF(7)
        for n in (5, 6):
            battery(check_gamma_word_roundtrip, ring, n, 50)
            for _ in range(50):
                word = decompose_gamma(random_gamma(rng, ring, n, terms=2))
                for degree, cs in word.xis.items():
                    for i, c in enumerate(cs, start=1):
                        assert c.support_avoids(i)
                        assert not c or c.is_homogeneous(degree)

    def test_sigma_inputs_have_jacobian_one_scaling(self, rng):
        ring = GF(7)
        n = 5
        for _ in range(30):
            sigma = random_sigma_word(rng, ring, n, length=4)
            word = decompose_gamma(sigma)
            assert member(word.phi, SIGMA_PRIME)


class TestSigmaPrimeWord:
    def test_identity(self, ring):
        word = decompose_sigma_prime(identity_endo(ring, 5))
        assert not word.lambdas

    def test_single_generator(self, ring):
        n = 4
        from grassmann.groups import _avoidance
        table = _avoidance(n, 1)
        mask = indices_mask((3, 4))
        assert mask in table.domain[1]
        j = table.target(1, mask)
        assert j == 2
        rho = rho_endo(ring, n, 1, 2, mask, ring.one)
        word = decompose_sigma_prime(rho)
        assert word.lambdas == {(1, 1, mask): ring.one}
        assert word.recompose() == rho

    def test_random_round_trip(self, battery):
        for n in (5, 6):
            battery(check_sigma_prime_roundtrip, GF(7), n, 50)

    def test_rejects_nonscaling(self, ring):
        n = 5
        sigma = coordinate_shift(ring, n, 1, parse_element(ring, n, "x2x3x4"))
        with pytest.raises(Exception):
            decompose_sigma_prime(sigma)


class TestLayerWord:
    def test_sigma_input_gives_trivial_layers(self, rng):
        ring = GF(7)
        n = 5
        sigma = random_sigma_word(rng, ring, n, length=3)
        word = decompose_layers(sigma)
        assert all(not a for a in word.layers.values())
        assert word.tail == sigma

    def test_forced_layer_example(self, ring):
        n = 4
        one = GrassmannElement.one(ring, n)
        images = [gen(ring, n, i) for i in range(1, n + 1)]
        images[3] = images[3] * (one + parse_element(ring, n, "x1x2"))
        sigma = Endomorphism(images)
        word = decompose_layers(sigma)
        assert word.layers[1] == parse_element(ring, n, "x1x2")
        assert word.tail == identity_endo(ring, n)
        assert word.recompose() == sigma

    def test_random_round_trip(self, battery):
        # recomposition and the tail's group, on shifts and on ascent members
        for n in (5, 6):
            battery(check_layers_roundtrip, GF(7), n, 50)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_per_stage_peeling(self, ring, rng, n):
        # reference: eliminate the Jacobian of every residual map again
        one = GrassmannElement.one(ring, n)
        for _ in range(5):
            sigma = random_gamma(rng, ring, n)
            layers, residual = {}, sigma
            for s in range(1, (n - 1) // 2 + 1):
                a2s = layers[s] = component(residual.jacobian().det - one, 2 * s)
                if a2s:
                    residual = layer_scaling(ring, n, s, a2s).inverse().compose(residual)
            word = decompose_layers(sigma)
            assert word.layers == layers
            assert word.tail == residual

    def test_ascent_members_skip_low_layers(self, rng):
        ring = GF(7)
        n = 6
        for _ in range(20):
            sigma = random_gamma_pow(rng, ring, n, 5).compose(
                random_sigma_word(rng, ring, n, length=2))
            assert member(sigma, GroupId("gamma_asc", 4))
            word = decompose_layers(sigma)
            assert not word.layers.get(1)


def layer_cases(rng, ring, n, s):
    """Degree-2s layers: one term, every monomial, part n zero (every
    monomial contains x_n), only part n (no monomial contains x_n), and
    random ones of 1 to 40 terms."""
    deg = 2 * s
    masks = [m for m in range(1 << n) if m.bit_count() == deg]
    top = 1 << (n - 1)

    def layer(support):
        out = GrassmannElement.zero(ring, n)
        for m in support:
            out = out + GrassmannElement.monomial(ring, n, m, rng.randrange(1, 6))
        return out

    yield layer([rng.choice(masks)])
    yield layer(masks)
    yield layer([m for m in masks if m & top])
    yield layer([m for m in masks if not m & top])
    for terms in (1, 3, 10, 40):
        yield layer(rng.sample(masks, min(terms, len(masks))))


class TestLayerJacobian:
    """The closed-form Jacobian of a layer scaling against the generic
    elimination and the cofactor expansion of its skew matrix."""

    @pytest.mark.parametrize("ring", [QQ, GF(7), GF(3)], ids=str)
    @pytest.mark.parametrize("n", range(4, 11))
    def test_closed_form_matches_elimination_and_cofactors(self, ring, n):
        rng = spawn(47, "layer-jacobian", n, str(ring))
        one = GrassmannElement.one(ring, n)
        transpositions = 0
        for s in range(1, (n - 1) // 2 + 1):
            for a in layer_cases(rng, ring, n, s):
                parts = layer_split(a, s).parts
                got = _layer_jacobian(a, parts)
                phi = layer_scaling(ring, n, s, a)
                assert got == phi.jacobian().det
                assert got == _det_central(ring, n, _skew_matrix(phi.images))
                # prod_k u_k alone, without the (i n) transposition terms
                a_n = parts[n]
                transpositions += got != one + a + (a - a_n) * a_n
        assert transpositions


class TestJacobianPreimage:
    def test_trivial(self, ring):
        n = 5
        res = jacobian_preimage(GrassmannElement.one(ring, n))
        assert res.sigma == identity_endo(ring, n)

    def test_odd_n_simple_target(self, ring):
        n = 5
        u = parse_element(ring, n, "1 + x1x2")
        res = jacobian_preimage(u)
        assert res.sigma.jacobian().det == u
        assert member(res.sigma, GAMMA)

    def test_odd_n_random_targets(self, battery):
        battery(check_preimage_odd, GF(5), 5, 50)

    def test_even_n_refusal(self, ring):
        n = 4
        target = parse_element(ring, n, "1 + x1x2x3x4")
        with pytest.raises(NoPreimageError):
            jacobian_preimage(target)
        res = jacobian_preimage(target, exact=False)
        assert res.forced_top == ring.zero
        assert res.achieved == GrassmannElement.one(ring, n)

    def test_even_n_forced_top_is_reported(self, rng):
        ring = GF(7)
        n = 6
        for _ in range(10):
            u = GrassmannElement.one(ring, n) + random_even(rng, ring, n, terms=3)
            res = jacobian_preimage(u, exact=False)
            diff = res.achieved - u
            assert set(diff.terms) <= {(1 << n) - 1}
            assert res.forced_top == res.achieved.coefficient((1 << n) - 1)

    def test_rejects_bad_target(self, ring):
        with pytest.raises(ValueError):
            jacobian_preimage(parse_element(ring, 5, "1 + x1"))
        with pytest.raises(ValueError, match="constant term 1"):
            jacobian_preimage(parse_element(ring, 5, "2 + x1x2"))


class TestBerezinImageEquation:
    """top(J(sigma)^-1) = 0 for even n.

    This is a derivation from the Berezin integral, not the paper's text.
    Take the integral of f to be its coefficient of x1...xn.  The change of
    variables for odd variables carries the inverse Jacobian: the integral
    of sigma(f) J(sigma)^-1 equals that of f, and f = 1 gives
    top(J(sigma)^-1) = 0.  For odd n, J(sigma) is even and the equation
    says nothing; for even n it is one equation on the image of the Jacobian
    map."""

    @staticmethod
    def top(e):
        return e.coefficient((1 << e.n) - 1)

    @pytest.mark.parametrize("ring", [QQ, GF(7)], ids=str)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_inverse_jacobian_has_no_top_term(self, ring, n):
        rng = spawn(53, "berezin-image", n, str(ring))
        maps = [random_gamma(rng, ring, n, terms=3) for _ in range(3)]
        maps += [random_gamma_gl(rng, ring, n, terms=3) for _ in range(3)]
        maps.append(dense_gamma(rng, ring, n))
        tops = 0
        for sigma in maps:
            det = sigma.jacobian().det
            assert self.top(invert_unit(det)) == ring.zero
            tops += self.top(det) != ring.zero
        assert tops  # the equation is not met by det having no top term

    @pytest.mark.parametrize("ring", [QQ, GF(7)], ids=str)
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_forced_top_is_top_of_the_inverse_of_the_rest(self, ring, n):
        # u_low + t x1...xn is an image only for t = top(u_low^-1)
        rng = spawn(53, "berezin-preimage", n, str(ring))
        top_mask = (1 << n) - 1
        forced = 0
        for _ in range(4):
            u = GrassmannElement.one(ring, n) + random_even(rng, ring, n, terms=3 * n)
            u_low = restrict(u, {m: c for m, c in u.num.items() if m != top_mask})
            res = jacobian_preimage(u, exact=False)
            assert res.forced_top == self.top(invert_unit(u_low))
            forced += res.forced_top != ring.zero
        assert forced


class TestNoInverseMapBuilt:
    """Every inverse the factorizations and the preimage need is applied by
    its Neumann series: with inverse maps refused they return what the
    inverse maps give."""

    @staticmethod
    def results(seed, ring, n):
        rng = spawn(seed, "no-inverse-map", n, str(ring))
        u = GrassmannElement.one(ring, n) + random_even(rng, ring, n, terms=6)
        pre = jacobian_preimage(u, exact=False)
        return (decompose_layers(random_gamma(rng, ring, n)).to_json(),
                (pre.sigma, pre.achieved, pre.forced_top),
                decompose_sigma_prime(random_sigma_prime_word(rng, ring, n)).lambdas,
                decompose_omega_gamma_linear(random_automorphism(rng, ring, n)),
                decompose_gamma(random_gamma(rng, ring, n)).to_json())

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_same_results_without_inverse_maps(self, ring, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an inverse map was built")

        def through_inverse_map(sigma, elements):
            return composed_iteration_inverse(sigma).apply_all(elements)

        for seed in range(3):
            with monkeypatch.context() as m:
                m.setattr(Endomorphism, "apply_inverse_all", through_inverse_map)
                want = self.results(seed, ring, n)
            with monkeypatch.context() as m:
                m.setattr(Endomorphism, "inverse", refuse)
                m.setattr(Endomorphism, "_inverse_iteration", refuse)
                got = self.results(seed, ring, n)
            assert got == want


class TestGenerators:
    def test_gamma_count_n4(self, ring):
        gens = enumerate_generators(GAMMA, 4)
        assert len(gens) == 16  # n * C(n, 3)

    def test_gamma_count_n6(self, ring):
        from math import comb
        gens = enumerate_generators(GAMMA, 6)
        assert len(gens) == 6 * comb(6, 3)

    @pytest.mark.parametrize("kind,n", [
        ("gamma", 5), ("u", 5), ("phi", 5), ("sigma_double_prime", 5),
        ("sigma_double_prime", 6), ("sigma", 7)])
    def test_members_at_unit_parameter(self, kind, n):
        ring = GF(7)
        group = GroupId(kind)
        for g in enumerate_generators(group, n):
            sigma = g.instantiate(ring, n, ring.one)
            assert member(sigma, group), (kind, g)

    def test_one_parameter_additivity(self, rng):
        ring = GF(7)
        n = 5
        for g in enumerate_generators(GAMMA, n)[:5]:
            lam, mu = ring.random(rng), ring.random(rng)
            assert g.instantiate(ring, n, lam).compose(
                g.instantiate(ring, n, mu)) == g.instantiate(
                    ring, n, ring.normalize(lam + mu))

    def test_sigma_family_needs_seven(self):
        with pytest.raises(ValueError):
            enumerate_generators(GroupId("sigma"), 6)

    def test_sigma_generator_structure(self):
        n = 7
        gens = enumerate_generators(GroupId("sigma"), n)
        kinds = {g.kind for g in gens}
        assert kinds == {"rho", "sigma"}
        rho_count = sum(1 for g in gens if g.kind == "rho")
        from math import comb
        assert rho_count == n * comb(n - 1, 2) - comb(n, 2)

    def test_even_n_double_prime_has_top_family(self):
        gens = enumerate_generators(SIGMA_DOUBLE_PRIME, 6)
        xi = [g for g in gens if g.kind == "xi"]
        assert len(xi) == 6
        for g in xi:
            assert bin(g.mask).count("1") == 5


class TestEvenCollapse:
    @pytest.mark.parametrize("n", [4, 6])
    def test_high_valuation_means_trivial_jacobian(self, n, battery):
        battery(check_even_collapse, GF(7), n, 120)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_distinctness_witnesses(self, n):
        assert check_ascent_distinctness(GF(7), n).passed


class TestExhaustiveN3:
    def test_bijection_over_gf3(self):
        assert check_n3_exhaustive().passed


class TestStructureFacts:
    def test_phi_at_closed_under_inverse(self, ring, rng):
        # scale x1, shift x2: preserves (x1) only
        n = 5
        one = GrassmannElement.one(ring, n)
        images = [gen(ring, n, i) for i in range(1, n + 1)]
        images[0] = images[0] * (one + parse_element(ring, n, "x2x3"))
        sigma = Endomorphism(images).compose(
            coordinate_shift(ring, n, 2, parse_element(ring, n, "x3x4x5")))
        assert member(sigma, GroupId("phi_at", 1))
        assert not member(sigma, PHI)
        assert member(sigma.inverse(), GroupId("phi_at", 1))

    def test_top_shift_commutes_with_inner_for_odd_n(self, ring, rng):
        # odd n: the top monomial is central, so top shifts commute with
        # conjugations
        n = 5
        theta = (1 << n) - 1
        tau = Endomorphism(
            [gen(ring, n, i + 1) + GrassmannElement.monomial(ring, n, theta,
                                                             ring.from_int(i + 1))
             for i in range(n)], check=False)
        for _ in range(10):
            omega = random_omega(rng, ring, n, terms=2)
            assert omega.compose(tau) == tau.compose(omega)

    def test_double_prime_commutators_are_central_at_n6(self, ring, rng):
        # commutators of single-coordinate shifts land in the deep scaling
        # part, which commutes with every single-coordinate shift
        n = 6
        for _ in range(10):
            i, j = rng.sample(range(1, n + 1), 2)
            rest = [k for k in range(1, n + 1) if k not in (i, j)]
            rng.shuffle(rest)
            b_i = gen(ring, n, j) * gen(ring, n, rest[0]) * gen(ring, n, rest[1])
            b_j = gen(ring, n, i) * gen(ring, n, rest[2]) * gen(ring, n, rest[3])
            first = coordinate_shift(ring, n, i, b_i)
            second = coordinate_shift(ring, n, j, b_j)
            comm = first.compose(second).compose(first.inverse()).compose(
                second.inverse())
            assert member(comm, SIGMA_DOUBLE_PRIME)
            assert member(comm, GroupId("sigma_prime_pow", 5))
            other = random_shift_word(rng, ring, n, length=1)
            assert comm.compose(other) == other.compose(comm)

    def test_sigma_equals_top_ascent(self, ring, rng):
        for n in (4, 5):
            cap = 2 * (n // 2) + 2
            for _ in range(10):
                sigma = random_gamma(rng, ring, n, terms=2)
                assert member(sigma, SIGMA) == member(
                    sigma, GroupId("gamma_asc", cap))

    def test_gamma_word_congruence_conditions(self, rng):
        # the degree-k shifts are pinned by congruences on the running inverse
        ring = GF(7)
        n = 6
        for _ in range(10):
            sigma = random_gamma(rng, ring, n, terms=2)
            word = decompose_gamma(sigma)
            running = sigma.inverse()
            for degree in sorted(word.xis):
                factor = word.xi_factor(degree)
                for i in range(1, n + 1):
                    diff = running.images[i - 1] + factor.images[i - 1]
                    free = GrassmannElement(
                        ring, n,
                        {m: c for m, c in diff.terms.items()
                         if not (m >> (i - 1)) & 1})
                    assert free.min_degree() >= degree + 2
                running = factor.compose(running)

    def test_shift_generators_commute_at_small_n(self, ring, rng):
        # at n = 4, 5 the single-coordinate shift groups commute pairwise
        for n in (4, 5):
            for _ in range(10):
                i, j = rng.sample(range(1, n + 1), 2)
                pool_i = [k for k in range(1, n + 1) if k != i]
                pool_j = [k for k in range(1, n + 1) if k != j]
                b_i = GrassmannElement.monomial(
                    ring, n, indices_mask(rng.sample(pool_i, 3)), ring.random(rng))
                b_j = GrassmannElement.monomial(
                    ring, n, indices_mask(rng.sample(pool_j, 3)), ring.random(rng))
                first = coordinate_shift(ring, n, i, b_i)
                second = coordinate_shift(ring, n, j, b_j)
                assert first.compose(second) == second.compose(first)

    def test_layer_scaling_jacobian_congruence(self, ring, rng):
        # the layer map built from a degree-2s element has Jacobian 1 + a
        # modulo higher even degrees
        from grassmann.algebra import component
        for n, s in ((5, 1), (6, 2), (7, 3)):
            for _ in range(10):
                a = component(
                    random_even(rng, ring, n, min_degree=2 * s, terms=4), 2 * s)
                phi = layer_scaling(ring, n, s, a)
                det = phi.jacobian().det
                assert component(det - GrassmannElement.one(ring, n), 2 * s) == a

    def test_stage_factorization_of_scaling_maps(self, ring, rng):
        # each deep scaling map splits, stage by stage, into a canonical-
        # section factor and a balanced pair-scaling word modulo deeper terms
        from grassmann.algebra import component
        from grassmann.groups import _avoidance, rho_product
        from grassmann.linsolve import kernel_split
        from grassmann.skewcalc import skew_partial
        n = 6
        for s in (1, 2):
            for _ in range(10):
                phi = random_phi(rng, ring, n)
                layer = []
                for i in range(1, n + 1):
                    a_i = skew_partial(i, phi.images[i - 1])
                    layer.append(component(a_i, 2 * s))
                table = _avoidance(n, s)
                lambdas, residual = kernel_split(layer, s, table)
                section = layer_scaling(ring, n, s, residual.reassemble(ring))
                pairs = rho_product(ring, n, s, lambdas)
                recomposed = section.compose(pairs)
                # agreement of the degree-2s layers
                for i in range(1, n + 1):
                    got = component(skew_partial(i, recomposed.images[i - 1]), 2 * s)
                    want = layer[i - 1]
                    assert got == want
