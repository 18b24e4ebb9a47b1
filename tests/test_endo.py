import gc
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import brute_force_product, composed_iteration_inverse
from grassmann.algebra import (
    DimensionMismatchError,
    GrassmannElement,
    add_products,
    dot,
    from_num,
    invert_num,
    lincomb,
    parse_element,
    restrict,
)
from grassmann import endo as endo_module
from grassmann.endo import (
    Endomorphism,
    NotInvertibleError,
    NotUnipotentError,
    ParityError,
    _det_central,
    _eliminate,
    _skew_matrix,
    compose_all,
    coordinate_shift,
    format_endomorphism,
    identity_endo,
    inner,
    is_automorphism,
    linear_endo,
    parse_endomorphism,
    scaling_endo,
    shift_endo,
)
from grassmann.groups import _avoidance, layer_scaling, rho_product
from grassmann.rings import (GF, QQ, NotAUnitError, PrimeField, gauss_jordan_num,
                             mat_det, mat_inv, split_rows)
from grassmann.sampling import (
    random_automorphism,
    random_element,
    random_gamma,
    random_gamma_gl,
    random_invertible_matrix,
    random_linear,
    random_odd,
    random_omega,
    random_phi,
    random_sigma_word,
    spawn,
)
from grassmann.skewcalc import skew_partial
from grassmann.verify import (
    check_chain_rule,
    check_composition_laws,
    check_dual_derivatives,
    check_inner_properties,
    check_inverse_strategies,
    check_taylor_substitution,
)


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def endo(ring, n, text):
    return parse_endomorphism(ring, n, text)


class TestApplyCompose:
    def test_identity(self, ring, rng):
        e = random_element(rng, ring, 4, terms=4)
        assert identity_endo(ring, 4).apply(e) == e

    def test_generator_swap(self, ring):
        swap = linear_endo(ring, [[ring.zero, ring.one], [ring.one, ring.zero]])
        e = parse_element(ring, 2, "x1x2")
        assert swap.apply(e) == parse_element(ring, 2, "-x1x2")

    def test_algebra_homomorphism(self, ring, rng):
        n = 5
        for _ in range(30):
            sigma = random_gamma_gl(rng, ring, n)
            e = random_element(rng, ring, n, terms=3)
            f = random_element(rng, ring, n, terms=3)
            assert sigma.apply(e * f) == sigma.apply(e) * sigma.apply(f)
            assert sigma.apply(e + f) == sigma.apply(e) + sigma.apply(f)

    def test_compose_identity(self, ring, rng):
        sigma = random_gamma(rng, ring, 4, terms=2)
        ident = identity_endo(ring, 4)
        assert sigma.compose(ident) == sigma
        assert ident.compose(sigma) == sigma

    def test_linear_composition_law(self, battery):
        # sigma_A sigma_B = sigma_{BA}, and shift composition is substitution
        battery(check_composition_laws, GF(5), 3, 30)

    def test_shift_composition_is_substitution(self, ring, battery):
        battery(check_composition_laws, ring, 5, 20)

    def test_shift_application_matches_derivative_expansion(self, ring, battery):
        battery(check_taylor_substitution, ring, 5, 20)

    def test_constructor_rejects_bad_images(self, ring):
        bad = [gen(ring, 2, 1) + GrassmannElement.one(ring, 2), gen(ring, 2, 2)]
        with pytest.raises(ValueError):
            Endomorphism(bad)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
    def test_apply_against_oracle_products(self, field):
        # sigma(e) = sum of c * (letter-word product of the images in mask)
        rng = spawn(5, "apply-oracle", str(field))
        n = 5
        raw = (Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), 2, -1)
        if field.modulus is not None:
            # 1/7 is no element of GF(7); 1/3 takes its place
            with pytest.raises(NotAUnitError):
                field.normalize(Fraction(1, 7))
            raw = (Fraction(-13, 6), Fraction(5, 11), Fraction(1, 3), 2, -1)
        coeffs = [field.normalize(c) for c in raw]
        for _ in range(8):
            sigma = random_omega(rng, field, n, terms=2).compose(
                random_gamma_gl(rng, field, n))
            e = GrassmannElement(field, n, {rng.randrange(1 << n): rng.choice(coeffs)
                                            for _ in range(10)})
            want = GrassmannElement.zero(field, n)
            for mask, c in e.terms.items():
                prod = GrassmannElement.one(field, n)
                for i in range(n):
                    if mask >> i & 1:
                        prod = brute_force_product(prod, sigma.images[i])
                want = want + prod.scale(c)
            assert sigma.apply(e) == want


class TestComposeAll:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_right_nested_fold(self, ring, n):
        # the left fold ((f1 f2) f3) ... equals f1 (f2 (f3 ...)) on random
        # shift, inner, scaling and linear maps
        rng = spawn(21, "compose-all", str(ring), n)
        samplers = (random_gamma, random_omega, random_phi, random_linear)
        for k in (0, 1, 3, 5):
            maps = [rng.choice(samplers)(rng, ring, n) for _ in range(k)]
            want = identity_endo(ring, n)
            for f in reversed(maps):
                want = f.compose(want)
            assert compose_all(ring, n, maps) == want
            assert compose_all(ring, n, iter(maps)) == want

    def test_empty_and_single(self, ring, rng):
        assert compose_all(ring, 5, []) == identity_endo(ring, 5)
        f = random_automorphism(rng, ring, 5)
        assert compose_all(ring, 5, [f]) is f


def memo_walk(sigma):
    """Reference for ``apply``: sums one product of images per monomial.

    The product for a mask is the product for the mask without its top
    generator times that generator's image, memoised here, apart from
    ``apply_all``'s table."""
    prods = {0: GrassmannElement.one(sigma.ring, sigma.n)}

    def product(mask):
        if mask not in prods:
            top = mask.bit_length() - 1
            prods[mask] = product(mask ^ 1 << top) * sigma.images[top]
        return prods[mask]

    def walk(e):
        return lincomb(sigma.ring, sigma.n,
                       ((c, product(mask)) for mask, c in e.num.items()), e.den)
    return walk


def random_map(rng, field, n):
    """A random automorphism; a random linear one below n = 3."""
    return (random_automorphism(rng, field, n) if n >= 3
            else random_linear(rng, field, n))


def low_bits(n):
    """Size s of the low block of ``apply``'s split."""
    return n - (n + 1) // 3


# coefficients with denominators > 1; over GF(p) the units among them
SPLIT_FIELDS = [
    (QQ, (Fraction(-13, 6), Fraction(5, 11), Fraction(1, 7), 2, -1)),
    (GF(7), (Fraction(-13, 6), Fraction(5, 11), Fraction(1, 3), 2, -1)),
    (GF(3), (Fraction(5, 11), Fraction(1, 7), 2, -1)),
]


class TestSplitApply:
    """Split-block ``apply_all`` against the memo walk."""

    @staticmethod
    def element(rng, field, n, coeffs, masks):
        return GrassmannElement(field, n, {m: field.normalize(rng.choice(coeffs))
                                           for m in masks})

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("field,coeffs", SPLIT_FIELDS,
                             ids=["QQ", "GF7", "GF3"])
    def test_against_memo_walk(self, field, coeffs, n):
        rng = spawn(9, "split-apply", str(field), n)
        sigma = random_map(rng, field, n)
        s = low_bits(n)
        full = range(1 << n)
        cases = {
            "sparse": rng.sample(full, min(3, 1 << n)),
            "low block only": range(1 << s),
            # every high group holds one term
            "low block plus one term per high group": list(range(1 << s)) + [
                rng.randrange(1 << s) | h << s for h in range(1, 1 << (n - s))],
            "dense": [m for m in full if rng.random() < 0.5],
            "zero": [],
        }
        elements = [self.element(rng, field, n, coeffs, masks)
                    for masks in cases.values()]
        oracle = memo_walk(sigma)
        wants = [oracle(e) for e in elements]
        for name, e, want in zip(cases, elements, wants):
            assert sigma.apply(e) == want, name
        # one table for the whole batch: later elements find products of
        # earlier ones tabled
        assert sigma.apply_all(elements) == wants
        taus = [Endomorphism([elements[i % len(elements)] for i in range(n)],
                             check=False),
                random_map(rng, field, n)]
        for tau in taus:
            composed = sigma.compose(tau)
            for image, y in zip(composed.images, tau.images):
                assert image == oracle(y)

    @pytest.mark.parametrize("n", [10, 12])
    def test_memo_bound_after_dense_apply(self, n, monkeypatch):
        # the call's table holds at most 2^s low-block and 2^(n-s) high-block
        # products, the constant 1 shared: 135 at n = 10 and 271 at n = 12,
        # where the memo walk holds about 700 and 2700; the bound counts
        # masks, so a sparse shift keeps the test fast
        tables = []

        class Recorded(endo_module._Products):
            __slots__ = ()

            def __init__(self, sigma):
                super().__init__(sigma)
                tables.append(self)

        monkeypatch.setattr(endo_module, "_Products", Recorded)
        s = low_bits(n)
        rng = spawn(9, "split-bound", n)
        sigma = random_gamma(rng, GF(7), n, terms=2)
        e = GrassmannElement(GF(7), n, {m: 1 + rng.randrange(6) for m in range(1 << n)
                                        if rng.random() < 0.5})
        assert sigma.apply(e) == memo_walk(sigma)(e)
        assert len(tables) == 1
        assert len(tables[0]) <= (1 << s) + (1 << (n - s)) - 1

    def test_compose_frees_its_table(self):
        # dense sigma . sigma^-1 at n = 9 over GF(7); the products live only
        # for the call, and no reference cycle keeps them until a collection
        n = 9
        sigma = random_automorphism(spawn(1, "c", n), GF(7), n)
        inv = sigma.inverse()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            composed = sigma.compose(inv)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert composed.is_identity()
        assert retained - base < 0.25 * 2**20
        assert peak - base < 1.2 * 2**20


def all_pairs_error(images):
    """Reference well-definedness check: every square and every anticommutator."""
    for i, y in enumerate(images):
        if y * y:
            return f"image of x{i + 1} does not square to zero"
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] * images[j] + images[j] * images[i]:
                return f"images of x{i + 1} and x{j + 1} do not anticommute"
    return None


def constructor_error(images):
    try:
        Endomorphism(images)
    except ValueError as err:
        return str(err)
    return None


class TestWellDefinedness:
    def test_square_message(self, ring):
        bad = [gen(ring, 3, 1), gen(ring, 3, 2) + gen(ring, 3, 1) * gen(ring, 3, 3),
               gen(ring, 3, 3)]
        with pytest.raises(ValueError, match="^image of x2 does not square to zero$"):
            Endomorphism(bad)

    def test_anticommute_message(self, ring):
        # x1x2 squares to zero but commutes with x3 instead of anticommuting
        bad = [gen(ring, 3, 1), gen(ring, 3, 1) * gen(ring, 3, 2), gen(ring, 3, 3)]
        with pytest.raises(ValueError,
                           match="^images of x2 and x3 do not anticommute$"):
            Endomorphism(bad)

    def test_squares_fire_before_pairs(self, ring):
        # the pair (x1, x2) fails, and so does the square of x3
        bad = [gen(ring, 3, 1) * gen(ring, 3, 2), gen(ring, 3, 3),
               gen(ring, 3, 3) + GrassmannElement.one(ring, 3)]
        assert all_pairs_error(bad) == "image of x3 does not square to zero"
        assert constructor_error(bad) == "image of x3 does not square to zero"

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7)],
                             ids=["QQ", "GF3", "GF5", "GF7"])
    def test_even_part_check_matches_all_pairs(self, field):
        # odd images, conjugated images (odd plus even parts) and mixed
        # random images; the same error, or none, from both checks
        rng = spawn(11, "well-defined", str(field))
        outcomes = set()
        for n in range(1, 8):
            one = GrassmannElement.one(field, n)
            for _ in range(24):
                kind = rng.randrange(4)
                if kind == 0:
                    images = [random_odd(rng, field, n, terms=2) for _ in range(n)]
                elif kind == 1:
                    images = list(inner(one + random_odd(rng, field, n, terms=2)).images)
                else:
                    images = [gen(field, n, i) for i in range(1, n + 1)]
                    for _ in range(kind):
                        i = rng.randrange(n)
                        degrees = [0, 1, 2] if rng.random() < 0.2 else [1, 2, 3]
                        images[i] = images[i] + random_element(
                            rng, field, n, degrees=degrees, terms=1)
                want = all_pairs_error(images)
                assert constructor_error(images) == want
                outcomes.add(want.split()[0] if want else None)
        assert outcomes == {None, "image", "images"}


class TestJacobian:
    def test_identity_jacobian(self, ring):
        n = 5
        data = identity_endo(ring, n).jacobian()
        assert data.det == GrassmannElement.one(ring, n)
        assert data.valuation == 2 * (n // 2) + 2

    def test_triple_scaling_formula(self, ring):
        # x_i -> x_i (1 + l_i x_j x_k) has Jacobian 1 + sum l_i (other pair)
        lams = [ring.from_int(2), ring.from_int(3), ring.from_int(5)]
        one = GrassmannElement.one(ring, 3)
        pairs = {1: "x2x3", 2: "x1x3", 3: "x1x2"}
        images = [gen(ring, 3, i) * (one + parse_element(ring, 3, pairs[i]).scale(lams[i - 1]))
                  for i in (1, 2, 3)]
        sigma = Endomorphism(images)
        det = sigma.jacobian().det
        want = parse_element(ring, 3, "1 + 2*x2x3 + 3*x1x3 + 5*x1x2")
        assert det == want

    def test_balanced_pair_has_unit_jacobian(self, ring):
        sigma = endo(ring, 4,
                     "x1 -> x1 + x1x3x4; x2 -> x2 - x2x3x4; x3 -> x3; x4 -> x4")
        assert sigma.jacobian().det == GrassmannElement.one(ring, 4)

    def test_rejects_even_content(self, ring):
        omega = inner(GrassmannElement.one(ring, 3) + gen(ring, 3, 1))
        with pytest.raises(ParityError):
            omega.jacobian()

    def test_valuation_values(self, ring):
        n = 4
        sigma = endo(ring, n, "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3; x4 -> x4")
        assert sigma.jacobian().valuation == 2
        tau = endo(ring, n, "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert tau.jacobian().valuation == 2 * (n // 2) + 2


class TestEliminationKernel:
    """Unit-pivot elimination against the cofactor expansion as oracle."""

    FIELDS = [QQ, GF(7), GF(3)]

    @staticmethod
    def gl(rng, ring, n):
        # shifts need degree >= 3, so below n = 3 only the linear factor exists
        return random_gamma_gl(rng, ring, n) if n >= 3 else random_linear(rng, ring, n)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_invertible_linear_part(self, ring, n):
        rng = spawn(41, "kernel-gl", n, str(ring))
        for _ in range(3):
            sigma = self.gl(rng, ring, n)
            jac = sigma.jacobian()
            assert jac.det == _det_central(ring, n, jac.matrix)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_odd_images(self, ring, n):
        # random odd images; dropping the linear term of one image makes the
        # linear part singular, so the nilpotent remainder path runs too
        rng = spawn(41, "kernel-odd", n, str(ring))
        singular = 0
        for k in range(6):
            images = [random_odd(rng, ring, n, terms=3) for _ in range(n)]
            if k % 2:
                no_linear = (random_odd(rng, ring, n, min_degree=3, terms=3) if n >= 3
                             else GrassmannElement.zero(ring, n))
                images[rng.randrange(n)] = no_linear
            sigma = Endomorphism(images, check=False)
            singular += not is_automorphism(sigma)
            jac = sigma.jacobian()
            assert jac.det == _det_central(ring, n, jac.matrix)
        assert singular >= 3

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_random_even_matrices(self, ring):
        # Jacobian matrices whose entries have arbitrary (often non-unit)
        # constant terms: a random, often singular, linear part under odd
        # terms of degree >= 3
        rng = spawn(41, "kernel-even", str(ring))
        singular = 0
        for n in range(1, 7):
            for _ in range(4):
                a = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
                images = linear_endo(ring, a).images
                if n >= 3:
                    images = [im + random_odd(rng, ring, n, min_degree=3, terms=2)
                              for im in images]
                singular += mat_det(ring, a) == ring.zero
                self.check_both_modes(images)
        assert singular

    def test_nilpotent_remainder_fixed_cases(self, ring, monkeypatch):
        sizes = []

        def recording(ring, n, matrix):
            sizes.append(len(matrix))
            return _det_central(ring, n, matrix)

        monkeypatch.setattr(endo_module, "_det_central", recording)
        sigma = endo(ring, 3, "x1 -> x1x2x3; x2 -> x2; x3 -> x3")
        assert sigma.jacobian().det == parse_element(ring, 3, "x2x3")
        # a 2x2 block without unit entries is left after four pivots
        sigma = endo(ring, 6, "x1 -> x1x3x4; x2 -> x2x5x6; x3 -> x3; "
                              "x4 -> x4; x5 -> x5; x6 -> x6")
        jac = sigma.jacobian()
        assert jac.det == parse_element(ring, 6, "x3x4x5x6")
        assert jac.det == _det_central(ring, 6, jac.matrix)
        assert jac.valuation == 4
        # a block of exactly n/2 rows, whose determinant is the top monomial
        sigma = endo(ring, 4, "x1 -> x1x2x3; x2 -> x1x2x4; x3 -> x3; x4 -> x4")
        assert sigma.jacobian().det == parse_element(ring, 4, "-2*x1x2x3x4")
        assert sizes == [1, 2, 2]

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_nilpotent_block_above_half_n_is_zero(self, n, monkeypatch):
        # every entry of the block left without unit entries has no term
        # below degree 2, so a block of more than n/2 rows has det 0 and
        # takes no cofactor expansion
        def bounded(ring, n_, matrix):
            assert len(matrix) <= n_ // 2, "cofactor expansion above n/2"
            return _det_central(ring, n_, matrix)

        monkeypatch.setattr(endo_module, "_det_central", bounded)
        ring = GF(7)
        zero = GrassmannElement.zero(ring, n)
        rng = spawn(41, "kernel-nilpotent-bound", n)
        for _ in range(3):
            # a zero linear part leaves the whole n x n block
            sigma = Endomorphism([random_element(rng, ring, n, degrees=[3], terms=3)
                                  for _ in range(n)], check=False)
            jac = sigma.jacobian()
            assert jac.det == zero
            if n <= 8:
                assert jac.det == _det_central(ring, n, jac.matrix)
        if n > 8:
            return
        # dropping the linear terms of k images leaves a k x k block: the
        # cofactor expansion runs up to k = n/2, and the bound above it
        for k in range(n + 1):
            images = list(random_gamma_gl(rng, ring, n).images)
            for i in rng.sample(range(n), k):
                images[i] = restrict(images[i], {m: c for m, c in images[i].num.items()
                                                 if m.bit_count() != 1})
            sigma = Endomorphism(images, check=False)
            jac = sigma.jacobian()
            assert jac.det == _det_central(ring, n, jac.matrix)

    def test_column_swap_in_constant_part(self, ring):
        # the linear part has a zero first column and rank 3, so the scalar
        # pivot search swaps columns before the nilpotent remainder
        n = 4
        sigma = endo(ring, n, "x1 -> x2 + 2*x3 + x1x2x4; x2 -> 3*x3 + x4 + x1x2x3; "
                              "x3 -> x2 + x4 + x1x3x4; x4 -> x1x2x3 + x2x3x4")
        _, cols, rank = gauss_jordan_num(ring, *split_rows(ring, sigma.linear_part()), n)
        assert rank == 3 and cols[0] != 0
        det, _ = _eliminate(sigma.images)
        assert det
        assert det == _det_central(ring, n, _skew_matrix(sigma.images))

    def test_cofactor_not_run_on_invertible_linear_part(self, ring, monkeypatch):
        def refuse(*args):
            raise AssertionError("cofactor expansion on an invertible linear part")

        monkeypatch.setattr(endo_module, "_det_central", refuse)
        rng = spawn(41, "kernel-no-cofactor", str(ring))
        for n in (4, 7):
            sigma = random_gamma_gl(rng, ring, n)
            sigma.jacobian()
            sigma.dual_skew_partial(1, sigma.images[0])

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_cached_inverse_rows(self, ring, n):
        rng = spawn(41, "kernel-inverse", n, str(ring))
        one = GrassmannElement.one(ring, n)
        zero = GrassmannElement.zero(ring, n)
        sigma = self.gl(rng, ring, n)
        jac = sigma.jacobian().matrix
        rows_t = sigma._dual_data()  # rows_t[i][j] = (J^-1)[j][i]
        for i in range(n):
            for j in range(n):
                acc = zero
                for t in range(n):
                    acc = acc + jac[i][t] * rows_t[j][t]
                assert acc == (one if i == j else zero)

    def test_dual_data_runs_one_elimination(self, ring, monkeypatch):
        # the inverse elimination also yields the determinant, so a later
        # jacobian() call reads it from the cache
        calls = []
        eliminate = endo_module._eliminate

        def counting(*args, **kwargs):
            calls.append(kwargs.get("inverse", False))
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(endo_module, "_eliminate", counting)
        rng = spawn(41, "kernel-one-pass", str(ring))
        for n in (4, 6):
            sigma = random_gamma_gl(rng, ring, n)
            sigma.dual_skew_partial(1, sigma.images[0])
            jac = sigma.jacobian()
            fresh = Endomorphism(sigma.images, check=False).jacobian()
            assert (jac.det, jac.valuation) == (fresh.det, fresh.valuation)
        assert calls == [True, False, True, False]

    def test_dual_parity_error_before_elimination(self, ring, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("elimination ran on images with even parts")

        monkeypatch.setattr(endo_module, "_eliminate", refuse)
        sigma = endo(ring, 2, "x1 -> x1 + x1x2; x2 -> x2")
        with pytest.raises(ParityError, match="purely odd images"):
            sigma.dual_skew_partial(1, gen(ring, 2, 1))

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_constant_inverse_matches_mat_inv(self, ring):
        # on a linear map pass 1 does all the work, so its int transform
        # over the row denominators must come out as the scalar inverse
        rng = spawn(41, "kernel-constant", str(ring))
        singular = 0
        for n in range(1, 8):
            for _ in range(4):
                a = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
                images = linear_endo(ring, a).images
                det = mat_det(ring, a)
                if det == ring.zero:
                    singular += 1
                    with pytest.raises(NotInvertibleError):
                        _eliminate(images, inverse=True)
                    assert _eliminate(images)[0] == GrassmannElement.zero(ring, n)
                    continue
                got_det, inv = _eliminate(images, inverse=True)
                assert got_det == GrassmannElement.scalar(ring, n, det)
                assert inv == [[GrassmannElement.scalar(ring, n, c) for c in row]
                               for row in mat_inv(ring, a)]
        assert singular

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_identity_constant_part_reuses_entries(self, ring, n, monkeypatch):
        # linear part I: every row of the pass-1 transform is a unit vector
        # over denominator 1, so every row is the partials of its own image
        # and no lincomb is formed
        def refuse(*args, **kwargs):
            raise AssertionError("pass 1 formed a lincomb for an identity row")

        rng = spawn(41, "kernel-identity", n, str(ring))
        eye = identity_endo(ring, n)
        maps = [eye, random_gamma(rng, ring, n, terms=3)]
        maps += [random_sigma_word(rng, ring, n, length=3) for _ in range(2)]
        for sigma in maps:
            assert sigma.linear_part() == eye.linear_part()
            with monkeypatch.context() as m:
                m.setattr(endo_module, "lincomb", refuse)
                self.check_both_modes(sigma.images)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_mixed_unit_and_general_transform_rows(self, ring, monkeypatch):
        # shift . linear maps whose linear part is I with two rows replaced
        # by general rows: the inverse keeps the other rows of I, so three
        # rows are partials of their own image and two of a lincomb
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lincomb(*args, **kwargs)

        monkeypatch.setattr(endo_module, "lincomb", counting)
        rng = spawn(41, "kernel-mixed", str(ring))
        n = 5
        checked = 0
        while checked < 12:
            general = rng.sample(range(n), 2)
            a = [[ring.random(rng) for _ in range(n)] if i in general
                 else [ring.one if j == i else ring.zero for j in range(n)]
                 for i in range(n)]
            if mat_det(ring, a) == ring.zero:
                continue
            sigma = random_gamma(rng, ring, n, terms=2).compose(linear_endo(ring, a))
            assert sigma.linear_part() == a
            calls.clear()
            _eliminate(sigma.images)
            assert len(calls) == 2
            self.check_both_modes(sigma.images)
            checked += 1

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_images_route_matches_matrix_route(self, ring, n, monkeypatch):
        # the elimination from the images against the cofactor expansion of
        # the matrix built from them: at most one lincomb per row
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lincomb(*args, **kwargs)

        rng = spawn(41, "kernel-images", n, str(ring))
        maps = [self.gl(rng, ring, n) for _ in range(3)]
        for _ in range(3):
            # dropping the linear term of one image leaves rank < size
            images = list(self.gl(rng, ring, n).images)
            k = rng.randrange(n)
            images[k] = images[k] - GrassmannElement(
                ring, n, {m: c for m, c in images[k].terms.items()
                          if m.bit_count() == 1})
            maps.append(Endomorphism(images, check=False))
        for sigma in maps:
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(endo_module, "lincomb", counting)
                got, _ = _eliminate(sigma.images)
            assert len(calls) <= n
            assert got == self.check_both_modes(sigma.images)
        assert sum(not is_automorphism(sigma) for sigma in maps) == 3

    def test_cofactor_table_freed_on_return(self, ring):
        # the minors live in a dict, not in a self-referencing closure;
        # three images without linear terms leave a 3 x 3 block for it
        rng = spawn(41, "kernel-cofactor-gc", str(ring))
        n = 6
        images = list(random_gamma_gl(rng, ring, n).images)
        for i in (0, 2, 4):
            images[i] = restrict(images[i], {m: c for m, c in images[i].num.items()
                                             if m.bit_count() != 1})
        matrix = _skew_matrix(images)
        gc.collect()
        gc.disable()
        try:
            det = _det_central(ring, n, matrix)
            got, _ = _eliminate(images)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert got == det

    def test_singular_linear_part_raises(self, ring):
        sigma = Endomorphism([gen(ring, 2, 2), gen(ring, 2, 2)], check=False)
        assert sigma.jacobian().det == GrassmannElement.zero(ring, 2)
        with pytest.raises(NotInvertibleError, match="linear part is singular"):
            sigma.dual_skew_partial(1, gen(ring, 2, 1))

    # -- pass 2: in-place accumulators, the zero-product screen, unit pivots

    @staticmethod
    def check_both_modes(images):
        """Both modes of ``_eliminate`` against ``_det_central`` of the
        Jacobian matrix, which is returned; the inverse rows, when the matrix
        is invertible, multiply back to I."""
        ring, n = images[0].ring, images[0].n
        matrix = _skew_matrix(images)
        want = _det_central(ring, n, matrix)
        assert _eliminate(images)[0] == want
        if not ring.is_unit(want.constant_term()):
            with pytest.raises(NotInvertibleError):
                _eliminate(images, inverse=True)
            return want
        det, inv = _eliminate(images, inverse=True)
        assert det == want
        for i in range(n):
            for j in range(n):
                got = dot(ring, n, ((matrix[i][t], inv[t][j]) for t in range(n)), n)
                assert got == GrassmannElement.scalar(ring, n, int(i == j))
        return want

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_screen_skips_products_that_vanish(self, ring, monkeypatch):
        # linear part I, so every pivot starts at 1.  Row 0 holds x3x4,
        # -x2x4 and x2x3 in columns 1-3; row 1's multiplier x3x4 meets each
        # of them in a generator, so all three products are skipped.  At
        # pivot 1, row 2's multiplier x5x6 meets neither -x1x4 nor x1x3 of
        # row 1: two products are formed, and the first makes pivot 2
        # 1 + x1x4x5x6
        calls = []

        def counting(out, big, pairs, cap):
            pairs = list(pairs)
            calls.append(len(pairs))
            return add_products(out, big, pairs, cap)

        n = 6
        sigma = endo(ring, n, "x1 -> x1 + x2x3x4; x2 -> x2 + x1x3x4; "
                              "x3 -> x3 + x2x5x6; x4 -> x4; x5 -> x5; x6 -> x6")
        monkeypatch.setattr(endo_module, "add_products", counting)
        det, _ = _eliminate(sigma.images)
        assert calls == [1, 1]
        assert det == parse_element(ring, n, "1 + x1x4x5x6")
        self.check_both_modes(sigma.images)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_screen_keeps_partly_overlapping_products(self, ring):
        # the multiplier x3x4 + x3x5 (row 1, column 0) holds x3 in every
        # term, but of the pivot-row entry x3x6 + x5x6 (row 0, column 1) only
        # x3x6 does: f * b = x3x4x5x6 must be kept
        n = 6
        sigma = endo(ring, n, "x1 -> x1 + x2x3x6 + x2x5x6; "
                              "x2 -> x2 + x1x3x4 + x1x3x5; "
                              "x3 -> x3; x4 -> x4; x5 -> x5; x6 -> x6")
        want = parse_element(ring, n, "1 - x3x4x5x6")
        assert _eliminate(sigma.images)[0] == want
        self.check_both_modes(sigma.images)
        # the same overlap pattern under the linear part diag(2, 1, 5, 1, 1, 1),
        # so pass 1 rebuilds rows 0 and 2 before pass 2 runs
        sigma = endo(ring, n, "x1 -> 2*x1 + x2x3x6 + x2x5x6; "
                              "x2 -> x2 + x1x3x4 + x1x3x5; "
                              "x3 -> 5*x3 + x1x2x4; x4 -> x4; x5 -> x5; x6 -> x6")
        assert _eliminate(sigma.images)[0].degrees() - {0}
        self.check_both_modes(sigma.images)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_exact_one_pivots_skip_inversion(self, ring, monkeypatch):
        # linear part I, so every pivot starts at 1.  Row 1's multiplier x3x4
        # meets every entry of row 0, so pivot 1 stays exactly 1; row 2's
        # x5x6 takes -x2x4 of row 0 into pivot 2, 1 + x2x4x5x6, the one
        # pivot inverted per mode
        calls = []

        def counting(ring, n, num, den):
            calls.append(from_num(ring, n, num, den))
            return invert_num(ring, n, num, den)

        n = 6
        sigma = endo(ring, n, "x1 -> x1 + x2x3x4; x2 -> x2 + x1x3x4; "
                              "x3 -> x3 + x1x5x6; x4 -> x4; x5 -> x5; x6 -> x6")
        monkeypatch.setattr(endo_module, "invert_num", counting)
        assert self.check_both_modes(sigma.images) == parse_element(
            ring, n, "1 + x2x4x5x6")
        assert calls == [parse_element(ring, n, "1 + x2x4x5x6")] * 2

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_sparse_shift_linear_maps(self, ring, n):
        # the shape of the jacobian_qq inputs: most products vanish
        rng = spawn(41, "kernel-sparse", n, str(ring))
        for terms in (2, 3):
            gamma = random_gamma(rng, ring, n, terms=terms)
            sigma = gamma.compose(linear_endo(ring, random_invertible_matrix(rng, ring, n)))
            jac = sigma.jacobian()
            assert jac.det == self.check_both_modes(sigma.images)

    def test_jacobian_leaves_the_matrix_entries_alone(self, ring):
        # pass 2 accumulates in place into the rows that pass 1 built, so
        # neither the images nor a matrix read before the elimination change
        rng = spawn(41, "kernel-alias", str(ring))
        for n in (5, 7):
            for sigma in (random_sigma_word(rng, ring, n, length=3),
                          random_gamma(rng, ring, n, terms=3),
                          random_gamma_gl(rng, ring, n)):
                before = [(dict(im.num), im.den) for im in sigma.images]
                jac = sigma.jacobian()
                matrix = jac.matrix
                sigma._dual_data()
                for inverse in (False, True):
                    _eliminate(sigma.images, inverse=inverse)
                assert [(im.num, im.den) for im in sigma.images] == before
                assert matrix == _skew_matrix(sigma.images)

    def test_inverse_elimination_leaves_its_input_alone(self, ring):
        # linear part I, so every row is the partials of its own image
        rng = spawn(41, "kernel-alias-inverse", str(ring))
        for n in (5, 7):
            images = [gen(ring, n, i) + random_odd(rng, ring, n, min_degree=3, terms=3)
                      for i in range(1, n + 1)]
            before = [(dict(im.num), im.den) for im in images]
            _eliminate(images, inverse=True)
            assert [(im.num, im.den) for im in images] == before


class TestNumeratorJacobian:
    """The Jacobian straight from the images: numerator rows, the matrix
    built on its first read."""

    FIELDS = [QQ, GF(3), GF(7)]

    def test_det_forms_no_skew_partial(self, ring, monkeypatch):
        calls = []

        def counting(i, e):
            calls.append(i)
            return skew_partial(i, e)

        monkeypatch.setattr(endo_module, "skew_partial", counting)
        rng = spawn(43, "lazy-matrix", str(ring))
        for n in (4, 7):
            for sigma in (random_gamma(rng, ring, n), random_gamma_gl(rng, ring, n)):
                fresh = Endomorphism(sigma.images, check=False)
                jac = fresh.jacobian()
                assert jac.det == _det_central(ring, n, [
                    [skew_partial(j, im) for j in range(1, n + 1)]
                    for im in sigma.images])
                fresh._dual_data()
                assert calls == []
                want = [[skew_partial(j, im) for j in range(1, n + 1)]
                        for im in sigma.images]
                assert jac.matrix == want
                assert len(calls) == n * n
                assert jac.matrix is jac.matrix  # built once
                assert len(calls) == n * n
                calls.clear()

    def test_parity_error_before_elimination(self, ring, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("elimination ran on images with even parts")

        monkeypatch.setattr(endo_module, "_eliminate", refuse)
        for text in ("x1 -> x1 + x1x2; x2 -> x2", "x1 -> x1; x2 -> 1 + x2"):
            sigma = parse_endomorphism(ring, 2, text, check=False)
            with pytest.raises(ParityError, match="purely odd images"):
                sigma.jacobian()
            assert not sigma.has_odd_images()
        assert identity_endo(ring, 2).has_odd_images()

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_partials_match_skew_partial(self, ring):
        rng = spawn(43, "partials", str(ring))
        for n in range(1, 8):
            for _ in range(4):
                e = random_odd(rng, ring, n, terms=6)
                got = endo_module._partials(e, n, ring.modulus)
                assert [from_num(ring, n, *pair) for pair in got] == [
                    skew_partial(j, e) for j in range(1, n + 1)]

    @staticmethod
    def maps(rng, ring, n):
        """A singular linear part, shifts (linear part I, so pivots that are
        exactly 1), and composites of two shift * linear maps."""
        images = list(random_gamma_gl(rng, ring, n).images)
        k = rng.randrange(n)
        images[k] = restrict(images[k], {m: c for m, c in images[k].num.items()
                                         if m.bit_count() != 1})
        yield Endomorphism(images, check=False), False
        yield random_gamma(rng, ring, n, terms=2), True
        yield random_gamma(rng, ring, n, terms=4), True
        yield random_gamma_gl(rng, ring, n).compose(random_gamma_gl(rng, ring, n)), True

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("n", range(4, 8))
    def test_both_modes_match_cofactors(self, ring, n, monkeypatch):
        inverted = []

        def counting(*args):
            inverted.append(1)
            return invert_num(*args)

        monkeypatch.setattr(endo_module, "invert_num", counting)
        rng = spawn(43, "both-modes", n, str(ring))
        one = GrassmannElement.one(ring, n)
        zero = GrassmannElement.zero(ring, n)
        exact_one = 0
        for _ in range(2):
            for sigma, invertible in self.maps(rng, ring, n):
                matrix = _skew_matrix(sigma.images)
                want = _det_central(ring, n, matrix)
                inverted.clear()
                assert _eliminate(sigma.images)[0] == want
                exact_one += invertible and len(inverted) < n
                if not invertible:
                    assert not want.constant_term()
                    with pytest.raises(NotInvertibleError):
                        _eliminate(sigma.images, inverse=True)
                    continue
                det, inv = _eliminate(sigma.images, inverse=True)
                assert det == want
                for i in range(n):
                    for j in range(n):
                        got = dot(ring, n, ((matrix[i][t], inv[t][j])
                                            for t in range(n)), n)
                        assert got == (one if i == j else zero)
        assert exact_one


class TestDualDerivatives:
    def test_identity_case(self, ring, rng):
        n = 4
        ident = identity_endo(ring, n)
        e = random_element(rng, ring, n, terms=4)
        from grassmann.skewcalc import skew_partial
        for i in range(1, n + 1):
            assert ident.dual_skew_partial(i, e) == skew_partial(i, e)

    def test_delta_property(self, ring, battery):
        # the delta property on the images and the square-zero law
        battery(check_dual_derivatives, ring, 5, 10)

    def test_square_zero(self, ring, battery):
        battery(check_dual_derivatives, ring, 5, 20)

    def test_projection_is_constant_term(self, ring, rng):
        n = 5
        for _ in range(20):
            sigma = random_gamma_gl(rng, ring, n)
            e = random_element(rng, ring, n, terms=4)
            assert sigma.new_coordinate_projection(e) == GrassmannElement.scalar(
                ring, n, e.constant_term())


def untruncated_formula_inverse(sigma):
    """Reference formula inverse: the full tree of 2^n composite dual
    derivatives per generator, each node's constant term read off."""
    ring, n = sigma.ring, sigma.n
    images = []
    for j in range(1, n + 1):
        duals = {0: gen(ring, n, j)}
        terms = {}
        for mask in range(1, 1 << n):
            top = mask.bit_length() - 1
            duals[mask] = sigma.dual_skew_partial(top + 1, duals[mask ^ (1 << top)])
            terms[mask] = duals[mask].constant_term()
        images.append(GrassmannElement(ring, n, terms))
    return Endomorphism(images, check=False)


class TestInverse:
    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    def test_identity_linear_part_skips_the_linear_peel(self, ring, monkeypatch):
        # shifts, scalings and their products have linear part I
        def refuse(*args):
            raise AssertionError("identity linear part was inverted")

        rng = spawn(43, "identity-linear", str(ring))
        for n in range(3, 8):
            maps = [random_gamma(rng, ring, n),
                    random_sigma_word(rng, ring, n),
                    scaling_endo(ring, n, [random_element(
                        rng, ring, n, degrees=range(2, n + 1, 2), terms=2)
                        for _ in range(n)])]
            maps.append(maps[0].compose(maps[2]))
            for sigma in maps:
                with monkeypatch.context() as m:
                    m.setattr(endo_module, "mat_inv", refuse)
                    m.setattr(endo_module, "linear_endo", refuse)
                    got = sigma._inverse_iteration()
                assert got == sigma._inverse_formula()
                assert got == composed_iteration_inverse(sigma)
                assert sigma.compose(got) == identity_endo(ring, n)

    def test_skew_partials_only_on_present_generators(self, ring, monkeypatch):
        # the formula tree differentiates a node only along generators that
        # occur in it, so no derivative it forms is zero
        from grassmann.skewcalc import skew_partial

        def nonzero(i, e):
            d = skew_partial(i, e)
            assert d, "formula inverse formed a zero skew partial"
            return d

        rng = spawn(43, "formula-present", str(ring))
        for n in range(2, 7):
            sigma = random_gamma_gl(rng, ring, n, terms=3)
            want = untruncated_formula_inverse(sigma)
            with monkeypatch.context() as m:
                m.setattr(endo_module, "skew_partial", nonzero)
                got = sigma._inverse_formula()
            assert got == want

    def test_identity(self, ring):
        ident = identity_endo(ring, 4)
        assert ident.inverse("iteration") == ident
        assert ident.inverse("formula") == ident

    def test_forced_example(self, ring):
        sigma = endo(ring, 4, "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        expected = endo(ring, 4, "x1 -> x1 - x2x3x4; x2 -> x2; x3 -> x3; x4 -> x4")
        assert sigma.inverse("iteration") == expected
        assert sigma.inverse("formula") == expected

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    def test_truncation_changes_no_coefficient(self, ring):
        rng = spawn(43, "formula-truncation", str(ring))
        for n in range(1, 7):
            maps = [random_gamma_gl(rng, ring, n),
                    random_gamma_gl(rng, ring, n, terms=4),
                    random_linear(rng, ring, n).compose(random_gamma(rng, ring, n)),
                    random_gamma(rng, ring, n)]
            for sigma in maps:
                assert sigma._inverse_formula() == untruncated_formula_inverse(sigma)

    def test_formula_independent_of_iteration(self, ring, monkeypatch):
        # each strategy is the other's oracle, so neither may call the other
        def refuse(*args):
            raise AssertionError("formula inverse ran the iteration path")

        sigma = random_gamma_gl(spawn(43, "formula-alone", str(ring)), ring, 5)
        want = untruncated_formula_inverse(sigma)
        monkeypatch.setattr(Endomorphism, "_inverse_iteration", refuse)
        monkeypatch.setattr(Endomorphism, "apply", refuse)
        assert sigma.inverse("formula") == want

    @pytest.mark.parametrize("n", [9, 10])
    def test_formula_matches_iteration_at_large_n(self, n):
        sigma = random_gamma_gl(spawn(43, "formula-large", n), GF(7), n)
        assert sigma._inverse_formula() == sigma._inverse_iteration()

    def test_strategies_agree_and_compose(self, battery):
        battery(check_inverse_strategies, GF(7), 5, 25)

    def test_iteration_handles_even_content(self, ring, rng):
        # conjugations have even image differences; only iteration applies
        n = 4
        ident = identity_endo(ring, n)
        for _ in range(10):
            omega = random_omega(rng, ring, n, terms=2)
            inv = omega.inverse("iteration")
            assert omega.compose(inv) == ident
        with pytest.raises(ParityError):
            random_omega(rng, ring, n, terms=1).compose(
                coordinate_shift(ring, n, 1, gen(ring, n, 2) * gen(ring, n, 3) * gen(ring, n, 4),
                                 check=False)).inverse("formula")

    def test_singular_rejected(self, ring):
        sigma = Endomorphism([gen(ring, 2, 2), gen(ring, 2, 2)], check=False)
        with pytest.raises(NotInvertibleError, match="linear part is singular"):
            sigma.inverse("iteration")


def unipotent_maps(rng, ring, n):
    """Maps with linear part I and no constant terms: layer scalings, pair
    scaling products, shifts sparse and dense, Jacobian-1 words and inner
    maps; the families that need n >= 3 fall back to the identity."""
    maps = [random_gamma(rng, ring, n), random_sigma_word(rng, ring, n),
            random_omega(rng, ring, n)]
    for s in range(1, (n - 1) // 2 + 1):
        maps.append(layer_scaling(ring, n, s, random_element(
            rng, ring, n, degrees=[2 * s], terms=4)))
        avoid = _avoidance(n, s)
        lambdas = {(i, mask): ring.random(rng) for i in range(1, n)
                   for mask in avoid.domain[i] if rng.random() < 0.5}
        maps.append(rho_product(ring, n, s, lambdas))
    odd = [d for d in range(3, n + 1, 2)]
    if odd:
        maps.append(shift_endo(ring, n, [GrassmannElement(
            ring, n, {m: ring.random_nonzero(rng) for m in range(1 << n)
                      if m.bit_count() in odd and rng.random() < 0.5})
            for _ in range(n)]))
    return maps


class TestApplyInverseAll:
    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_inverse_map(self, ring, n):
        rng = spawn(47, "neumann", n, str(ring))
        zero = GrassmannElement.zero(ring, n)
        for f in unipotent_maps(rng, ring, n):
            es = [random_element(rng, ring, n, terms=5) for _ in range(3)]
            es += [zero, es[0], GrassmannElement.one(ring, n), es[1], zero]
            got = f.apply_inverse_all(es)
            assert got == composed_iteration_inverse(f).apply_all(es)
            assert f.apply_all(got) == es
        assert f.apply_inverse_all([]) == []

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    def test_gate_reads_the_numerators(self, ring):
        # linear part I: image i holds x_i with numerator den and no other
        # degree-1 mask; the gate builds no linear-part matrix
        n = 4
        e = parse_element(ring, n, "x1 + x2x3x4")
        for text in ("x1 -> x1; x2 -> x2 + 2*x3; x3 -> x3; x4 -> x4",
                     "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3; x4 -> x4 + x3"):
            sigma = parse_endomorphism(ring, n, text)
            with pytest.raises(NotUnipotentError,
                               match="linear part I and no constant terms"):
                sigma.apply_inverse_all([e])
            assert sigma._linear is None
        # a unipotent map whose images have a denominator above 1 over QQ
        sigma = parse_endomorphism(
            ring, n, "x1 -> x1 + 1/2*x2x3x4; x2 -> x2 - 2/5*x1x3x4; x3 -> x3; x4 -> x4")
        got = sigma.apply_inverse_all([e])
        assert sigma._linear is None
        assert sigma.apply_all(got) == [e]
        assert got == composed_iteration_inverse(sigma).apply_all([e])

    @pytest.mark.parametrize("ring", [QQ, GF(3), GF(7)], ids=str)
    def test_non_unipotent_fails_fast(self, ring, monkeypatch):
        def refuse(*args):
            raise AssertionError("products formed for a non-unipotent map")

        n = 8
        rng = spawn(47, "neumann-refuse", str(ring))
        two = ring.from_int(2)
        gl = random_gamma_gl(rng, ring, n)
        constant = list(random_gamma(rng, ring, n).images)
        constant[2] = constant[2] + GrassmannElement.scalar(ring, n, ring.one)
        es = [random_element(rng, ring, n, terms=20) for _ in range(3)]
        with monkeypatch.context() as m:
            m.setattr(endo_module, "_Products", refuse)
            for f in (linear_endo(ring, [[two if i == j else ring.zero
                                          for j in range(n)] for i in range(n)]),
                      gl, Endomorphism(constant, check=False)):
                start = time.perf_counter()
                with pytest.raises(NotUnipotentError):
                    f.apply_inverse_all(es)
                assert time.perf_counter() - start < 1
        # a GL map is inverted through the linear peel
        assert gl.inverse() == composed_iteration_inverse(gl)
        assert gl.compose(gl.inverse()) == identity_endo(ring, n)

    def test_terms_killed_by_n_take_no_product(self, ring, monkeypatch):
        # a layer factor of degree 2s raises degrees by 2s, so it fixes
        # every term of degree above n - 2s
        def refuse(*args):
            raise AssertionError("a product was formed for a fixed term")

        n, s = 7, 2
        rng = spawn(47, "neumann-cut", str(ring))
        f = layer_scaling(ring, n, s, random_element(
            rng, ring, n, degrees=[2 * s], terms=6))
        e = random_element(rng, ring, n, degrees=range(n - 2 * s + 1, n + 1),
                           terms=8)
        monkeypatch.setattr(endo_module._Products, "__missing__", refuse)
        assert f.apply_inverse_all([e, e]) == [e, e]

    def test_dimension_mismatch(self, ring):
        f = random_gamma(spawn(47, "neumann-dims", str(ring)), ring, 4)
        with pytest.raises(DimensionMismatchError):
            f.apply_inverse_all([GrassmannElement.zero(ring, 5)])


class TestInner:
    def test_bracket_example(self):
        ring = QQ
        w = inner(GrassmannElement.one(ring, 3) + gen(ring, 3, 1))
        assert w.images[1] == parse_element(ring, 3, "x2 + 2*x1x2")

    def test_scalar_is_identity(self, ring):
        assert inner(GrassmannElement.scalar(ring, 3, ring.from_int(2))) == (
            identity_endo(ring, 3))

    def test_additivity(self, ring, rng, battery):
        # additivity, the bracket form and scalars; then the inverse
        battery(check_inner_properties, ring, 5, 30)
        n = 5
        one = GrassmannElement.one(ring, n)
        for _ in range(30):
            a = random_odd(rng, ring, n, terms=3)
            assert inner(one + a).inverse() == inner(one - a)

    def test_bracket_form(self, ring, battery):
        battery(check_inner_properties, ring, 4, 20)

    def test_non_unit_rejected(self, ring):
        with pytest.raises(Exception):
            inner(gen(ring, 3, 1))


class TestIsAutomorphism:
    def test_identity(self, ring):
        assert is_automorphism(identity_endo(ring, 3))

    def test_singular(self, ring):
        sigma = Endomorphism([gen(ring, 2, 2), gen(ring, 2, 2)], check=False)
        assert not is_automorphism(sigma)

    def test_top_shift(self, ring):
        n = 4
        theta = (1 << n) - 1
        sigma = Endomorphism(
            [gen(ring, n, i + 1) + GrassmannElement.monomial(ring, n, theta, ring.one)
             for i in range(n)], check=False)
        assert is_automorphism(sigma)


class TestChainRules:
    @pytest.mark.parametrize("n", [4, 5])
    def test_matrix_and_determinant(self, ring, n, battery):
        battery(check_chain_rule, ring, n, 20)


class TestShapeConstructors:
    def test_shift_endo_matches_text(self, ring):
        n = 4
        shifts = [parse_element(ring, n, "x2x3x4"), None,
                  GrassmannElement.zero(ring, n),
                  parse_element(ring, n, "2*x1x2x3 - x1x2x4")]
        assert shift_endo(ring, n, shifts) == endo(
            ring, n, "x1 -> x1 + x2x3x4; x2 -> x2; x3 -> x3; "
                     "x4 -> x4 + 2*x1x2x3 - x1x2x4")

    def test_scaling_endo_matches_text(self, ring):
        n = 4
        factors = [parse_element(ring, n, "x2x3"), GrassmannElement.zero(ring, n),
                   None, parse_element(ring, n, "3*x1x2 - x2x3")]
        assert scaling_endo(ring, n, factors) == endo(
            ring, n, "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3; "
                     "x4 -> x4 + 3*x1x2x4 - x2x3x4")


class TestSameAlgebra:
    """Equal rings held in distinct objects mix; unequal rings do not."""

    def test_equal_prime_fields_mix(self):
        n = 3
        p7, gf7 = PrimeField(7), GF(7)
        assert p7 is not gf7 and p7 == gf7
        text = "x1 -> x1 + x1x2x3; x2 -> 2*x2 + x1; x3 -> x3"
        sigma, tau = endo(p7, n, text), endo(gf7, n, text)
        e = parse_element(gf7, n, "1 + x1x2 + 3*x3")
        assert sigma == tau
        assert sigma.apply(e) == tau.apply(e)
        assert sigma.compose(tau) == tau.compose(tau)
        assert tau.compose(sigma) == tau.compose(tau)
        mixed = Endomorphism([sigma.images[0], tau.images[1], sigma.images[2]])
        assert mixed == tau
        assert sigma.dual_skew_partial(1, e) == tau.dual_skew_partial(1, e)

    def test_other_prime_field_raises(self):
        n = 3
        text = "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3"
        sigma, other = endo(GF(7), n, text), endo(GF(11), n, text)
        e = parse_element(GF(11), n, "1 + x1x2")
        for call in (lambda: sigma.apply(e), lambda: sigma.compose(other),
                     lambda: sigma.dual_skew_partial(1, e),
                     lambda: Endomorphism([sigma.images[0], *other.images[1:]]),
                     lambda: sigma.images[0] + e):
            with pytest.raises(DimensionMismatchError):
                call()
        assert sigma != other


class TestEndoGrammar:
    def test_example_round_trip(self, ring):
        text = "x1 -> x1 + x1x2x3; x2 -> x2; x3 -> x3"
        sigma = endo(ring, 3, text)
        assert parse_endomorphism(ring, 3, format_endomorphism(sigma)) == sigma

    def test_random_round_trips(self, ring, rng):
        for _ in range(20):
            sigma = random_gamma(rng, ring, 5, terms=2)
            assert parse_endomorphism(ring, 5, format_endomorphism(sigma)) == sigma

    def test_missing_generator(self, ring):
        with pytest.raises(ValueError):
            parse_endomorphism(ring, 3, "x1 -> x1; x2 -> x2")

    def test_newline_separators(self, ring):
        sigma = parse_endomorphism(ring, 2, "x1 -> x1\nx2 -> x2")
        assert sigma == identity_endo(ring, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_random_gamma_is_identity_without_odd_degrees(ring, rng, n):
    # Gamma needs an odd degree >= 3, so it is trivial for n <= 2
    assert random_gamma(rng, ring, n) == identity_endo(ring, n)
    sigma = random_gamma_gl(rng, ring, n)
    assert all(im.is_homogeneous(1) for im in sigma.images)
    assert is_automorphism(sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_sigma_word_is_identity_without_generators(ring, rng, n):
    # no triple shift and no pair scaling exists for n <= 3
    assert random_sigma_word(rng, ring, n) == identity_endo(ring, n)
