"""Uniqueness of the word factorizations.

Each factorization theorem asserts a *unique* normal form; these tests build
inputs directly from canonical-form factor data and check that the extraction
recovers exactly that data (not merely some recomposing word).
"""

import random
from itertools import product

import pytest

from conftest import dense_gamma, gamma_word_by_inverse
from grassmann.algebra import GrassmannElement, element_from_json, element_to_json
from grassmann.endo import Endomorphism, identity_endo, inner
from grassmann.groups import (
    _avoidance,
    decompose_gamma,
    decompose_layers,
    decompose_sigma_prime,
    decompose_unipotent,
    layer_scaling,
    rho_product,
)
from grassmann.groups import _shift_product
from grassmann.rings import GF, QQ
from grassmann.sampling import (random_element, random_gamma, random_phi,
                                random_shift_word, random_sigma_word, spawn)


@pytest.fixture(params=[QQ, GF(7)], ids=["QQ", "GF7"])
def ring(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(777)


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def homogeneous(rng, ring, n, degree, terms=2):
    e = random_element(rng, ring, n, degrees=[degree], terms=terms)
    return e


def homogeneous_free(rng, ring, n, i, degree, terms=2):
    e = homogeneous(rng, ring, n, degree, terms)
    return GrassmannElement(
        ring, n, {m: c for m, c in e.terms.items() if not (m >> (i - 1)) & 1})


class TestUnipotentUniqueness:
    def test_canonical_factors_recovered(self, ring, rng):
        n = 6
        one = GrassmannElement.one(ring, n)
        for _ in range(20):
            data = {}
            acc = identity_endo(ring, n)
            for level in range(2, n + 1):
                if level % 2 == 0:
                    a = homogeneous(rng, ring, n, level - 1, terms=2)
                    if a:
                        data[level] = ("inner", a)
                        acc = inner(one + a).compose(acc)
                else:
                    b = tuple(homogeneous(rng, ring, n, level, terms=1)
                              for _ in range(n))
                    if any(b):
                        data[level] = ("shift", b)
                        acc = Endomorphism(
                            [gen(ring, n, i + 1) + b[i] for i in range(n)],
                            check=False).compose(acc)
            word = decompose_unipotent(acc)
            got = {}
            for kind, payload in word.factors:
                if kind == "inner":
                    got[payload.min_degree() + 1] = (kind, payload)
                else:
                    level = min(x.min_degree() for x in payload if x)
                    got[level] = (kind, payload)
            assert got == data


class TestGammaWordUniqueness:
    def test_canonical_shift_tuples_recovered(self, ring, rng):
        n = 6
        for _ in range(20):
            phi_images = []
            one = GrassmannElement.one(ring, n)
            for i in range(1, n + 1):
                a = homogeneous_free(rng, ring, n, i, 2, terms=1)
                phi_images.append(gen(ring, n, i) * (one + a))
            phi = Endomorphism(phi_images, check=False)
            shifts = {}
            acc = phi
            for degree in sorted(range(3, n + 1, 2), reverse=True):
                cs = tuple(homogeneous_free(rng, ring, n, i, degree, terms=1)
                           for i in range(1, n + 1))
                shifts[degree] = cs
                acc = acc.compose(_shift_product(ring, n, cs))
            word = decompose_gamma(acc)
            assert word.phi == phi
            for degree, cs in shifts.items():
                assert word.xis[degree] == cs


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=str)
def test_gamma_word_matches_inverse_reading(field):
    # the forward peel and the running-inverse oracle give one word
    for n, seed in product(range(1, 8), range(4)):
        rng = spawn(seed, "gamma-oracle", n, field)
        inputs = [random_gamma(rng, field, n, terms=2),
                  random_gamma(rng, field, n, terms=6),
                  random_phi(rng, field, n).compose(random_shift_word(rng, field, n)),
                  random_sigma_word(rng, field, n)]
        if n >= 5:
            inputs.append(dense_gamma(rng, field, n))
        for sigma in inputs:
            want = gamma_word_by_inverse(sigma)
            word = decompose_gamma(sigma)
            assert word.phi == want.phi
            assert word.xis == want.xis


class TestSigmaPrimeUniqueness:
    def test_canonical_lambdas_recovered(self, ring, rng):
        n = 6
        for _ in range(20):
            lambdas = {}
            acc = identity_endo(ring, n)
            for s in (1, 2):
                table = _avoidance(n, s)
                stage = {}
                pool = [(i, m) for i in range(1, n) for m in table.domain[i]]
                for i, m in rng.sample(pool, min(3, len(pool))):
                    lam = ring.random(rng)
                    if lam != 0:
                        stage[(i, m)] = lam
                        lambdas[(s, i, m)] = lam
                acc = acc.compose(rho_product(ring, n, s, stage))
            word = decompose_sigma_prime(acc)
            assert word.lambdas == lambdas


class TestLayerUniqueness:
    def test_canonical_layers_recovered(self, rng):
        ring = GF(7)
        n = 6
        for _ in range(20):
            layers = {}
            acc = random_sigma_word(rng, ring, n, length=3)
            tail = acc
            for s in sorted((1, 2), reverse=True):
                a = homogeneous(rng, ring, n, 2 * s, terms=2)
                layers[s] = a
                acc = layer_scaling(ring, n, s, a).compose(acc)
            word = decompose_layers(acc)
            assert word.tail == tail
            for s, a in layers.items():
                assert word.layers[s] == a


class TestJsonRoundTrip:
    def test_element_json(self, ring, rng):
        for _ in range(20):
            e = random_element(rng, ring, 5, terms=5)
            assert element_from_json(ring, 5, element_to_json(e)) == e
