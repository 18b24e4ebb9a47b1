"""Seeded random constructions of elements and subgroup members.

All randomness flows from explicit ``random.Random`` instances; a single
top-level seed fans out deterministically per sample index via
:func:`spawn`, so independent samples can be re-drawn (or distributed)
without shared state.
"""

from __future__ import annotations

import random
from itertools import combinations

from .algebra import GrassmannElement, indices_mask
from .endo import (Endomorphism, compose_all, coordinate_shift, identity_endo,
                   inner, linear_endo, scaling_endo, shift_endo)
from .groups import _avoidance, rho_endo
from .rings import Ring, mat_det


def spawn(seed, *labels) -> random.Random:
    """A fresh deterministic generator for (seed, labels...)."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def random_element(rng: random.Random, ring: Ring, n: int, *,
                   degrees=None, terms: int = 4) -> GrassmannElement:
    """A sparse random element supported on up to ``terms`` random monomials."""
    if degrees is None:
        degrees = range(0, n + 1)
    degrees = [d for d in degrees if 0 <= d <= n]
    out = GrassmannElement.zero(ring, n)
    for _ in range(terms):
        d = rng.choice(degrees)
        mask = indices_mask(rng.sample(range(1, n + 1), d)) if d else 0
        out = out + GrassmannElement.monomial(ring, n, mask, ring.random(rng))
    return out


def random_odd(rng, ring, n: int, *, min_degree: int = 1,
               terms: int = 4) -> GrassmannElement:
    degrees = [d for d in range(min_degree, n + 1) if d % 2 == 1]
    return random_element(rng, ring, n, degrees=degrees, terms=terms)


def random_even(rng, ring, n: int, *, min_degree: int = 2,
                terms: int = 4) -> GrassmannElement:
    degrees = [d for d in range(min_degree, n + 1) if d % 2 == 0]
    return random_element(rng, ring, n, degrees=degrees, terms=terms)


def random_invertible_matrix(rng, ring: Ring, n: int):
    while True:
        if ring.modulus is None:
            m = [[ring.from_int(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(n)]
        else:
            m = [[ring.random(rng) for _ in range(n)] for _ in range(n)]
        if ring.is_unit(mat_det(ring, m)):
            return m


def random_linear(rng, ring, n: int) -> Endomorphism:
    return linear_endo(ring, random_invertible_matrix(rng, ring, n))


def random_gamma(rng, ring, n: int, *, terms: int = 3) -> Endomorphism:
    """A random odd shift automorphism: x_i + (odd element of degrees >= 3).

    For n <= 2 there is no odd degree >= 3, so the group is trivial and the
    identity is returned.
    """
    return random_gamma_pow(rng, ring, n, 3, terms=terms)


def random_gamma_pow(rng, ring, n: int, level: int, *, terms: int = 2) -> Endomorphism:
    """A random shift automorphism with differences of odd degree >= level."""
    degrees = [d for d in range(level, n + 1) if d % 2 == 1]
    if not degrees:
        return identity_endo(ring, n)
    return shift_endo(ring, n, [
        random_element(rng, ring, n, degrees=degrees, terms=terms) for _ in range(n)])


def random_omega(rng, ring, n: int, *, terms: int = 3) -> Endomorphism:
    a = random_element(rng, ring, n,
                       degrees=[d for d in range(1, n + 1) if d % 2],
                       terms=terms)
    return inner(GrassmannElement.one(ring, n) + a)


def random_phi(rng, ring, n: int, *, terms: int = 2) -> Endomorphism:
    """A random scaling automorphism x_i -> x_i (1 + even x_i-free)."""
    factors = []
    for i in range(1, n + 1):
        pool = [k for k in range(1, n + 1) if k != i]
        a = GrassmannElement.zero(ring, n)
        for _ in range(terms):
            d = rng.choice([d for d in range(2, n, 2)] or [2])
            if d > len(pool):
                continue
            mask = indices_mask(rng.sample(pool, d))
            a = a + GrassmannElement.monomial(ring, n, mask, ring.random(rng))
        factors.append(a)
    return scaling_endo(ring, n, factors)


def random_shift_word(rng, ring, n: int, *, length: int = 4) -> Endomorphism:
    """A word in single-coordinate shifts along odd monomials (degree >= 3)."""
    degrees = [d for d in range(3, n, 2)]
    factors = []
    for _ in range(length if degrees else 0):
        i = rng.randrange(1, n + 1)
        pool = [k for k in range(1, n + 1) if k != i]
        d = rng.choice([d for d in degrees if d <= len(pool)])
        mask = indices_mask(rng.sample(pool, d))
        b = GrassmannElement.monomial(ring, n, mask, ring.random(rng))
        factors.append(coordinate_shift(ring, n, i, b, check=False))
    return compose_all(ring, n, factors)


def _pair_scaling_stages(n: int) -> list:
    """The stages s whose balanced pair-scaling generators exist at this n."""
    return [s for s in range(1, (n - 1) // 2 + 1)
            if any(_avoidance(n, s).domain[i] for i in range(1, n))]


def _random_pair_scaling(rng, ring, n: int, stages) -> Endomorphism:
    """One balanced pair-scaling generator at a random stage, support and
    coefficient."""
    s = rng.choice(stages)
    avoid = _avoidance(n, s)
    candidates = [(i, m) for i in range(1, n) for m in avoid.domain[i]]
    i, mask = rng.choice(candidates)
    return rho_endo(ring, n, i, avoid.target(i, mask), mask, ring.random(rng))


def random_sigma_prime_word(rng, ring, n: int, *, length: int = 4) -> Endomorphism:
    """A word in the balanced pair-scaling generators (Jacobian 1 by design)."""
    stages = _pair_scaling_stages(n)
    return compose_all(ring, n, [_random_pair_scaling(rng, ring, n, stages)
                                 for _ in range(length if stages else 0)])


def random_sigma_word(rng, ring, n: int, *, length: int = 5) -> Endomorphism:
    """A word mixing pair scalings and triple shifts: a random Jacobian-1 map.

    For n <= 3 neither generator exists (the group is trivial), and the
    identity is returned.
    """
    triples = [(i, mask) for i in range(1, n + 1)
               for mask in _triple_masks(n, i)]
    stages = _pair_scaling_stages(n)
    factors = []
    for _ in range(length if triples else 0):
        if stages and rng.random() < 0.5:
            factors.append(_random_pair_scaling(rng, ring, n, stages))
        else:
            i, mask = rng.choice(triples)
            b = GrassmannElement.monomial(ring, n, mask, ring.random(rng))
            factors.append(coordinate_shift(ring, n, i, b, check=False))
    return compose_all(ring, n, factors)


def _triple_masks(n: int, i: int):
    pool = [k for k in range(1, n + 1) if k != i]
    return [indices_mask(t) for t in combinations(pool, 3)]


def random_unipotent(rng, ring, n: int, *, factors: int = 3) -> Endomorphism:
    """A random product of inner and shift factors (identity linear part)."""
    return compose_all(ring, n, [
        random_omega(rng, ring, n, terms=2) if rng.random() < 0.5
        else random_gamma(rng, ring, n, terms=1) for _ in range(factors)])


def random_automorphism(rng, ring, n: int) -> Endomorphism:
    """A random inner * shift * linear product."""
    return (random_omega(rng, ring, n, terms=2)
            .compose(random_gamma(rng, ring, n, terms=2))
            .compose(random_linear(rng, ring, n)))


def random_gamma_gl(rng, ring, n: int, *, terms: int = 2) -> Endomorphism:
    """A random parity-preserving automorphism: shift times linear."""
    return random_gamma(rng, ring, n, terms=terms).compose(
        random_linear(rng, ring, n))
