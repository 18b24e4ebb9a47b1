import random

import pytest

from grassmann.algebra import GrassmannElement
from grassmann.endo import identity_endo, linear_endo, shift_endo
from grassmann.groups import GammaWord, _shift_product
from grassmann.rings import GF, QQ, mat_inv


@pytest.fixture(params=[QQ, GF(7)], ids=["QQ", "GF7"])
def ring(request):
    return request.param


@pytest.fixture
def rng():
    return random.Random(20240917)


@pytest.fixture
def battery(request):
    """Run a sampled ``grassmann.verify`` check: ``battery(check, *args)``
    calls ``check(*args, seed)``, whose last argument is the sample count, and
    asserts that every sample passed and none was skipped.  The seed is the
    test's id, so each test draws its own samples."""
    seed = request.node.nodeid

    def run(check, *args):
        result = check(*args, seed)
        assert result.passed, f"{result.line()} (seed {seed!r})"
        assert result.samples >= args[-1], result.line()

    return run


def letters_multiply(ring, n, word_a, word_b, coeff_a, coeff_b):
    """Brute-force product of two index words by adjacent-swap sorting.

    Independent of the bitmask path: concatenates the letter sequences, then
    bubble-sorts counting transpositions, returning (mask, coeff) or None when
    a letter repeats.
    """
    word = list(word_a) + list(word_b)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                swaps += 1
                changed = True
    for k in range(len(word) - 1):
        if word[k] == word[k + 1]:
            return None
    coeff = ring.normalize(coeff_a * coeff_b)
    if swaps % 2:
        coeff = ring.normalize(-coeff)
    mask = 0
    for i in word:
        mask |= 1 << (i - 1)
    return mask, coeff


def brute_force_product(e: GrassmannElement, f: GrassmannElement) -> GrassmannElement:
    """Reference multiplication via letter words; used as the sign oracle."""
    ring, n = e.ring, e.n
    acc = {}
    for m1, c1 in e.terms.items():
        w1 = [i for i in range(1, n + 1) if (m1 >> (i - 1)) & 1]
        for m2, c2 in f.terms.items():
            w2 = [i for i in range(1, n + 1) if (m2 >> (i - 1)) & 1]
            hit = letters_multiply(ring, n, w1, w2, c1, c2)
            if hit is None:
                continue
            mask, coeff = hit
            acc[mask] = ring.normalize(acc.get(mask, ring.zero) + coeff)
    return GrassmannElement(ring, n, acc)


def composed_iteration_inverse(sigma):
    """Reference iteration inverse, independent of the Neumann series of
    ``Endomorphism.apply_inverse_all``: peel the linear part (the scalar
    inverse, its substitution and both compositions), then resubstitute the
    shifts of the unipotent rest until the map stops changing."""
    ring, n = sigma.ring, sigma.n
    lin_inv = linear_endo(ring, mat_inv(ring, sigma.linear_part()))
    tau = sigma.compose(lin_inv)
    current = identity_endo(ring, n)
    shifts = [x - im for x, im in zip(current.images, tau.images)]
    for _ in range(n + 1):
        nxt = shift_endo(ring, n, [current.apply(b) for b in shifts])
        if nxt == current:
            break
        current = nxt
    return lin_inv.compose(current)


def gamma_word_by_inverse(sigma):
    """Reference Gamma factorization, kept as an independent route to the
    forward peel of ``decompose_gamma``: it reads c_i off the running inverse,
    where minus c_i is the degree-k part of its image of x_i that avoids x_i,
    composes the degree-k shift product onto it, and inverts what is left
    for phi."""
    ring, n = sigma.ring, sigma.n
    current = sigma.inverse()
    xis = {}
    for degree in range(3, n + 1, 2):
        shifts = tuple(
            -GrassmannElement(ring, n, {m: c for m, c in image.terms.items()
                                        if not (m >> (i - 1)) & 1
                                        and m.bit_count() == degree})
            for i, image in enumerate(current.images, 1))
        if any(shifts):
            current = _shift_product(ring, n, shifts).compose(current)
        xis[degree] = shifts
    return GammaWord(phi=current.inverse(), xis=xis)
