import random
import re
from fractions import Fraction

import pytest

from grassmann.algebra import GrassmannElement, check_n
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


def dense_gamma(rng, ring, n):
    """x_i -> x_i + every odd monomial of degree >= 3, random coefficients."""
    return shift_endo(ring, n, [GrassmannElement(ring, n, {
        m: ring.random_nonzero(rng) for m in range(1 << n)
        if m.bit_count() >= 3 and m.bit_count() % 2}) for _ in range(n)])


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


_TOKEN = re.compile(r"[+-]|(?:\d+(?:/\d+)?)|(?:(?:x\d+)+)|\*")
_MONO = re.compile(r"x(\d+)")


def reference_parse_element(ring, n, text):
    """Reference element parser, independent of the int-numerator reader of
    ``parse_element``: it reads each coefficient as a field element
    (``Fraction`` over QQ, a residue over GF(p)), sums the terms into a dict
    of field elements and hands that to the constructor.  It differs from
    ``parse_element`` in two ways only: it reads a monomial as its set of
    generators, whatever the written order, and a zero denominator raises
    ``ZeroDivisionError`` (``NotAUnitError`` over GF(p)) that names no
    coefficient."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty element expression")
    pos = 0
    tokens = []
    for match in _TOKEN.finditer(compact):
        if match.start() != pos:
            raise ValueError(f"cannot parse element near {compact[pos:]!r}")
        tokens.append(match.group())
        pos = match.end()
    if pos != len(compact):
        raise ValueError(f"cannot parse element near {compact[pos:]!r}")

    check_n(n)
    terms = {}
    p = ring.modulus
    i = 0
    while i < len(tokens):
        negative = False
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                negative = not negative
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign in element expression")
        coeff = ring.one
        mask = 0
        tok = tokens[i]
        if tok[0].isdigit():
            if p is None:
                coeff = Fraction(tok)
            else:
                a, _, q = tok.partition("/")
                coeff = int(a) * ring.invert(int(q or 1)) % p
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                if i == len(tokens) or tokens[i][0] != "x":
                    raise ValueError("'*' must be followed by a monomial")
            if i < len(tokens) and tokens[i][0] == "x":
                mask = _reference_monomial(tokens[i], n)
                i += 1
        elif tok[0] == "x":
            mask = _reference_monomial(tok, n)
            i += 1
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if negative:
            coeff = -coeff
        coeff = ring.normalize(coeff)
        if coeff == 0:
            continue
        # same insertion order as adding the monomials one at a time
        acc = terms.get(mask)
        if acc is not None:
            coeff = acc + coeff
            if p is not None:
                coeff %= p
        if coeff == 0:
            del terms[mask]
        else:
            terms[mask] = coeff
    return GrassmannElement(ring, n, terms)


def _reference_monomial(text, n):
    mask = 0
    for m in _MONO.finditer(text):
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} out of range for n={n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator x{i} in monomial {text!r}")
        mask |= bit
    return mask


def _reference_name(e, mask):
    return "".join(f"x{i}" for i in range(1, e.n + 1) if mask >> (i - 1) & 1) or "1"


def _reference_terms(e):
    """(mask, coefficient text) by degree, then mask, printed from the field
    elements of ``e.terms`` with ``str``."""
    return [(m, str(c)) for m, c in
            sorted(e.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))]


def reference_format_element(e):
    """Reference for ``format_element``, built from ``e.terms``."""
    parts = []
    for mask, text in _reference_terms(e):
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if mask == 0:
            body = text
        elif text == "1":
            body = _reference_name(e, mask)
        else:
            body = f"{text}*{_reference_name(e, mask)}"
        parts.append(("-" if negative else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def reference_element_to_json(e):
    """Reference for ``element_to_json``, built from ``e.terms``."""
    return {"n": e.n, "field": e.ring.name,
            "terms": [{"mask": m, "monomial": _reference_name(e, m), "coeff": text}
                      for m, text in _reference_terms(e)]}
