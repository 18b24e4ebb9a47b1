"""Exact arithmetic in the Grassmann algebra on n anticommuting generators.

Elements are sparse maps from bitmask monomials to coefficients.  Bit ``i-1``
of a mask records the presence of the generator ``x_i``; a mask always denotes
the product of its generators in ascending index order, which fixes every sign
in the library.

The product makes no coefficient object per pair of terms.  Each operand is
written once as integer numerators over a common denominator (the lcm of its
denominators over QQ, 1 over GF(p)); the inner loop multiplies and adds plain
ints, and one coefficient is built per output term.  The sign of
``mask1 * mask2`` is the parity of the pairs (i in mask1, j in mask2) with
i > j: with ``q`` the suffix-parity mask of ``mask1`` (bit j set when mask1
has an odd number of bits above j), it is ``(mask2 & q).bit_count() & 1``.
Sums of scalar multiples of elements go the same way through ``lincomb``, and
sums of products, optionally cut at a degree, through ``dot``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Union

from .rings import Coefficient, NotAUnitError, Ring

MAX_GENERATORS = 16


class DimensionMismatchError(ValueError):
    """Operands live over different generator counts or rings."""


class Monomial(NamedTuple):
    """A basis monomial: the product of the generators in ``mask``, ascending."""

    mask: int
    n: int

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(mask_indices(self.mask))

    def __str__(self) -> str:
        return mask_str(self.mask)


def mask_indices(mask: int) -> Iterator[int]:
    """Yield the 1-based generator indices present in a mask, ascending."""
    i = 1
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def indices_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def mask_str(mask: int) -> str:
    return "".join(f"x{i}" for i in mask_indices(mask)) if mask else "1"


def numerators(e: "GrassmannElement"):
    """``(items, d)``: the terms of e as (mask, int numerator) over one denominator d.

    Over GF(p) the coefficients already are ints and d is 1.  Over QQ, d is
    the lcm of the denominators; that form is computed once per element and
    cached, since elements are immutable and operands recur (images, matrix
    entries).
    """
    if e._num is not None:
        return e._num
    terms = e.terms
    if e.ring.modulus is not None:
        return terms.items(), 1
    if len(terms) == 1:
        # monomials and scalars, the commonest operands: no lcm or rescaling
        (m, c), = terms.items()
        a, d = c.as_integer_ratio()
        num = [(m, a)], d
    else:
        ratios = [c.as_integer_ratio() for c in terms.values()]
        d = lcm(*[q for _, q in ratios])
        if d == 1:
            num = [(m, a) for m, (a, _) in zip(terms, ratios)], 1
        else:
            num = [(m, a * (d // q)) for m, (a, q) in zip(terms, ratios)], d
    e._num = num
    return num


def from_numerators(ring: Ring, n: int, acc: dict, d: int) -> "GrassmannElement":
    """The element with coefficients acc[mask] / d, zero terms dropped."""
    p = ring.modulus
    if p is not None:
        out = {m: cb for m, c in acc.items() if (cb := c % p)}
    elif d == 1:
        out = {m: Fraction(c) for m, c in acc.items() if c}
    else:
        out = {m: Fraction(c, d) for m, c in acc.items() if c}
    return GrassmannElement(ring, n, out, _raw=True)


def lincomb(ring: Ring, n: int, pairs) -> "GrassmannElement":
    """The sum of c * e over (scalar, element) pairs.

    Accumulates integer numerators over ``big``, the lcm of the denominators
    of the terms c * e seen so far (1 over GF(p)); the accumulator is
    rescaled when ``big`` grows, and one coefficient is built per output term.
    """
    p = ring.modulus
    out: dict[int, int] = {}
    big = 1
    for c, e in pairs:
        if not c:
            continue
        a, q = (c, 1) if p is not None else c.as_integer_ratio()
        items, dp = numerators(e)
        den = q * dp
        if big % den:
            grow = lcm(big, den) // big
            big *= grow
            for m in out:
                out[m] *= grow
        a *= big // den
        for m, c2 in items:
            acc = out.get(m)
            v = a * c2
            out[m] = v if acc is None else acc + v
    return from_numerators(ring, n, out, big)


def dot(ring: Ring, n: int, pairs, cap: int) -> "GrassmannElement":
    """The sum of a * b over (element, element) pairs, up to degree ``cap``.

    Accumulates integer numerators over the running lcm of the pairs'
    denominators, as ``lincomb`` does, with the suffix-parity signs of the
    product.  A left term of degree above ``cap`` is skipped, and so is every
    right term that would lift it above ``cap``, before any product is
    formed; with ``cap >= n`` the sum is exact.
    """
    out: dict[int, int] = {}
    big = 1
    for a, b in pairs:
        if not a or not b:
            continue
        left, da = numerators(a)
        right, db = numerators(b)
        den = da * db
        if big % den:
            grow = lcm(big, den) // big
            big *= grow
            for m in out:
                out[m] *= grow
        s = big // den
        for m1, c1 in left:
            room = cap - m1.bit_count()
            if room < 0:
                continue
            c1 *= s
            q = m1 >> 1
            q ^= q >> 1
            q ^= q >> 2
            q ^= q >> 4
            q ^= q >> 8
            for m2, c2 in right:
                if m1 & m2 or m2.bit_count() > room:
                    continue
                c = c1 * c2
                if (m2 & q).bit_count() & 1:
                    c = -c
                m = m1 | m2
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
    return from_numerators(ring, n, out, big)


class GrassmannElement:
    """An element of the rank-2^n Grassmann algebra over an exact ring.

    Immutable once constructed; ``terms`` maps masks to nonzero coefficients
    and must not be mutated.
    """

    __slots__ = ("ring", "n", "terms", "_hash", "_num")

    def __init__(self, ring: Ring, n: int, terms=None, *, _raw: bool = False):
        if not 1 <= n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}, got {n}")
        self.ring = ring
        self.n = n
        if terms is None:
            terms = {}
        elif not _raw:
            clean = {}
            limit = 1 << n
            for mask, c in dict(terms).items():
                if not 0 <= mask < limit:
                    raise ValueError(f"mask {mask} out of range for n={n}")
                c = ring.normalize(c)
                if c != 0:
                    clean[mask] = c
            terms = clean
        self.terms = terms
        self._hash = None
        self._num = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring, n: int) -> "GrassmannElement":
        return GrassmannElement(ring, n, {}, _raw=True)

    @staticmethod
    def scalar(ring: Ring, n: int, c) -> "GrassmannElement":
        c = ring.normalize(c)
        return GrassmannElement(ring, n, {0: c} if c != 0 else {}, _raw=True)

    @staticmethod
    def one(ring: Ring, n: int) -> "GrassmannElement":
        return GrassmannElement(ring, n, {0: ring.one}, _raw=True)

    @staticmethod
    def generator(ring: Ring, n: int, i: int) -> "GrassmannElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return GrassmannElement(ring, n, {1 << (i - 1): ring.one}, _raw=True)

    @staticmethod
    def monomial(ring: Ring, n: int, mask: int, coeff=None) -> "GrassmannElement":
        c = ring.one if coeff is None else ring.normalize(coeff)
        return GrassmannElement(ring, n, {mask: c} if c != 0 else {}, _raw=True)

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if self.n != other.n or self.ring != other.ring:
            raise DimensionMismatchError(
                f"incompatible operands: n={self.n}/{other.n}, "
                f"ring={self.ring!r}/{other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        p = self.ring.modulus
        out = dict(self.terms)
        for mask, c in other.terms.items():
            acc = out.get(mask)
            c = c if acc is None else acc + c
            if p is not None:
                c %= p
            if c == 0:
                out.pop(mask, None)
            else:
                out[mask] = c
        return GrassmannElement(self.ring, self.n, out, _raw=True)

    def __neg__(self):
        p = self.ring.modulus
        if p is None:
            out = {m: -c for m, c in self.terms.items()}
        else:
            out = {m: (-c) % p for m, c in self.terms.items()}
        return GrassmannElement(self.ring, self.n, out, _raw=True)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "GrassmannElement":
        c = self.ring.normalize(c)
        if c == 0:
            return GrassmannElement.zero(self.ring, self.n)
        p = self.ring.modulus
        if p is None:
            out = {m: v * c for m, v in self.terms.items()}
        else:
            out = {}
            for m, v in self.terms.items():
                w = (v * c) % p
                if w:
                    out[m] = w
        return GrassmannElement(self.ring, self.n, out, _raw=True)

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        self._check_compatible(other)
        left, da = numerators(self)
        right, db = numerators(other)
        out: dict[int, int] = {}
        for m1, c1 in left:
            # bit j of q: parity of the bits of m1 above j (n <= 16)
            q = m1 >> 1
            q ^= q >> 1
            q ^= q >> 2
            q ^= q >> 4
            q ^= q >> 8
            for m2, c2 in right:
                if m1 & m2:
                    continue
                c = c1 * c2
                if (m2 & q).bit_count() & 1:
                    c = -c
                m = m1 | m2
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return from_numerators(self.ring, self.n, out, da * db)

    def __rmul__(self, other):
        # scalar * element; scalar coefficients commute with everything
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.n == other.n and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def coefficient(self, mask: int):
        return self.terms.get(mask, self.ring.zero)

    def constant_term(self):
        return self.terms.get(0, self.ring.zero)

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def min_degree(self) -> int:
        """Smallest degree of a nonzero term; n+1 for the zero element."""
        if not self.terms:
            return self.n + 1
        return min(m.bit_count() for m in self.terms)

    def max_degree(self) -> int:
        if not self.terms:
            return -1
        return max(m.bit_count() for m in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(m.bit_count() == d for m in self.terms)

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def support_avoids(self, i: int) -> bool:
        bit = 1 << (i - 1)
        return all(not (m & bit) for m in self.terms)

    def divisible_by(self, i: int) -> bool:
        bit = 1 << (i - 1)
        return all(m & bit for m in self.terms)

    def __repr__(self):
        return f"<Λ_{self.n}({self.ring!r}): {format_element(self)}>"

    def __str__(self):
        return format_element(self)


Scalar = Union[Coefficient, int]


def component(e: GrassmannElement, selector) -> GrassmannElement:
    """Project onto a graded piece: an integer degree, "even", or "odd"."""
    if selector == "even":
        keep = lambda m: m.bit_count() % 2 == 0
    elif selector == "odd":
        keep = lambda m: m.bit_count() % 2 == 1
    elif isinstance(selector, int):
        keep = lambda m: m.bit_count() == selector
    else:
        raise ValueError(f"invalid component selector {selector!r}")
    out = {m: c for m, c in e.terms.items() if keep(m)}
    return GrassmannElement(e.ring, e.n, out, _raw=True)


def even_part(e: GrassmannElement) -> GrassmannElement:
    return component(e, "even")


def odd_part(e: GrassmannElement) -> GrassmannElement:
    return component(e, "odd")


def involution(e: GrassmannElement) -> GrassmannElement:
    """The grade involution: fixes even terms, negates odd ones."""
    p = e.ring.modulus
    out = {}
    for m, c in e.terms.items():
        if m.bit_count() & 1:
            c = -c if p is None else (-c) % p
        out[m] = c
    return GrassmannElement(e.ring, e.n, out, _raw=True)


def substitute_zero(e: GrassmannElement, indices: Iterable[int]) -> GrassmannElement:
    """Set the listed generators to zero: drop every term meeting them."""
    mask = indices_mask(indices)
    out = {m: c for m, c in e.terms.items() if not (m & mask)}
    return GrassmannElement(e.ring, e.n, out, _raw=True)


def invert_unit(e: GrassmannElement) -> GrassmannElement:
    """Invert a unit: constant part must be a unit of K.

    Writes e = lam + m with m nilpotent (m^(n+1) = 0) and evaluates the
    geometric series lam^-1 * sum((-lam^-1 m)^k, k = 0..n).
    """
    lam = e.constant_term()
    if not e.ring.is_unit(lam):
        raise NotAUnitError(f"constant term {lam!r} is not a unit")
    lam_inv = e.ring.invert(lam)
    m = e - GrassmannElement.scalar(e.ring, e.n, lam)
    factor = m.scale(-lam_inv)
    acc = GrassmannElement.one(e.ring, e.n)
    power = GrassmannElement.one(e.ring, e.n)
    for _ in range(e.n):
        power = power * factor
        if not power:
            break
        acc = acc + power
    return acc.scale(lam_inv)


# -- text grammar --------------------------------------------------------
#
# element  := [sign] term (sign term)*
# term     := coeff ['*' monomial] | monomial
# coeff    := int | int '/' int
# monomial := ('x' digits)+             e.g.  1 - 3/2*x1x3 + x2x4

_TOKEN = re.compile(r"[+-]|(?:\d+(?:/\d+)?)|(?:(?:x\d+)+)|\*")
_MONO = re.compile(r"x(\d+)")


def parse_element(ring: Ring, n: int, text: str) -> GrassmannElement:
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

    out = GrassmannElement.zero(ring, n)  # rejects a bad n before any term
    terms = out.terms  # filled in place while out is still private
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
            coeff = ring.parse(tok)
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            if i < len(tokens) and tokens[i][0] == "x":
                mask = _parse_monomial(tokens[i], n)
                i += 1
        elif tok[0] == "x":
            mask = _parse_monomial(tok, n)
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
    return out


def _parse_monomial(text: str, n: int) -> int:
    mask = 0
    for m in _MONO.finditer(text):
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} out of range for n={n}")
        bit = 1 << (i - 1)
        if mask & bit:
            # a repeated generator squares to zero; reject rather than silently drop
            raise ValueError(f"repeated generator x{i} in monomial {text!r}")
        mask |= bit
    return mask


def format_element(e: GrassmannElement) -> str:
    if not e.terms:
        return "0"
    ring = e.ring
    parts = []
    for mask in sorted(e.terms, key=lambda m: (m.bit_count(), m)):
        c = e.terms[mask]
        text = ring.format(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if mask == 0:
            body = text
        elif text == "1":
            body = mask_str(mask)
        else:
            body = f"{text}*{mask_str(mask)}"
        parts.append(("-" if negative else "+", body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def element_to_json(e: GrassmannElement) -> dict:
    return {
        "n": e.n,
        "field": e.ring.name,
        "terms": [
            {"mask": m, "monomial": mask_str(m), "coeff": e.ring.format(c)}
            for m, c in sorted(e.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        ],
    }


def element_from_json(ring: Ring, n: int, data: dict) -> GrassmannElement:
    terms = {}
    for entry in data["terms"]:
        terms[int(entry["mask"])] = ring.parse(entry["coeff"])
    return GrassmannElement(ring, n, terms)
