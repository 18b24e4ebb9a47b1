"""Exact arithmetic in the Grassmann algebra on n anticommuting generators.

Elements are sparse maps from bitmask monomials to coefficients.  Bit ``i-1``
of a mask records the presence of the generator ``x_i``; a mask always denotes
the product of its generators in ascending index order, which fixes every sign
in the library.

An element stores its coefficients as integer numerators over one positive
denominator: ``num`` maps masks to nonzero ints and ``den`` is an int with
``gcd(den, *num.values()) == 1``.  Over GF(p) ``den`` is 1 and ``num`` holds
the residues in ``[0, p)``.  That form is canonical, so equality and hashing
read it directly, and every operation works on ints and ends with one
``from_num`` (one gcd) instead of one coefficient object per term.  ``terms``
is the boundary to field elements: it maps masks to ``Fraction`` coefficients
over QQ (built once per element and cached) and is ``num`` itself over GF(p).
The text codec (``parse_element``, ``format_element``, ``element_to_json``)
reads and writes ``num`` and ``den`` directly and never builds ``terms``.

The sign of ``mask1 * mask2`` is the parity of the pairs (i in mask1,
j in mask2) with i > j: with ``q`` the suffix-parity mask of ``mask1`` (bit j
set when mask1 has an odd number of bits above j), it is
``(mask2 & q).bit_count() & 1``.  Sums of scalar multiples of elements go the
same way through ``lincomb``, and sums of products, optionally cut at a
degree, through ``dot``, whose accumulation loop ``add_products`` also
serves callers that keep adding into one numerator dict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .rings import NotAUnitError, Ring, parse_ratio

MAX_GENERATORS = 16


class DimensionMismatchError(ValueError):
    """Operands live over different generator counts or rings."""


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


# mask -> monomial text, filled on demand (at most 2^MAX_GENERATORS names)
_MASK_NAMES: dict[int, str] = {0: "1"}


def mask_str(mask: int) -> str:
    name = _MASK_NAMES.get(mask)
    if name is None:
        name = _MASK_NAMES[mask] = "".join(f"x{i}" for i in mask_indices(mask))
    return name


def wrap(ring: Ring, n: int, num: dict, den: int = 1) -> "GrassmannElement":
    """The element num[mask] / den, which must already be in canonical form."""
    e = _new(GrassmannElement)
    e.ring = ring
    e.n = n
    e.num = num
    e.den = den
    e._terms = None
    e._hash = None
    return e


def from_num(ring: Ring, n: int, acc: dict, den: int = 1) -> "GrassmannElement":
    """The element acc[mask] / den in canonical form (``reduce_num``); the
    body of ``wrap`` is inlined, as this builds every computed element."""
    e = _new(GrassmannElement)
    e.ring = ring
    e.n = n
    e.num, e.den = reduce_num(ring, acc, den)
    e._terms = None
    e._hash = None
    return e


def reduce_num(ring: Ring, acc: dict, den: int = 1) -> tuple[dict, int]:
    """``(num, den)`` of acc[mask] / den in canonical form.

    Zero numerators are dropped; over QQ the denominator is made positive and
    coprime to the numerators with one gcd, over GF(p) the numerators are
    reduced to residues over the denominator 1.
    """
    p = ring.modulus
    if p is not None:
        if den != 1:
            inv = ring.invert(den)
            acc = {m: c * inv for m, c in acc.items()}
        return {m: cb for m, c in acc.items() if (cb := c % p)}, 1
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    if den != 1:
        if den < 0:
            den = -den
            acc = {m: -c for m, c in acc.items()}
        g = gcd(den, *acc.values())
        if g != 1:
            den //= g
            acc = {m: c // g for m, c in acc.items()}
    return acc, den


def restrict(e: "GrassmannElement", num: dict) -> "GrassmannElement":
    """The element num[mask] / e.den, where num holds some of the numerators
    of e, each up to sign: a subset of canonical numerators needs a gcd only
    over a denominator above 1."""
    if e.den == 1:
        return wrap(e.ring, e.n, num)
    return from_num(e.ring, e.n, num, e.den)


def _split(ring: Ring, terms: dict):
    """``(num, den)`` for a dict of nonzero normalized field elements.

    Over QQ, den is the lcm of the denominators, which leaves the numerators
    coprime to it; over GF(p) the dict itself is num.
    """
    if ring.modulus is not None or not terms:
        return terms, 1
    ratios = [c.as_integer_ratio() for c in terms.values()]
    den = lcm(*[q for _, q in ratios])
    return {m: a * (den // q) for m, (a, q) in zip(terms, ratios)}, den


def lincomb(ring: Ring, n: int, pairs, den: int = 1) -> "GrassmannElement":
    """The sum of c * e over (scalar, element) pairs, divided by ``den``.

    Accumulates integer numerators over ``big``, the lcm of the denominators
    of the terms c * e seen so far (1 over GF(p)); the accumulator is
    rescaled when ``big`` grows, and the result is reduced once.
    """
    p = ring.modulus
    normalize = ring.normalize
    out: dict[int, int] = {}
    big = 1
    for c, e in pairs:
        if p is not None:
            a, q = (c if type(c) is int else normalize(c)), 1
        else:
            a, q = c.as_integer_ratio()
        if not a:
            continue
        d = q * e.den
        if big % d:
            grow = lcm(big, d) // big
            big *= grow
            for m in out:
                out[m] *= grow
        a *= big // d
        for m, c2 in e.num.items():
            acc = out.get(m)
            v = a * c2
            out[m] = v if acc is None else acc + v
    return from_num(ring, n, out, big * den)


def dot(ring: Ring, n: int, pairs, cap: int,
        start: "GrassmannElement | None" = None) -> "GrassmannElement":
    """``start`` plus the sum of a * b over (element, element) pairs, up to
    degree ``cap`` (``add_products``).  ``start`` is added uncut."""
    if start is None:
        out: dict[int, int] = {}
        big = 1
    else:
        out = dict(start.num)
        big = start.den
    return from_num(ring, n, out, add_products(
        out, big, (((a.num, a.den), (b.num, b.den)) for a, b in pairs), cap))


def add_products(out: dict, big: int, pairs, cap: int) -> int:
    """Add the sum of a * b, up to degree ``cap``, into the numerators
    ``out`` over ``big``, in place, and return the new denominator.

    Each of ``pairs`` is ``((a_num, a_den), (b_num, b_den))``, the two
    factors as numerator dicts over positive denominators, canonical or not.
    Accumulates integer numerators over the running lcm of the pairs'
    denominators, as ``lincomb`` does, with the suffix-parity signs of the
    product; ``out`` is rescaled when the lcm grows.  A left term of degree
    above ``cap`` is skipped, and so is every right term that would lift it
    above ``cap``, before any product is formed; with ``cap >= n`` the sum is
    exact.  Nothing is reduced: ``reduce_num`` makes the result canonical.
    """
    for (a_num, a_den), (b_num, b_den) in pairs:
        if not a_num or not b_num:
            continue
        right = b_num.items()
        d = a_den * b_den
        if big % d:
            grow = lcm(big, d) // big
            big *= grow
            for m in out:
                out[m] *= grow
        s = big // d
        for m1, c1 in a_num.items():
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
    return big


def mul_num(ring: Ring, a: tuple, b: tuple, cap: int) -> tuple[dict, int]:
    """``(num, den)`` of a * b up to degree ``cap``, canonical, for factors
    given as ``(num, den)`` pairs (``add_products``, ``reduce_num``)."""
    out: dict[int, int] = {}
    return reduce_num(ring, out, add_products(out, 1, ((a, b),), cap))


def same_algebra(a, b) -> bool:
    """Whether a and b (elements or endomorphisms) live in one algebra: the
    same n and the same ring.  Operands almost always share one ring object,
    so ``is`` is tested before the ring's ``==``."""
    return a.n == b.n and (a.ring is b.ring or a.ring == b.ring)


def check_n(n: int) -> None:
    """Refuse a generator count outside 1..MAX_GENERATORS."""
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}, got {n}")


class GrassmannElement:
    """An element of the rank-2^n Grassmann algebra over an exact ring.

    Immutable once constructed.  ``num`` and ``den`` are the canonical
    storage (see the module docstring); ``terms`` maps masks to nonzero
    field elements and must not be mutated.
    """

    __slots__ = ("ring", "n", "num", "den", "_terms", "_hash")

    def __init__(self, ring: Ring, n: int, terms=None):
        check_n(n)
        clean = {}
        if terms:
            limit = 1 << n
            for mask, c in dict(terms).items():
                if not 0 <= mask < limit:
                    raise ValueError(f"mask {mask} out of range for n={n}")
                c = ring.normalize(c)
                if c != 0:
                    clean[mask] = c
        self.ring = ring
        self.n = n
        self.num, self.den = _split(ring, clean)
        self._terms = None
        self._hash = None

    @property
    def terms(self) -> dict:
        """{mask: coefficient} with field-element coefficients; cached."""
        t = self._terms
        if t is None:
            num, den = self.num, self.den
            if self.ring.modulus is not None:
                t = num
            elif den == 1:
                t = {m: Fraction(c) for m, c in num.items()}
            else:
                t = {m: Fraction(c, den) for m, c in num.items()}
            self._terms = t
        return t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring, n: int) -> "GrassmannElement":
        check_n(n)
        return wrap(ring, n, {})

    @staticmethod
    def scalar(ring: Ring, n: int, c) -> "GrassmannElement":
        return GrassmannElement.monomial(ring, n, 0, c)

    @staticmethod
    def one(ring: Ring, n: int) -> "GrassmannElement":
        check_n(n)
        return wrap(ring, n, {0: 1})

    @staticmethod
    def generator(ring: Ring, n: int, i: int) -> "GrassmannElement":
        check_n(n)
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return wrap(ring, n, {1 << (i - 1): 1})

    @staticmethod
    def monomial(ring: Ring, n: int, mask: int, coeff=None) -> "GrassmannElement":
        check_n(n)
        if coeff is None:
            return wrap(ring, n, {mask: 1})
        c = ring.normalize(coeff)
        num, den = _split(ring, {mask: c} if c != 0 else {})
        return wrap(ring, n, num, den)

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "GrassmannElement") -> None:
        if not same_algebra(self, other):
            raise DimensionMismatchError(
                f"incompatible operands: n={self.n}/{other.n}, "
                f"ring={self.ring!r}/{other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_compatible(other)
        p = self.ring.modulus
        den, db = self.den, other.den
        if den == db:
            out = dict(self.num)
            items = other.num.items()
        else:  # QQ only: bring both over the lcm of the denominators
            g = gcd(den, db)
            sa, sb = db // g, den // g
            out = {m: c * sa for m, c in self.num.items()}
            items = [(m, c * sb) for m, c in other.num.items()]
            den *= sa
        merged = False
        for mask, c in items:
            acc = out.get(mask)
            if acc is not None:
                merged = True
                c += acc
                if p is not None:
                    c %= p
                if not c:
                    del out[mask]
                    continue
            out[mask] = c
        # without a merged mask the numerators stay coprime to den
        if merged and den != 1:
            return from_num(self.ring, self.n, out, den)
        return wrap(self.ring, self.n, out, den)

    def __neg__(self):
        p = self.ring.modulus
        if p is None:
            out = {m: -c for m, c in self.num.items()}
        else:
            out = {m: (-c) % p for m, c in self.num.items()}
        return wrap(self.ring, self.n, out, self.den)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "GrassmannElement":
        ring = self.ring
        c = ring.normalize(c)
        if c == 0:
            return GrassmannElement.zero(ring, self.n)
        p = ring.modulus
        if p is not None:
            return wrap(ring, self.n, {m: v * c % p for m, v in self.num.items()})
        a, b = c.as_integer_ratio()
        return from_num(ring, self.n, {m: v * a for m, v in self.num.items()},
                        self.den * b)

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        self._check_compatible(other)
        right = other.num.items()
        out: dict[int, int] = {}
        for m1, c1 in self.num.items():
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
        return from_num(self.ring, self.n, out, self.den * other.den)

    def __rmul__(self, other):
        # scalar * element; scalar coefficients commute with everything
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return (same_algebra(self, other)
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.ring, self.den,
                               frozenset(self.num.items())))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- inspection --------------------------------------------------------

    def coefficient(self, mask: int):
        c = self.num.get(mask)
        if c is None:
            return self.ring.zero
        return c if self.ring.modulus is not None else Fraction(c, self.den)

    def constant_term(self):
        return self.coefficient(0)

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.num)

    def min_degree(self) -> int:
        """Smallest degree of a nonzero term; n+1 for the zero element."""
        if not self.num:
            return self.n + 1
        return min(m.bit_count() for m in self.num)

    def max_degree(self) -> int:
        if not self.num:
            return -1
        return max(m.bit_count() for m in self.num)

    def is_homogeneous(self, d: int) -> bool:
        return all(m.bit_count() == d for m in self.num)

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.num}

    def support_avoids(self, i: int) -> bool:
        bit = 1 << (i - 1)
        return all(not (m & bit) for m in self.num)

    def divisible_by(self, i: int) -> bool:
        bit = 1 << (i - 1)
        return all(m & bit for m in self.num)

    def __repr__(self):
        return f"<Λ_{self.n}({self.ring!r}): {format_element(self)}>"

    def __str__(self):
        return format_element(self)


_new = object.__new__


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
    return restrict(e, {m: c for m, c in e.num.items() if keep(m)})


def even_part(e: GrassmannElement) -> GrassmannElement:
    return component(e, "even")


def odd_part(e: GrassmannElement) -> GrassmannElement:
    return component(e, "odd")


def involution(e: GrassmannElement) -> GrassmannElement:
    """The grade involution: fixes even terms, negates odd ones."""
    p = e.ring.modulus
    out = {}
    for m, c in e.num.items():
        if m.bit_count() & 1:
            c = -c if p is None else (-c) % p
        out[m] = c
    return wrap(e.ring, e.n, out, e.den)


def substitute_zero(e: GrassmannElement, indices: Iterable[int]) -> GrassmannElement:
    """Set the listed generators to zero: drop every term meeting them."""
    mask = indices_mask(indices)
    return restrict(e, {m: c for m, c in e.num.items() if not (m & mask)})


def invert_unit(e: GrassmannElement) -> GrassmannElement:
    """Invert a unit: constant part must be a unit of K (``invert_num``)."""
    ring = e.ring
    lam = e.constant_term()
    if not ring.is_unit(lam):
        raise NotAUnitError(f"constant term {lam!r} is not a unit")
    return wrap(ring, e.n, *invert_num(ring, e.n, e.num, e.den))


_ONE = ({0: 1}, 1)  # the numerators of 1


def invert_num(ring: Ring, n: int, num: dict, den: int) -> tuple[dict, int]:
    """``(num, den)`` of the inverse of the unit num[mask] / den, whose
    constant numerator c0 = num[0] must be a unit; canonical on return.

    Writes e = lam (1 - f), with lam = c0 / den and f = -(num - c0) / c0
    nilpotent (f^(n+1) = 0), and evaluates lam^-1 * (1 + f + ... + f^n).
    The sum is one numerator accumulator that starts at f; each power is
    the previous one times f (``mul_num``), added in with
    ``add_products``, and the series stops at the first zero power.
    """
    c0 = num[0]
    f = reduce_num(ring, {m: -c for m, c in num.items() if m}, c0)
    acc, big = dict(f[0]), f[1]
    power = f
    for _ in range(n - 1):
        power = mul_num(ring, power, f, n)
        if not power[0]:
            break
        big = add_products(acc, big, ((power, _ONE),), n)
    acc[0] = acc.get(0, 0) + big
    # after the first pass of an elimination every pivot has lam = 1
    if c0 == den:
        return reduce_num(ring, acc, big)
    return reduce_num(ring, {m: c * den for m, c in acc.items()}, big * c0)


# -- text grammar --------------------------------------------------------
#
# element  := [sign] term (sign term)*
# term     := coeff ['*' monomial] | monomial
# coeff    := int | int '/' int
# monomial := ('x' digits)+             e.g.  1 - 3/2*x1x3 + x2x4
#
# A monomial written out of ascending order is the product of its generators
# in the written order: x2x1 reads as -x1x2.

_TOKEN = re.compile(r"[+-]|(?:\d+(?:/\d+)?)|(?:(?:x\d+)+)|\*")


def parse_element(ring: Ring, n: int, text: str) -> GrassmannElement:
    """The element written in ``text`` (the grammar above), read straight into
    int numerators: over QQ they accumulate over the running lcm of the
    coefficient denominators, as ``lincomb`` does, over GF(p) as residues.
    A mask whose sum cancels is dropped, and goes to the end if it comes
    back, as when the terms are added one at a time."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty element expression")
    tokens = _TOKEN.findall(compact)
    if "".join(tokens) != compact:  # the matches leave a gap: report the first
        pos = 0
        for match in _TOKEN.finditer(compact):
            if match.start() != pos:
                break
            pos = match.end()
        raise ValueError(f"cannot parse element near {compact[pos:]!r}")

    check_n(n)  # rejects a bad n before any term
    p = ring.modulus
    out: dict[int, int] = {}
    big = 1
    count = len(tokens)
    i = 0
    while i < count:
        negative = False
        tok = tokens[i]
        while tok == "+" or tok == "-":
            if tok == "-":
                negative = not negative
            i += 1
            if i == count:
                raise ValueError("dangling sign in element expression")
            tok = tokens[i]
        q = 1
        mask = 0
        if tok[0].isdigit():
            a, q = parse_ratio(ring, tok)
            i += 1
            if i < count and tokens[i] == "*":
                i += 1
                if i == count or tokens[i][0] != "x":
                    raise ValueError("'*' must be followed by a monomial")
            if i < count and tokens[i][0] == "x":
                mask, sign = _read_monomial(tokens[i], n)
                a *= sign
                i += 1
        elif tok[0] == "x":
            mask, a = _read_monomial(tok, n)
            i += 1
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if negative:
            a = -a
        if p is not None:
            a = (a if q == 1 else a * pow(q, -1, p)) % p
        elif a and q != 1:
            if big % q:
                grow = q // gcd(big, q)
                big *= grow
                for m in out:
                    out[m] *= grow
            a *= big // q
        elif big != 1:
            a *= big
        if not a:
            continue
        acc = out.get(mask)
        if acc is not None:
            a += acc
            if p is not None:
                a %= p
            if not a:
                del out[mask]
                continue
        out[mask] = a
    return from_num(ring, n, out, big)


def _read_monomial(text: str, n: int) -> tuple[int, int]:
    """``(mask, sign)`` of a monomial token: the product of its generators in
    the written order is sign times the ascending monomial of mask."""
    mask = 0
    sign = 1
    for digits in text[1:].split("x"):
        i = int(digits)
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} out of range for n={n}")
        bit = 1 << (i - 1)
        if mask & bit:
            # a repeated generator squares to zero; reject rather than silently drop
            raise ValueError(f"repeated generator x{i} in monomial {text!r}")
        above = mask >> i  # generators already written that x{i} moves past
        if above and above.bit_count() & 1:
            sign = -sign
        mask |= bit
    return mask, sign


def _print_key(mask: int) -> int:
    """Print order: by degree, then by mask (masks stay below 2^16)."""
    return mask.bit_count() << 16 | mask


def _printed_terms(e: GrassmannElement) -> list[tuple[int, str]]:
    """``(mask, coefficient text)`` of each term of e, in print order: the one
    term order and coefficient text of ``format_element`` and
    ``element_to_json``, read from the numerators."""
    num, den = e.num, e.den
    masks = sorted(num, key=_print_key)
    if den == 1:  # every element over GF(p), whose numerators are residues
        return [(m, str(num[m])) for m in masks]
    fmt = e.ring.format_num
    return [(m, fmt(num[m], den)) for m in masks]


def format_element(e: GrassmannElement) -> str:
    terms = _printed_terms(e)
    if not terms:
        return "0"
    parts = []
    for mask, text in terms:
        if text[0] == "-":
            sign = " - "
            text = text[1:]
        else:
            sign = " + "
        if mask:
            name = mask_str(mask)
            text = name if text == "1" else f"{text}*{name}"
        parts.append(sign)
        parts.append(text)
    parts[0] = "" if parts[0] == " + " else "-"
    return "".join(parts)


def element_to_json(e: GrassmannElement) -> dict:
    return {
        "n": e.n,
        "field": e.ring.name,
        "terms": [{"mask": m, "monomial": mask_str(m), "coeff": text}
                  for m, text in _printed_terms(e)],
    }


def element_from_json(ring: Ring, n: int, data: dict) -> GrassmannElement:
    """The element of an ``element_to_json`` record, its coefficients read
    with ``parse_ratio`` straight into int numerators, as ``parse_element``
    reads them.  A mask may occur once."""
    check_n(n)
    p = ring.modulus
    limit = 1 << n
    out: dict[int, int] = {}
    big = 1
    for entry in data["terms"]:
        mask = int(entry["mask"])
        if not 0 <= mask < limit:
            raise ValueError(f"mask {mask} out of range for n={n}")
        if mask in out:
            raise ValueError(f"mask {mask} occurs twice in the terms")
        a, q = parse_ratio(ring, entry["coeff"])
        if p is not None:
            a = (a if q == 1 else a * pow(q, -1, p)) % p
        elif q != 1:
            if big % q:
                grow = q // gcd(big, q)
                big *= grow
                for m in out:
                    out[m] *= grow
            a *= big // q
        else:
            a *= big
        out[mask] = a
    return from_num(ring, n, out, big)
