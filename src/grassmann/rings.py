"""Exact coefficient rings: arbitrary-precision rationals and odd prime fields.

Coefficient values are plain Python objects (``Fraction`` for the rationals,
canonical ``int`` representatives in ``[0, p)`` for a prime field); the ring
object supplies normalization, inversion, parsing and formatting.  Both rings
are fields in which 2 is invertible, which the rest of the library assumes.

``gauss_jordan_num`` is the one scalar elimination loop of the library, for
both fields.  It holds each row as int numerators over one positive row
denominator, the ``num``/``den`` form of ``GrassmannElement``, so a row
operation is one cross-multiplication and one gcd over the row (``% p`` over
GF(p)).  ``mat_det``, ``mat_inv`` and the first pass of the local-ring
elimination behind the Jacobian determinant (``endo._eliminate``) run it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Coefficient = Union[Fraction, int]


class NotAUnitError(ZeroDivisionError):
    """Raised when inverting a non-unit coefficient or element."""


class ZeroDenominatorError(NotAUnitError, ValueError):
    """A written coefficient divides by a denominator that is zero in the
    field: bad input text, and a division by zero."""


def parse_ratio(ring: "Ring", text: str) -> tuple[int, int]:
    """The ints ``(a, q)`` of a coefficient written ``a`` or ``a/q``.

    ``q`` is nonzero in ``ring``; otherwise ``ZeroDenominatorError`` names
    the coefficient.  Neither int is reduced.
    """
    a, slash, q = text.partition("/")
    if not slash:
        return int(a), 1
    q = int(q)
    if not (q if ring.modulus is None else q % ring.modulus):
        raise ZeroDenominatorError(
            f"coefficient {text!r} has denominator {q}, which is zero in {ring!r}")
    return int(a), q


# Deterministic Miller-Rabin: the prime bases up to 41 decide primality of
# every integer below _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {p} is prime: the primality test is exact "
            f"only below {_MR_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of arbitrary-precision rationals."""

    modulus = None
    name = "rational"
    zero = Fraction(0)  # Fraction is immutable, so one object serves every read
    one = Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def normalize(self, c) -> Fraction:
        return c if isinstance(c, Fraction) else Fraction(c)

    def is_unit(self, c) -> bool:
        return c != 0

    def invert(self, c) -> Fraction:
        if c == 0:
            raise NotAUnitError("0 is not invertible")
        return 1 / Fraction(c)

    def parse(self, text: str) -> Fraction:
        return Fraction(*parse_ratio(self, text))

    def format_num(self, c: int, den: int = 1) -> str:
        """The text of c / den for ints c and den > 0, as ``str(Fraction)``
        prints it, from one gcd."""
        if den == 1:
            return str(c)
        g = gcd(c, den)
        return str(c // g) if g == den else f"{c // g}/{den // g}"

    def format(self, c) -> str:
        return self.format_num(*self.normalize(c).as_integer_ratio())

    def random(self, rng) -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    def random_nonzero(self, rng) -> Fraction:
        c = self.random(rng)
        while c == 0:
            c = self.random(rng)
        return c

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("rational-field")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The field Z/p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("2 must be invertible in the coefficient ring; p = 2 is not supported")
        self.modulus = p
        self.name = f"prime:{p}"

    zero = 0
    one = 1

    def from_int(self, k: int) -> int:
        return k % self.modulus

    def normalize(self, c) -> int:
        """The representative in [0, p) of an int, or of a/b as a * b^-1."""
        # ints skip isinstance, which is slow against the Fraction ABC
        if type(c) is not int and isinstance(c, Fraction):
            return c.numerator * self.invert(c.denominator) % self.modulus
        return c % self.modulus

    def is_unit(self, c) -> bool:
        if type(c) is not int:
            c = self.normalize(c)
        return c % self.modulus != 0

    def invert(self, c) -> int:
        c = c % self.modulus if type(c) is int else self.normalize(c)
        if c == 0:
            raise NotAUnitError("0 is not invertible")
        return pow(c, self.modulus - 2, self.modulus)

    def parse(self, text: str) -> int:
        a, q = parse_ratio(self, text)
        return a * self.invert(q) % self.modulus if q != 1 else a % self.modulus

    def format(self, c) -> str:
        return str(c % self.modulus)

    def random(self, rng) -> int:
        return rng.randrange(self.modulus)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("prime-field", self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


Ring = Union[RationalField, PrimeField]

QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def ring_from_name(text: str) -> Ring:
    """Parse a ring name: "rational", "prime:7", or a bare prime like "7"."""
    text = text.strip().lower()
    if text in ("rational", "q", "qq"):
        return QQ
    if text.startswith("prime:"):
        return GF(int(text.split(":", 1)[1]))
    if text.isdigit():
        return GF(int(text))
    raise ValueError(f"unknown coefficient ring {text!r}")


# Small exact-linear-algebra helpers over a coefficient field K.

def mat_mul(ring: Ring, a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = ring.zero
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = ring.normalize(s)
    return out


def gauss_jordan_num(ring: Ring, num, den, size: int):
    """Gauss-Jordan on the first ``size`` columns of the ``size`` rows
    ``num[i][j] / den[i]``.

    ``num`` holds int rows and ``den`` their positive denominators, both
    updated in place: over QQ each row is reduced to coprime numerators
    after every operation, over GF(p) ``den`` stays 1 and the numerators are
    residues.  Columns past ``size`` follow the row operations: append
    nothing for the determinant, I for the inverse or the transform.
    Returns ``(scale, cols, rank)`` with ``cols[j]`` the original index of
    column j and ``scale`` the signed product of the pivots, a field
    element, so the determinant is ``scale`` if ``rank == size`` and 0
    otherwise.  ``split_rows`` and ``join_row`` convert a matrix of field
    elements to and from these rows.

    The pivot is the first nonzero entry of the remaining block, searched
    column by column.  Invariant: on an invertible block the search never
    leaves column k, so ``cols`` is the identity.  Entries below the pivots
    are cleared first, those above them last and from the bottom pivot up,
    so the determinant alone costs what Gaussian elimination does.  A pivot
    row is scaled so that its pivot numerator equals its denominator d;
    clearing column k of a row r over e is then the one cross-multiplication
    r * d - r[k] * pivot_row over e * d, reduced with one gcd over the row.
    Over GF(p), where d is 1, it is r - r[k] * pivot_row reduced ``% p``,
    in place on the pivot row's nonzero columns.  No ``Fraction`` is built.
    """
    p = ring.modulus

    def clear(k, rows):  # zero column k of rows with multiples of row k
        pivot_row, d = num[k], den[k]
        if p is not None:
            support = [(j, y) for j, y in enumerate(pivot_row) if y]
        for i in rows:
            row = num[i]
            f = row[k]
            if not f:
                continue
            if p is None:
                row = [x * d - f * y for x, y in zip(row, pivot_row)]
                e = den[i] * d
                g = gcd(e, *row)
                if g != 1:
                    row = [x // g for x in row]
                    e //= g
                num[i], den[i] = row, e
            else:  # d == 1, and only the pivot row's support changes
                for j, y in support:
                    row[j] = (row[j] - f * y) % p

    cols = list(range(size))
    scale_num = scale_den = 1
    rank = 0
    for k in range(size):
        pivot = _first_nonzero(num, k, size)
        if pivot is None:
            break
        r, c = pivot
        if r != k:
            num[k], num[r] = num[r], num[k]
            den[k], den[r] = den[r], den[k]
            scale_num = -scale_num
        if c != k:
            for row in num:
                row[k], row[c] = row[c], row[k]
            cols[k], cols[c] = cols[c], cols[k]
            scale_num = -scale_num
        row = num[k]
        lam = row[k]  # the pivot is lam / den[k]
        scale_num *= lam
        scale_den *= den[k]
        if p is None:
            if lam < 0:
                row = [-x for x in row]
                lam = -lam
            g = gcd(*row)
            if g != 1:
                row = [x // g for x in row]
                lam //= g
            den[k] = lam
        else:
            lam_inv = pow(lam, p - 2, p)
            row = [x * lam_inv % p for x in row]
        num[k] = row
        clear(k, range(k + 1, size))
        rank = k + 1
    for k in reversed(range(1, rank)):
        clear(k, range(k))
    if p is None:
        return Fraction(scale_num, scale_den), cols, rank
    return scale_num % p, cols, rank


def split_rows(ring: Ring, m):
    """``(num, den)`` for rows of normalized field elements: over QQ each
    row's denominator is the lcm of its entries' denominators, over GF(p)
    it is 1 and the numerators are the entries."""
    if ring.modulus is not None:
        return [list(row) for row in m], [1] * len(m)
    num, den = [], []
    for row in m:
        ratios = [c.as_integer_ratio() for c in row]
        d = lcm(*[q for _, q in ratios])
        num.append([a * (d // q) for a, q in ratios])
        den.append(d)
    return num, den


def join_row(ring: Ring, row, d: int) -> list:
    """The field elements ``row[j] / d`` of one ``split_rows`` row."""
    if ring.modulus is not None:
        return list(row)
    zero = ring.zero
    if d == 1:
        return [Fraction(a) if a else zero for a in row]
    return [Fraction(a, d) if a else zero for a in row]


def _first_nonzero(m, k: int, size: int):
    """First (row, column) at or past (k, k) holding a nonzero entry,
    scanning columns in order; None if there is none."""
    for c in range(k, size):
        for r in range(k, size):
            if m[r][c]:
                return r, c
    return None


def mat_det(ring: Ring, a) -> Coefficient:
    """Determinant over K, from ``gauss_jordan_num`` on the numerators of a."""
    n = len(a)
    scale, _, rank = gauss_jordan_num(ring, *split_rows(ring, a), n)
    return scale if rank == n else ring.zero


def mat_inv(ring: Ring, a):
    """Inverse of an invertible matrix over K: ``gauss_jordan_num`` on
    [a | I], with I over each row's denominator."""
    n = len(a)
    num, den = split_rows(ring, a)
    for i, (row, d) in enumerate(zip(num, den)):
        row.extend(d if j == i else 0 for j in range(n))
    if gauss_jordan_num(ring, num, den, n)[2] < n:
        raise NotAUnitError("matrix is singular")
    return [join_row(ring, row[n:], d) for row, d in zip(num, den)]
