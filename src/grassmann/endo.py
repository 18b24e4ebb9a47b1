"""Endomorphisms of the Grassmann algebra given by generator images.

Composition follows (s*t)(x_i) = s(t(x_i)); with this convention the product
of two linear substitutions x -> Ax and x -> Bx is the substitution x -> BAx.

Every automorphism is built from four shapes, each with one constructor:
``inner`` (x -> u x u^-1), ``shift_endo`` (x_i -> x_i + b_i),
``scaling_endo`` (x_i -> x_i(1 + a_i)) and ``linear_endo`` (x -> Ax).
``compose_all`` is the one ordered product of a list of maps: f1 . f2 ... fk,
fk applied first, folded from the left, ((f1 . f2) . f3) ...
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_

from .algebra import (
    DimensionMismatchError,
    GrassmannElement,
    add_products,
    format_element,
    element_to_json,
    dot,
    even_part,
    from_num,
    invert_num,
    invert_unit,
    lincomb,
    mul_num,
    parse_element,
    reduce_num,
    restrict,
    same_algebra,
)
from .rings import NotAUnitError, Ring, gauss_jordan_num, mat_det, mat_inv
from .skewcalc import skew_partial


class ParityError(ValueError):
    """An image has the wrong parity for the requested operation."""


class NotInvertibleError(ValueError):
    """The endomorphism is not an automorphism."""


class NotUnipotentError(ValueError):
    """The map is not unipotent: its linear part is not I, or an image has
    a constant term."""


class Endomorphism:
    """A K-algebra endomorphism, stored as the ordered list of generator images.

    Immutable; caches the linear part, the Jacobian data and inverses.  The
    products of images that ``apply_all`` needs live only for one call.
    """

    __slots__ = ("ring", "n", "images", "_jac", "_dual", "_inverses", "_linear")

    def __init__(self, images, *, check: bool = True):
        images = tuple(images)
        if not images:
            raise ValueError("need at least one generator image")
        first = images[0]
        self.ring = first.ring
        self.n = first.n
        if len(images) != self.n:
            raise DimensionMismatchError(
                f"expected {self.n} images, got {len(images)}")
        for im in images:
            if not same_algebra(im, first):
                raise DimensionMismatchError("images live in different algebras")
        self.images = images
        self._jac = None
        self._dual = None
        self._inverses = {}
        self._linear = None
        if check:
            self._check_well_defined()

    def _check_well_defined(self) -> None:
        """The images must satisfy the defining relations of the generators.

        Write y_i = o_i + e_i (odd plus even part).  Odd elements square to
        zero and anticommute, even ones are central and 2 is a unit, so
        y_i^2 = e_i (2 o_i + e_i) and {y_i, y_j} = 2 (o_i e_j + e_i y_j):
        only images with an even part need products.
        """
        evens = [even_part(im) for im in self.images]
        if not any(evens):
            return
        odds = [im - e for im, e in zip(self.images, evens)]
        for i, (o, e) in enumerate(zip(odds, evens)):
            if e and e * (o + o + e):
                raise ValueError(f"image of x{i + 1} does not square to zero")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ((evens[i] or evens[j])
                        and odds[i] * evens[j] + evens[i] * self.images[j]):
                    raise ValueError(
                        f"images of x{i + 1} and x{j + 1} do not anticommute")

    # -- application and composition ---------------------------------------

    def apply_all(self, elements) -> list:
        """[sigma(e) for e in elements], through one ``_Products`` table
        dropped on return (``_apply_table``)."""
        return self._apply_table(_Products(self), elements)

    def _apply_table(self, table: "_Products", elements) -> list:
        """[sigma(e) for e in elements], sigma(e) = sum of c_m sigma(x^m).

        The products sigma(x^m) come from ``table``, shared by the elements.
        An element of at most 2^s terms, s = n - floor((n+1)/3), takes the
        memo walk: one product per term.  A larger one splits m into its low
        s bits l and high bits h: x^m = x^l x^h without a sign, so
        sigma(e) = sum_h L_h sigma(x^h) with L_h = sum_l c_{l|h} sigma(x^l),
        one ``lincomb`` per high group and one ``dot`` over them, at most
        2^s + 2^(n-s) tabled products plus one per high group.  Terms with no
        high bits or a tabled product, and high groups of one term, are
        summed directly.
        """
        ring, n = self.ring, self.n
        s = n - (n + 1) // 3
        out = []
        for e in elements:
            if not same_algebra(e, self):
                raise DimensionMismatchError(
                    "element/endomorphism dimension mismatch")
            high = 0 if len(e.num) <= 1 << s else -1 << s
            direct, groups = [], {}
            for mask, c in e.num.items():
                h = mask & high
                if not h or mask in table:
                    direct.append((c, mask))
                else:
                    groups.setdefault(h, []).append((c, mask ^ h))
            pairs = []
            for h, group in groups.items():
                if len(group) > 1:
                    pairs.append((h, group))
                else:
                    direct.append((group[0][0], group[0][1] | h))
            value = lincomb(ring, n, ((c, table[m]) for c, m in direct), e.den)
            if pairs:
                value = dot(ring, n, (
                    (lincomb(ring, n, ((c, table[l]) for c, l in group), e.den),
                     table[h]) for h, group in pairs), n, value)
            out.append(value)
        return out

    def apply_inverse_all(self, elements) -> list:
        """[sigma^-1(e) for e in elements] for a unipotent sigma, without
        building the inverse map.

        sigma is unipotent when its linear part is I and no image has a
        constant term, both read off the numerators:
        sigma = id + N with N raising the least degree, so
        sigma^-1 = sum over k <= n of (-N)^k, the Neumann series.  Each step
        adds the residual r to the result and replaces it by
        r - sigma(r) = -N(r), every step drawing on one ``_Products`` table
        of sigma; after n + 1 steps every residual is zero.  N raises
        degrees by at least d, one less than the least degree of an
        image's term other than x_i, so it kills the terms of degree above
        n - d, and those are cut from r before sigma is applied.  Any other
        map raises ``NotUnipotentError`` before any product is formed.
        """
        n = self.n
        if not _linear_part_is_identity(self.images) or any(
                0 in im.num for im in self.images):
            raise NotUnipotentError(
                "the Neumann series needs linear part I and no constant terms")
        out = list(elements)
        for e in out:
            if not same_algebra(e, self):
                raise DimensionMismatchError(
                    "element/endomorphism dimension mismatch")
        cap = n + 1 - min((m.bit_count() for i, im in enumerate(self.images)
                           for m in im.num if m != 1 << i), default=n + 1)
        table = _Products(self)
        residuals = {k: cut for k, e in enumerate(out)
                     if (cut := _truncate(e, cap))}
        for _ in range(n + 1):
            if not residuals:
                break
            images = self._apply_table(table, residuals.values())
            nxt = {}
            for (k, e), image in zip(residuals.items(), images):
                r = e - image
                if r:
                    out[k] = out[k] + r
                    if cut := _truncate(r, cap):
                        nxt[k] = cut
            residuals = nxt
        if residuals:
            raise NotUnipotentError("the Neumann series did not terminate")
        return out

    def apply(self, e: GrassmannElement) -> GrassmannElement:
        """sigma(e): ``apply_all`` of the one element."""
        return self.apply_all((e,))[0]

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other: (self.compose(other))(x_i) = self(other(x_i)),
        one ``apply_all`` of other's images."""
        return Endomorphism(self.apply_all(other.images), check=False)

    def __eq__(self, other):
        if not isinstance(other, Endomorphism):
            return NotImplemented
        return same_algebra(self, other) and self.images == other.images

    def __repr__(self):
        return f"<endo on {self.n} generators: {format_endomorphism(self)}>"

    # -- structure ---------------------------------------------------------

    def linear_part(self):
        """The degree-1 coefficient matrix A with images x_i -> sum_j A[i][j] x_j + ..."""
        if self._linear is None:
            self._linear = [
                [im.coefficient(1 << j) for j in range(self.n)]
                for im in self.images
            ]
        return self._linear

    def is_identity(self) -> bool:
        return all(im == GrassmannElement.generator(self.ring, self.n, i + 1)
                   for i, im in enumerate(self.images))

    def has_odd_images(self) -> bool:
        """Whether every term of every image has odd degree, read off the
        masks."""
        return all(m.bit_count() & 1 for im in self.images for m in im.num)

    def _check_odd_images(self) -> None:
        if not self.has_odd_images():
            raise ParityError(
                "Jacobian requires purely odd images (entries must be central)")

    # -- Jacobian ------------------------------------------------------------

    def jacobian(self) -> "JacobianData":
        """The matrix J[i][j] = d_j(images[i]), its determinant and valuation.

        The entries are even, hence central, so the determinant is computed
        by elimination over that commutative local ring (``_eliminate``),
        straight from the images: scalar Gauss-Jordan on the linear part,
        then Gaussian elimination on unit pivots, O(n^3) products of int
        numerators, with the products that vanish by a shared generator
        skipped unformed.  A trailing block without any unit entry, left
        when the linear part is singular, makes the determinant 0 when it
        has more than n/2 rows and goes to the cofactor expansion
        otherwise.  The matrix itself is built on its first read.
        """
        if self._jac is None:
            self._check_odd_images()
            det, _ = _eliminate(self.images)
            self._set_jacobian(det)
        return self._jac

    def _set_jacobian(self, det) -> None:
        self._jac = JacobianData(det=det, valuation=_valuation(det),
                                 images=self.images)

    def _dual_data(self):
        """Rows of the transposed inverse Jacobian, cached for dual derivatives.

        The inverse comes from Gauss-Jordan elimination on unit pivots
        (``_eliminate``), once per endomorphism; a column without a unit
        pivot means the linear part is singular.  The same elimination
        yields the determinant, which fills the Jacobian cache if it is
        still empty.
        """
        if self._dual is None:
            self._check_odd_images()
            det, inv = _eliminate(self.images, inverse=True)
            if self._jac is None:
                self._set_jacobian(det)
            self._dual = [list(col) for col in zip(*inv)]
        return self._dual

    def dual_skew_partial(self, i: int, e: GrassmannElement) -> GrassmannElement:
        """The skew partial derivative with respect to the new coordinate images[i-1].

        By the chain rule d_j = sum_i J[i][j] d'_i, so
        d'_i(e) = sum_j (J^-1)[j][i] d_j(e): one uncut ``dot`` call.
        """
        if not same_algebra(e, self):
            raise DimensionMismatchError("element/endomorphism dimension mismatch")
        row = self._dual_data()[i - 1]
        return dot(self.ring, self.n,
                   ((entry, skew_partial(j, e))
                    for j, entry in enumerate(row, start=1) if entry),
                   self.n)

    def new_coordinate_projection(self, e: GrassmannElement) -> GrassmannElement:
        """Projection onto K relative to the new coordinates sigma(x_i)."""
        for i in range(1, self.n + 1):
            if e.is_constant():
                break  # the remaining factors fix constants
            e = e - self.images[i - 1] * self.dual_skew_partial(i, e)
        return e

    # -- inversion -----------------------------------------------------------

    def inverse(self, strategy: str = "iteration") -> "Endomorphism":
        hit = self._inverses.get(strategy)
        if hit is None:
            if strategy == "iteration":
                hit = self._inverse_iteration()
            elif strategy == "formula":
                hit = self._inverse_formula()
            else:
                raise ValueError(f"unknown inversion strategy {strategy!r}")
            self._inverses[strategy] = hit
        return hit

    def _inverse_iteration(self) -> "Endomorphism":
        """Peel off the linear part, then invert the unipotent rest on the
        generators by its Neumann series (``apply_inverse_all``).

        With lambda the substitution by A^-1, tau = sigma . lambda has linear
        part I, and sigma^-1(x_i) = lambda(tau^-1(x_i)).  A map whose linear
        part is already I, such as every layer scaling, is its own tau: no
        matrix inverse and no compositions.
        """
        ring, n = self.ring, self.n
        gens = [GrassmannElement.generator(ring, n, i) for i in range(1, n + 1)]
        if _linear_part_is_identity(self.images):
            return Endomorphism(self.apply_inverse_all(gens), check=False)
        try:
            a_inv = mat_inv(ring, self.linear_part())
        except NotAUnitError:
            raise NotInvertibleError("linear part is singular") from None
        lin_inv = linear_endo(ring, a_inv)
        tau = self.compose(lin_inv)  # tau(x_i) = x_i + higher terms
        return Endomorphism(lin_inv.apply_all(tau.apply_inverse_all(gens)),
                            check=False)

    def _inverse_formula(self) -> "Endomorphism":
        """Closed-form inverse from composite dual derivatives.

        Valid for parity-preserving automorphisms (all images odd, invertible
        linear part).  The coefficient of x^mask in the inverse image of x_j
        is the new-coordinate projection of the composite dual derivative of
        x_j over mask, the lowest index first.  That projection onto K along
        the augmentation ideal is coordinate-free (the images generate the
        same ideal), so it is just the constant term.

        Only terms that can reach a constant term are kept.  A dual
        derivative d'_i = sum_k (J^-1)[k][i] d_k has even coefficients, so it
        lowers the minimum degree by at most one.  A node of the derivative
        tree whose top index is t (0-based) has at most n-1-t derivatives
        still to come, so it needs no term of degree above cap = n-1-t: its
        parent is cut at cap+1 before it is differentiated, dual row t+1 at
        cap, and the node is one ``dot`` call cut at cap.
        """
        if not self.has_odd_images():
            raise ParityError("formula inversion requires purely odd images")
        ring, n = self.ring, self.n
        # rows[t]: the nonzero entries (k, (J^-1)[k][t+1]) cut at n-1-t
        rows = [[(k, cut) for k, entry in enumerate(row, start=1)
                 if (cut := _truncate(entry, n - 1 - t))]
                for t, row in enumerate(self._dual_data())]
        images = []
        for j in range(1, n + 1):
            duals = {0: GrassmannElement.generator(ring, n, j)}  # nonzero nodes
            terms = {}
            for mask in range(1, 1 << n):
                top = mask.bit_length() - 1
                base = duals.get(mask ^ (1 << top))
                if base is None:
                    continue
                cap = n - 1 - top
                base = _truncate(base, cap + 1)
                present = 0  # the generators occurring in base
                for m in base.num:
                    present |= m
                d = dot(ring, n, ((entry, skew_partial(k, base))
                                  for k, entry in rows[top]
                                  if present >> (k - 1) & 1), cap)
                if d:
                    duals[mask] = d
                    coeff = d.constant_term()
                    if coeff != 0:
                        terms[mask] = coeff
            images.append(GrassmannElement(ring, n, terms))
        return Endomorphism(images, check=False)


class _Products(dict):
    """sigma(x^mask) by mask for one ``apply_all`` call, each made on first
    lookup: the image itself for one generator, else the product for the
    mask without its top generator times that generator's image."""

    __slots__ = ("images",)

    def __init__(self, sigma: Endomorphism):
        super().__init__({0: GrassmannElement.one(sigma.ring, sigma.n)})
        self.images = sigma.images

    def __missing__(self, mask: int) -> GrassmannElement:
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        value = self[mask] = (self[rest] * self.images[top] if rest
                              else self.images[top])
        return value


def _linear_part_is_identity(images) -> bool:
    """Whether image i holds x_i with coefficient 1 (numerator den) and no
    other degree-1 mask."""
    for i, im in enumerate(images):
        bit = 1 << i
        if im.num.get(bit) != im.den or any(
                m.bit_count() == 1 for m in im.num if m != bit):
            return False
    return True


def _truncate(e: GrassmannElement, cap: int) -> GrassmannElement:
    """e without its terms of degree above cap."""
    num = {m: c for m, c in e.num.items() if m.bit_count() <= cap}
    if len(num) == len(e.num):
        return e
    return restrict(e, num)


@dataclass(frozen=True)
class JacobianData:
    """Skew-derivative matrix, its determinant, and the determinant's valuation.

    The valuation is the largest even 2m with det - constant in m^(2m), capped
    at 2*floor(n/2) + 2 when det is constant.  The matrix is built from the
    images on its first read (``_skew_matrix``): the determinant never needs
    it.
    """

    det: GrassmannElement
    valuation: int
    images: tuple

    @cached_property
    def matrix(self) -> list:
        return _skew_matrix(self.images)


def _skew_matrix(images) -> list:
    """J[i][j] = d_j(images[i]), as elements."""
    n = len(images)
    return [[skew_partial(j, im) for j in range(1, n + 1)] for im in images]


def _valuation(det: GrassmannElement) -> int:
    """The valuation of ``JacobianData``, read off the masks of det's
    non-constant terms."""
    cap = 2 * (det.n // 2) + 2
    d = min((m.bit_count() for m in det.num if m), default=None)
    if d is None:
        return cap
    if d % 2:
        raise ParityError("Jacobian determinant has an odd-degree term")
    return min(d, cap)


def _eliminate(images, *, inverse: bool = False):
    """Determinant, and optionally inverse, of the Jacobian matrix of odd
    ``images``.

    Its entries are even, and even elements commute and form a local ring
    whose units are the elements with a unit constant term.  Returns
    ``(det, inv)``, with ``inv`` the rows of the inverse (Gauss-Jordan on
    ``[J | I]``) when ``inverse`` is set and ``None`` otherwise.  Every entry
    is an int numerator dict over a positive denominator, ``(num, den)``.
    Elements are built only for what is returned: the determinant, the
    inverse rows, and the block handed to the cofactor expansion.  Two
    passes:

    1. ``gauss_jordan_num`` on ``[J0 | I]``, with J0 the linear part as int
       rows (the degree-1 numerators over each image's denominator), gives
       the scalar row-operation transform t, as int rows over row
       denominators, and the column order ``cols``; the rows become
       ``t * J`` with columns in that order.  A row of t with one nonzero
       entry, equal to its denominator, is the skew partials of that image
       (``_partials``, one pass over its terms); any other row is the
       partials of one ``lincomb`` of the images (t_r J(sigma) is the
       Jacobian row of sum_k t_rk images[k]).  Either way every entry is a
       fresh dict.  For a linear part of rank r, the r pivots become
       1 + nilpotent and every other entry of their columns becomes
       nilpotent, which keeps the products of the second pass sparse.
    2. Elimination of those r columns, on numerators.  A pivot that is
       exactly 1 is neither inverted nor multiplied into the determinant;
       any other is inverted with ``invert_num`` and scales its row with
       ``mul_num``.  The row operations ``a - f * b`` work in place on
       ``[num, den]`` accumulators: every update adds ``-f * b`` into one
       with ``add_products``, the loop behind ``dot``.  An accumulator is
       reduced once (``reduce_num``), when it is read as a pivot-row entry
       or a multiplier f, or returned.  The update is skipped when a
       generator occurs in every term of f and every term of b, so that
       every product of terms vanishes; that catches most of the zero
       products on sparse maps.

    The pivot search covers the whole remaining block, so the n - r rows
    left without unit entries form a nilpotent block: no entry has a term
    below degree 2, so every product of more than n/2 entries vanishes.  A
    block of more than n/2 rows makes the determinant 0, returned before
    pass 2; a smaller one goes to the cofactor expansion.  With ``inverse``
    a rank below n raises ``NotInvertibleError``; otherwise no columns were
    swapped and t is appended to the rows as scalars.
    """
    ring, n = images[0].ring, images[0].n
    j0 = [[im.num.get(1 << j, 0) for j in range(n)]
          + [im.den if j == i else 0 for j in range(n)]
          for i, im in enumerate(images)]
    dens = [im.den for im in images]
    # det(J) = scalar * det(rows) through pass 1
    scalar, cols, rank = gauss_jordan_num(ring, j0, dens, n)
    if inverse and rank < n:
        raise NotInvertibleError("linear part is singular")
    if 2 * (n - rank) > n:
        return GrassmannElement.zero(ring, n), None
    t = [row[n:] for row in j0]
    p = ring.modulus
    rows = []
    for t_row, d in zip(t, dens):
        support = [r for r, x in enumerate(t_row) if x]
        # d * e_r over d: the row is the partials of image r
        src = (images[support[0]] if len(support) == 1 and t_row[support[0]] == d
               else lincomb(ring, n, zip(t_row, images), d))
        partials = _partials(src, n, p)
        rows.append([partials[c] for c in cols])
    if inverse:
        for row, t_row, d in zip(rows, t, dens):
            row.extend(({0: x} if x else {}, d) for x in t_row)
    a, q = scalar.as_integer_ratio()
    det = ({0: a}, q)
    width = len(rows[0])
    for k in range(rank):
        pivot_row = rows[k]
        for j in range(k, width):
            if type(pivot_row[j]) is list:
                pivot_row[j] = reduce_num(ring, *pivot_row[j])
        pivot = pivot_row[k]
        if len(pivot[0]) != 1 or pivot[0].get(0) != pivot[1]:  # not exactly 1
            det = mul_num(ring, det, pivot, n)
            pivot_inv = invert_num(ring, n, *pivot)
            # column k is never read again, so it is left uncleared
            for j in range(k + 1, width):
                if pivot_row[j][0]:
                    pivot_row[j] = mul_num(ring, pivot_row[j], pivot_inv, n)
        # (column, entry, the bits common to all of the entry's masks)
        targets = [(j, b, reduce(and_, b[0]))
                   for j in range(k + 1, width) if (b := pivot_row[j])[0]]
        for i in range(0 if inverse else k + 1, n):
            if i == k:
                continue
            f = rows[i][k]
            if type(f) is list:
                f = reduce_num(ring, *f)
            if not f[0]:
                continue
            common = reduce(and_, f[0])
            minus_f = ({m: -c for m, c in f[0].items()}, f[1])
            row = rows[i]
            for j, b, b_common in targets:
                if common & b_common:
                    continue  # every term of f meets every term of b
                acc = row[j]
                if type(acc) is not list:
                    acc = row[j] = list(acc)
                acc[1] = add_products(acc[0], acc[1], ((minus_f, b),), n)
    det = from_num(ring, n, *det)
    if rank < n:
        det = det * _det_central(ring, n, [[from_num(ring, n, *e) for e in row[rank:]]
                                           for row in rows[rank:]])
    return det, ([[from_num(ring, n, *e) for e in row[n:]] for row in rows]
                 if inverse else None)


def _partials(e: GrassmannElement, size: int, p) -> list:
    """The skew partials d_1(e) .. d_size(e) of an odd e as ``(num, den)``
    pairs, from one pass over its terms: a term c x^m adds +-c at m ^ bit
    to partial j for each bit j of m, with the sign of the parity of m's
    bits below j, as ``skew_partial`` takes it (p: the modulus or None)."""
    out = [{} for _ in range(size)]
    for m, c in e.num.items():
        other = -c if p is None else p - c
        rem = m
        while rem:
            low = rem & -rem
            out[low.bit_length() - 1][m ^ low] = c
            c, other = other, c
            rem ^= low
    den = e.den
    return [(num, den) for num in out]


def _det_central(ring: Ring, n: int, matrix) -> GrassmannElement:
    """Cofactor determinant of a matrix of even (central) elements.

    O(size * 2^size) products: ``_eliminate`` uses it only on the block
    left without unit pivots, of at most n/2 rows, and the tests use it as
    the reference.
    """
    return _Cofactors(ring, n, matrix)[(1 << len(matrix)) - 1]


class _Cofactors(dict):
    """The minor on the last popcount(cols) rows and the columns in the mask
    cols, by mask, each expanded along its first row on first lookup."""

    __slots__ = ("zero", "matrix")

    def __init__(self, ring: Ring, n: int, matrix):
        super().__init__({0: GrassmannElement.one(ring, n)})
        self.zero = GrassmannElement.zero(ring, n)
        self.matrix = matrix

    def __missing__(self, cols: int) -> GrassmannElement:
        row = self.matrix[len(self.matrix) - cols.bit_count()]
        value = self.zero
        sign = 1
        rem = cols
        while rem:
            low = rem & -rem
            entry = row[low.bit_length() - 1]
            if entry:
                term = entry * self[cols ^ low]
                value = value + (term if sign > 0 else -term)
            sign = -sign
            rem ^= low
        self[cols] = value
        return value


# -- constructors ----------------------------------------------------------

def identity_endo(ring: Ring, n: int) -> Endomorphism:
    return Endomorphism(
        [GrassmannElement.generator(ring, n, i) for i in range(1, n + 1)],
        check=False)


def compose_all(ring: Ring, n: int, factors) -> Endomorphism:
    """The ordered product f1 . f2 ... fk of ``factors``, fk applied first,
    folded from the left; the identity only when there are no factors."""
    factors = tuple(factors)
    return reduce(Endomorphism.compose, factors) if factors else identity_endo(ring, n)


def linear_endo(ring: Ring, matrix) -> Endomorphism:
    """The substitution x_i -> sum_j matrix[i][j] x_j."""
    n = len(matrix)
    images = [GrassmannElement(ring, n, {1 << j: c for j, c in enumerate(row)})
              for row in matrix]
    return Endomorphism(images, check=False)


def shift_endo(ring: Ring, n: int, shifts, *, check: bool = False) -> Endomorphism:
    """x_i -> x_i + shifts[i-1]; a None or zero entry fixes x_i."""
    images = [GrassmannElement.generator(ring, n, i) for i in range(1, n + 1)]
    for i, b in enumerate(shifts):
        if b:
            images[i] = images[i] + b
    return Endomorphism(images, check=check)


def scaling_endo(ring: Ring, n: int, factors) -> Endomorphism:
    """x_i -> x_i(1 + factors[i-1]); a None or zero entry fixes x_i."""
    one = GrassmannElement.one(ring, n)
    images = [GrassmannElement.generator(ring, n, i) for i in range(1, n + 1)]
    for i, a in enumerate(factors):
        if a:
            images[i] = images[i] * (one + a)
    return Endomorphism(images, check=False)


def coordinate_shift(ring: Ring, n: int, i: int, b: GrassmannElement,
                     *, check: bool = True) -> Endomorphism:
    """x_i -> x_i + b, all other generators fixed."""
    shifts = [None] * n
    shifts[i - 1] = b
    return shift_endo(ring, n, shifts, check=check)


def inner(u: GrassmannElement) -> Endomorphism:
    """Conjugation by a unit: x -> u x u^-1."""
    u_inv = invert_unit(u)
    ring, n = u.ring, u.n
    images = [u * GrassmannElement.generator(ring, n, i) * u_inv
              for i in range(1, n + 1)]
    return Endomorphism(images, check=False)


def is_automorphism(sigma: Endomorphism) -> bool:
    """True iff the determinant of the linear part is a unit of K."""
    return sigma.ring.is_unit(mat_det(sigma.ring, sigma.linear_part()))


# -- text format ------------------------------------------------------------
#
# one mapping per generator:  x1 -> x1 + x2x3x4; x2 -> x2; ...

_ARROW = re.compile(r"^x(\d+)\s*->\s*(.+)$")


def parse_endomorphism(ring: Ring, n: int, text: str, *, check: bool = True) -> Endomorphism:
    chunks = [c.strip() for c in re.split(r"[;\n]", text) if c.strip()]
    images: dict[int, GrassmannElement] = {}
    for chunk in chunks:
        m = _ARROW.match(chunk)
        if not m:
            raise ValueError(f"cannot parse generator mapping {chunk!r}")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} out of range for n={n}")
        if i in images:
            raise ValueError(f"duplicate mapping for x{i}")
        images[i] = parse_element(ring, n, m.group(2))
    missing = [i for i in range(1, n + 1) if i not in images]
    if missing:
        raise ValueError(f"missing mappings for generators {missing}")
    return Endomorphism([images[i] for i in range(1, n + 1)], check=check)


def format_endomorphism(sigma: Endomorphism) -> str:
    return "; ".join(
        f"x{i + 1} -> {format_element(im)}" for i, im in enumerate(sigma.images))


def endomorphism_to_json(sigma: Endomorphism) -> dict:
    return {
        "n": sigma.n,
        "field": sigma.ring.name,
        "images": [element_to_json(im)["terms"] for im in sigma.images],
    }
