"""Left skew partial derivatives, coordinate projections, Taylor rebuilds.

The composite derivative over an index set is always applied with the factor
of the *highest* index outermost, i.e. the lowest index acts first.  That
single convention lives in :func:`apply_partial_word`; nothing else in the
library re-derives the sign of a composite derivative.
"""

from __future__ import annotations

from .algebra import (
    GrassmannElement,
    mask_indices,
    restrict,
    substitute_zero,
)


def skew_partial(i: int, e: GrassmannElement) -> GrassmannElement:
    """The left skew derivation with skew_partial(i, x_j) = delta_ij.

    On a monomial containing x_i in position k (ascending order) this yields
    (-1)**(k-1) times the monomial with x_i removed; 0 if x_i is absent.
    """
    if not 1 <= i <= e.n:
        raise ValueError(f"derivative index {i} out of range 1..{e.n}")
    bit = 1 << (i - 1)
    below = bit - 1
    p = e.ring.modulus
    out = {}
    for mask, c in e.num.items():
        if not (mask & bit):
            continue
        if (mask & below).bit_count() & 1:
            c = -c if p is None else (-c) % p
        out[mask ^ bit] = c
    return restrict(e, out)


def apply_partial_word(e: GrassmannElement, mask: int) -> GrassmannElement:
    """Apply the composite skew derivative over ``mask``.

    The factors are ordered by descending generator index, so the lowest
    index in ``mask`` differentiates first.
    """
    for i in mask_indices(mask):
        if not e:
            break
        e = skew_partial(i, e)
    return e


def coordinate_projection(i: int, e: GrassmannElement) -> GrassmannElement:
    """(1 - x_i d_i): the idempotent killing exactly the terms containing x_i."""
    if not 1 <= i <= e.n:
        raise ValueError(f"projection index {i} out of range 1..{e.n}")
    bit = 1 << (i - 1)
    return restrict(e, {m: c for m, c in e.num.items() if not (m & bit)})


def phi_projection(e: GrassmannElement):
    """The constant term of e, i.e. the composite of all coordinate projections."""
    return e.constant_term()


def phi_projection_by_composition(e: GrassmannElement) -> GrassmannElement:
    """The projection onto K computed operator-by-operator (reference path)."""
    for i in range(1, e.n + 1):
        e = e - GrassmannElement.generator(e.ring, e.n, i) * skew_partial(i, e)
    return e


def taylor_reconstruct(e: GrassmannElement, mode: str = "at_zero") -> GrassmannElement:
    """Rebuild e coefficient-by-coefficient from its composite derivatives.

    mode "at_zero": coefficient of a monomial is its composite derivative
    evaluated at the origin.  mode "projected": the same coefficient read off
    with the constant-term projection, no evaluation step.
    """
    if mode not in ("at_zero", "projected"):
        raise ValueError(f"unknown taylor mode {mode!r}")
    ring, n = e.ring, e.n
    acc = GrassmannElement.zero(ring, n)
    all_indices = range(1, n + 1)
    for mask in range(1 << n):
        d = apply_partial_word(e, mask)
        if not d:
            continue
        if mode == "at_zero":
            c = substitute_zero(d, all_indices).constant_term()
        else:
            c = phi_projection(d)
        if c != 0:
            acc = acc + GrassmannElement.monomial(ring, n, mask, c)
    return acc
