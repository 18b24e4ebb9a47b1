"""Exact verification of the group-law and commutator identities.

Each check builds both sides of an identity as endomorphisms and compares
them exactly.  Shift supports are built as *ordered products* of generators,
so the written order of indices carries its sign.  Parameter constraints
(index disjointness, parity of support sizes) are validated up front;
violations raise ``ConstraintError``.
"""

from __future__ import annotations

from .algebra import GrassmannElement, indices_mask, lincomb, odd_part
from .endo import (
    Endomorphism,
    coordinate_shift,
    identity_endo,
    inner,
    linear_endo,
    scaling_endo,
    shift_endo,
)
from .groups import SIGMA, member
from .rings import Ring, mat_det, mat_inv, mat_mul


class ConstraintError(ValueError):
    """Identity parameters violate the identity's side conditions."""


def commutator(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    return a.compose(b).compose(a.inverse()).compose(b.inverse())


def ordered_product(ring: Ring, n: int, indices, coeff=None) -> GrassmannElement:
    """coeff * x_{i1} * x_{i2} * ... in the listed order (signs included)."""
    acc = GrassmannElement.scalar(ring, n, ring.one if coeff is None else coeff)
    for i in indices:
        acc = acc * GrassmannElement.generator(ring, n, i)
    return acc


def _shift(ring, n, i, indices, lam) -> Endomorphism:
    """x_i -> x_i + lam * (ordered product of the listed generators)."""
    return coordinate_shift(ring, n, i, ordered_product(ring, n, indices, lam),
                            check=True)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstraintError(message)


def _disjoint(*index_tuples) -> bool:
    seen = 0
    for t in index_tuples:
        m = indices_mask(t)
        if seen & m:
            return False
        seen |= m
    return True


# -- single-coordinate shift commutators -------------------------------------

def check_gcom1(ring: Ring, n: int, i: int, j: int, alpha, beta, lam, mu) -> bool:
    """[x_i += lam x_i x_j a,  x_j += mu x_j b] = (x_i += -lam mu x_i x_j b a)."""
    a, b = tuple(alpha), tuple(beta)
    _require(i != j, "need i != j")
    _require(_disjoint((i, j), a, b), "supports must avoid {i, j} and each other")
    _require(len(a) % 2 == 1 and len(a) >= 1, "first support must be odd")
    _require(len(b) % 2 == 0 and len(b) >= 2, "second support must be even")
    lhs = commutator(_shift(ring, n, i, (i, j) + a, lam),
                     _shift(ring, n, j, (j,) + b, mu))
    rhs_b = ordered_product(ring, n, (i, j) + b + a,
                            ring.normalize(-ring.normalize(lam * mu)))
    return lhs == coordinate_shift(ring, n, i, rhs_b, check=True)


def check_gcom2(ring: Ring, n: int, i: int, alpha, beta, lam, mu) -> bool:
    """[x_i += lam x_i a,  x_i += mu b] = (x_i += -lam mu b a)."""
    a, b = tuple(alpha), tuple(beta)
    _require(_disjoint((i,), a, b), "supports must avoid i and each other")
    _require(len(a) % 2 == 0 and len(a) >= 2, "first support must be even")
    _require(len(b) % 2 == 1 and len(b) >= 3, "second support must be odd")
    lhs = commutator(_shift(ring, n, i, (i,) + a, lam),
                     _shift(ring, n, i, b, mu))
    rhs_b = ordered_product(ring, n, b + a, ring.normalize(-ring.normalize(lam * mu)))
    return lhs == coordinate_shift(ring, n, i, rhs_b, check=True)


def check_xijam(ring: Ring, n: int, i: int, j: int, alpha, beta, lam, mu) -> bool:
    """[x_i += lam x_j a,  x_j += mu b] = (x_i += -lam mu a b)."""
    a, b = tuple(alpha), tuple(beta)
    _require(i != j, "need i != j")
    _require(_disjoint((i, j), a) and _disjoint((i, j), b),
             "supports must avoid {i, j}")
    _require(len(a) % 2 == 0 and len(a) >= 2, "first support must be even")
    _require(len(b) % 2 == 1 and len(b) >= 3, "second support must be odd")
    lhs = commutator(_shift(ring, n, i, (j,) + a, lam),
                     _shift(ring, n, j, b, mu))
    rhs_b = ordered_product(ring, n, a + b, ring.normalize(-ring.normalize(lam * mu)))
    return lhs == coordinate_shift(ring, n, i, rhs_b, check=True)


def check_xijam1(ring: Ring, n: int, i: int, j: int, alpha, beta, lam, mu) -> bool:
    """Shifts of different coordinates along plain odd supports commute."""
    a, b = tuple(alpha), tuple(beta)
    _require(i != j, "need i != j")
    _require(_disjoint((i, j), a) and _disjoint((i, j), b),
             "supports must avoid {i, j}")
    _require(len(a) % 2 == 1 and len(a) >= 3, "first support must be odd, size >= 3")
    _require(len(b) % 2 == 1 and len(b) >= 3, "second support must be odd, size >= 3")
    lhs = commutator(_shift(ring, n, i, a, lam), _shift(ring, n, j, b, mu))
    return lhs == identity_endo(ring, n)


def check_com1(ring: Ring, n: int, i: int, j: int, alpha, beta, lam, mu) -> bool:
    """[x_i += lam x_j a, x_j += mu x_i b] scales the pair (x_i, x_j) by 1 -+ lam mu a b."""
    a, b = tuple(alpha), tuple(beta)
    _require(i != j, "need i != j")
    _require(_disjoint((i, j), a) and _disjoint((i, j), b),
             "supports must avoid {i, j}")
    _require(len(a) % 2 == 0 and len(a) >= 2, "first support must be even")
    _require(len(b) % 2 == 0 and len(b) >= 2, "second support must be even")
    lhs = commutator(_shift(ring, n, i, (j,) + a, lam),
                     _shift(ring, n, j, (i,) + b, mu))
    prod = ordered_product(ring, n, a + b, ring.normalize(lam * mu))
    factors = [None] * n
    factors[i - 1], factors[j - 1] = -prod, prod
    return lhs == scaling_endo(ring, n, factors)


def check_dvac1(ring: Ring, n: int, i: int, j: int, alpha, beta, gamma,
                lam, mu, nu) -> bool:
    """Triple commutator collapsing to a single shift with doubled coefficient."""
    a, b, g = tuple(alpha), tuple(beta), tuple(gamma)
    _require(i != j, "need i != j")
    _require(all(_disjoint((i, j), t) for t in (a, b, g)),
             "supports must avoid {i, j}")
    for name, t in (("first", a), ("second", b), ("third", g)):
        _require(len(t) % 2 == 0 and len(t) >= 2,
                 f"{name} support must be even and nonempty")
    inner_comm = commutator(_shift(ring, n, i, (j,) + a, lam),
                            _shift(ring, n, j, (i,) + b, mu))
    lhs = commutator(_shift(ring, n, i, (j,) + g, nu), inner_comm)
    coeff = ring.normalize(-2 * ring.normalize(ring.normalize(lam * mu) * nu))
    rhs_b = ordered_product(ring, n, (j,) + a + b + g, coeff)
    return lhs == coordinate_shift(ring, n, i, rhs_b, check=True)


def check_dvac2(ring: Ring, n: int, i: int, j: int, alpha, beta, gamma,
                lam, mu, nu) -> bool:
    """Variant with an odd third support and no doubling."""
    a, b, g = tuple(alpha), tuple(beta), tuple(gamma)
    _require(i != j, "need i != j")
    _require(all(_disjoint((i, j), t) for t in (a, b, g)),
             "supports must avoid {i, j}")
    _require(len(a) % 2 == 0 and len(a) >= 2, "first support must be even")
    _require(len(b) % 2 == 0 and len(b) >= 2, "second support must be even")
    _require(len(g) % 2 == 1 and len(g) >= 3, "third support must be odd, size >= 3")
    inner_comm = commutator(_shift(ring, n, i, (j,) + a, lam),
                            _shift(ring, n, j, (i,) + b, mu))
    lhs = commutator(_shift(ring, n, i, g, nu), inner_comm)
    coeff = ring.normalize(-ring.normalize(ring.normalize(lam * mu) * nu))
    rhs_b = ordered_product(ring, n, a + b + g, coeff)
    return lhs == coordinate_shift(ring, n, i, rhs_b, check=True)


def check_g3ab(ring: Ring, n: int, indices, lam) -> bool:
    """Rewrite a long self-touching shift as left-nested commutators.

    ``indices`` is (i1, ..., i_{2m+3}); the shifted coordinate is i1 and the
    support is the ordered product of all listed generators.
    """
    L = tuple(indices)
    _require(len(L) % 2 == 1 and len(L) >= 3, "need an odd number (>= 3) of indices")
    _require(len(set(L)) == len(L), "indices must be distinct")
    i1, i2, last = L[0], L[1], L[-1]
    lhs = _shift(ring, n, i1, L, lam)
    rhs = _shift(ring, n, i1, (i1, i2, last), lam)
    for k in range(len(L) - 3, 1, -2):
        pair = (L[k], L[k + 1])
        partner = _shift(ring, n, i2, (i2,) + pair, ring.normalize(-ring.one))
        rhs = commutator(rhs, partner)
    return lhs == rhs


def check_g4ab(ring: Ring, n: int, i: int, indices, lam) -> bool:
    """Rewrite a long plain shift as right-nested same-coordinate commutators.

    ``indices`` is (i1, ..., i_{2m+1}) avoiding i; the support is their
    ordered product.
    """
    L = tuple(indices)
    _require(len(L) % 2 == 1 and len(L) >= 3, "need an odd number (>= 3) of indices")
    flat = (i,) + L
    _require(len(set(flat)) == len(flat), "indices must be distinct")
    lhs = _shift(ring, n, i, L, lam)
    rhs = _shift(ring, n, i, L[:3], ring.one)
    for k in range(3, len(L), 2):
        pair = (L[k], L[k + 1])
        outermost = k + 2 == len(L)
        coeff = ring.normalize(-lam) if outermost else ring.normalize(-ring.one)
        rhs = commutator(_shift(ring, n, i, (i,) + pair, coeff), rhs)
    if len(L) == 3:
        # no brackets: the base carries the coefficient itself
        rhs = _shift(ring, n, i, L[:3], lam)
    return lhs == rhs


# -- conjugation identities ---------------------------------------------------

def check_g5ab(ring: Ring, n: int, sigma: Endomorphism, a: GrassmannElement) -> bool:
    """[sigma, conj(1+a)] = conj(1 + sigma(a) - a) for parity-preserving sigma, odd a."""
    _require(a == odd_part(a), "conjugator element must be odd")
    _require(sigma.has_odd_images(), "sigma must preserve parity (odd images)")
    one = GrassmannElement.one(ring, n)
    lhs = commutator(sigma, inner(one + a))
    rhs = inner(one + sigma.apply(a) - a)
    return lhs == rhs


def check_g6ab(ring: Ring, n: int, indices, lam) -> bool:
    """A conjugation by 1 + lam * (odd product) as a nested shift commutator."""
    idx = tuple(indices)
    _require(len(idx) % 2 == 1 and len(idx) >= 3, "need an odd number (>= 3) of indices")
    _require(len(set(idx)) == len(idx), "indices must be distinct")
    i1 = idx[0]
    one = GrassmannElement.one(ring, n)
    lhs = inner(one + ordered_product(ring, n, idx, lam))
    rhs = inner(one + ordered_product(ring, n, (i1,), lam))
    for k in range(len(idx) - 2, 0, -2):
        pair = (idx[k], idx[k + 1])
        rhs = commutator(_shift(ring, n, i1, (i1,) + pair, ring.one), rhs)
    return lhs == rhs


def check_xipq1(ring: Ring, n: int, i: int, j: int, kl_pairs,
                p: int, q: int, r: int, lam) -> bool:
    """Nested commutator form of a shift along an even number of extra pairs."""
    pairs = [tuple(pair) for pair in kl_pairs]
    _require(len(pairs) % 2 == 0, "needs an even number of (k, l) pairs")
    flat = (i, j) + tuple(t for pair in pairs for t in pair) + (p, q, r)
    _require(len(set(flat)) == len(flat), "indices must be distinct")
    body = tuple(t for pair in pairs for t in pair) + (p, q, r)
    lhs = _shift(ring, n, i, body, lam)
    rhs = _shift(ring, n, i, (p, q, r), lam)
    for k, (ki, li) in enumerate(reversed(pairs)):
        if k % 2 == 0:  # innermost bracket partner shifts x_j along x_i
            outer = _shift(ring, n, j, (i, ki, li), ring.one)
        else:
            outer = _shift(ring, n, i, (j, ki, li), ring.one)
        rhs = commutator(outer, rhs)
    return lhs == rhs


def check_xipq2(ring: Ring, n: int, i: int, j: int, kl_pairs,
                p: int, q: int, r: int, lam) -> bool:
    """Nested commutator form of a shift along an odd number of extra pairs."""
    pairs = [tuple(pair) for pair in kl_pairs]
    _require(len(pairs) % 2 == 1, "needs an odd number of (k, l) pairs")
    flat = (i, j) + tuple(t for pair in pairs for t in pair) + (p, q, r)
    _require(len(set(flat)) == len(flat), "indices must be distinct")
    body = tuple(t for pair in pairs for t in pair) + (p, q, r)
    lhs = _shift(ring, n, i, body, lam)
    rhs = _shift(ring, n, j, (p, q, r), ring.normalize(-lam))
    for k, (ki, li) in enumerate(reversed(pairs)):
        if k % 2 == 0:  # innermost bracket partner shifts x_i along x_j
            outer = _shift(ring, n, i, (j, ki, li), ring.one)
        else:
            outer = _shift(ring, n, j, (i, ki, li), ring.one)
        rhs = commutator(outer, rhs)
    return lhs == rhs


# -- group-law identities ------------------------------------------------------

def _top_shift(ring, n, lams) -> Endomorphism:
    """x_i -> x_i + lams[i-1] * x_1 ... x_n."""
    theta = (1 << n) - 1
    return shift_endo(ring, n, [GrassmannElement.monomial(ring, n, theta, lam)
                                for lam in lams])


def _full_product(ring, n, a, b_images, matrix) -> Endomorphism:
    one = GrassmannElement.one(ring, n)
    gamma = Endomorphism(b_images, check=False)
    return inner(one + a).compose(gamma).compose(linear_endo(ring, matrix))


def check_mul1(ring: Ring, n: int, a, b_images, mat_a, a2, b2_images, mat_a2) -> bool:
    """Product of two inner*shift*linear factorizations against the closed form.

    b_images / b2_images are the full image tuples of the shift parts.
    """
    lhs = _full_product(ring, n, a, b_images, mat_a).compose(
        _full_product(ring, n, a2, b2_images, mat_a2))
    gamma_b = Endomorphism(b_images, check=False)
    lin_a = linear_endo(ring, mat_a)
    new_a = a + gamma_b.compose(lin_a).apply(a2)
    a_inv = mat_inv(ring, mat_a)
    moved = lin_a.apply_all(b2_images)
    transported = [lincomb(ring, n, zip(row, moved)) for row in a_inv]
    new_b_images = gamma_b.apply_all(transported)
    new_mat = mat_mul(ring, mat_a2, mat_a)
    rhs = _full_product(ring, n, new_a, new_b_images, new_mat)
    return lhs == rhs


def check_invabA(ring: Ring, n: int, a, b_images, mat_a) -> bool:
    """Closed-form inverse of an inner*shift*linear product vs direct inversion."""
    sigma = _full_product(ring, n, a, b_images, mat_a)
    gamma_b = Endomorphism(b_images, check=False)
    gamma_b_inv = gamma_b.inverse()
    b_prime = gamma_b_inv.images
    a_inv_mat = mat_inv(ring, mat_a)
    lin_inv = linear_endo(ring, a_inv_mat)
    new_a = -lin_inv.compose(gamma_b_inv).apply(a)
    moved = lin_inv.apply_all(b_prime)
    new_b_images = [lincomb(ring, n, zip(row, moved)) for row in mat_a]
    rhs = _full_product(ring, n, new_a, new_b_images, a_inv_mat)
    return sigma.inverse() == rhs


def check_slsA(ring: Ring, n: int, sigma: Endomorphism, lam_vec) -> bool:
    """Conjugating a top-monomial shift: sigma^-1 tau_lam sigma = tau_(A lam / det A)."""
    a_mat = sigma.linear_part()
    det = mat_det(ring, a_mat)
    _require(ring.is_unit(det), "sigma must have invertible linear part")
    lhs = sigma.inverse().compose(_top_shift(ring, n, lam_vec)).compose(sigma)
    det_inv = ring.invert(det)
    new_lam = [ring.normalize(
        sum(a_mat[i][j] * lam_vec[j] for j in range(n)) * det_inv)
        for i in range(n)]
    return lhs == _top_shift(ring, n, new_lam)


def check_al2(ring: Ring, mat_a, lam, mat_b, mu) -> bool:
    """The n = 2 composition law for linear times top-shift factors."""
    n = 2

    def pair(mat, vec):
        return linear_endo(ring, mat).compose(_top_shift(ring, n, vec))

    _require(ring.is_unit(mat_det(ring, mat_a)) and ring.is_unit(mat_det(ring, mat_b)),
             "matrices must be invertible")
    lhs = pair(mat_a, lam).compose(pair(mat_b, mu))
    det_b_inv = ring.invert(mat_det(ring, mat_b))
    new_vec = [ring.normalize(
        sum(mat_b[i][j] * lam[j] for j in range(n)) * det_b_inv + mu[i])
        for i in range(n)]
    rhs = pair(mat_mul(ring, mat_b, mat_a), new_vec)
    return lhs == rhs


def check_group_law_n3(ring: Ring, lam, mu, mat_a, lam2, mu2, mat_b) -> bool:
    """The n = 3 composition law for inner * top-shift * linear triples."""
    n = 3

    def triple(l, m, mat):
        a = GrassmannElement(ring, n, {1 << i: l[i] for i in range(n)})
        return _full_product(ring, n, a, _top_shift(ring, n, m).images, mat)

    lhs = triple(lam, mu, mat_a).compose(triple(lam2, mu2, mat_b))
    det_a = mat_det(ring, mat_a)
    a_inv = mat_inv(ring, mat_a)
    new_lam = [ring.normalize(lam[i] + sum(mat_a[j][i] * lam2[j] for j in range(n)))
               for i in range(n)]
    new_mu = [ring.normalize(mu[i] + det_a * sum(a_inv[i][j] * mu2[j] for j in range(n)))
              for i in range(n)]
    rhs = triple(new_lam, new_mu, mat_mul(ring, mat_b, mat_a))
    return lhs == rhs


def nonnormality_witness(ring: Ring) -> bool:
    """At n = 5: an explicit conjugate of a Jacobian-1 map leaves the group."""
    n = 5
    sigma = scaling_endo(ring, n, [ordered_product(ring, n, (2, 3))] + [None] * (n - 1))
    tau = coordinate_shift(ring, n, 2, ordered_product(ring, n, (1, 4, 5)),
                           check=False)
    if not member(tau, SIGMA):
        return False
    conj = sigma.compose(tau).compose(sigma.inverse())
    return not member(conj, SIGMA)

