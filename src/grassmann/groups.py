"""Subgroups of the automorphism group: membership, factorization, preimages.

The automorphism group on n generators factors as inner * shift * linear; the
shift part carries the Jacobian map onto the even units with constant term 1.
This module decides membership in the standard subgroups, computes the
constructive factorizations, inverts the Jacobian map where possible, and
enumerates one-parameter generator families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional

from .algebra import (
    GrassmannElement,
    check_n,
    component,
    dot,
    even_part,
    element_to_json,
    indices_mask,
    invert_unit,
    lincomb,
    mask_str,
    odd_part,
    restrict,
)
from .endo import (
    Endomorphism,
    compose_all,
    coordinate_shift,
    endomorphism_to_json,
    identity_endo,
    inner,
    is_automorphism,
    linear_endo,
    NotInvertibleError,
    scaling_endo,
    shift_endo,
)
from .linsolve import (
    AvoidanceTable,
    kernel_split,
    layer_split,
    min_avoidance,
    xi_particular,
)
from .rings import NotAUnitError, Ring, mat_inv
from .skewcalc import skew_partial


class MembershipError(ValueError):
    """Membership in the requested subgroup cannot be decided."""


class DecompositionError(ValueError):
    """The input is outside the domain of the requested factorization."""


class NoPreimageError(ValueError):
    """The requested Jacobian value has no exact preimage."""


# ---------------------------------------------------------------------------
# group identifiers

@dataclass(frozen=True)
class GroupId:
    """A named subgroup, optionally parameterized (filtration level etc.)."""

    kind: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        needs = _KINDS[self.kind][1]
        if needs is None and self.param is not None:
            raise ValueError(f"group {self.kind} takes no parameter")
        if needs is not None and self.param is None:
            raise ValueError(f"group {self.kind} needs a parameter: {needs}")

    def __str__(self):
        return self.kind if self.param is None else f"{self.kind}:{self.param}"


_GROUP_ALIASES = {
    "sigma'": "sigma_prime",
    "sigma''": "sigma_double_prime",
    "gamma/sigma": "gamma_mod_sigma",
    "sigma/sigma_double_prime": "sigma_mod_double_prime",
}


def normalize_group_name(name) -> tuple[str, Optional[int]]:
    """``(kind, param)`` of a group name such as ``sigma-prime``, ``sigma'``
    or ``gamma-asc:4``: the one parser for group names, shared by membership
    and the dimension formulas."""
    text = str(name).strip().lower().replace("-", "_")
    text = _GROUP_ALIASES.get(text, text)
    if ":" in text:
        kind, param = text.split(":", 1)
        try:
            return kind, int(param)
        except ValueError:
            raise ValueError(f"group {name!r}: the parameter after ':' must be "
                             f"an integer") from None
    return text, None


def parse_group_id(text: str) -> GroupId:
    return GroupId(*normalize_group_name(text))


def ascent_step(level: Optional[int]) -> int:
    """s of the Jacobian ascent of valuation bound ``level`` = 2s: the one
    rule for ascent levels, shared by membership and the dimension formulas."""
    if level is None or level < 2 or level % 2:
        raise MembershipError("Jacobian ascent levels are even and >= 2")
    return level // 2


# ---------------------------------------------------------------------------
# membership

def _gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def _differences(sigma: Endomorphism):
    return [sigma.images[i] - _gen(sigma.ring, sigma.n, i + 1)
            for i in range(sigma.n)]


def _level(diffs):
    """The filtration level of a map with differences sigma(x_i) - x_i: the
    least degree of a nonzero one, infinite for the identity, which thus
    lies in every level."""
    return min((d.min_degree() for d in diffs if d), default=inf)


def _jacobian_one(sigma: Endomorphism) -> bool:
    return sigma.jacobian().det == GrassmannElement.one(sigma.ring, sigma.n)


def _in_gamma(sigma: Endomorphism, level: int = 3) -> bool:
    """Odd differences of degree >= 3, and >= ``level``: the shift group and
    its filtration."""
    diffs = _differences(sigma)
    return _level(diffs) >= max(level, 3) and all(d == odd_part(d) for d in diffs)


def _scales(sigma: Endomorphism) -> bool:
    """Each sigma(x_i) is divisible by x_i."""
    return all(im.divisible_by(i) for i, im in enumerate(sigma.images, 1))


def _in_phi(sigma: Endomorphism, level: int = 3) -> bool:
    return _in_gamma(sigma, level) and _scales(sigma)


def _inner_part(evens) -> GrassmannElement:
    """The particular solution a of x_i * a = -evens[i-1] / 2: conjugation by
    1 + a, a odd, sends x_i to x_i - 2 x_i a."""
    ring = evens[0].ring
    half = ring.invert(ring.from_int(2))
    return xi_particular([e.scale(-half) for e in evens])


def _conjugator(a: GrassmannElement) -> GrassmannElement:
    """The representative of a that conjugation by 1 + a reads: its odd
    terms, without the top monomial x1...xn, which is central for odd n."""
    top = (1 << a.n) - 1
    return restrict(a, {m: c for m, c in a.num.items() if m.bit_count() % 2 and m != top})


def omega_witness(sigma: Endomorphism) -> Optional[GrassmannElement]:
    """The odd element a with sigma = conjugation by 1 + a, or None.

    Found by solving x_i * a = -(sigma(x_i) - x_i) / 2 and reconstructing;
    the witness is normalized to zero top-monomial coefficient when the top
    monomial is central.  Only the divisibility half of the system's
    solvability is tested up front, in O(terms): the reconstruction decides
    membership.
    """
    diffs = _differences(sigma)
    if not all(d.divisible_by(i) for i, d in enumerate(diffs, 1)):
        return None
    a = _conjugator(_inner_part(diffs))
    if inner(GrassmannElement.one(sigma.ring, sigma.n) + a) == sigma:
        return a
    return None


def _in_omega_graded(sigma: Endomorphism, s: int) -> bool:
    """Conjugation by 1 + a, a supported on the degrees js with j odd."""
    a = omega_witness(sigma)
    if a is None:
        return False
    allowed = {j * s for j in range(1, sigma.n // s + 1, 2)}
    proj = restrict(a, {m: c for m, c in a.num.items() if m.bit_count() in allowed})
    return inner(GrassmannElement.one(sigma.ring, sigma.n) + proj) == sigma


def _in_gamma_graded(sigma: Endomorphism, s: int) -> bool:
    """A shift whose differences lie in the degrees 1 + js, j >= 1."""
    allowed = {1 + j * s for j in range(1, sigma.n // s + 1)}
    return _in_gamma(sigma) and all(d.degrees() <= allowed for d in _differences(sigma))


def _in_zgraded(sigma: Endomorphism, s: int) -> bool:
    """Every image lies in the degrees congruent to 1 mod s."""
    allowed = {d for d in range(sigma.n + 1) if d % s == 1 % s}
    return all(im.degrees() <= allowed for im in sigma.images)


def _in_phi_prime_layer(sigma: Endomorphism, level: int) -> bool:
    """The scaling subgroup whose first layer lies in the canonical section."""
    if not _in_phi(sigma, level):
        return False
    s = (level - 1) // 2
    for i in range(1, sigma.n + 1):
        # x_i * a_i == image; the layer of a_i must be the label-i part
        b_i = component(skew_partial(i, sigma.images[i - 1]), 2 * s)
        if any(part for label, part in layer_split(b_i, s).parts.items() if label != i):
            return False
    return True


def _in_sigma_double_prime(sigma: Endomorphism, _) -> bool:
    """A Jacobian-1 shift whose scaling part is a Jacobian-1 scaling of
    filtration level >= 5."""
    if not (_in_gamma(sigma) and _jacobian_one(sigma)):
        return False
    phi = decompose_gamma(sigma).phi
    return _in_phi(phi, 5) and _jacobian_one(phi)


_KINDS = {
    # kind: (predicate(sigma, param) on automorphisms, the parameter or None)
    "omega": (lambda sigma, _: omega_witness(sigma) is not None, None),
    "omega_graded": (_in_omega_graded, "odd grading step s >= 1"),
    "u": (lambda sigma, _: _level(_differences(sigma)) >= 2, None),
    "u_pow": (lambda sigma, i: _level(_differences(sigma)) >= i, "filtration level i"),
    "gamma": (lambda sigma, _: _in_gamma(sigma), None),
    "gamma_pow": (_in_gamma, "filtration level i"),
    "gamma_graded": (_in_gamma_graded, "even grading step s >= 2"),
    "gamma_asc": (lambda sigma, bound: _in_gamma(sigma) and sigma.jacobian().valuation >= bound,
                  "even Jacobian valuation bound 2s >= 2"),
    "phi": (lambda sigma, _: _in_phi(sigma), None),
    "phi_at": (lambda sigma, i: _in_gamma(sigma) and sigma.images[i - 1].divisible_by(i),
               "coordinate index 1 <= i <= n"),
    "phi_pow": (_in_phi, "filtration level i"),
    "phi_prime": (lambda sigma, _: _scales(sigma), None),
    "phi_prime_layer": (_in_phi_prime_layer, "odd layer level 3 <= 2s+1 <= n"),
    "sigma": (lambda sigma, _: _in_gamma(sigma) and _jacobian_one(sigma), None),
    "sigma_prime": (lambda sigma, _: _in_phi(sigma) and _jacobian_one(sigma), None),
    "sigma_prime_pow": (lambda sigma, i: _in_phi(sigma, i) and _jacobian_one(sigma),
                        "filtration level i"),
    "sigma_double_prime": (_in_sigma_double_prime, None),
    "g_even": (lambda sigma, _: all(not odd_part(im - component(im, 1))
                                    for im in sigma.images), None),
    "g_odd": (lambda sigma, _: sigma.has_odd_images(), None),
    "g_zgraded": (_in_zgraded, "grading modulus s >= 2"),
}

OMEGA = GroupId("omega")
GAMMA = GroupId("gamma")
U = GroupId("u")
PHI = GroupId("phi")
PHI_PRIME = GroupId("phi_prime")
SIGMA = GroupId("sigma")
SIGMA_PRIME = GroupId("sigma_prime")
SIGMA_DOUBLE_PRIME = GroupId("sigma_double_prime")
G_EVEN = GroupId("g_even")
G_ODD = GroupId("g_odd")


def _check_param(group: GroupId, n: int) -> None:
    """Refuse a parameter outside the range its kind is defined for."""
    kind, p = group.kind, group.param
    if kind == "omega_graded" and (p < 1 or p % 2 == 0):
        raise MembershipError("graded inner groups need an odd step s >= 1")
    if kind == "gamma_graded" and (p < 2 or p % 2):
        raise MembershipError("graded shift groups need an even step s >= 2")
    if kind == "gamma_asc":
        ascent_step(p)
    if kind == "g_zgraded" and p < 2:
        raise MembershipError("grading modulus must be >= 2")
    if kind == "phi_at" and not 1 <= p <= n:
        raise MembershipError(f"coordinate index {p} out of range")
    if kind == "phi_prime_layer":
        if p < 3 or p % 2 == 0:
            raise MembershipError("layer groups are indexed by odd levels 2s+1 >= 3")
        if p > n:
            raise MembershipError(f"layer level {p} out of range for n={n}")


def member(sigma: Endomorphism, group: GroupId) -> bool:
    """Whether sigma lies in the named subgroup.  A parameter outside the
    range of its kind raises ``MembershipError`` whatever sigma is; a map
    that is not an automorphism lies in no subgroup."""
    _check_param(group, sigma.n)
    return is_automorphism(sigma) and _KINDS[group.kind][0](sigma, group.param)


# ---------------------------------------------------------------------------
# factorization data

@dataclass(frozen=True)
class OmegaGammaLinear:
    """sigma = (conjugation by 1+a) . (shift by b) . (linear part A)."""

    a: GrassmannElement
    b: tuple
    matrix: list

    def recompose(self, ring: Ring, n: int) -> Endomorphism:
        one = GrassmannElement.one(ring, n)
        return compose_all(ring, n, (inner(one + self.a), shift_endo(ring, n, self.b),
                                     linear_endo(ring, self.matrix)))

    def to_json(self):
        return {
            "kind": "inner-shift-linear",
            "inner": element_to_json(self.a),
            "shift": [element_to_json(b) for b in self.b],
            "matrix": [[str(c) for c in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class UnipotentWord:
    """Alternating inner/shift factors by filtration level, lowest applied first."""

    factors: tuple  # of ("inner", a) / ("shift", b-tuple), level ascending
    ring: Ring
    n: int

    def recompose(self) -> Endomorphism:
        one = GrassmannElement.one(self.ring, self.n)
        return compose_all(self.ring, self.n, [
            inner(one + data) if kind == "inner" else shift_endo(self.ring, self.n, data)
            for kind, data in reversed(self.factors)])

    def to_json(self):
        out = []
        for kind, data in self.factors:
            if kind == "inner":
                out.append({"kind": "inner", "element": element_to_json(data)})
            else:
                out.append({"kind": "shift",
                            "images": [element_to_json(b) for b in data]})
        return {"kind": "unipotent-word", "factors": out}


@dataclass(frozen=True)
class GammaWord:
    """sigma = phi . xi_word, xi factors by ascending degree applied first.

    ``xis`` maps each odd degree k to the n-tuple of degree-k shifts c_i; the
    degree-k factor is the ordered product of the single-coordinate shifts
    x_i -> x_i + c_i, i ascending with i = 1 leftmost.
    """

    phi: Endomorphism
    xis: dict  # degree -> tuple of c_i

    def xi_factor(self, degree: int) -> Endomorphism:
        return _shift_product(self.phi.ring, self.phi.n, self.xis[degree])

    def recompose(self) -> Endomorphism:
        return self.phi.compose(compose_all(self.phi.ring, self.phi.n, [
            self.xi_factor(d) for d in sorted(self.xis, reverse=True) if any(self.xis[d])]))

    def to_json(self):
        return {
            "kind": "scaling-and-shifts",
            "phi": endomorphism_to_json(self.phi),
            "shifts": {str(k): [element_to_json(c) for c in cs]
                       for k, cs in sorted(self.xis.items())},
        }


@dataclass(frozen=True)
class SigmaPrimeWord:
    """Coordinates of a Jacobian-1 scaling map in the canonical pair generators."""

    ring: Ring
    n: int
    lambdas: dict  # (s, i, support mask) -> coefficient

    def recompose(self) -> Endomorphism:
        """The product of the per-stage ``rho_product``s, lowest stage leftmost:
        one flat fold of all pair scalings took 2.1 s against 0.57 s on a
        dense word at n = 9 over QQ (2-vCPU VM)."""
        stages = {}
        for (s, i, m), c in self.lambdas.items():
            stages.setdefault(s, {})[(i, m)] = c
        return compose_all(self.ring, self.n, [
            rho_product(self.ring, self.n, s, stages[s]) for s in sorted(stages)])

    def to_json(self):
        return {
            "kind": "pair-scaling-word",
            "coordinates": [
                {"s": s, "i": i, "support": mask_str(m),
                 "coeff": self.ring.format(c)}
                for (s, i, m), c in sorted(self.lambdas.items())
            ],
        }


@dataclass(frozen=True)
class LayerWord:
    """sigma = layer factors (ascending s, leftmost applied last) times a
    Jacobian-1 tail."""

    layers: dict  # s -> degree-2s element a(2s)
    factors: tuple  # the layer scalings of the nonzero layers, s ascending
    tail: Endomorphism

    def recompose(self) -> Endomorphism:
        return compose_all(self.tail.ring, self.tail.n, self.factors + (self.tail,))

    def to_json(self):
        return {
            "kind": "layer-word",
            "layers": {str(2 * s): element_to_json(a)
                       for s, a in sorted(self.layers.items())},
            "tail": endomorphism_to_json(self.tail),
        }


# -- canonical builders -----------------------------------------------------

def _shift_product(ring: Ring, n: int, shifts) -> Endomorphism:
    """Ordered product of x_i -> x_i + shifts[i-1], i ascending, i=1 leftmost.

    Folded from the right, started at the last nonzero shift: on dense
    Gamma maps applying a coordinate shift to a product is nearly free, and
    the left fold took 0.021 s against 0.0093 s on a dense degree-3 factor
    at n = 8 over QQ (2-vCPU VM)."""
    factors = [coordinate_shift(ring, n, i, b, check=False)
               for i, b in enumerate(shifts, 1) if b]
    acc = factors.pop() if factors else identity_endo(ring, n)
    for f in reversed(factors):
        acc = f.compose(acc)
    return acc


def rho_endo(ring: Ring, n: int, i: int, j: int, mask: int, lam) -> Endomorphism:
    """x_i -> x_i(1 + lam sup), x_j -> x_j(1 - lam sup), others fixed."""
    if (mask >> (i - 1)) & 1 or (mask >> (j - 1)) & 1:
        raise ValueError("pair-scaling support must avoid both coordinates")
    sup = GrassmannElement.monomial(ring, n, mask, lam)
    factors = [None] * n
    factors[i - 1], factors[j - 1] = sup, -sup
    return scaling_endo(ring, n, factors)


def rho_product(ring: Ring, n: int, s: int, lambdas: dict) -> Endomorphism:
    """Ordered product of the stage-s pair scalings with coefficients
    lambdas[(i, mask)], in ``_pair_scalings`` order, first factor leftmost."""
    return compose_all(ring, n, [
        rho_endo(ring, n, i, j, mask, lam) for i, j, mask in _pair_scalings(n, s)
        if (lam := lambdas.get((i, mask)))])


def layer_scaling(ring: Ring, n: int, s: int, a: GrassmannElement) -> Endomorphism:
    """The scaling map built from the canonical split of a degree-2s element."""
    return _split_scaling(ring, n, layer_split(a, s).parts)


def _split_scaling(ring: Ring, n: int, parts: dict) -> Endomorphism:
    """x_i -> x_i(1 + parts[i]): the layer scaling of a computed split."""
    return scaling_endo(ring, n, [parts.get(i) for i in range(1, n + 1)])


def _layer_jacobian(a: GrassmannElement, parts: dict) -> GrassmannElement:
    """J(f) for f = ``_split_scaling(parts)``, parts the split of a, in
    the closed form derived in ``_peel_layers``:
    1 + a + (a - a_n) a_n - sum over i < n of (x_i d_n a_i)(x_n d_i a_n)."""
    ring, n = a.ring, a.n
    start = GrassmannElement.one(ring, n) + a
    a_n = parts[n]
    if not a_n:
        return start
    x_n = _gen(ring, n, n)
    pairs = [(a - a_n, a_n)]
    for i, a_i in parts.items():
        if i != n and a_i and (d_i := skew_partial(i, a_n)):
            pairs.append((-(_gen(ring, n, i) * skew_partial(n, a_i)), x_n * d_i))
    return dot(ring, n, pairs, n, start)


_avoid_cache: dict = {}


def _avoidance(n: int, s: int) -> AvoidanceTable:
    key = (n, s)
    if key not in _avoid_cache:
        _avoid_cache[key] = min_avoidance(n, s)
    return _avoid_cache[key]


def _pair_scalings(n: int, s: int) -> list:
    """The stage-s balanced pair scalings as (i, j, support mask), i
    ascending, then mask ascending: the one order of the generator families
    and of the factors of ``rho_product``."""
    avoid = _avoidance(n, s)
    return [(i, avoid.target(i, mask), mask)
            for i in range(1, n) for mask in sorted(avoid.domain[i])]


# ---------------------------------------------------------------------------
# factorizations

def decompose_omega_gamma_linear(sigma: Endomorphism) -> OmegaGammaLinear:
    """Unique inner * shift * linear factorization of an automorphism."""
    ring, n = sigma.ring, sigma.n
    a_mat = sigma.linear_part()
    try:
        a_inv = mat_inv(ring, a_mat)
    except NotAUnitError:
        raise NotInvertibleError("input is not an automorphism") from None
    odds = [odd_part(im) for im in sigma.images]
    b = [lincomb(ring, n, zip(row, odds)) - _gen(ring, n, i + 1)
         for i, row in enumerate(a_inv)]
    gamma = shift_endo(ring, n, b)
    evens = gamma.apply_inverse_all([even_part(im) for im in sigma.images])
    acc = _inner_part([lincomb(ring, n, zip(row, evens)) for row in a_inv])
    result = OmegaGammaLinear(a=_conjugator(gamma.apply(acc)), b=tuple(b), matrix=a_mat)
    if result.recompose(ring, n) != sigma:
        raise DecompositionError("factor recomposition mismatch")
    return result


def decompose_unipotent(sigma: Endomorphism) -> UnipotentWord:
    """Alternating inner/shift factorization of an identity-linear-part
    automorphism, peeled one filtration level at a time."""
    ring, n = sigma.ring, sigma.n
    if not member(sigma, U):
        raise DecompositionError("input does not fix generators modulo degree 2")
    one = GrassmannElement.one(ring, n)
    factors = []
    residual = sigma
    for level in range(2, n + 1):
        if level % 2 == 0:
            # inner factor: x_i * a = -1/2 times the even leading layer of x_i
            a = _inner_part([component(d, level) for d in _differences(residual)])
            if a:
                residual = residual.compose(inner(one - a))
                factors.append(("inner", a))
            for i in range(1, n + 1):
                if component(residual.images[i - 1] - _gen(ring, n, i), level):
                    raise DecompositionError(
                        f"inner factor did not clear level {level} at x{i}")
        else:
            leading = [component(d, level) for d in _differences(residual)]
            if any(leading):
                residual = residual.compose(shift_endo(ring, n, leading).inverse())
                factors.append(("shift", tuple(leading)))
    if not residual.is_identity():
        raise DecompositionError("filtration peeling left a nontrivial residual")
    word = UnipotentWord(factors=tuple(factors), ring=ring, n=n)
    if word.recompose() != sigma:
        raise DecompositionError("factor recomposition mismatch")
    return word


def decompose_gamma(sigma: Endomorphism) -> GammaWord:
    """Factor a shift automorphism as scaling times single-coordinate shifts.

    sigma = phi . xi_max ... xi_5 . xi_3 is peeled from the right, lowest
    degree first, on a list of images.  At degree k the residual is
    phi . xi_max ... xi_k, and c_i is the degree-k part of its image of x_i
    that avoids x_i: phi and the higher factors add only terms that contain
    x_i or have degree above k.  xi_k = S_1 ... S_n then comes off one S_i at
    a time, S_n first.  As c_i avoids x_i, S_i^-1 is x_i -> x_i - c_i, so
    peeling S_i changes only the image of x_i, by minus the residual's image
    of c_i.  The images left after the last degree are phi's.
    """
    n = sigma.n
    if not member(sigma, GAMMA):
        raise DecompositionError("input is not an odd shift automorphism")
    images = list(sigma.images)
    xis = {}
    for degree in range(3, n + 1, 2):
        shifts = tuple(
            restrict(image, {m: c for m, c in image.num.items()
                             if not (m >> i) & 1 and m.bit_count() == degree})
            for i, image in enumerate(images))
        for i in reversed(range(n)):
            if shifts[i]:
                images[i] = images[i] - Endomorphism(images, check=False).apply(shifts[i])
        xis[degree] = shifts
    phi = Endomorphism(images, check=False)
    if not member(phi, PHI):
        raise DecompositionError("residual is not a scaling automorphism")
    word = GammaWord(phi=phi, xis=xis)
    if word.recompose() != sigma:
        raise DecompositionError("factor recomposition mismatch")
    return word


def decompose_sigma_prime(sigma: Endomorphism) -> SigmaPrimeWord:
    """Coordinates of a Jacobian-1 scaling automorphism in pair generators."""
    ring, n = sigma.ring, sigma.n
    if not member(sigma, SIGMA_PRIME):
        raise DecompositionError("input is not a Jacobian-1 scaling automorphism")
    lambdas = {}
    residual = sigma
    for s in range(1, (n - 1) // 2 + 1):
        avoid = _avoidance(n, s)
        layer = []
        for i in range(1, n + 1):
            a_i = skew_partial(i, residual.images[i - 1])
            layer.append(component(a_i, 2 * s))
        kern, section = kernel_split(layer, s, avoid)
        if any(part for part in section.parts.values()):
            raise DecompositionError(
                "scaling residual escapes the kernel of the symbol sum; "
                "the input cannot have Jacobian 1")
        stage = {}
        for (i, mask), c in kern.items():
            lambdas[(s, i, mask)] = c
            stage[(i, mask)] = c
        if stage:
            factor = rho_product(ring, n, s, stage)
            residual = Endomorphism(factor.apply_inverse_all(residual.images),
                                    check=False)
    if not residual.is_identity():
        raise DecompositionError("pair-scaling peeling left a nontrivial residual")
    word = SigmaPrimeWord(ring=ring, n=n, lambdas=lambdas)
    if word.recompose() != sigma:
        raise DecompositionError("factor recomposition mismatch")
    return word


def decompose_layers(sigma: Endomorphism) -> LayerWord:
    """Factor a shift automorphism into Jacobian layer factors and a
    Jacobian-1 tail, one even degree at a time: the layers are peeled off
    J(sigma) by the loop of ``jacobian_preimage``, and the tail maps x_i to
    sigma(x_i) with the inverse of each factor applied in turn, lowest
    degree first, so no product or inverse of the factors is built."""
    ring, n = sigma.ring, sigma.n
    if n < 4:
        raise DecompositionError("layer factorization needs n >= 4")
    if not member(sigma, GAMMA):
        raise DecompositionError("input is not an odd shift automorphism")
    layers, factors = _peel_layers(sigma.jacobian().det)
    images = sigma.images
    for factor in factors:
        images = factor.apply_inverse_all(images)
    tail = Endomorphism(images, check=False)
    if not _jacobian_one(tail):
        raise DecompositionError("layer peeling left a Jacobian != 1 tail")
    word = LayerWord(layers=layers, factors=tuple(factors), tail=tail)
    if word.recompose() != sigma:
        raise DecompositionError("factor recomposition mismatch")
    return word


# ---------------------------------------------------------------------------
# the Jacobian preimage

@dataclass(frozen=True)
class PreimageResult:
    sigma: Endomorphism
    achieved: GrassmannElement
    forced_top: object  # top-monomial coefficient forced for even n, else None


def _peel_layers(u: GrassmannElement):
    """``(layers, factors)`` read off a Jacobian value u: layers[s] is the
    degree-2s part of the moving target, zero or not, and factors the layer
    factors of the nonzero layers, lowest degree first; their product, that
    one leftmost, has Jacobian u up to the top monomial.  After a factor f
    the target moves on by the chain rule
    J(f^-1 . sigma) = f^-1(J(f)^-1 * J(sigma)), f^-1 applied by its Neumann
    series (``Endomorphism.apply_inverse_all``).

    J(f) has a closed form (``_layer_jacobian``).  The factor is
    f: x_i -> x_i u_i with u_i = 1 + a_i, a_i the part of label i of the
    layer a: a_i avoids x_i and, for i < n, each of its monomials contains
    x_{i+1}..x_n.  The Jacobian matrix is diag(u) - N with
    N[i][j] = x_i d_j a_i: N[i][i] = 0, N[i][j] contains x_i, and for i < n
    and j != n it contains x_n.  In the permutation expansion of the
    determinant, a cycle that avoids n multiplies two entries holding x_n,
    and so does a cycle through n of length three or more (row n, and a row
    i < n sent to some j != n).  So only the identity and the
    transpositions (i n) survive:
    J(f) = prod_k u_k - sum over i < n of
    (x_i d_n a_i)(x_n d_i a_n) prod over k not in {i, n} of u_k.
    Every a_k with k < n contains x_n, so it kills the other such a_j and
    every transposition term: prod_k u_k = (1 + a - a_n)(1 + a_n), and each
    cofactor product acts as 1.  That is O(n) element products in place of
    an O(n^3) elimination.
    """
    ring, n = u.ring, u.n
    one = GrassmannElement.one(ring, n)
    factors = []
    layers = {}
    target = u
    last = (n - 1) // 2
    for s in range(1, last + 1):
        a2s = layers[s] = component(target - one, 2 * s)
        if not a2s:
            continue
        parts = layer_split(a2s, s).parts
        factor = _split_scaling(ring, n, parts)
        factors.append(factor)
        if s < last:  # no layer reads the target after the last
            jac = _layer_jacobian(a2s, parts)
            target = factor.apply_inverse_all((invert_unit(jac) * target,))[0]
    return layers, factors


def jacobian_preimage(u: GrassmannElement, *, exact: bool = True) -> PreimageResult:
    """Construct a shift automorphism whose Jacobian is u.

    For odd n the preimage is exact.  For even n the top-monomial coefficient
    of the Jacobian is a function of the lower coordinates; if the request is
    exact and u's top coefficient is not the forced one, no preimage exists.
    """
    ring, n = u.ring, u.n
    if n < 4:
        raise ValueError("preimage construction needs n >= 4")
    one = GrassmannElement.one(ring, n)
    diff = u - one
    if diff != even_part(diff) or (diff and diff.min_degree() < 2):
        raise ValueError("target must be even with constant term 1")
    acc = compose_all(ring, n, _peel_layers(u)[1])
    achieved = acc.jacobian().det
    if n % 2:
        if achieved != u:
            raise NoPreimageError("odd-n construction failed to hit the target")
        return PreimageResult(sigma=acc, achieved=achieved, forced_top=None)
    top = (1 << n) - 1
    forced = achieved.coefficient(top)
    if achieved - u:
        mismatch = achieved - u
        if set(mismatch.num) != {top}:
            raise NoPreimageError("even-n construction failed below the top degree")
        if exact:
            raise NoPreimageError(
                f"no exact preimage: the top coefficient is forced to {ring.format(forced)}, "
                f"target has {ring.format(u.coefficient(top))}")
    return PreimageResult(sigma=acc, achieved=achieved, forced_top=forced)


# ---------------------------------------------------------------------------
# generator families

@dataclass(frozen=True)
class GeneratorDescriptor:
    """A one-parameter subgroup isomorphic to (K, +).

    kinds: "sigma" (x_i += lam * triple monomial), "xi" (general single-
    coordinate shift), "rho" (balanced pair scaling), "omega" (conjugation by
    1 + lam * odd monomial).
    """

    kind: str
    i: Optional[int]
    j: Optional[int]
    mask: int

    def instantiate(self, ring: Ring, n: int, lam) -> Endomorphism:
        if self.kind in ("sigma", "xi"):
            b = GrassmannElement.monomial(ring, n, self.mask, lam)
            return coordinate_shift(ring, n, self.i, b, check=False)
        if self.kind == "rho":
            return rho_endo(ring, n, self.i, self.j, self.mask, lam)
        if self.kind == "omega":
            a = GrassmannElement.monomial(ring, n, self.mask, lam)
            return inner(GrassmannElement.one(ring, n) + a)
        raise ValueError(f"unknown generator kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "sigma" or self.kind == "xi":
            return f"x{self.i} -> x{self.i} + t*{mask_str(self.mask)}"
        if self.kind == "rho":
            return (f"x{self.i} -> x{self.i}(1 + t*{mask_str(self.mask)}); "
                    f"x{self.j} -> x{self.j}(1 - t*{mask_str(self.mask)})")
        return f"conjugation by 1 + t*{mask_str(self.mask)}"


def _triple_shift_descriptors(n: int, include_i: bool):
    from itertools import combinations
    out = []
    for i in range(1, n + 1):
        pool = [k for k in range(1, n + 1) if k != i]
        if include_i:
            for k, l in combinations(pool, 2):
                out.append(GeneratorDescriptor(
                    "sigma", i, None, indices_mask((i, k, l))))
        else:
            for j, k, l in combinations(pool, 3):
                out.append(GeneratorDescriptor(
                    "sigma", i, None, indices_mask((j, k, l))))
    return out


def enumerate_generators(group: GroupId, n: int) -> list:
    """The one-parameter generator families of the named group.

    For Γ these are the triple shifts x_i -> x_i + t*x_j x_k x_l over every i
    and every 3-set {j, k, l}, those avoiding i and those containing it:
    n*C(n, 3) in all.  The triples avoiding i alone generate a proper subgroup;
    their brackets never reach the degree-3 directions x_i -> x_i + x_i x_k x_l.
    """
    check_n(n)
    kind = group.kind
    if kind == "gamma":
        if n < 2:
            raise ValueError("need n >= 2")
        return (_triple_shift_descriptors(n, include_i=False)
                + _triple_shift_descriptors(n, include_i=True))
    if kind == "u":
        gens = _triple_shift_descriptors(n, include_i=False)
        gens += [GeneratorDescriptor("omega", None, None, 1 << (i - 1))
                 for i in range(1, n + 1)]
        return gens
    if kind == "phi":
        return _triple_shift_descriptors(n, include_i=True)
    if kind == "sigma_double_prime":
        if n < 4:
            raise ValueError("need n >= 4")
        gens = _triple_shift_descriptors(n, include_i=False)
        if n % 2 == 0:
            full = (1 << n) - 1
            for i in range(1, n + 1):
                gens.append(GeneratorDescriptor(
                    "xi", i, None, full ^ (1 << (i - 1))))
        return gens
    if kind == "sigma":
        if n < 7:
            raise ValueError("the minimal generator family needs n >= 7")
        return ([GeneratorDescriptor("rho", *pair) for pair in _pair_scalings(n, 1)]
                + _triple_shift_descriptors(n, include_i=False))
    if kind == "sigma_prime":
        return [GeneratorDescriptor("rho", *pair)
                for s in range(1, (n - 1) // 2 + 1) for pair in _pair_scalings(n, s)]
    raise ValueError(f"no generator family implemented for {group}")
