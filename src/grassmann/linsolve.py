"""Structured linear solvers over the Grassmann algebra.

Covers the triangular coordinate split of an arbitrary element, the two
first-order systems x_i * a = u_i and d_i(a) = u_i (solved explicitly, with
complete solvability detection), the canonical split of a homogeneous even
layer into per-coordinate blocks, and the kernel/section split of the
symbol-sum map used to coordinatize scaling automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import (
    GrassmannElement,
    indices_mask,
    lincomb,
    mask_str,
    restrict,
)
from .rings import Ring
from .skewcalc import apply_partial_word, coordinate_projection, skew_partial


class SolvabilityError(ValueError):
    """A system's solvability conditions fail; names the violated condition."""

    def __init__(self, condition: str, indices, message: str):
        super().__init__(message)
        self.condition = condition
        self.indices = tuple(indices)


class InternalSplitError(AssertionError):
    """A split produced a residual outside the section module."""


# -- triangular coordinate split -------------------------------------------

@dataclass(frozen=True)
class CoordinateSplit:
    """a = x1..xn * top + sum_i x1..xi * blocks[i+1] + blocks[1].

    ``top`` is a scalar; ``blocks[j]`` (1-based, j = 1..n) only involves
    generators of index > j.
    """

    top: object
    blocks: tuple

    def reassemble(self, ring: Ring, n: int) -> GrassmannElement:
        full = (1 << n) - 1
        acc = GrassmannElement.monomial(ring, n, full, self.top)
        for j in range(n, 0, -1):
            prefix = (1 << (j - 1)) - 1
            acc = acc + GrassmannElement.monomial(ring, n, prefix) * self.blocks[j - 1]
        return acc


def coordinate_split(a: GrassmannElement) -> CoordinateSplit:
    ring, n = a.ring, a.n
    top = apply_partial_word(a, (1 << n) - 1).constant_term()
    blocks = []
    blocks.append(coordinate_projection(1, a))
    for i in range(1, n):
        # block j = i+1: differentiate away the prefix after projecting out x_{i+1}
        b = apply_partial_word(coordinate_projection(i + 1, a), (1 << i) - 1)
        blocks.append(b)
    return CoordinateSplit(top=top, blocks=tuple(blocks))


# -- the system x_i * a = u_i ------------------------------------------------

@dataclass(frozen=True)
class SolutionFamily:
    """All solutions: particular + K-line spanned by ``free_direction``."""

    particular: GrassmannElement
    free_direction: GrassmannElement

    def at(self, c) -> GrassmannElement:
        return self.particular + self.free_direction.scale(c)


def solve_xi_system(u: list[GrassmannElement]) -> SolutionFamily:
    """Solve x_i * a = u_i for all i simultaneously.

    Solvable iff every u_i is divisible by x_i and x_i u_j = -x_j u_i for all
    i != j; the returned family is particular + K * (top monomial).
    """
    n = len(u)
    ring = u[0].ring
    for i in range(1, n + 1):
        if not u[i - 1].divisible_by(i):
            raise SolvabilityError(
                "membership", (i,),
                f"u_{i} is not a multiple of x{i}")
    gens = [GrassmannElement.generator(ring, n, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if gens[i - 1] * u[j - 1] + gens[j - 1] * u[i - 1]:
                raise SolvabilityError(
                    "anticommute", (i, j),
                    f"x{i}*u_{j} != -x{j}*u_{i}")
    top = GrassmannElement.monomial(ring, n, (1 << n) - 1)
    return SolutionFamily(particular=xi_particular(u), free_direction=top)


def xi_particular(u: list[GrassmannElement]) -> GrassmannElement:
    """The particular solution of x_i * a = u_i, without the solvability
    checks of ``solve_xi_system``: the sum over i of the part of d_i(u_i)
    whose monomials contain x_1..x_{i-1}.  That part is x_1...x_{i-1} times
    the composite derivative over x_1..x_{i-1} of d_i(u_i); the prefix leads
    every monomial it keeps, so no sign arises."""
    ring, n = u[0].ring, len(u)
    parts = []
    for i in range(1, n + 1):
        d = skew_partial(i, u[i - 1])
        prefix = (1 << (i - 1)) - 1
        parts.append(restrict(d, {m: c for m, c in d.num.items() if m & prefix == prefix}))
    return lincomb(ring, n, ((ring.one, part) for part in parts))


# -- the system d_i(a) = u_i --------------------------------------------------

def solve_partial_system(u: list[GrassmannElement]) -> SolutionFamily:
    """Solve skew_partial(i, a) = u_i for all i simultaneously.

    Solvable iff every u_i avoids x_i and the derivatives skew-anticommute:
    d_i(u_j) = -d_j(u_i); the family is particular + K * 1.  The particular
    solution is the sum over i of x_i times the part of u_i free of
    x_1..x_i: a mask filter, since x_i leads every monomial it multiplies.
    """
    n = len(u)
    ring = u[0].ring
    for i in range(1, n + 1):
        if not u[i - 1].support_avoids(i):
            raise SolvabilityError(
                "free", (i,),
                f"u_{i} involves x{i}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if skew_partial(i, u[j - 1]) + skew_partial(j, u[i - 1]):
                raise SolvabilityError(
                    "skew-symmetry", (i, j),
                    f"d{i}(u_{j}) != -d{j}(u_{i})")
    parts = []
    for i in range(1, n + 1):
        low, bit = (1 << i) - 1, 1 << (i - 1)
        e = u[i - 1]
        parts.append(restrict(e, {m | bit: c for m, c in e.num.items() if not m & low}))
    particular = lincomb(ring, n, ((ring.one, part) for part in parts))
    return SolutionFamily(particular=particular,
                          free_direction=GrassmannElement.one(ring, n))


# -- canonical split of a homogeneous even layer ------------------------------

@dataclass(frozen=True)
class LayerSplit2s:
    """A degree-2s element split by the largest absent generator index.

    ``parts[m]`` collects the monomials whose largest missing index is m; the
    labels run over m = n-2s .. n and part m avoids x_m while containing the
    full suffix x_{m+1}..x_n.
    """

    n: int
    s: int
    parts: dict

    def reassemble(self, ring: Ring) -> GrassmannElement:
        acc = GrassmannElement.zero(ring, self.n)
        for part in self.parts.values():
            acc = acc + part
        return acc


def layer_split(a: GrassmannElement, s: int) -> LayerSplit2s:
    n = a.n
    if not 1 <= s <= (n - 1) // 2:
        raise ValueError(f"layer index s={s} out of range 1..{(n - 1) // 2}")
    if not a.is_homogeneous(2 * s):
        raise ValueError(f"element is not homogeneous of degree {2 * s}")
    full = (1 << n) - 1
    buckets: dict[int, dict] = {}
    for mask, c in a.num.items():
        absent = full ^ mask
        label = absent.bit_length()  # largest missing 1-based index
        buckets.setdefault(label, {})[mask] = c
    # a degree-2s mask misses n - 2s >= 1 generators, so its label lies in
    # n-2s..n: every bucket is one of the parts
    parts = {label: restrict(a, buckets.get(label, {}))
             for label in range(n - 2 * s, n + 1)}
    return LayerSplit2s(n=n, s=s, parts=parts)


# -- avoidance tables and the kernel/section split ----------------------------

@dataclass(frozen=True)
class AvoidanceTable:
    """For fixed s: the admissible supports S'_i and a choice j_i on them.

    ``domain[i]`` lists the degree-2s supports avoiding i whose tail
    {i+1..n} is not fully contained; ``table[(i, mask)]`` picks an index

    j > i outside the support.  The canonical choice is the minimum.
    """

    n: int
    s: int
    domain: dict = field(repr=False)
    table: dict = field(repr=False)

    def target(self, i: int, mask: int) -> int:
        return self.table[(i, mask)]


def admissible_supports(n: int, s: int, i: int) -> list[int]:
    """Supports of degree 2s avoiding i with {i+1..n} not contained."""
    out = []
    others = [k for k in range(1, n + 1) if k != i]
    tail = indices_mask(range(i + 1, n + 1))
    for combo in combinations(others, 2 * s):
        mask = indices_mask(combo)
        if (mask & tail) != tail:
            out.append(mask)
    return out


def min_avoidance(n: int, s: int) -> AvoidanceTable:
    """The deterministic table choosing j_i(support) = min of {i+1..n} minus it."""
    if not 1 <= s <= (n - 1) // 2:
        raise ValueError(f"avoidance index s={s} out of range 1..{(n - 1) // 2}")
    domain = {}
    table = {}
    for i in range(1, n):
        masks = admissible_supports(n, s, i)
        domain[i] = masks
        for mask in masks:
            j = next(k for k in range(i + 1, n + 1) if not (mask >> (k - 1)) & 1)
            table[(i, mask)] = j
    return AvoidanceTable(n=n, s=s, domain=domain, table=table)


def kernel_split(v: list[GrassmannElement], s: int, avoid: AvoidanceTable):
    """Split v into kernel coordinates and a canonical residual.

    v is a tuple of n degree-2s components, the i-th avoiding x_i.  Returns
    (lambdas, residual) with lambdas keyed by (i, support mask) over the
    admissible supports and residual a LayerSplit2s whose label-m part is the
    final m-th component.
    """
    n = avoid.n
    ring = v[0].ring
    if len(v) != n:
        raise ValueError(f"expected {n} components, got {len(v)}")
    for i in range(1, n + 1):
        vi = v[i - 1]
        if not vi.support_avoids(i):
            raise ValueError(f"component {i} involves x{i}")
        if vi and not vi.is_homogeneous(2 * s):
            raise ValueError(f"component {i} is not homogeneous of degree {2 * s}")
    work = [dict(e.terms) for e in v]
    lambdas = {}
    for i in range(1, n):
        for mask in avoid.domain[i]:
            c = work[i - 1].pop(mask, None)
            if c is None or c == 0:
                continue
            lambdas[(i, mask)] = c
            j = avoid.target(i, mask)
            tgt = work[j - 1]
            acc = tgt.get(mask, ring.zero) + c
            acc = ring.normalize(acc)
            if acc == 0:
                tgt.pop(mask, None)
            else:
                tgt[mask] = acc
    residual_parts = {}
    full = (1 << n) - 1
    for i in range(1, n + 1):
        e = GrassmannElement(ring, n, work[i - 1])
        for mask in e.terms:
            label = (full ^ mask).bit_length()
            if label != i:
                raise InternalSplitError(
                    f"residual component {i} holds monomial {mask_str(mask)} "
                    f"with absent-index label {label}")
        if i >= n - 2 * s:
            residual_parts[i] = e
        elif e:
            raise InternalSplitError(f"residual component {i} is nonzero")
    return lambdas, LayerSplit2s(n=n, s=s, parts=residual_parts)
