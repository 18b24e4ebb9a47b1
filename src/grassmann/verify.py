"""The seeded verification battery.

Each check draws its samples deterministically from a top-level seed (fanned
out per sample index), runs an exact property, and reports a result row.  The
CLI ``verify`` subcommand prints the rows; the tests call the same functions
with their own sample counts.

A sampled check is written as the body of one sample under ``@_sampled``,
which holds the one sampling loop: it spawns each sample's generator from the
seed, the check's tag and the sample index, collects the failure messages the
body yields, and builds the row.  Only checks that carry more than a failure
list across samples, that also test cases which are not sampled, or that take
no ``n`` keep a loop of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    GrassmannElement,
    check_n,
    component,
    dot,
    even_part,
    indices_mask,
    involution,
    invert_unit,
    odd_part,
)
from .dims import DIM_GROUPS, dim_by_coordinates, dim_formula
from .endo import (
    Endomorphism,
    format_endomorphism,
    identity_endo,
    inner,
    linear_endo,
    shift_endo,
)
from .groups import (
    GAMMA,
    GroupId,
    NoPreimageError,
    OMEGA,
    PHI,
    SIGMA,
    SIGMA_PRIME,
    SIGMA_DOUBLE_PRIME,
    U,
    decompose_gamma,
    decompose_layers,
    decompose_omega_gamma_linear,
    decompose_sigma_prime,
    decompose_unipotent,
    jacobian_preimage,
    layer_scaling,
    member,
)
from .identities import (
    _top_shift,
    check_al2,
    check_com1,
    check_dvac1,
    check_dvac2,
    check_g3ab,
    check_g4ab,
    check_g5ab,
    check_g6ab,
    check_gcom1,
    check_gcom2,
    check_group_law_n3,
    check_invabA,
    check_mul1,
    check_slsA,
    check_xijam,
    check_xijam1,
    check_xipq1,
    check_xipq2,
    nonnormality_witness,
)
from .linsolve import SolvabilityError, solve_partial_system, solve_xi_system
from .rings import GF, Ring, mat_mul
from .sampling import (
    random_element,
    random_even,
    random_gamma,
    random_gamma_gl,
    random_gamma_pow,
    random_invertible_matrix,
    random_linear,
    random_odd,
    random_omega,
    random_phi,
    random_shift_word,
    random_sigma_prime_word,
    random_sigma_word,
    random_unipotent,
    spawn,
)
from .skewcalc import (
    apply_partial_word,
    coordinate_projection,
    phi_projection,
    phi_projection_by_composition,
    skew_partial,
    taylor_reconstruct,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    samples: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.name} ({self.samples} checks){extra}"


def _result(name, failures, samples):
    if failures:
        return CheckResult(name, False, samples, f"first failure: {failures[0]}")
    return CheckResult(name, True, samples)


def _sampled(tag: str, title: str):
    """Make a sampled check ``(ring, n, samples, seed) -> CheckResult`` from
    ``body(ring, n, k, rng)``, a generator yielding one message per failure.

    The body runs for k = 0, ..., samples - 1 with ``rng = spawn(seed, tag,
    k)``; the row is named ``title.format(n=n, ring=ring)``.
    """
    def wrap(body):
        def check(ring: Ring, n: int, samples: int, seed) -> CheckResult:
            failures = []
            for k in range(samples):
                failures.extend(body(ring, n, k, spawn(seed, tag, k)))
            return _result(title.format(n=n, ring=ring), failures, samples)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check

    return wrap


def _gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


# ---------------------------------------------------------------------------
# algebra suite

@_sampled("assoc", "associativity n={n}")
def check_associativity(ring, n, k, rng):
    e = random_element(rng, ring, n, terms=3)
    f = random_element(rng, ring, n, terms=3)
    g = random_element(rng, ring, n, terms=3)
    if (e * f) * g != e * (f * g):
        yield f"sample {k}"


def check_defining_relations(ring: Ring, n: int) -> CheckResult:
    failures = []
    zero = GrassmannElement.zero(ring, n)
    for i in range(1, n + 1):
        xi = _gen(ring, n, i)
        if xi * xi != zero:
            failures.append(f"x{i}^2 != 0")
        for j in range(1, n + 1):
            if i != j and _gen(ring, n, i) * _gen(ring, n, j) + _gen(ring, n, j) * _gen(ring, n, i) != zero:
                failures.append(f"x{i},x{j} do not anticommute")
    return _result(f"defining relations n={n}", failures, n * n)


@_sampled("nilp", "nilpotency of the augmentation ideal n={n}")
def check_nilpotency(ring, n, k, rng):
    acc = GrassmannElement.one(ring, n)
    for _ in range(n + 1):
        acc = acc * random_element(rng, ring, n, degrees=range(1, n + 1), terms=3)
    if acc:
        yield f"sample {k}"


@_sampled("invo", "involution properties n={n}")
def check_involution(ring, n, k, rng):
    e = random_element(rng, ring, n, terms=4)
    f = random_element(rng, ring, n, terms=4)
    if involution(e * f) != involution(e) * involution(f):
        yield f"multiplicative: sample {k}"
    if involution(involution(e)) != e:
        yield f"order two: sample {k}"
    for i in range(1, n + 1):
        if _gen(ring, n, i) * e != involution(e) * _gen(ring, n, i):
            yield f"normality at x{i}: sample {k}"


def check_center(ring: Ring, n: int) -> CheckResult:
    """Brute-force the commutant of the generators over the monomial basis."""
    central = []
    for mask in range(1 << n):
        e = GrassmannElement.monomial(ring, n, mask)
        if all(e * _gen(ring, n, i) == _gen(ring, n, i) * e for i in range(1, n + 1)):
            central.append(mask)
    expected = [m for m in range(1 << n) if m.bit_count() % 2 == 0]
    if n % 2 == 1:
        expected.append((1 << n) - 1)
    ok = sorted(central) == sorted(expected)
    return CheckResult(f"center basis n={n}", ok, 1 << n,
                       "" if ok else f"got {central}")


@_sampled("oddsq", "odd squares and norm form n={n}")
def check_odd_squares(ring, n, k, rng):
    zero = GrassmannElement.zero(ring, n)
    a = random_odd(rng, ring, n, terms=4)
    if a * a != zero:
        yield f"square: sample {k}"
    e = random_element(rng, ring, n, terms=4)
    ev = even_part(e)
    if e * involution(e) != ev * ev:
        yield f"norm form: sample {k}"


@_sampled("unit", "unit inversion n={n}")
def check_unit_inversion(ring, n, k, rng):
    """e * e^-1 = 1 for units e = c + f with f nilpotent.

    Besides four random terms, f holds x_a x_b for each pair of a random
    pairing of the generators (x_c for the one left over at odd n), so f^k
    is nonzero up to k = ceil(n/2), the longest geometric series that
    ``invert_unit`` sums; random terms alone rarely reach past f^2.
    """
    one = GrassmannElement.one(ring, n)
    e = one.scale(ring.random_nonzero(rng)) + random_element(
        rng, ring, n, degrees=range(1, n + 1), terms=4)
    order = rng.sample(range(1, n + 1), n)
    for i in range(0, n, 2):
        e = e + GrassmannElement.monomial(
            ring, n, indices_mask(order[i:i + 2]), ring.random_nonzero(rng))
    if e * invert_unit(e) != one:
        yield f"sample {k}"


# ---------------------------------------------------------------------------
# calculus suite

@_sampled("leib", "skew Leibniz rule n={n}")
def check_skew_leibniz(ring, n, k, rng):
    d = rng.randrange(0, n + 1)
    e = random_element(rng, ring, n, degrees=[d], terms=3)
    f = random_element(rng, ring, n, terms=3)
    i = rng.randrange(1, n + 1)
    lhs = skew_partial(i, e * f)
    rhs = skew_partial(i, e) * f + (e * skew_partial(i, f)).scale(
        ring.from_int(-1 if d % 2 else 1))
    if lhs != rhs:
        yield f"sample {k}"


@_sampled("oprel", "derivative relations n={n}")
def check_operator_relations(ring, n, k, rng):
    e = random_element(rng, ring, n, terms=4)
    i = rng.randrange(1, n + 1)
    j = rng.randrange(1, n + 1)
    if skew_partial(i, skew_partial(i, e)):
        yield f"d{i}^2: sample {k}"
    if skew_partial(i, skew_partial(j, e)) + skew_partial(j, skew_partial(i, e)):
        if i != j:
            yield f"anticommute d{i},d{j}: sample {k}"
    lhs = skew_partial(i, _gen(ring, n, j) * e) + _gen(ring, n, j) * skew_partial(i, e)
    rhs = e if i == j else GrassmannElement.zero(ring, n)
    if lhs != rhs:
        yield f"mixed relation d{i},x{j}: sample {k}"


@_sampled("proj", "projection operators n={n}")
def check_projections(ring, n, k, rng):
    e = random_element(rng, ring, n, terms=4)
    i = rng.randrange(1, n + 1)
    if coordinate_projection(i, coordinate_projection(i, e)) != coordinate_projection(i, e):
        yield f"idempotence: sample {k}"
    # expansion of the constant-term projection as alternating word sums
    expansion = GrassmannElement.zero(ring, n)
    for mask in range(1 << n):
        term = GrassmannElement.monomial(ring, n, mask) * apply_partial_word(e, mask)
        expansion = expansion + (term if mask.bit_count() % 2 == 0 else -term)
    byphi = phi_projection_by_composition(e)
    if expansion != byphi:
        yield f"expansion: sample {k}"
    if byphi != GrassmannElement.scalar(ring, n, phi_projection(e)):
        yield f"constant term: sample {k}"


@_sampled("taylor", "Taylor reconstruction n={n}")
def check_taylor(ring, n, k, rng):
    e = random_element(rng, ring, n, terms=5)
    if taylor_reconstruct(e, "at_zero") != e:
        yield f"at_zero: sample {k}"
    if taylor_reconstruct(e, "projected") != e:
        yield f"projected: sample {k}"


@_sampled("idop", "identity-operator decomposition n={n}")
def check_identity_operator(ring, n, k, rng):
    """Triangular identity decomposition built from derivative words."""
    full = (1 << n) - 1
    e = random_element(rng, ring, n, terms=5)
    acc = GrassmannElement.monomial(ring, n, full) * apply_partial_word(e, full)
    for i in range(1, n):
        prefix = (1 << i) - 1
        acc = acc + GrassmannElement.monomial(ring, n, prefix) * apply_partial_word(
            coordinate_projection(i + 1, e), prefix)
    acc = acc + coordinate_projection(1, e)
    if acc != e:
        yield f"sample {k}"


@_sampled("tsub", "substitution as derivative expansion n={n}")
def check_taylor_substitution(ring, n, k, rng):
    """Applying a shift automorphism equals the derivative-expansion sum."""
    gamma = random_gamma(rng, ring, n, terms=2)
    f = random_element(rng, ring, n, terms=4)
    shifts = [gamma.images[i] - _gen(ring, n, i + 1) for i in range(n)]
    acc = GrassmannElement.zero(ring, n)
    for mask in range(1 << n):
        d = apply_partial_word(f, mask)
        if not d:
            continue
        prod = GrassmannElement.one(ring, n)
        for i in range(1, n + 1):
            if (mask >> (i - 1)) & 1:
                prod = prod * shifts[i - 1]
        acc = acc + prod * d
    if acc != gamma.apply(f):
        yield f"sample {k}"


# ---------------------------------------------------------------------------
# solver suite

@_sampled("xisys", "normal-multiplication solver n={n}")
def check_xi_solver(ring, n, k, rng):
    a = random_element(rng, ring, n, terms=4)
    u = [_gen(ring, n, i) * a for i in range(1, n + 1)]
    family = solve_xi_system(u)
    for c in (ring.zero, ring.one):
        sol = family.at(c)
        if any(_gen(ring, n, i) * sol != u[i - 1] for i in range(1, n + 1)):
            yield f"substitution: sample {k}"
            break
    diff = family.particular - a
    if any(m != (1 << n) - 1 for m in diff.num):
        yield f"family misses the generator: sample {k}"
    # inconsistent perturbations must be rejected with the right condition
    i0 = rng.randrange(1, n + 1)
    bad = list(u)
    bad[i0 - 1] = bad[i0 - 1] + GrassmannElement.monomial(
        ring, n, indices_mask([j for j in range(1, n + 1) if j != i0][:1]))
    try:
        solve_xi_system(bad)
        yield f"missed membership violation: sample {k}"
    except SolvabilityError as err:
        if err.condition != "membership" or err.indices != (i0,):
            yield f"wrong condition {err.condition}: sample {k}"


@_sampled("xipair", "pair-condition rejection n={n}")
def check_xi_solver_pair_rejection(ring, n, k, rng):
    a = random_element(rng, ring, n, terms=3)
    u = [_gen(ring, n, i) * a for i in range(1, n + 1)]
    i0 = rng.randrange(1, n + 1)
    # stay inside (x_i0) but break the pair condition
    others = [j for j in range(1, n + 1) if j != i0]
    mask = indices_mask([i0, others[0]])
    bad = list(u)
    bad[i0 - 1] = bad[i0 - 1] + GrassmannElement.monomial(ring, n, mask)
    try:
        solve_xi_system(bad)
        sol_ok = all(_gen(ring, n, i) * solve_xi_system(bad).particular == bad[i - 1]
                     for i in range(1, n + 1))
        if not sol_ok:
            yield f"accepted inconsistent system: sample {k}"
    except SolvabilityError as err:
        if err.condition != "anticommute" or i0 not in err.indices:
            yield f"wrong condition {err.condition}@{err.indices}: sample {k}"


@_sampled("dsys", "derivative-system solver n={n}")
def check_partial_solver(ring, n, k, rng):
    a = random_element(rng, ring, n, terms=4)
    u = [skew_partial(i, a) for i in range(1, n + 1)]
    family = solve_partial_system(u)
    sol = family.at(ring.random(rng))
    if any(skew_partial(i, sol) != u[i - 1] for i in range(1, n + 1)):
        yield f"substitution: sample {k}"
    if (family.particular - a).max_degree() > 0:
        yield f"family misses the generator: sample {k}"
    i0 = rng.randrange(1, n + 1)
    bad = list(u)
    bad[i0 - 1] = bad[i0 - 1] + _gen(ring, n, i0)
    try:
        solve_partial_system(bad)
        yield f"missed free-variable violation: sample {k}"
    except SolvabilityError as err:
        if err.condition != "free" or err.indices != (i0,):
            yield f"wrong condition {err.condition}: sample {k}"


@_sampled("dpair", "skew-symmetry rejection n={n}")
def check_partial_solver_pair_rejection(ring, n, k, rng):
    a = random_element(rng, ring, n, terms=3)
    u = [skew_partial(i, a) for i in range(1, n + 1)]
    i0, j0 = 1, 2
    bad = list(u)
    # perturb u_i0 by a monomial avoiding x_i0 but containing x_j0
    mask = indices_mask([j0] + [j for j in range(1, n + 1) if j not in (i0, j0)][:1])
    bad[i0 - 1] = bad[i0 - 1] + GrassmannElement.monomial(ring, n, mask)
    try:
        solve_partial_system(bad)
        sol = solve_partial_system(bad).particular
        if any(skew_partial(i, sol) != bad[i - 1] for i in range(1, n + 1)):
            yield f"accepted inconsistent system: sample {k}"
    except SolvabilityError as err:
        if err.condition != "skew-symmetry":
            yield f"wrong condition {err.condition}: sample {k}"


# ---------------------------------------------------------------------------
# endomorphism suite

@_sampled("inv", "inversion strategies n={n} ({ring!r})")
def check_inverse_strategies(ring, n, k, rng):
    ident = identity_endo(ring, n)
    sigma = random_gamma_gl(rng, ring, n)
    by_iter = sigma._inverse_iteration()
    by_formula = sigma._inverse_formula()
    if by_iter != by_formula:
        yield f"strategy mismatch on sample {k}: {format_endomorphism(sigma)}"
        return
    if sigma.compose(by_iter) != ident or by_iter.compose(sigma) != ident:
        yield f"not a two-sided inverse on sample {k}: {format_endomorphism(sigma)}"


@_sampled("chain", "chain rules n={n}")
def check_chain_rule(ring, n, k, rng):
    sigma = random_gamma_gl(rng, ring, n)
    tau = random_gamma_gl(rng, ring, n)
    js, jt = sigma.jacobian(), tau.jacobian()
    st = sigma.compose(tau)
    jst = st.jacobian()
    # matrix chain rule: entry (i, j) of the composite matrix
    js_cols = list(zip(*js.matrix))
    moved = sigma.apply_all([entry for row in jt.matrix for entry in row]
                            + [jt.det])
    for i in range(n):
        row = moved[i * n:(i + 1) * n]
        for j in range(n):
            if dot(ring, n, zip(row, js_cols[j]), n) != jst.matrix[i][j]:
                yield f"matrix entry ({i + 1},{j + 1}): sample {k}"
                break
        else:
            continue
        break
    if jst.det != moved[-1] * js.det:
        yield f"determinant chain rule: sample {k}"
    sigma_inv = sigma.inverse()
    if sigma_inv.jacobian().det != sigma_inv.apply(invert_unit(js.det)):
        yield f"inverse determinant rule: sample {k}"


@_sampled("inner", "inner automorphisms n={n}")
def check_inner_properties(ring, n, k, rng):
    one = GrassmannElement.one(ring, n)
    a = random_odd(rng, ring, n, terms=3)
    b = random_odd(rng, ring, n, terms=3)
    if inner(one + a).compose(inner(one + b)) != inner(one + a + b):
        yield f"additivity: sample {k}"
    conj = inner(one + a)
    for i in range(1, n + 1):
        x = _gen(ring, n, i)
        if conj.images[i - 1] != x + (a * x - x * a):
            yield f"bracket form at x{i}: sample {k}"
            break
    lam = ring.random_nonzero(rng)
    if inner(GrassmannElement.scalar(ring, n, lam)) != identity_endo(ring, n):
        yield f"scalar conjugation: sample {k}"


@_sampled("dual", "dual derivatives n={n}")
def check_dual_derivatives(ring, n, k, rng):
    sigma = random_gamma_gl(rng, ring, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = sigma.dual_skew_partial(i, sigma.images[j - 1])
            want = (GrassmannElement.one(ring, n) if i == j
                    else GrassmannElement.zero(ring, n))
            if got != want:
                yield f"delta property ({i},{j}): sample {k}"
    e = random_element(rng, ring, n, terms=3)
    i = rng.randrange(1, n + 1)
    if sigma.dual_skew_partial(i, sigma.dual_skew_partial(i, e)):
        yield f"square zero: sample {k}"


@_sampled("complaw", "composition conventions n={n}")
def check_composition_laws(ring, n, k, rng):
    mat_a = random_invertible_matrix(rng, ring, n)
    mat_b = random_invertible_matrix(rng, ring, n)
    if linear_endo(ring, mat_a).compose(linear_endo(ring, mat_b)) != linear_endo(
            ring, mat_mul(ring, mat_b, mat_a)):
        yield f"linear law: sample {k}"
    b = random_gamma(rng, ring, n, terms=2)
    c = random_gamma(rng, ring, n, terms=2)
    composed = b.compose(c)
    resub = Endomorphism([b.apply(c.images[i]) for i in range(n)], check=False)
    if composed != resub:
        yield f"substitution law: sample {k}"


# ---------------------------------------------------------------------------
# factorization suite

@_sampled("oga", "inner*shift*linear factorization n={n}")
def check_oga_roundtrip(ring, n, k, rng):
    omega = random_omega(rng, ring, n, terms=2)
    gamma = random_gamma(rng, ring, n, terms=2)
    lin = random_linear(rng, ring, n)
    sigma = omega.compose(gamma).compose(lin)
    fact = decompose_omega_gamma_linear(sigma)
    if fact.recompose(ring, n) != sigma:
        yield f"recomposition failed on sample {k}: {format_endomorphism(sigma)}"
    gamma_back = shift_endo(ring, n, fact.b)
    if gamma_back != gamma or linear_endo(ring, fact.matrix) != lin:
        yield f"parts not recovered: sample {k}"
    if not member(inner(GrassmannElement.one(ring, n) + fact.a), OMEGA):
        yield f"inner part outside the inner group: sample {k}"
    if not member(gamma_back, GAMMA):
        yield f"shift part outside the shift group: sample {k}"


@_sampled("uni", "alternating unipotent factorization n={n}")
def check_unipotent_roundtrip(ring, n, k, rng):
    sigma = random_unipotent(rng, ring, n, factors=3)
    word = decompose_unipotent(sigma)
    if word.recompose() != sigma:
        yield f"recomposition failed on sample {k}: {format_endomorphism(sigma)}"
    for level_kind, data in word.factors:
        if level_kind == "inner":
            if data != odd_part(data):
                yield f"inner factor not odd: sample {k}"
        else:
            if any(b != odd_part(b) for b in data):
                yield f"shift factor not odd: sample {k}"


@_sampled("gword", "scaling/shift factorization n={n}")
def check_gamma_word_roundtrip(ring, n, k, rng):
    # every third input lies in the Jacobian-1 group, so the last property
    # below has inputs it applies to
    choice = k % 3
    if choice == 0:
        sigma = random_gamma(rng, ring, n, terms=2)
    elif choice == 1:
        sigma = random_phi(rng, ring, n).compose(random_shift_word(rng, ring, n))
    else:
        sigma = random_sigma_word(rng, ring, n, length=3)
    word = decompose_gamma(sigma)
    if word.recompose() != sigma:
        yield f"recomposition failed on sample {k}: {format_endomorphism(sigma)}"
    if not member(word.phi, PHI):
        yield f"scaling part outside its group: sample {k}"
    if member(sigma, SIGMA) and not member(word.phi, SIGMA_PRIME):
        yield f"Jacobian-1 input with non-Jacobian-1 scaling part: sample {k}"


@_sampled("spword", "pair-scaling coordinates n={n}")
def check_sigma_prime_roundtrip(ring, n, k, rng):
    sigma = random_sigma_prime_word(rng, ring, n, length=4)
    word = decompose_sigma_prime(sigma)
    if word.recompose() != sigma:
        yield f"recomposition failed on sample {k}: {format_endomorphism(sigma)}"


@_sampled("layers", "layer factorization n={n}")
def check_layers_roundtrip(ring, n, k, rng):
    if k % 2 == 0:
        sigma = random_gamma(rng, ring, n, terms=2)
    else:
        # high-valuation inputs exercise the vanishing of the low layers
        sigma = random_gamma_pow(rng, ring, n, 5).compose(
            random_sigma_word(rng, ring, n, length=2))
    word = decompose_layers(sigma)
    if word.recompose() != sigma:
        yield f"recomposition failed on sample {k}: {format_endomorphism(sigma)}"
    if not member(word.tail, SIGMA):
        yield f"tail outside the Jacobian-1 group: sample {k}"
    # ascent members must have vanishing low layers
    level = sigma.jacobian().valuation
    for s in range(1, min(level // 2, (n - 1) // 2 + 1)):
        if word.layers.get(s):
            yield f"nonzero layer below the valuation: sample {k}"


# ---------------------------------------------------------------------------
# group suite

@_sampled("closure", "Jacobian-1 group closure n={n}")
def check_sigma_closure(ring, n, k, rng):
    sigma = random_sigma_word(rng, ring, n, length=4)
    tau = random_sigma_word(rng, ring, n, length=4)
    if not member(sigma.compose(tau), SIGMA):
        yield f"product: sample {k}"
    if not member(sigma.inverse(), SIGMA):
        yield f"inverse: sample {k}"


@_sampled("coset", "coset criterion n={n}")
def check_coset_criterion(ring, n, k, rng):
    sigma = random_gamma(rng, ring, n, terms=2)
    tau_same = sigma.compose(random_sigma_word(rng, ring, n, length=3))
    if sigma.jacobian().det != tau_same.jacobian().det:
        yield f"same-coset Jacobians differ: sample {k}"
    if not member(sigma.inverse().compose(tau_same), SIGMA):
        yield f"same-coset quotient outside: sample {k}"
    tau_other = random_gamma(rng, ring, n, terms=2)
    same_j = sigma.jacobian().det == tau_other.jacobian().det
    in_coset = member(sigma.inverse().compose(tau_other), SIGMA)
    if same_j != in_coset:
        yield f"criterion mismatch: sample {k}"


@_sampled("ascent", "ascent chain n={n}")
def check_ascent_chain(ring, n, k, rng):
    for s in range(1, (n - 1) // 2 + 1):
        level = 2 * s + 1
        sigma = random_gamma_pow(rng, ring, n, level)
        if not member(sigma, GroupId("gamma_asc", 2 * s)):
            yield f"filtration not inside ascent 2s={2 * s}: sample {k}"
    sigma = random_gamma(rng, ring, n, terms=2)
    val = sigma.jacobian().valuation
    for s in range(1, (n - 1) // 2 + 2):
        expected = val >= 2 * s
        if member(sigma, GroupId("gamma_asc", 2 * s)) != expected:
            yield f"monotone valuation failed at 2s={2 * s}: sample {k}"


def check_even_collapse(ring: Ring, n: int, samples: int, seed) -> CheckResult:
    """Even n: any sampled map with valuation >= n has Jacobian exactly 1."""
    if n % 2:
        raise ValueError("collapse check is for even n")
    failures = []
    one = GrassmannElement.one(ring, n)
    seen_high = 0
    for k in range(samples):
        rng = spawn(seed, "collapse", k)
        choice = k % 3
        if choice == 0:
            sigma = random_gamma(rng, ring, n, terms=2)
        elif choice == 1:
            sigma = random_gamma_pow(rng, ring, n, 5).compose(
                random_sigma_word(rng, ring, n, length=3))
        else:
            sigma = random_sigma_word(rng, ring, n, length=4)
        jd = sigma.jacobian()
        if jd.valuation >= n:
            seen_high += 1
            if jd.det != one:
                failures.append(f"valuation >= n with Jacobian != 1: sample {k}")
    if seen_high == 0:
        failures.append("no high-valuation samples seen")
    return _result(f"even-n ascent collapse n={n}", failures, samples)


def check_ascent_distinctness(ring: Ring, n: int) -> CheckResult:
    """Explicit layer witnesses separating consecutive ascents below collapse."""
    failures = []
    top_s = (n - 1) // 2
    for s in range(1, top_s + 1):
        a = GrassmannElement.monomial(ring, n, indices_mask(range(n - 2 * s + 1, n + 1)))
        witness = layer_scaling(ring, n, s, a)
        val = witness.jacobian().valuation
        if val != 2 * s:
            failures.append(f"witness at 2s={2 * s} has valuation {val}")
        if not member(witness, GroupId("gamma_asc", 2 * s)):
            failures.append(f"witness not inside ascent 2s={2 * s}")
        if member(witness, GroupId("gamma_asc", 2 * s + 2)):
            failures.append(f"witness not separating at 2s={2 * s}")
    return _result(f"ascent distinctness witnesses n={n}", failures, top_s)


def check_membership_basics(ring: Ring, n: int, samples: int, seed) -> CheckResult:
    failures = []
    ident = identity_endo(ring, n)
    groups = [OMEGA, GAMMA, U, PHI, SIGMA, SIGMA_PRIME, SIGMA_DOUBLE_PRIME,
              GroupId("g_even"), GroupId("g_odd"), GroupId("phi_prime")]
    for g in groups:
        if not member(ident, g):
            failures.append(f"identity outside {g}")
    for k in range(samples):
        rng = spawn(seed, "member", k)
        omega = random_omega(rng, ring, n, terms=2)
        if not member(omega, OMEGA):
            failures.append(f"inner sample outside inner group: sample {k}")
        diffs_even = all(
            not odd_part(omega.images[i] - _gen(ring, n, i + 1)) for i in range(n))
        if not diffs_even:
            failures.append(f"inner image differences not even: sample {k}")
        if member(omega, GAMMA) and not omega.is_identity():
            failures.append(f"nontrivial inner map inside the odd-shift group: sample {k}")
        xi = random_shift_word(rng, ring, n, length=2)
        if not member(xi, SIGMA):
            failures.append(f"shift word outside Jacobian-1 group: sample {k}")
        if not member(xi, SIGMA_DOUBLE_PRIME):
            failures.append(f"shift word outside its own subgroup: sample {k}")
    return _result(f"membership basics n={n}", failures, samples)


@_sampled("graded", "cyclically graded subgroups n={n}")
def check_graded_groups(ring, n, k, rng):
    """Automorphisms respecting a cyclic grading factor per the step's parity."""
    for s in range(2, n + 1):
        if s % 2 == 0:
            degrees = [1 + j * s for j in range(1, (n - 1) // s + 1) if 1 + j * s <= n]
            shifts = [random_element(rng, ring, n, degrees=degrees, terms=1)
                      if degrees else None for _ in range(n)]
            cand = shift_endo(ring, n, shifts).compose(random_linear(rng, ring, n))
        else:
            degrees = [j * s for j in range(1, n // s + 1, 2)]
            a = (random_element(rng, ring, n, degrees=degrees, terms=1)
                 if degrees else GrassmannElement.zero(ring, n))
            cand = inner(GrassmannElement.one(ring, n) + a).compose(
                random_linear(rng, ring, n))
        if not member(cand, GroupId("g_zgraded", s)):
            yield f"graded construction escapes mod-{s} grading: sample {k}"


# ---------------------------------------------------------------------------
# dimensions, exhaustive small cases, preimages

def check_dimension_tables() -> CheckResult:
    failures = []
    count = 0
    for n in range(4, 11):
        for g in DIM_GROUPS:
            count += 1
            if dim_formula(g, n) != dim_by_coordinates(g, n):
                failures.append(f"{g} at n={n}")
        for s in range(1, n // 2 + 2):
            count += 1
            tag = f"gamma-asc:{2 * s}"
            if dim_formula(tag, n) != dim_by_coordinates(tag, n):
                failures.append(f"{tag} at n={n}")
    return _result("dimension formulas vs coordinate counts", failures, count)


def check_dimension_consistency() -> CheckResult:
    failures = []
    count = 0
    for n in range(4, 11):
        count += 2
        pi = 2 if n % 2 == 0 else 1
        if dim_formula("sigma", n) != dim_formula("sigma_prime", n) + dim_formula("xi_space", n):
            failures.append(f"product decomposition at n={n}")
        if dim_formula("gamma", n) != dim_formula("sigma", n) + (2 ** (n - 1) - pi):
            failures.append(f"quotient count at n={n}")
        count += 1
        if dim_formula("sigma_double_prime", n) != dim_formula("sigma", n) - (n - 3) * (
                n * (n - 1) // 2):
            failures.append(f"normal-subgroup count at n={n}")
    return _result("dimension consistency identities", failures, count)


def check_n3_exhaustive() -> CheckResult:
    """n = 3 over GF(3): the Jacobian map is a bijection and its kernel is trivial."""
    p, n = 3, 3
    ring = GF(p)
    failures = []
    seen = {}
    count = 0
    for l1 in range(p):
        for l2 in range(p):
            for l3 in range(p):
                sigma = _top_shift(ring, n, (l1, l2, l3))
                if not member(sigma, GAMMA):
                    failures.append(f"{(l1, l2, l3)} outside the shift group")
                det = sigma.jacobian().det
                key = tuple(sorted(det.num.items()))
                if key in seen:
                    failures.append(f"Jacobian collision {(l1, l2, l3)} vs {seen[key]}")
                seen[key] = (l1, l2, l3)
                if det == GrassmannElement.one(ring, n) and (l1, l2, l3) != (0, 0, 0):
                    failures.append(f"nontrivial Jacobian-1 map {(l1, l2, l3)}")
                count += 1
    # image must be all of 1 + (degree-2 part): p^3 elements
    if len(seen) != p ** 3:
        failures.append(f"image size {len(seen)} != {p ** 3}")
    for key in seen:
        masks = {m for m, _ in key}
        if not masks <= {0, 0b011, 0b101, 0b110}:
            failures.append(f"image element has unexpected support {masks}")
    return _result(f"n=3 exhaustive over GF({p})", failures, count)


@_sampled("preim", "odd-n Jacobian surjectivity n={n}")
def check_preimage_odd(ring, n, k, rng):
    u = GrassmannElement.one(ring, n) + random_even(rng, ring, n, terms=4)
    result = jacobian_preimage(u)
    if result.achieved != u:
        yield f"Jacobian mismatch: sample {k}"
    if result.sigma.jacobian().det != u:
        yield f"verification mismatch: sample {k}"
    if not member(result.sigma, GAMMA):
        yield f"preimage outside the shift group: sample {k}"


def check_preimage_even_refusal(ring: Ring, n: int, samples: int, seed) -> CheckResult:
    failures = []
    one = GrassmannElement.one(ring, n)
    theta = (1 << n) - 1
    target = one + GrassmannElement.monomial(ring, n, theta)
    try:
        jacobian_preimage(target, exact=True)
        failures.append("exact preimage of 1 + top monomial not refused")
    except NoPreimageError:
        pass
    inexact = jacobian_preimage(target, exact=False)
    if inexact.forced_top == ring.one:
        failures.append("forced top coefficient should differ from 1")
    for k in range(samples):
        rng = spawn(seed, "noipre", k)
        sigma = random_gamma(rng, ring, n, terms=2)
        det = sigma.jacobian().det
        diff = det - one
        if diff and set(diff.num) == {theta}:
            failures.append(f"Jacobian landed in 1 + K* top: sample {k}")
    return _result(f"even-n top-layer refusal n={n}", failures, samples)


# ---------------------------------------------------------------------------
# identity suite

def check_identity_battery(ring: Ring, seed) -> CheckResult:
    failures = []
    rng = spawn(seed, "ident")
    lam, mu, nu = (ring.random_nonzero(rng) for _ in range(3))
    cases = [
        ("gcom1", lambda: check_gcom1(ring, 7, 1, 2, (3, 4, 5), (6, 7), lam, mu)),
        ("gcom2", lambda: check_gcom2(ring, 6, 1, (2, 3), (4, 5, 6), lam, mu)),
        ("xijam", lambda: check_xijam(ring, 7, 1, 2, (3, 4), (5, 6, 7), lam, mu)),
        ("xijam1-overlap", lambda: check_xijam1(ring, 5, 1, 2, (3, 4, 5), (3, 4, 5), lam, mu)),
        ("xijam1-disjoint", lambda: check_xijam1(ring, 8, 1, 2, (3, 4, 5), (6, 7, 8), lam, mu)),
        ("com1", lambda: check_com1(ring, 6, 1, 2, (3, 4), (5, 6), lam, mu)),
        ("dvac1", lambda: check_dvac1(ring, 8, 1, 2, (3, 4), (5, 6), (7, 8), lam, mu, nu)),
        ("dvac2-overlap", lambda: check_dvac2(
            ring, 7, 1, 2, (3, 4), (5, 6), (3, 6, 7), lam, mu, nu)),
        ("g3ab-m1", lambda: check_g3ab(ring, 5, (1, 2, 3, 4, 5), lam)),
        ("g3ab-m2", lambda: check_g3ab(ring, 7, (1, 2, 3, 4, 5, 6, 7), lam)),
        ("g4ab-m2", lambda: check_g4ab(ring, 6, 1, (2, 3, 4, 5, 6), lam)),
        ("g4ab-m3", lambda: check_g4ab(ring, 8, 2, (1, 3, 4, 5, 6, 7, 8), lam)),
        ("g6ab-m1", lambda: check_g6ab(ring, 5, (1, 2, 3), lam)),
        ("g6ab-m2", lambda: check_g6ab(ring, 5, (1, 2, 3, 4, 5), lam)),
        ("g6ab-m3", lambda: check_g6ab(ring, 7, (1, 2, 3, 4, 5, 6, 7), lam)),
        ("xipq1-m0", lambda: check_xipq1(ring, 8, 1, 2, (), 3, 4, 5, lam)),
        ("xipq2-m0", lambda: check_xipq2(ring, 7, 1, 2, ((3, 4),), 5, 6, 7, lam)),
        ("nonnormality", lambda: nonnormality_witness(ring)),
    ]
    for name, runner in cases:
        try:
            if not runner():
                failures.append(name)
        except Exception as err:  # pragma: no cover - diagnosis aid
            failures.append(f"{name} raised {err!r}")
    return _result("identity battery", failures, len(cases))


@_sampled("identr", "random group-law identities n={n}")
def check_identity_battery_random(ring, n, k, rng):
    a = random_odd(rng, ring, n, terms=2)
    a = a - GrassmannElement.monomial(ring, n, 0, a.constant_term())
    sigma = random_gamma_gl(rng, ring, n)
    if not check_g5ab(ring, n, sigma, a):
        yield f"conjugation commutator: sample {k}"
    omega = random_omega(rng, ring, n, terms=2)
    gamma = random_gamma(rng, ring, n, terms=1)
    gamma2 = random_gamma(rng, ring, n, terms=1)
    omega2 = random_omega(rng, ring, n, terms=2)
    mat_a = random_invertible_matrix(rng, ring, n)
    mat_b = random_invertible_matrix(rng, ring, n)
    a1 = random_odd(rng, ring, n, terms=2)
    a1 = component(a1, 1) + component(a1, 3)  # keep inside degrees 1..n-1
    a2 = random_odd(rng, ring, n, terms=2)
    a2 = component(a2, 1) + component(a2, 3)
    if not check_mul1(ring, n, a1, gamma.images, mat_a, a2, gamma2.images, mat_b):
        yield f"product law: sample {k}"
    if not check_invabA(ring, n, a1, gamma.images, mat_a):
        yield f"inverse law: sample {k}"
    sigma_full = omega.compose(gamma).compose(linear_endo(ring, mat_a))
    lam_vec = [ring.random(rng) for _ in range(n)]
    if not check_slsA(ring, n, sigma_full, lam_vec):
        yield f"top-shift conjugation: sample {k}"


def check_al2_random(ring: Ring, samples: int, seed) -> CheckResult:
    failures = []
    for k in range(samples):
        rng = spawn(seed, "al2", k)
        mat_a = random_invertible_matrix(rng, ring, 2)
        mat_b = random_invertible_matrix(rng, ring, 2)
        lam = [ring.random(rng) for _ in range(2)]
        mu = [ring.random(rng) for _ in range(2)]
        if not check_al2(ring, mat_a, lam, mat_b, mu):
            failures.append(f"sample {k}")
    return _result("rank-2 composition law", failures, samples)


def check_n3_law_random(ring: Ring, samples: int, seed) -> CheckResult:
    failures = []
    for k in range(samples):
        rng = spawn(seed, "law3", k)
        mat_a = random_invertible_matrix(rng, ring, 3)
        mat_b = random_invertible_matrix(rng, ring, 3)
        vecs = [[ring.random(rng) for _ in range(3)] for _ in range(4)]
        if not check_group_law_n3(ring, vecs[0], vecs[1], mat_a, vecs[2], vecs[3], mat_b):
            failures.append(f"sample {k}")
    return _result("rank-3 composition law", failures, samples)


# ---------------------------------------------------------------------------
# suites

class SuiteSizeError(ValueError):
    """The generator count is below the smallest one a suite supports."""


# smallest n each suite samples at; the others run from n = 1.  The solvers
# need two generators, the ascent checks an even n >= 4 (n + 1 for odd n),
# and Sigma words and the preimage construction need n >= 4.
SUITE_MIN_N = {"solvers": 2, "ascents": 3, "groups": 4, "preimage": 4}


def run_suite(suite: str, *, n: int = 5, ring: Ring = None, samples: int = 25,
              seed=0) -> list[CheckResult]:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ring = ring if ring is not None else GF(7)
    if suite == "all":
        need = max(SUITE_MIN_N.values())
    else:
        need = SUITE_MIN_N.get(suite, 1)
    if n < need:
        raise SuiteSizeError(f"suite {suite!r} needs n >= {need}, got n={n}")
    check_n(n)  # the dims and n3 suites never read n, so refuse it here
    small = max(4, samples // 5)
    results = []

    def algebra():
        results.append(check_defining_relations(ring, n))
        results.append(check_associativity(ring, min(n, 8), samples, seed))
        results.append(check_nilpotency(ring, n, small, seed))
        results.append(check_involution(ring, n, samples, seed))
        results.append(check_center(ring, 4))
        results.append(check_center(ring, 5))
        results.append(check_odd_squares(ring, n, samples, seed))
        results.append(check_unit_inversion(ring, n, samples, seed))

    def calculus():
        results.append(check_skew_leibniz(ring, n, samples, seed))
        results.append(check_operator_relations(ring, n, samples, seed))
        results.append(check_projections(ring, min(n, 6), small, seed))
        results.append(check_taylor(ring, min(n, 6), small, seed))
        results.append(check_identity_operator(ring, n, samples, seed))
        results.append(check_taylor_substitution(ring, min(n, 6), small, seed))

    def solvers():
        results.append(check_xi_solver(ring, n, samples, seed))
        results.append(check_xi_solver_pair_rejection(ring, n, small, seed))
        results.append(check_partial_solver(ring, n, samples, seed))
        results.append(check_partial_solver_pair_rejection(ring, n, small, seed))

    def inversion():
        results.append(check_inverse_strategies(ring, n, samples, seed))
        results.append(check_composition_laws(ring, n, small, seed))

    def jacobian_suite():
        results.append(check_chain_rule(ring, n, samples, seed))
        results.append(check_dual_derivatives(ring, n, small, seed))
        results.append(check_inner_properties(ring, n, samples, seed))

    def factorize():
        results.append(check_oga_roundtrip(ring, n, small, seed))
        results.append(check_unipotent_roundtrip(ring, n, small, seed))
        results.append(check_gamma_word_roundtrip(ring, n, small, seed))
        results.append(check_sigma_prime_roundtrip(ring, max(n, 4), small, seed))
        results.append(check_layers_roundtrip(ring, max(n, 4), small, seed))

    def groups_suite():
        results.append(check_membership_basics(ring, n, small, seed))
        results.append(check_sigma_closure(ring, n, small, seed))
        results.append(check_coset_criterion(ring, n, small, seed))
        results.append(check_ascent_chain(ring, n, small, seed))
        results.append(check_graded_groups(ring, n, max(2, small // 2), seed))
        results.append(check_ascent_distinctness(ring, n))

    def identities():
        results.append(check_identity_battery(ring, seed))
        results.append(check_identity_battery_random(ring, min(n, 5), small, seed))
        results.append(check_al2_random(ring, samples, seed))
        results.append(check_n3_law_random(ring, small, seed))

    def dims_suite():
        results.append(check_dimension_tables())
        results.append(check_dimension_consistency())

    def n3():
        results.append(check_n3_exhaustive())

    def preimage():
        odd_n = n if n % 2 else n + 1
        even_n = n if n % 2 == 0 else n + 1
        results.append(check_preimage_odd(ring, odd_n, small, seed))
        results.append(check_preimage_even_refusal(ring, even_n, small, seed))

    def ascents():
        even_n = n if n % 2 == 0 else n + 1
        results.append(check_even_collapse(ring, even_n, samples, seed))
        for m in (5, 6, 7):
            results.append(check_ascent_distinctness(ring, m))

    suites = {
        "algebra": algebra,
        "calculus": calculus,
        "solvers": solvers,
        "inversion": inversion,
        "jacobian": jacobian_suite,
        "factorize": factorize,
        "groups": groups_suite,
        "identities": identities,
        "dims": dims_suite,
        "n3": n3,
        "preimage": preimage,
        "ascents": ascents,
    }
    if suite == "all":
        for fn in suites.values():
            fn()
    elif suite in suites:
        suites[suite]()
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{sorted(suites)} or 'all'")
    return results


SUITES = ("algebra", "calculus", "solvers", "inversion", "jacobian", "factorize",
          "groups", "identities", "dims", "n3", "preimage", "ascents", "all")
