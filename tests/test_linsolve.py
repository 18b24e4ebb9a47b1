import pytest

from grassmann.algebra import GrassmannElement, parse_element
from grassmann.linsolve import (
    SolvabilityError,
    admissible_supports,
    coordinate_split,
    kernel_split,
    layer_split,
    min_avoidance,
    solve_partial_system,
    solve_xi_system,
    xi_particular,
)
from grassmann.sampling import random_element
from grassmann.skewcalc import apply_partial_word, skew_partial
from grassmann.verify import check_partial_solver, check_xi_solver


def gen(ring, n, i):
    return GrassmannElement.generator(ring, n, i)


def elem(ring, n, text):
    return parse_element(ring, n, text)


class TestCoordinateSplit:
    def test_zero(self, ring):
        split = coordinate_split(GrassmannElement.zero(ring, 4))
        assert split.top == ring.zero
        assert all(not b for b in split.blocks)

    def test_top_monomial(self, ring):
        n = 4
        split = coordinate_split(GrassmannElement.monomial(ring, n, (1 << n) - 1))
        assert split.top == ring.one
        assert all(not b for b in split.blocks)

    def test_random_reassembly_and_support(self, ring, rng):
        n = 6
        for _ in range(100):
            a = random_element(rng, ring, n, terms=5)
            split = coordinate_split(a)
            assert split.reassemble(ring, n) == a
            for j, block in enumerate(split.blocks, start=1):
                # block j only involves generators of index > j
                low = (1 << j) - 1
                assert all(not (m & low) for m in block.terms)


class TestXiSystem:
    def test_two_variable_example(self, ring):
        n = 2
        u = [elem(ring, n, "x1x2"), elem(ring, n, "-x1x2")]
        family = solve_xi_system(u)
        assert family.particular == elem(ring, n, "x1 + x2")
        assert family.free_direction == elem(ring, n, "x1x2")
        for c in (ring.zero, ring.one, ring.from_int(2)):
            sol = family.at(c)
            assert gen(ring, n, 1) * sol == u[0]
            assert gen(ring, n, 2) * sol == u[1]

    def test_zero_right_hand_side(self, ring):
        n = 3
        family = solve_xi_system([GrassmannElement.zero(ring, n)] * n)
        assert not family.particular
        assert family.free_direction == GrassmannElement.monomial(ring, n, 0b111)

    def test_membership_violation(self, ring):
        n = 3
        u = [elem(ring, n, "x2"), GrassmannElement.zero(ring, n),
             GrassmannElement.zero(ring, n)]
        with pytest.raises(SolvabilityError) as exc:
            solve_xi_system(u)
        assert exc.value.condition == "membership"
        assert exc.value.indices == (1,)

    def test_pair_violation(self, ring):
        n = 3
        # u_1 in (x1), u_2 in (x2), but x1 u_2 != -x2 u_1
        u = [elem(ring, n, "x1x2"), elem(ring, n, "x2x3"),
             GrassmannElement.zero(ring, n)]
        with pytest.raises(SolvabilityError) as exc:
            solve_xi_system(u)
        assert exc.value.condition == "anticommute"

    def test_round_trip_random(self, ring, battery):
        # solutions along the family, the generator, a rejected perturbation
        battery(check_xi_solver, ring, 6, 100)

    def test_particular_matches_derivative_words(self, ring, rng):
        # reference: d_1(u_1) plus x_1...x_i times the composite derivative
        # over x_1..x_i of d_{i+1}(u_{i+1}); any u, solvable or not
        n = 6
        for _ in range(30):
            u = [random_element(rng, ring, n, terms=8) for _ in range(n)]
            ref = skew_partial(1, u[0])
            for i in range(1, n):
                prefix = (1 << i) - 1
                ref = ref + GrassmannElement.monomial(ring, n, prefix) * apply_partial_word(
                    skew_partial(i + 1, u[i]), prefix)
            assert xi_particular(u) == ref


class TestPartialSystem:
    def test_pair_example(self, ring):
        n = 3
        u = [elem(ring, n, "x2"), elem(ring, n, "-x1"),
             GrassmannElement.zero(ring, n)]
        family = solve_partial_system(u)
        assert family.particular == elem(ring, n, "x1x2")
        assert family.free_direction == GrassmannElement.one(ring, n)
        sol = family.at(ring.from_int(3))
        assert skew_partial(1, sol) == u[0]
        assert skew_partial(2, sol) == u[1]

    def test_zero(self, ring):
        n = 3
        family = solve_partial_system([GrassmannElement.zero(ring, n)] * n)
        assert not family.particular

    def test_free_violation(self, ring):
        n = 3
        u = [elem(ring, n, "x1"), GrassmannElement.zero(ring, n),
             GrassmannElement.zero(ring, n)]
        with pytest.raises(SolvabilityError) as exc:
            solve_partial_system(u)
        assert exc.value.condition == "free"
        assert exc.value.indices == (1,)

    def test_skew_symmetry_violation(self, ring):
        n = 3
        u = [elem(ring, n, "x2x3"), GrassmannElement.zero(ring, n),
             GrassmannElement.zero(ring, n)]
        with pytest.raises(SolvabilityError) as exc:
            solve_partial_system(u)
        assert exc.value.condition == "skew-symmetry"

    def test_round_trip_random(self, ring, battery):
        battery(check_partial_solver, ring, 6, 100)

    def test_particular_matches_derivative_words(self, ring, rng):
        # reference: over every nonzero mask with lowest index f, the
        # coefficient is the constant term of d_(mask - f)(u_f)
        n = 6
        for _ in range(30):
            a = random_element(rng, ring, n, terms=8)
            u = [skew_partial(i, a) for i in range(1, n + 1)]
            ref = GrassmannElement.zero(ring, n)
            for mask in range(1, 1 << n):
                first = (mask & -mask).bit_length()
                rest = mask ^ (1 << (first - 1))
                coeff = apply_partial_word(u[first - 1], rest).constant_term()
                ref = ref + GrassmannElement.monomial(ring, n, mask, coeff)
            assert solve_partial_system(u).particular == ref


class TestLayerSplit:
    def test_low_block(self, ring):
        # support {1,2} at n=4, s=1 must land in the top-label slot
        split = layer_split(elem(ring, 4, "x1x2"), 1)
        assert split.parts[4] == elem(ring, 4, "x1x2")
        assert not split.parts[2] and not split.parts[3]

    def test_suffix_block(self, ring):
        split = layer_split(elem(ring, 4, "x3x4"), 1)
        assert split.parts[2] == elem(ring, 4, "x3x4")
        assert not split.parts[3] and not split.parts[4]

    def test_random_reassembly(self, ring, rng):
        n, s = 6, 2
        for _ in range(50):
            a = random_element(rng, ring, n, degrees=[2 * s], terms=5)
            split = layer_split(a, s)
            assert split.reassemble(ring) == a
            full = (1 << n) - 1
            for label, part in split.parts.items():
                for mask in part.terms:
                    assert (full ^ mask).bit_length() == label

    def test_rejects_inhomogeneous(self, ring):
        with pytest.raises(ValueError):
            layer_split(elem(ring, 4, "1 + x1x2"), 1)

    def test_rejects_bad_stage(self, ring):
        with pytest.raises(ValueError):
            layer_split(elem(ring, 4, "x1x2"), 2)


class TestAvoidance:
    def test_targets_avoid_support(self):
        for n in (4, 5, 6, 7):
            for s in range(1, (n - 1) // 2 + 1):
                table = min_avoidance(n, s)
                for i in range(1, n):
                    for mask in table.domain[i]:
                        j = table.target(i, mask)
                        assert j > i
                        assert not (mask >> (j - 1)) & 1

    def test_empty_domains_for_odd_top_stage(self):
        # odd n at the top stage: every admissible set is excluded
        n = 5
        s = 2
        table = min_avoidance(n, s)
        assert all(not table.domain[i] for i in range(1, n))

    def test_counts(self):
        from math import comb
        for n in (5, 6, 7):
            for s in range(1, (n - 1) // 2 + 1):
                total = sum(len(admissible_supports(n, s, i)) for i in range(1, n))
                assert total == n * comb(n - 1, 2 * s) - comb(n, 2 * s)


class TestKernelSplit:
    def test_zero(self, ring):
        n, s = 6, 1
        table = min_avoidance(n, s)
        lambdas, residual = kernel_split(
            [GrassmannElement.zero(ring, n)] * n, s, table)
        assert not lambdas
        assert all(not p for p in residual.parts.values())

    def test_basis_vector(self, ring):
        n, s = 6, 1
        table = min_avoidance(n, s)
        i = 1
        mask = table.domain[i][0]
        j = table.target(i, mask)
        v = [GrassmannElement.zero(ring, n) for _ in range(n)]
        v[i - 1] = GrassmannElement.monomial(ring, n, mask)
        v[j - 1] = -GrassmannElement.monomial(ring, n, mask)
        lambdas, residual = kernel_split(v, s, table)
        assert lambdas == {(i, mask): ring.one}
        assert all(not p for p in residual.parts.values())

    def test_random_recombination(self, ring, rng):
        n, s = 6, 1
        table = min_avoidance(n, s)
        for _ in range(50):
            v = [random_element(rng, ring, n, degrees=[2 * s], terms=3)
                 for _ in range(n)]
            for i in range(1, n + 1):
                v[i - 1] = GrassmannElement(
                    ring, n, {m: c for m, c in v[i - 1].terms.items()
                              if not (m >> (i - 1)) & 1})
            lambdas, residual = kernel_split(v, s, table)
            rebuilt = [GrassmannElement.zero(ring, n) for _ in range(n)]
            for (i, mask), lam in lambdas.items():
                j = table.target(i, mask)
                mono = GrassmannElement.monomial(ring, n, mask, lam)
                rebuilt[i - 1] = rebuilt[i - 1] + mono
                rebuilt[j - 1] = rebuilt[j - 1] - mono
            for label, part in residual.parts.items():
                rebuilt[label - 1] = rebuilt[label - 1] + part
            assert rebuilt == v
            # the kernel component has zero symbol sum, so totals agree
            total_in = GrassmannElement.zero(ring, n)
            for e in v:
                total_in = total_in + e
            assert residual.reassemble(ring) == total_in

    def test_coordinate_count(self, ring, rng):
        from math import comb
        n, s = 6, 2
        table = min_avoidance(n, s)
        count = sum(len(table.domain[i]) for i in range(1, n))
        assert count == n * comb(n - 1, 2 * s) - comb(n, 2 * s)
