from fractions import Fraction
from itertools import permutations

import pytest

from grassmann.rings import (
    GF,
    QQ,
    NotAUnitError,
    gauss_jordan_num,
    join_row,
    mat_det,
    mat_inv,
    mat_mul,
    split_rows,
)
from grassmann.sampling import spawn

FIELDS = [QQ, GF(3), GF(7)]


def leibniz_det(ring, a):
    """Sum over permutations of sign * product: the determinant oracle."""
    size = len(a)
    total = ring.zero
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(size) for j in range(i + 1, size))
        term = ring.one
        for i, j in enumerate(perm):
            term = ring.normalize(term * a[i][j])
        total = ring.normalize(total - term if inversions % 2 else total + term)
    return total


def eliminate(ring, m, size):
    """``gauss_jordan_num`` on a matrix m of field elements, in place."""
    num, den = split_rows(ring, m)
    result = gauss_jordan_num(ring, num, den, size)
    m[:] = [join_row(ring, row, d) for row, d in zip(num, den)]
    return result


def reference_gauss_jordan(ring, m, size):
    """Gauss-Jordan with one field element per entry: the oracle for
    ``gauss_jordan_num``, with the same pivot search and clearing order."""
    normalize = ring.normalize
    zero = ring.zero

    def clear(k, rows):  # zero column k of rows with multiples of row k
        pivot_row = m[k]
        nonzero = [j for j, y in enumerate(pivot_row) if y and j != k]
        for row in rows:
            f = row[k]
            if f:
                row[k] = zero
                for j in nonzero:
                    row[j] = normalize(row[j] - f * pivot_row[j])

    def first_nonzero(k):
        for c in range(k, size):
            for r in range(k, size):
                if m[r][c]:
                    return r, c
        return None

    cols = list(range(size))
    scale = ring.one
    rank = 0
    for k in range(size):
        pivot = first_nonzero(k)
        if pivot is None:
            break
        r, c = pivot
        if r != k:
            m[k], m[r] = m[r], m[k]
            scale = -scale
        if c != k:
            for row in m:
                row[k], row[c] = row[c], row[k]
            cols[k], cols[c] = cols[c], cols[k]
            scale = -scale
        lam = m[k][k]
        scale = normalize(scale * lam)
        lam_inv = ring.invert(lam)
        m[k] = [normalize(y * lam_inv) if y else y for y in m[k]]
        clear(k, m[k + 1:])
        rank = k + 1
    for k in reversed(range(1, rank)):
        clear(k, m[:k])
    return scale, cols, rank


def identity(ring, size):
    return [[ring.one if i == j else ring.zero for j in range(size)]
            for i in range(size)]


def random_matrix(rng, ring, size):
    return [[ring.random(rng) for _ in range(size)] for _ in range(size)]


def singular_square(rng, ring, size):
    # the last row is a combination of the others
    a = [[ring.random(rng) for _ in range(size)] for _ in range(size - 1)]
    coeffs = [ring.random(rng) for _ in range(size - 1)]
    a.append([ring.normalize(sum((c * row[j] for c, row in zip(coeffs, a)), ring.zero))
              for j in range(size)])
    return a


class TestMatDet:

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("size", range(1, 6))
    def test_against_leibniz(self, ring, size):
        rng = spawn(61, "mat-det", size, str(ring))
        for _ in range(6):
            a = random_matrix(rng, ring, size)
            assert mat_det(ring, a) == leibniz_det(ring, a)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("size", range(2, 6))
    def test_singular_is_zero(self, ring, size):
        rng = spawn(61, "mat-det-singular", size, str(ring))
        for _ in range(4):
            a = singular_square(rng, ring, size)
            assert leibniz_det(ring, a) == ring.zero
            assert mat_det(ring, a) == ring.zero

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_zero_and_one_by_one(self, ring):
        assert mat_det(ring, [[ring.zero] * 3 for _ in range(3)]) == ring.zero
        assert mat_det(ring, [[ring.zero]]) == ring.zero
        assert mat_det(ring, [[ring.from_int(-2)]]) == ring.from_int(-2)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_input_untouched(self, ring):
        a = [[ring.from_int(v) for v in row] for row in ([0, 1], [1, 1])]
        copy = [row[:] for row in a]
        mat_det(ring, a)
        mat_inv(ring, a)
        assert a == copy


class TestMatInv:

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("size", range(1, 6))
    def test_product_is_identity(self, ring, size):
        rng = spawn(61, "mat-inv", size, str(ring))
        checked = 0
        for _ in range(8):
            a = random_matrix(rng, ring, size)
            if mat_det(ring, a) == ring.zero:
                with pytest.raises(NotAUnitError, match="matrix is singular"):
                    mat_inv(ring, a)
                continue
            inv = mat_inv(ring, a)
            assert mat_mul(ring, a, inv) == identity(ring, size)
            assert mat_mul(ring, inv, a) == identity(ring, size)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_singular_raises(self, ring):
        rng = spawn(61, "mat-inv-singular", str(ring))
        cases = [singular_square(rng, ring, size) for size in range(2, 6)]
        cases += [[[ring.zero]], [[ring.zero] * 3 for _ in range(3)]]
        for a in cases:
            with pytest.raises(NotAUnitError, match="matrix is singular"):
                mat_inv(ring, a)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_one_by_one(self, ring):
        c = ring.from_int(2)
        assert mat_inv(ring, [[c]]) == [[ring.invert(c)]]


class TestGaussJordan:

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_zero_first_column_swaps_columns(self, ring):
        a = [[ring.from_int(v) for v in row]
             for row in ([0, 1, 2], [0, 2, 4], [0, 1, 0])]
        m = [row[:] + r for row, r in zip(a, identity(ring, 3))]
        scale, cols, rank = eliminate(ring, m, 3)
        assert rank == 2
        assert cols != [0, 1, 2] and sorted(cols) == [0, 1, 2]
        assert mat_det(ring, a) == leibniz_det(ring, a) == ring.zero
        # the appended block is the transform: t * a[:, cols] = reduced block
        t = [row[3:] for row in m]
        permuted = [[row[c] for c in cols] for row in a]
        assert mat_mul(ring, t, permuted) == [row[:3] for row in m]
        for k in range(rank):
            assert [row[k] for row in m] == [ring.one if i == k else ring.zero
                                             for i in range(3)]
        with pytest.raises(NotAUnitError, match="matrix is singular"):
            mat_inv(ring, a)

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    @pytest.mark.parametrize("size", range(1, 6))
    def test_invertible_block_keeps_column_order(self, ring, size):
        rng = spawn(61, "gauss-jordan", size, str(ring))
        for _ in range(6):
            a = random_matrix(rng, ring, size)
            scale, cols, rank = eliminate(ring, [row[:] for row in a], size)
            if rank == size:
                assert cols == list(range(size))
                assert scale == leibniz_det(ring, a)
            else:
                assert leibniz_det(ring, a) == ring.zero


def oracle_matrix(rng, ring, size, width, dens):
    """A sparse size x width matrix over ring with entry denominators drawn
    from dens over QQ; about one case in three repeats a row, and one in
    three zeroes a column of the square block."""
    def entry():
        if rng.random() < 0.3:
            return ring.zero
        if ring.modulus is not None:
            return ring.random(rng)
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    m = [[entry() for _ in range(width)] for _ in range(size)]
    kind = rng.randrange(3)
    if kind == 1 and size > 1:
        m[rng.randrange(size)] = m[rng.randrange(size)][:]
    elif kind == 2:
        c = rng.randrange(size)
        for row in m:
            row[c] = ring.zero
    return m


class TestAgainstReference:
    """``gauss_jordan_num`` against the field-element loop it replaced."""

    CASES = [(QQ, (1,)), (QQ, (1, 2)), (QQ, (1, 3)), (QQ, (2, 3, 7)),
             (GF(3), ()), (GF(7), ())]

    @pytest.mark.parametrize("ring, dens", CASES,
                             ids=["QQ-1", "QQ-2", "QQ-3", "QQ-237", "GF3", "GF7"])
    @pytest.mark.parametrize("double", [False, True], ids=["square", "wide"])
    def test_same_result_and_matrix(self, ring, dens, double):
        rng = spawn(61, "gj-reference", str(ring), dens, double)
        ranks = set()
        for size in range(1, 13):
            for _ in range(4):
                m = oracle_matrix(rng, ring, size, 2 * size if double else size, dens)
                want = [row[:] for row in m]
                got = [row[:] for row in m]
                expected = reference_gauss_jordan(ring, want, size)
                assert eliminate(ring, got, size) == expected
                assert got == want
                ranks.add(expected[2] == size)
        assert ranks == {False, True}

    @pytest.mark.parametrize("ring", FIELDS, ids=str)
    def test_entries_are_field_elements(self, ring):
        rng = spawn(61, "gj-types", str(ring))
        m = oracle_matrix(rng, ring, 6, 12, (1, 2, 3))
        scale, _, _ = eliminate(ring, m, 6)
        kind = int if ring.modulus is not None else Fraction
        assert type(scale) is kind
        assert all(type(c) is kind for row in m for c in row)
        if ring.modulus is not None:
            assert all(0 <= c < ring.modulus for row in m for c in row)
