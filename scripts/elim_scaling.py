#!/usr/bin/env python3
"""Time the scalar elimination, the Jacobian that runs on it and the layer
factorization, n by n.

    PYTHONPATH=src python scripts/elim_scaling.py 7 8 9 10 11 12

For each n on the command line (default 7..12) and each field (QQ, GF(7)),
the table gives the median wall time of ``rings.mat_inv`` on seeded random
invertible n x n matrices, of ``Endomorphism.jacobian()`` on seeded
shift * linear automorphisms (``random_gamma(terms=2)`` composed with
``random_invertible_matrix``, the maps of the perfbench ``jacobian_qq``
workload), of the first read of its ``.matrix`` after that, which builds the
n^2 skew partials the determinant does not need, and of
``groups.decompose_layers`` on the shift factors of those maps (n >= 4
only, "-" below).  Each Jacobian and factorization runs on a
fresh copy of its map, so no cached product or determinant carries over.
The last column checks that the inverses multiply back to I, that every
layer word recomposes to its map and, for n <= 9, that every timed Jacobian
determinant equals the cofactor expansion ``_det_central`` of its matrix.
"""

import sys
from statistics import median
from time import perf_counter

from grassmann.endo import Endomorphism, _det_central, linear_endo
from grassmann.groups import DecompositionError, decompose_layers
from grassmann.rings import GF, QQ, mat_inv, mat_mul
from grassmann.sampling import random_gamma, random_invertible_matrix, spawn

SAMPLES = 7
ORACLE_MAX_N = 9  # the cofactor expansion takes O(n 2^n) products


def time_mat_inv(rng, ring, n):
    times, ok = [], True
    identity = [[ring.one if i == j else ring.zero for j in range(n)]
                for i in range(n)]
    for _ in range(SAMPLES):
        a = random_invertible_matrix(rng, ring, n)
        t0 = perf_counter()
        inv = mat_inv(ring, a)
        times.append(perf_counter() - t0)
        ok = ok and mat_mul(ring, a, inv) == identity
    return median(times), ok


def time_jacobian(rng, ring, n):
    """Median times of the Jacobian, of its first matrix read and of the
    layer factorization (None below n = 4), and whether every determinant
    matched the cofactor expansion (n <= ORACLE_MAX_N) and every layer word
    recomposed."""
    jac_times, matrix_times, layer_times, ok = [], [], [], True
    for _ in range(SAMPLES):
        gamma = random_gamma(rng, ring, n, terms=2)
        rho = gamma.compose(linear_endo(ring, random_invertible_matrix(rng, ring, n)))
        fresh = Endomorphism(rho.images, check=False)
        t0 = perf_counter()
        jac = fresh.jacobian()
        jac_times.append(perf_counter() - t0)
        t0 = perf_counter()
        matrix = jac.matrix
        matrix_times.append(perf_counter() - t0)
        if n <= ORACLE_MAX_N:
            ok = ok and jac.det == _det_central(ring, n, matrix)
        if n < 4:
            continue
        fresh = Endomorphism(gamma.images, check=False)
        t0 = perf_counter()
        try:
            word = decompose_layers(fresh)
        except DecompositionError:
            word = None
        layer_times.append(perf_counter() - t0)
        ok = ok and word is not None and word.recompose() == gamma
    return (median(jac_times), median(matrix_times),
            median(layer_times) if layer_times else None, ok)


def main(argv=None) -> int:
    ns = [int(a) for a in (argv if argv is not None else sys.argv[1:])]
    print(f"median of {SAMPLES} calls each")
    print("field  n  mat_inv ms  jacobian ms  matrix ms  layers ms  checks ok")
    for n in ns or range(7, 13):
        for name, ring in (("QQ", QQ), ("GF(7)", GF(7))):
            rng = spawn(1, "elim-scaling", name, n)
            t_inv, inv_ok = time_mat_inv(rng, ring, n)
            t_jac, t_matrix, t_layers, word_ok = time_jacobian(rng, ring, n)
            layers = "-" if t_layers is None else f"{t_layers * 1e3:.2f}"
            print(f"{name:<5} {n:>2} {t_inv * 1e3:>11.3f} {t_jac * 1e3:>12.2f}"
                  f" {t_matrix * 1e3:>10.2f} {layers:>10}"
                  f"  {'yes' if inv_ok and word_ok else 'NO'}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
