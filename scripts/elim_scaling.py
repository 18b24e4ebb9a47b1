#!/usr/bin/env python3
"""Time the scalar elimination and the Jacobian that runs on it, n by n.

    PYTHONPATH=src python scripts/elim_scaling.py 7 8 9 10 11 12

For each n on the command line (default 7..12) and each field (QQ, GF(7)),
the table gives the median wall time of ``rings.mat_inv`` on seeded random
invertible n x n matrices, and of ``Endomorphism.jacobian()`` on seeded
shift * linear automorphisms (``random_gamma(terms=2)`` composed with
``random_invertible_matrix``, the maps of the perfbench ``jacobian_qq``
workload).  Each Jacobian runs on a fresh copy of its map, so no cached
product or determinant carries over; the last column checks that the
inverses multiply back to I.
"""

import sys
from statistics import median
from time import perf_counter

from grassmann.endo import Endomorphism, linear_endo
from grassmann.rings import GF, QQ, mat_inv, mat_mul
from grassmann.sampling import random_gamma, random_invertible_matrix, spawn

SAMPLES = 7


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
    times = []
    for _ in range(SAMPLES):
        gamma = random_gamma(rng, ring, n, terms=2)
        rho = gamma.compose(linear_endo(ring, random_invertible_matrix(rng, ring, n)))
        fresh = Endomorphism(rho.images, check=False)
        t0 = perf_counter()
        fresh.jacobian()
        times.append(perf_counter() - t0)
    return median(times)


def main(argv=None) -> int:
    ns = [int(a) for a in (argv if argv is not None else sys.argv[1:])]
    print(f"median of {SAMPLES} calls each")
    print("field  n  mat_inv ms  jacobian ms  inverse ok")
    for n in ns or range(7, 13):
        for name, ring in (("QQ", QQ), ("GF(7)", GF(7))):
            rng = spawn(1, "elim-scaling", name, n)
            t_inv, ok = time_mat_inv(rng, ring, n)
            t_jac = time_jacobian(rng, ring, n)
            print(f"{name:<5} {n:>2} {t_inv * 1e3:>11.3f} {t_jac * 1e3:>12.1f}"
                  f"  {'yes' if ok else 'NO'}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
