#!/usr/bin/env python3
"""Time a dense ``Endomorphism.apply`` on both of its paths, n by n.

    PYTHONPATH=src python scripts/apply_scaling.py 8 9 10 11 12

For each n on the command line (default 8..12) and each field (QQ, GF(7)),
a seeded ``random_automorphism`` is applied to a seeded element holding about
half of the 2^n monomials: once by split-block evaluation
(``Endomorphism.apply``) and once by the memo walk, which sums one memoised
product per monomial (``Endomorphism._apply_memo``).  Each path runs on a
fresh copy of the map, so neither reuses the other's products.  The table
gives the wall time of the one call and the number of memoised products it
leaves (``len(sigma._prods)``, counting the constant 1); the last column
checks that both paths give the same element.
"""

import sys
from time import perf_counter

from grassmann.algebra import GrassmannElement
from grassmann.endo import Endomorphism
from grassmann.rings import GF, QQ
from grassmann.sampling import random_automorphism, spawn


def dense_element(rng, ring, n, share=0.5):
    """About ``share`` of the 2^n monomials, with nonzero coefficients."""
    return GrassmannElement(ring, n, {m: ring.random_nonzero(rng)
                                      for m in range(1 << n)
                                      if rng.random() < share})


def timed(sigma, path, e):
    fresh = Endomorphism(sigma.images, check=False)
    t0 = perf_counter()
    out = path(fresh, e)
    return out, perf_counter() - t0, len(fresh._prods)


def main(argv=None) -> int:
    ns = [int(a) for a in (argv if argv is not None else sys.argv[1:])]
    print("field  n   terms  split ms  split memo  memo-walk ms  memo-walk memo"
          "  same")
    for n in ns or range(8, 13):
        for name, ring in (("QQ", QQ), ("GF(7)", GF(7))):
            rng = spawn(1, "apply-scaling", name, n)
            sigma = random_automorphism(rng, ring, n)
            e = dense_element(rng, ring, n)
            split, t_split, m_split = timed(sigma, Endomorphism.apply, e)
            memo, t_memo, m_memo = timed(sigma, Endomorphism._apply_memo, e)
            print(f"{name:<5} {n:>2} {len(e.num):>7} {t_split * 1e3:>9.1f}"
                  f" {m_split:>11} {t_memo * 1e3:>13.1f} {m_memo:>15}"
                  f"  {'yes' if split == memo else 'NO'}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
