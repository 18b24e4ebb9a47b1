#!/usr/bin/env python3
"""Time the element text codec, n by n.

    PYTHONPATH=src python scripts/codec_scaling.py 8 10 12 14

For each n on the command line (default 8, 10, 12, 14) and each field (QQ,
GF(7)), the table gives the median term count and the median time per term
of ``parse_element``, ``format_element`` and ``element_to_json``, in
microseconds, on seeded random elements that hold about half of the 2^n
monomials.  The last column
checks that every element survives the text and the JSON round trips.
"""

import sys
from statistics import median
from time import perf_counter

from grassmann.algebra import (
    GrassmannElement,
    element_from_json,
    element_to_json,
    format_element,
    parse_element,
)
from grassmann.rings import GF, QQ
from grassmann.sampling import spawn

SAMPLES = 5


def dense_element(rng, ring, n):
    return GrassmannElement(ring, n, {m: ring.random_nonzero(rng)
                                      for m in range(1 << n) if rng.random() < 0.5})


def time_codec(rng, ring, n):
    """Median term count, median µs per term of parse, format and JSON, and
    whether every round trip gave its element back."""
    sizes, parse_us, format_us, json_us, ok = [], [], [], [], True
    for _ in range(SAMPLES):
        e = dense_element(rng, ring, n)
        terms = max(len(e.num), 1)
        sizes.append(terms)
        t0 = perf_counter()
        text = format_element(e)
        t1 = perf_counter()
        got = parse_element(ring, n, text)
        t2 = perf_counter()
        data = element_to_json(e)
        t3 = perf_counter()
        format_us.append((t1 - t0) * 1e6 / terms)
        parse_us.append((t2 - t1) * 1e6 / terms)
        json_us.append((t3 - t2) * 1e6 / terms)
        ok = ok and got == e and element_from_json(ring, n, data) == e
    return median(sizes), median(parse_us), median(format_us), median(json_us), ok


def main(argv=None) -> int:
    ns = [int(a) for a in (argv if argv is not None else sys.argv[1:])]
    print(f"median of {SAMPLES} elements each, µs per term")
    print("field  n   terms  parse  format   json  checks ok")
    for n in ns or (8, 10, 12, 14):
        for name, ring in (("QQ", QQ), ("GF(7)", GF(7))):
            rng = spawn(1, "codec-scaling", name, n)
            terms, t_parse, t_format, t_json, ok = time_codec(rng, ring, n)
            print(f"{name:<5} {n:>2} {terms:>7} {t_parse:>6.2f} {t_format:>7.2f}"
                  f" {t_json:>6.2f}  {'yes' if ok else 'NO'}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
