"""Command-line front end.

Subcommands: mul, apply, jacobian, invert, decompose, member, preimage, dims,
generators, verify.  Elements use the text grammar ``1 - 3/2*x1x3 + x2x4``;
endomorphisms use ``x1 -> ...; x2 -> ...``.  All randomness flows from the
single ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import element_to_json, format_element, parse_element
from .dims import dim_by_coordinates, dim_formula
from .endo import (
    endomorphism_to_json,
    format_endomorphism,
    parse_endomorphism,
)
from .groups import (
    NoPreimageError,
    decompose_gamma,
    decompose_layers,
    decompose_omega_gamma_linear,
    decompose_sigma_prime,
    decompose_unipotent,
    enumerate_generators,
    jacobian_preimage,
    member,
    parse_group_id,
)
from .rings import ring_from_name
from .verify import SUITES, run_suite

SCHEMA = "grassmann/1"


def _read_arg(text: str) -> str:
    """Inline expression, or the contents of a file when prefixed with '@'."""
    if text.startswith("@"):
        from pathlib import Path
        try:
            return Path(text[1:]).read_text()
        except OSError as err:
            raise ValueError(f"cannot read {text[1:]}: {err.strerror}") from None
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of generators")
    parser.add_argument("--field", default="rational",
                        help="coefficient field: 'rational', 'prime:P', or a prime P")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _emit(args, text, payload) -> None:
    """Print ``text()`` or, for ``--format json``, the ``payload()`` dict
    under the schema tag; only the one that is printed gets built."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload()}, indent=2, sort_keys=True))
    else:
        print(text())


def _cmd_mul(args) -> int:
    ring = ring_from_name(args.field)
    e = parse_element(ring, args.n, _read_arg(args.left))
    f = parse_element(ring, args.n, _read_arg(args.right))
    product = e * f
    _emit(args, lambda: format_element(product),
          lambda: {"type": "element", **element_to_json(product)})
    return 0


def _cmd_apply(args) -> int:
    ring = ring_from_name(args.field)
    sigma = parse_endomorphism(ring, args.n, _read_arg(args.endo))
    e = parse_element(ring, args.n, _read_arg(args.element))
    result = sigma.apply(e)
    _emit(args, lambda: format_element(result),
          lambda: {"type": "element", **element_to_json(result)})
    return 0


def _cmd_jacobian(args) -> int:
    ring = ring_from_name(args.field)
    sigma = parse_endomorphism(ring, args.n, _read_arg(args.endo))
    data = sigma.jacobian()
    _emit(args, lambda: format_element(data.det), lambda: {
        "type": "jacobian",
        "det": element_to_json(data.det),
        "valuation": data.valuation,
        "matrix": [[element_to_json(entry)["terms"] for entry in row]
                   for row in data.matrix],
    })
    return 0


def _cmd_invert(args) -> int:
    ring = ring_from_name(args.field)
    sigma = parse_endomorphism(ring, args.n, _read_arg(args.endo))
    inv = sigma.inverse(args.strategy)
    _emit(args, lambda: format_endomorphism(inv),
          lambda: {"type": "endomorphism", **endomorphism_to_json(inv)})
    return 0


def _describe_oga(fact) -> str:
    return (f"inner: 1 + {format_element(fact.a)}\n"
            + "\n".join(f"shift b{i + 1}: {format_element(b)}"
                        for i, b in enumerate(fact.b))
            + "\nmatrix rows: "
            + "; ".join("[" + ", ".join(str(c) for c in row) + "]"
                        for row in fact.matrix))


def _describe_unipotent(word) -> str:
    lines = []
    for kind, data in word.factors:
        if kind == "inner":
            lines.append(f"inner: 1 + {format_element(data)}")
        else:
            lines.append("shift: " + "; ".join(
                f"x{i + 1} += {format_element(b)}" for i, b in enumerate(data) if b))
    return "\n".join(lines) if lines else "identity"


def _describe_gamma(word) -> str:
    lines = [f"scaling part: {format_endomorphism(word.phi)}"]
    for degree, cs in sorted(word.xis.items()):
        if any(cs):
            lines.append(f"degree-{degree} shifts: " + "; ".join(
                f"x{i + 1} += {format_element(c)}" for i, c in enumerate(cs) if c))
    return "\n".join(lines)


def _describe_sigma_prime(word) -> str:
    coords = word.to_json()["coordinates"]
    return ("\n".join(f"s={c['s']} i={c['i']} support={c['support']} "
                      f"coeff={c['coeff']}" for c in coords)
            if coords else "identity")


def _describe_layers(word) -> str:
    lines = [f"degree-{2 * s} layer: {format_element(a)}"
             for s, a in sorted(word.layers.items()) if a]
    lines.append(f"Jacobian-1 tail: {format_endomorphism(word.tail)}")
    return "\n".join(lines)


_DECOMPOSITIONS = {
    "oga": (decompose_omega_gamma_linear, _describe_oga),
    "unipotent": (decompose_unipotent, _describe_unipotent),
    "gamma": (decompose_gamma, _describe_gamma),
    "sigma-prime": (decompose_sigma_prime, _describe_sigma_prime),
    "layers": (decompose_layers, _describe_layers),
}


def _cmd_decompose(args) -> int:
    ring = ring_from_name(args.field)
    sigma = parse_endomorphism(ring, args.n, _read_arg(args.endo))
    decompose, describe = _DECOMPOSITIONS[args.mode]
    # each decompose_* raises DecompositionError unless its factors
    # recompose to sigma, so a returned factorization is verified
    fact = decompose(sigma)
    _emit(args, lambda: describe(fact) + "\nverified: True",
          lambda: {"type": "factorization", **fact.to_json(), "verified": True})
    return 0


def _cmd_member(args) -> int:
    ring = ring_from_name(args.field)
    sigma = parse_endomorphism(ring, args.n, _read_arg(args.endo))
    group = parse_group_id(args.group)
    flag = member(sigma, group)
    _emit(args, lambda: str(flag).lower(),
          lambda: {"type": "membership", "group": str(group), "member": flag})
    return 0


def _cmd_preimage(args) -> int:
    ring = ring_from_name(args.field)
    u = parse_element(ring, args.n, _read_arg(args.target))
    try:
        result = jacobian_preimage(u, exact=not args.inexact)
    except NoPreimageError as err:
        _emit(args, lambda: f"no preimage: {err}",
              lambda: {"type": "preimage", "exists": False, "reason": str(err)})
        return 1
    top = result.forced_top

    def text():
        out = format_endomorphism(result.sigma)
        if top is not None:
            out += f"\nforced top coefficient: {ring.format(top)}"
        return out

    def payload():
        out = {
            "type": "preimage",
            "exists": True,
            "sigma": endomorphism_to_json(result.sigma),
            "achieved": element_to_json(result.achieved),
        }
        if top is not None:
            out["forced_top"] = ring.format(top)
        return out

    _emit(args, text, payload)
    return 0


def _cmd_dims(args) -> int:
    formula = dim_formula(args.group, args.n)
    coords = dim_by_coordinates(args.group, args.n)
    _emit(args, lambda: f"formula={formula} coordinates={coords}",
          lambda: {"type": "dimension", "group": args.group, "n": args.n,
                   "formula": formula, "coordinates": coords})
    return 0 if formula == coords else 1


def _cmd_generators(args) -> int:
    ring_from_name(args.field)  # a bad --field fails here, as in every command
    group = parse_group_id(args.group)
    gens = enumerate_generators(group, args.n)
    _emit(args, lambda: "\n".join(g.describe() for g in gens) + f"\ntotal: {len(gens)}",
          lambda: {
              "type": "generators",
              "group": str(group),
              "count": len(gens),
              "generators": [
                  {"kind": g.kind, "i": g.i, "j": g.j, "mask": g.mask,
                   "description": g.describe()}
                  for g in gens
              ],
          })
    return 0


def _cmd_verify(args) -> int:
    ring = ring_from_name(args.field)
    results = run_suite(args.suite, n=args.n, ring=ring,
                        samples=args.samples, seed=args.seed)
    passed = sum(r.passed for r in results)
    _emit(args, lambda: "\n".join([*(r.line() for r in results),
                                   f"{passed}/{len(results)} checks passed"]),
          lambda: {
              "type": "verification",
              "suite": args.suite,
              "seed": args.seed,
              "results": [
                  {"name": r.name, "passed": r.passed, "samples": r.samples,
                   "detail": r.detail}
                  for r in results
              ],
          })
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassmann",
        description="Exact computation in the Grassmann algebra and its automorphism group")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="multiply two elements")
    _add_common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_mul)

    p = sub.add_parser("apply", help="apply an endomorphism to an element")
    _add_common(p)
    p.add_argument("--endo", required=True)
    p.add_argument("element")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("jacobian", help="Jacobian determinant of an endomorphism")
    _add_common(p)
    p.add_argument("--endo", required=True)
    p.set_defaults(fn=_cmd_jacobian)

    p = sub.add_parser("invert", help="invert an automorphism")
    _add_common(p)
    p.add_argument("--endo", required=True)
    p.add_argument("--strategy", choices=("iteration", "formula"),
                   default="iteration")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("decompose", help="factor an automorphism")
    _add_common(p)
    p.add_argument("--endo", required=True)
    p.add_argument("--mode", required=True,
                   choices=tuple(_DECOMPOSITIONS))
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("member", help="decide subgroup membership")
    _add_common(p)
    p.add_argument("--endo", required=True)
    p.add_argument("--group", required=True,
                   help="e.g. gamma, sigma, sigma-prime, omega, gamma-asc:4")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("preimage", help="construct a Jacobian preimage")
    _add_common(p)
    p.add_argument("target", help="an even element with constant term 1")
    p.add_argument("--inexact", action="store_true",
                   help="for even n, accept a forced top coefficient")
    p.set_defaults(fn=_cmd_preimage)

    p = sub.add_parser("dims", help="dimension formula vs coordinate count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True,
                   help="e.g. sigma, sigma-prime, gamma, xi-space, gamma-asc:4")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("generators", help="list one-parameter generator families")
    _add_common(p)
    p.add_argument("--group", required=True)
    p.set_defaults(fn=_cmd_generators)

    p = sub.add_parser("verify", help="run the seeded verification battery")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--field", default="prime:7")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
