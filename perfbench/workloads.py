"""The benchmark's three workloads.

Each workload draws its inputs from ``grassmann.sampling.spawn(seed, name, k)``
when it is constructed, and keeps them as text, so every operation rebuilds
its objects and no per-object cache (``_prods``, ``_jac``, ``_inverses``)
carries from one operation to the next.  An operation has three parts:

* ``prepare(inp)`` turns one input into the objects the operation needs
  (untimed);
* ``run(obj)`` is the operation itself (timed);
* ``check(obj, out)`` checks the output, by another route than the code under
  measurement wherever one exists (untimed).  It returns ``None`` when the
  output is correct and a one-line reason otherwise.

Inputs are grouped into cycles: a run measures whole cycles only, so the mix
of operation kinds is the same in every run.  Library modules are looked up
at call time (``self.cli.main``, never a bound copy), so the tracer's
wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import importlib
import io

# Distinct input cycles drawn per run; a run needing more reuses them, which
# is harmless because every operation rebuilds its objects from text.
POOL_CYCLES = {"verify_gf7": 64, "cli_qq": 48, "jacobian_qq": 24}


def _modules():
    names = ("algebra", "endo", "groups", "rings", "sampling", "skewcalc",
             "verify", "cli")
    return {name: importlib.import_module(f"grassmann.{name}") for name in names}


class Workload:
    name: str
    field: str
    n: object

    def __init__(self, seed):
        self.seed = seed
        for key, mod in _modules().items():
            setattr(self, key, mod)
        self.ring = self.rings.ring_from_name(self.field)
        self.pool = [self.make_cycle(c) for c in range(POOL_CYCLES[self.name])]

    def rng(self, *labels):
        return self.sampling.spawn(self.seed, self.name, *labels)

    def cycle(self, c):
        return self.pool[c % len(self.pool)]


# -- verify_gf7 ---------------------------------------------------------------

class VerifyGF7(Workload):
    """``run_suite(suite, n=5, ring=GF(7), samples=25, seed=s)`` per operation,
    cycling through the twelve suites; one battery seed per cycle."""

    name = "verify_gf7"
    field = "prime:7"
    n = 5
    samples = 25

    def make_cycle(self, c):
        s = self.rng(c).getrandbits(32)
        return [(suite, s) for suite in self.verify.SUITES if suite != "all"]

    def warm_up(self):
        # fills the module-level caches (_gf_cache, _avoid_cache) cheaply
        for suite in self.verify.SUITES[:-1]:
            self.verify.run_suite(suite, n=self.n, ring=self.ring, samples=1,
                                  seed="warm-up")

    def prepare(self, inp):
        return inp

    def run(self, obj):
        suite, s = obj
        return self.verify.run_suite(suite, n=self.n, ring=self.ring,
                                     samples=self.samples, seed=s)

    def check(self, obj, out):
        if not out:
            return f"suite {obj[0]} returned no rows"
        bad = [r.line() for r in out if not r.passed]
        return bad[0] if bad else None


# -- cli_qq -------------------------------------------------------------------

def _dense_element(rng, ring, algebra, n, share=0.5):
    """About ``share`` of the 2^n monomials, with nonzero random coefficients."""
    terms = {m: ring.random_nonzero(rng) for m in range(1 << n)
             if rng.random() < share}
    return algebra.GrassmannElement(ring, n, terms)


class CliQQ(Workload):
    """``invert``, ``apply`` and ``decompose --mode oga`` on one seeded
    inner*shift*linear automorphism, run in-process through ``cli.main``."""

    name = "cli_qq"
    field = "rational"
    n = 8

    def make_cycle(self, c):
        rng = self.rng(c)
        sigma = self.sampling.random_automorphism(rng, self.ring, self.n)
        e = _dense_element(rng, self.ring, self.algebra, self.n)
        return [(self.endo.format_endomorphism(sigma),
                 self.algebra.format_element(e), self.n)]

    def warm_up(self):
        rng = self.rng("warm-up")
        n = 4
        sigma = self.sampling.random_automorphism(rng, self.ring, n)
        e = _dense_element(rng, self.ring, self.algebra, n)
        obj = self.prepare((self.endo.format_endomorphism(sigma),
                            self.algebra.format_element(e), n))
        self.run(obj)

    def prepare(self, inp):
        endo_text, elem_text, n = inp
        common = ["--n", str(n), "--field", self.field, "--endo", endo_text]
        return {
            "endo": endo_text, "element": elem_text, "n": n,
            "argvs": [["invert"] + common,
                      ["apply"] + common + [elem_text],
                      ["decompose"] + common + ["--mode", "oga"]],
        }

    def run(self, obj):
        outs = []
        for argv in obj["argvs"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            outs.append((rc, out.getvalue(), err.getvalue()))
        return outs

    def check(self, obj, out):
        for argv, (rc, _, err) in zip(obj["argvs"], out):
            if rc != 0:
                return f"{argv[0]} exited {rc}: {err.strip()[:200]}"
        ring, n = self.ring, obj["n"]
        alg, endo = self.algebra, self.endo
        sigma = endo.parse_endomorphism(ring, n, obj["endo"], check=False)
        fact = self._parse_oga(out[2][1], n)
        if fact is None:
            return "decompose output is not in the documented text form"
        if fact.recompose(ring, n) != sigma:
            return "oga factors do not recompose to the input"
        # sigma applied through its checked factors: f -> u * gamma(A f) * u^-1
        gens = [alg.GrassmannElement.generator(ring, n, i + 1) for i in range(n)]
        linear = endo.linear_endo(ring, fact.matrix)
        shift = endo.Endomorphism([g + b for g, b in zip(gens, fact.b)], check=False)
        u = alg.GrassmannElement.one(ring, n) + fact.a
        u_inv = alg.invert_unit(u)

        def sigma_of(f):
            return u * shift.apply(linear.apply(f)) * u_inv

        inv = endo.parse_endomorphism(ring, n, out[0][1], check=False)
        if [sigma_of(im) for im in inv.images] != gens:
            return "the input composed with the printed inverse is not the identity"
        e = alg.parse_element(ring, n, obj["element"])
        if alg.parse_element(ring, n, out[1][1]) != sigma_of(e):
            return "printed image differs from the image through the oga factors"
        return None

    def _parse_oga(self, text, n):
        ring, parse_elem = self.ring, self.algebra.parse_element
        lines = text.strip().splitlines()
        if len(lines) != n + 3 or lines[-1] != "verified: True":
            return None
        if not lines[0].startswith("inner: "):
            return None
        one = self.algebra.GrassmannElement.one(ring, n)
        a = parse_elem(ring, n, lines[0][len("inner: "):]) - one
        b = []
        for i, line in enumerate(lines[1:n + 1]):
            head = f"shift b{i + 1}: "
            if not line.startswith(head):
                return None
            b.append(parse_elem(ring, n, line[len(head):]))
        head = "matrix rows: "
        if not lines[n + 1].startswith(head):
            return None
        matrix = [[ring.parse(c) for c in row.strip(" []").split(", ")]
                  for row in lines[n + 1][len(head):].split("; ")]
        return self.groups.OmegaGammaLinear(a=a, b=tuple(b), matrix=matrix)


# -- jacobian_qq --------------------------------------------------------------

def det_by_elimination(algebra, ring, n, matrix):
    """Determinant of a matrix of even (hence commuting) elements by Gaussian
    elimination with unit pivots: an independent route to the library's
    memoised cofactor expansion."""
    m = [row[:] for row in matrix]
    size = len(m)
    det = algebra.GrassmannElement.one(ring, n)
    for col in range(size):
        pivot = next((r for r in range(col, size)
                      if ring.is_unit(m[r][col].constant_term())), None)
        if pivot is None:
            raise ArithmeticError("no unit pivot: the linear part is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = algebra.invert_unit(m[col][col])
        for r in range(col + 1, size):
            if not m[r][col]:
                continue
            f = m[r][col] * inv
            for k in range(col + 1, size):
                m[r][k] = m[r][k] - f * m[col][k]
    return det


class JacobianQQ(Workload):
    """Per operation, at n cycling through 7, 8, 9 over QQ: the Jacobian of a
    shift*linear automorphism, ``decompose_layers`` of an odd shift
    automorphism and, for odd n, ``jacobian_preimage`` of an even target."""

    name = "jacobian_qq"
    field = "rational"
    n = (7, 8, 9)
    target_terms = 12

    def make_cycle(self, c):
        return [self._make_input(self.rng(c, n), n) for n in self.n]

    def _make_input(self, rng, n):
        ring, fmt = self.ring, self.endo.format_endomorphism
        gamma = self.sampling.random_gamma(rng, ring, n, terms=2)
        a = self.sampling.random_invertible_matrix(rng, ring, n)
        rho = gamma.compose(self.endo.linear_endo(ring, a))
        shift = self.sampling.random_gamma(rng, ring, n, terms=3)
        target = None
        if n % 2:
            one = self.algebra.GrassmannElement.one(ring, n)
            even = self.sampling.random_even(rng, ring, n, terms=self.target_terms)
            target = self.algebra.format_element(one + even)
        return {"n": n, "rho": fmt(rho), "gamma": fmt(gamma),
                "a": [[ring.format(x) for x in row] for row in a],
                "shift": fmt(shift), "target": target}

    def warm_up(self):
        # sparse inputs at the measured sizes: cheap, and they touch every path
        for n in self.n:
            rng = self.rng("warm-up", n)
            ring, fmt = self.ring, self.endo.format_endomorphism
            shift = self.sampling.random_gamma(rng, ring, n, terms=1)
            inp = {"n": n, "rho": fmt(shift), "shift": fmt(shift), "target": None}
            if n % 2:
                one = self.algebra.GrassmannElement.one(ring, n)
                even = self.sampling.random_even(rng, ring, n, terms=1)
                inp["target"] = self.algebra.format_element(one + even)
            self.run(self.prepare(inp))

    def prepare(self, inp):
        ring, n = self.ring, inp["n"]
        parse_endo = self.endo.parse_endomorphism
        obj = dict(inp)
        obj["rho_endo"] = parse_endo(ring, n, inp["rho"], check=False)
        obj["shift_endo"] = parse_endo(ring, n, inp["shift"], check=False)
        obj["target_elem"] = (None if inp["target"] is None else
                              self.algebra.parse_element(ring, n, inp["target"]))
        return obj

    def run(self, obj):
        jac = obj["rho_endo"].jacobian()
        word = self.groups.decompose_layers(obj["shift_endo"])
        pre = (None if obj["target_elem"] is None
               else self.groups.jacobian_preimage(obj["target_elem"]))
        return jac, word, pre

    def check(self, obj, out):
        jac, word, pre = out
        ring, n, alg = self.ring, obj["n"], self.algebra
        partial = self.skewcalc.skew_partial
        gamma = self.endo.parse_endomorphism(ring, n, obj["gamma"], check=False)
        a = [[ring.parse(x) for x in row] for row in obj["a"]]
        j_gamma = [[partial(j + 1, im) for j in range(n)] for im in gamma.images]
        # the Jacobian matrix of gamma*lambda is A times that of gamma ...
        for i in range(n):
            for j in range(n):
                want = alg.GrassmannElement.zero(ring, n)
                for t in range(n):
                    want = want + j_gamma[t][j].scale(a[i][t])
                if jac.matrix[i][j] != want:
                    return f"Jacobian matrix entry ({i + 1},{j + 1}) breaks the chain rule"
        # ... so J(gamma*lambda) = det(A) * J(gamma), as in check_chain_rule
        det_a = det_by_elimination(alg, ring, n, [
            [alg.GrassmannElement.scalar(ring, n, x) for x in row] for row in a])
        if jac.det != det_a * det_by_elimination(alg, ring, n, j_gamma):
            return "determinant breaks the linear chain rule"
        if jac.valuation != _valuation(jac.det):
            return f"valuation {jac.valuation} does not match the determinant"
        if word.recompose() != obj["shift_endo"]:
            return "layer factors do not recompose to the input"
        if pre is not None:
            images = pre.sigma.images
            matrix = [[partial(j + 1, im) for j in range(n)] for im in images]
            if det_by_elimination(alg, ring, n, matrix) != obj["target_elem"]:
                return "the preimage's Jacobian is not the target"
        return None


def _valuation(det):
    """Largest even 2m with det - det(0) in degree >= 2m, capped for constants."""
    n = det.n
    cap = 2 * (n // 2) + 2
    degrees = [m.bit_count() for m in det.terms if m]
    return min(min(degrees), cap) if degrees else cap


WORKLOADS = {cls.name: cls for cls in (VerifyGF7, CliQQ, JacobianQQ)}
