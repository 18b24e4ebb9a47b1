"""Dimension formulas for the subgroups, with an independent coordinate count.

``dim_formula`` evaluates the closed forms; ``dim_by_coordinates`` recounts
the same dimensions combinatorially by enumerating the coordinate monomials
of each factorization, serving as an independent oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import check_n
from .groups import ascent_step, normalize_group_name
from .linsolve import admissible_supports


def _parity_offset(n: int) -> int:
    # 2 for even n, 1 for odd n
    return 2 if n % 2 == 0 else 1


_SIGMA_FAMILY = {
    "sigma", "sigma_prime", "sigma_double_prime", "sigma_prime_cap_double_prime",
    "xi_space", "gamma_asc", "gamma_mod_sigma", "sigma_mod_double_prime",
}


def _check_range(kind: str, n: int) -> None:
    check_n(n)
    if kind in _SIGMA_FAMILY:
        if n < 4:
            raise ValueError(f"dimension of {kind} needs n >= 4")
    elif n < 2:
        raise ValueError("need n >= 2")


def dim_formula(group, n: int) -> int:
    """Closed-form dimension of the named group (or quotient / parameter space)."""
    kind, param = normalize_group_name(group)
    _check_range(kind, n)
    pi = _parity_offset(n)
    if kind == "gamma":
        return n * (2 ** (n - 1) - n)
    if kind == "phi":
        return n * (2 ** (n - 2) - 1)
    if kind == "sigma":
        return (n - 1) * 2 ** (n - 1) - n * n + pi
    if kind == "sigma_prime":
        return (n - 2) * 2 ** (n - 2) - n + pi
    if kind == "sigma_double_prime":
        return dim_formula("sigma", n) - (n - 3) * comb(n, 2)
    if kind == "sigma_prime_cap_double_prime":
        return dim_formula("sigma_prime", n) - (n - 3) * comb(n, 2)
    if kind == "xi_space":
        return n * (2 ** (n - 2) - n + 1)
    if kind == "gamma_asc":
        return dim_formula("sigma", n) + sum(
            comb(n, 2 * i) for i in range(ascent_step(param), (n - 1) // 2 + 1))
    if kind == "gamma_mod_sigma":
        return 2 ** (n - 1) - pi
    if kind == "sigma_mod_double_prime":
        return (n - 3) * comb(n, 2)
    raise ValueError(f"no dimension formula for {kind!r}")


def _count_monomials(n: int, degree: int, avoid: int | None = None) -> int:
    """Number of degree-d monomials, optionally avoiding one generator, by listing."""
    pool = [i for i in range(1, n + 1) if i != avoid]
    return sum(1 for _ in combinations(pool, degree))


def _coords_scaling_family(n: int, from_s: int) -> int:
    """Total size of the admissible-support sets for stages s >= from_s."""
    total = 0
    for s in range(from_s, (n - 1) // 2 + 1):
        for i in range(1, n):
            total += len(admissible_supports(n, s, i))
    return total


def _coords_xi_space(n: int) -> int:
    """Free coefficients of the single-coordinate shift words, by enumeration."""
    total = 0
    for t in range(3, n + 1, 2):
        for i in range(1, n + 1):
            total += _count_monomials(n, t, avoid=i)
    return total


def _coords_phi(n: int) -> int:
    total = 0
    for i in range(1, n + 1):
        for d in range(2, n, 2):
            total += _count_monomials(n, d, avoid=i)
    return total


def dim_by_coordinates(group, n: int) -> int:
    """Recount a dimension by enumerating coordinate monomials per factorization."""
    kind, param = normalize_group_name(group)
    _check_range(kind, n)
    if kind == "phi":
        return _coords_phi(n)
    if kind == "xi_space":
        return _coords_xi_space(n)
    if kind == "gamma":
        # scaling part times shift words
        return _coords_phi(n) + _coords_xi_space(n)
    if kind == "sigma_prime":
        return _coords_scaling_family(n, 1)
    if kind == "sigma":
        return _coords_scaling_family(n, 1) + _coords_xi_space(n)
    if kind == "sigma_prime_cap_double_prime":
        return _coords_scaling_family(n, 2)
    if kind == "sigma_double_prime":
        return _coords_scaling_family(n, 2) + _coords_xi_space(n)
    if kind == "sigma_mod_double_prime":
        return sum(len(admissible_supports(n, 1, i)) for i in range(1, n))
    if kind == "gamma_mod_sigma":
        return sum(_count_monomials(n, 2 * s) for s in range(1, (n - 1) // 2 + 1))
    if kind == "gamma_asc":
        return dim_by_coordinates("sigma", n) + sum(
            _count_monomials(n, 2 * i) for i in range(ascent_step(param), (n - 1) // 2 + 1))
    raise ValueError(f"no coordinate count for {kind!r}")


DIM_GROUPS = ("gamma", "phi", "sigma", "sigma_prime", "sigma_double_prime",
              "sigma_prime_cap_double_prime", "xi_space", "gamma_mod_sigma",
              "sigma_mod_double_prime")
