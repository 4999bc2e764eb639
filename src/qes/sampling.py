"""Seeded random rational parameters with pole avoidance.

Identities in the family parameters are checked by instantiating them at
random rational points (Schwartz-Zippel style).  The samplers here keep
numerators and denominators small so exact arithmetic stays fast, and
reject the parameter values that would hit a pole of some action formula
(division by s, by alpha, by alpha+n) or a degenerate basis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from .families import FAMILIES


def mix_seed(*parts: int) -> int:
    """Fold several small integers into one reproducible RNG seed."""
    acc = 0
    for part in parts:
        acc = acc * 1_000_003 + part
    return acc


def random_rational(rng: random.Random, num_bound: int = 9, den_bound: int = 5) -> Fraction:
    """A nonzero fraction p/q with |p| <= num_bound, 1 <= q <= den_bound."""
    while True:
        p = rng.randint(-num_bound, num_bound)
        if p != 0:
            return Fraction(p, rng.randint(1, den_bound))


def _bad_s(s: Fraction, n_max: int) -> bool:
    # The lower hypergeometric parameter must stay off the nonpositive
    # integers, and s appears in denominators of the ladder formulas, so
    # also keep clear of integers small enough to collide with basis labels.
    if s.denominator != 1:
        return False
    return s.numerator <= 0 or s.numerator <= n_max + 3


def _bad_alpha(alpha: Fraction, n_max: int) -> bool:
    # alpha + n divides coefficients in the chain construction for n <= N.
    return alpha.denominator == 1 and -n_max <= alpha.numerator <= 0


_REJECTED = {"s": _bad_s, "alpha": _bad_alpha, "nu": lambda nu, n_max: False}


def sample_params(family_id: int, n_max: int, rng: random.Random) -> Dict[str, Fraction]:
    """One admissible parameter point for the given family at subspace size N = n_max.

    The parameters are drawn in the order of the family record's `parameters`.
    """
    params: Dict[str, Fraction] = {}
    for name in FAMILIES[family_id].parameters:
        value = random_rational(rng)
        while _REJECTED[name](value, n_max):
            value = random_rational(rng)
        params[name] = value
    return params


def sample_grid(family_id: int, n_max: int, count: int, seed: int = 0) -> List[Dict[str, Fraction]]:
    """`count` independent parameter points, reproducible from the seed."""
    rng = random.Random(mix_seed(seed, family_id, n_max))
    return [sample_params(family_id, n_max, rng) for _ in range(count)]
