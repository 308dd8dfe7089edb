"""Averaged Goldbach representation counts in arithmetic progressions,
Dirichlet L-function zeros, and explicit-formula verification.

The headline objects:

    build_sieve(x)             the prime powers n <= x and Lambda(n)
    build_group(q)             the phi(q) Dirichlet characters mod q
    s_grid(xs, q, a, b, sieve) S(x; q, a, b) on an x grid (prefix sums)
    restricted_sum(xs, q, c, sieve)  sum_{n<=x, n=c (q)} G(n) on a grid
    build_class_convolution    G(n; q, a, b) for every n <= x (lattice FFT)
    find_zeros(chi, T)         certified zeros of L(s, chi), |gamma| <= T
    load_or_build_zero_sets(q, T)  zero sets of every chi mod q, cached,
                               one zero search per conjugate pair
    zero_power_sum(zeros, T, x, weight)  sum_{|gamma|<=T} m x^rho weight(rho)
    thm12_rhs / thm14_rhs      explicit-formula right-hand sides
    singular_series(q, c)      exact S_q(c) as a Fraction
"""

from .cache import load_or_build_zero_sets
from .characters import build_group, character_from_label
from .explicit import h_term, landau_gonek, thm12_rhs, thm14_rhs
from .goldbach import (build_class_convolution, goldbach_g, restricted_sum,
                       s_chi, s_grid)
from .lfunc import (
    find_zeros,
    hurwitz_zeta,
    zero_count_argument,
    zero_power_sum,
)
from .numtheory import build_sieve, euler_phi, factorize, moebius
from .singular import compute_c2, singular_series

__version__ = "0.1.0"

__all__ = [
    "build_group",
    "build_class_convolution",
    "build_sieve",
    "character_from_label",
    "compute_c2",
    "euler_phi",
    "factorize",
    "find_zeros",
    "goldbach_g",
    "h_term",
    "hurwitz_zeta",
    "landau_gonek",
    "load_or_build_zero_sets",
    "moebius",
    "restricted_sum",
    "s_chi",
    "s_grid",
    "singular_series",
    "thm12_rhs",
    "thm14_rhs",
    "zero_count_argument",
    "zero_power_sum",
]
