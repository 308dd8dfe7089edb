"""Singular series and Hardy-Littlewood weights.

C2 is the twin prime constant 2 prod_{p>2} (1 - 1/(p-1)^2); the weight

    J(n) = n C2 prod_{p | n, p > 2} (p-1)/(p-2)   (even n; 0 for odd n)

is the classical approximation to the Goldbach count G(n), and

    S_q(c) = (1/phi(q)) prod_{p | q, p !| c} (p-2)/(p-1)

is its arithmetic density in the congruence class c mod q (zero exactly
when (2, q) does not divide c).  S_q(c) is returned as the exact Fraction
numtheory.unit_pair_count(q, c) / phi(q)^2, so the sieve identity
#{a : (a(c-a), q) = 1} = phi(q)^2 S_q(c) is an integer identity, which
characters.verify_sieve_identity checks against a direct count.

C2 itself is a partial product over p <= P plus a rigorous tail
correction computed through the prime zeta function P(s) (the partial
product alone converges like 1/(P log P), far too slowly for a 1e-12
target):

    log prod_{p>P} (1 - 1/(p-1)^2) = -sum_{k>=2} ((2^k - 2)/k) P_{>P}(k),

where P_{>P}(k) = sum_{p>P} p^-k is evaluated from P(k) =
sum_j mu(j)/j log zeta(jk) minus the explicit sum over p <= P.  The
series is alternating-free and decays geometrically like (2/P)^k, so the
truncation error is far below 1e-12 for every allowed cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import character_from_label
from .lfunc import l_values_array
from .numtheory import (check_modulus, euler_phi, moebius, primes_up_to,
                        unit_pair_count)

_C2_SERIES_TERMS = 120


@dataclass(frozen=True)
class SingularConstants:
    """Twin prime constant with provenance of its computation."""

    C2: float
    prime_cutoff: int
    tail_bound: float
    partial_product: float  # plain product over p <= cutoff, monotone in P


def _prime_zeta(s: float) -> float:
    """P(s) = sum_p p^-s for real s >= 2, via Moebius inversion of
    log zeta, with zeta = L(s, chi) for the character mod 1."""
    zeta = character_from_label("q=1;e=")
    total = 0.0
    for j in range(1, 80):
        mu = moebius(j)
        if mu == 0:
            continue
        js = j * s
        if js > 1070:
            break
        # log zeta(js): for large argument zeta - 1 ~ 2^-js
        if js > 50:
            lz = math.log1p(2.0 ** -js + 3.0 ** -js)
        else:
            lz = math.log(float(l_values_array(zeta, js)[0].real))
        total += mu / j * lz
        if abs(lz) < 1e-18:
            break
    return total


def compute_c2(prime_cutoff: int = 10 ** 6) -> SingularConstants:
    """Twin prime constant C2 = 2 prod_{p>2}(1 - (p-1)^-2).

    Partial product over p <= prime_cutoff, then the prime-zeta tail
    correction; tail_bound is a rigorous bound on the residual error.
    """
    if prime_cutoff < 10 ** 5:
        raise ValueError("prime cutoff below validated floor 1e5")
    primes = primes_up_to(prime_cutoff)
    odd = primes[primes > 2].astype(np.float64)
    partial = 2.0 * float(np.exp(np.log1p(-((odd - 1.0) ** -2)).sum()))

    # tail over p > P: -sum_{k>=2} ((2^k-2)/k) * sum_{p>P} p^-k.
    # sum_{p>P} p^-k <= P^{1-k}/(k-1), so the k-th term is rigorously
    # below (2^k-2)/k * P^{1-k}/(k-1): the series is cut once that bound
    # drops under 1e-17.  Terms past the cut would only amplify the
    # ~1e-16 cancellation noise of the prime-zeta difference.
    log_tail = 0.0
    inv = 1.0 / odd
    truncation = 0.0
    for k in range(2, _C2_SERIES_TERMS):
        bound = (2.0 ** k - 2.0) / k * prime_cutoff ** (1 - k) / (k - 1)
        if bound < 1e-17:
            truncation = bound * 2.0  # geometric remainder, ratio < 1/2
            break
        pz_gt = _prime_zeta(float(k)) - 2.0 ** -k - float(np.sum(inv ** k))
        log_tail -= (2.0 ** k - 2.0) / k * pz_gt
    c2 = partial * math.exp(log_tail)
    # residual: series truncation + prime-zeta evaluation noise
    tail_bound = truncation + 1e-13
    return SingularConstants(
        C2=c2,
        prime_cutoff=prime_cutoff,
        tail_bound=tail_bound,
        partial_product=partial,
    )


def j_weight_table(x: int, constants: SingularConstants) -> np.ndarray:
    """J(n) for n = 0..x as a float64 array, from a table f over m = n/2
    of prod_{p | m, p > 2} (p-1)/(p-2), multiplied in ascending p: one
    strided multiply for each odd p <= sqrt(M), M = x // 2, then one
    gather-multiply per cofactor k <= M/(isqrt(M) + 1) over the primes
    p > sqrt(M) with kp <= M.  Each m has at most one prime factor past
    sqrt(M), and it is its largest, so it is still multiplied last."""
    out = np.zeros(x + 1, dtype=np.float64)
    if x < 2:
        return out
    M = x // 2
    primes = primes_up_to(M)[1:]
    small = primes[: np.searchsorted(primes, math.isqrt(M), side="right")]
    large = primes[len(small):]
    ratio = (large - 1) / (large - 2)
    f = np.ones(M + 1, dtype=np.float64)
    for p in small.tolist():
        f[p::p] *= (p - 1) / (p - 2)
    for k in range(1, M // (math.isqrt(M) + 1) + 1):
        n = np.searchsorted(large, M // k, side="right")
        f[k * large[:n]] *= ratio[:n]
    n = np.arange(0, x + 1, 2)
    out[n] = n * constants.C2 * f
    out[0] = 0.0
    return out


def singular_series(q: int, c: int) -> Fraction:
    """S_q(c) = (1/phi(q)) prod_{p|q, p !| c} (p-2)/(p-1), exact, for
    any integer c standing for its class mod q (c = 0 and c = q agree).

    Zero exactly when 2 | q and 2 !| c (the factor p = 2 contributes 0).
    """
    return Fraction(unit_pair_count(q, c), euler_phi(q) ** 2)


def _check_j_envelope(x: int, q: int) -> None:
    """ValueError for q < 1 or x past j_average's validated 1e7 envelope."""
    check_modulus(q)
    if x > 10 ** 7:
        raise ValueError("j_average: x beyond validated envelope 1e7")


def check_j_inputs(x: int, q: int) -> None:
    """gz javg's input check, made before C2 or a table is built:
    j_average's envelope, and x > 100, where javg's grid starts."""
    if x <= 100:
        raise ValueError(f"javg: x={x} must exceed 100, where its grid starts")
    _check_j_envelope(x, q)


def j_average(x: int, q: int, c: int, j_table: np.ndarray) -> tuple[float, float, float]:
    """(exact_sum, main_term, residual) for sum_{n<=x, n=c (q)} J(n)
    against S_q(c) x^2 / 2, read from j_table = j_weight_table(X, C2)
    for some X >= x (ValueError for a shorter table)."""
    _check_j_envelope(x, q)
    if len(j_table) <= x:
        raise ValueError(f"j_average: table of length {len(j_table)} stops before x={x}")
    exact = float(j_table[c % q: x + 1: q].sum())
    main = float(singular_series(q, c)) * x * x / 2.0
    return exact, main, exact - main
