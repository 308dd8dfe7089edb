"""Explicit-formula right-hand sides and zero-sum terms.

The central object is the truncated zero term

    H_T(x, chi) = sum_{|gamma| <= T} x^(rho+1) / (rho (rho+1)),

which enters the two main asymptotics as

    S(x; q, a, b)      ~ x^2/(2 phi(q)^2)
                         - phi(q)^-2 sum_chi (conj chi(a) + conj chi(b)) H_T(x, chi)

    sum_{n<=x, n=c(q)} G(n)
                       ~ S_q(c) x^2 / 2
                         - (2/phi(q)^2) sum_chi conj(csum(chi, c)) H_T(x, chi)

with csum the complete character sum collapsed through its closed form.
Every zero sum here is lfunc.zero_power_sum, which evaluates x^rho as
x^beta e^(i gamma log x) over the whole set and sums with exact (fsum)
rounding: the sums are cancellation-heavy and runs must be reproducible
bit for bit.

Also here: the Landau-Gonek prime-power detector sum_{|gamma|<=T} x^rho
with its assembled unit-constant error budget, the Gamma-ratio of the
zero-pair term with its T^(1/2) bound, and the residue formulas of the
meromorphic continuation of the two generating Dirichlet series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .characters import (
    DirichletCharacter,
    build_group,
    char_sum_closed_form,
    char_value,
)
from .errors import GzError
from .lfunc import ZeroSet, zero_power_sum
from .numtheory import euler_phi, factorize
from .singular import singular_series


class MissingZeroSetError(GzError):
    pass


def _kahan_complex(terms) -> complex:
    re, im = [], []
    for t in terms:
        re.append(t.real)
        im.append(t.imag)
    return complex(math.fsum(re), math.fsum(im))


def h_term(x: float, chi: DirichletCharacter, zeros: ZeroSet, T: float) -> complex:
    """H_T(x, chi) = sum over |gamma| <= T of x^(rho+1)/(rho(rho+1)),
    counted with multiplicity (0 for x <= 0)."""
    return x * zero_power_sum(zeros, T, x, lambda rho: 1 / (rho * (rho + 1)))


def h_term_tail_bound(x: float, q: int, T: float) -> float:
    """Unit-constant tail budget x^2 log(qT) / T for the discarded zeros."""
    return x * x * math.log(max(q * T, 2.0)) / T


@dataclass
class ExplicitRow:
    x: float
    exact: float
    main: float
    zero_correction: complex  # rhs = main - correction
    truncation_bound: float

    @property
    def rhs(self) -> float:
        return self.main - self.zero_correction.real

    @property
    def residual(self) -> float:
        # exact - main + correction
        return self.exact - self.rhs


def _require_sets(q: int, zero_sets: dict[str, ZeroSet]) -> list[DirichletCharacter]:
    chars = build_group(q)
    for chi in chars:
        if chi.label not in zero_sets:
            raise MissingZeroSetError(f"no zero set for {chi.label}")
    return chars


def truncation_bound(x: float, q: int, T: float) -> float:
    """x^2/T (log qx)^2 with constant one (the report's budget column)."""
    return x * x / T * math.log(max(q * x, 2.0)) ** 2


def thm12_rhs(
    x: float,
    q: int,
    a: int,
    b: int,
    zero_sets: dict[str, ZeroSet],
    T: float,
    exact: float = math.nan,
) -> ExplicitRow:
    """Main term minus zero correction for S(x; q, a, b).

    The imaginary part of the correction cancels by conjugate pairing;
    it is checked and discarded.
    """
    if math.gcd(a * b, q) != 1:
        raise ValueError("thm12_rhs requires (ab, q) = 1")
    chars = _require_sets(q, zero_sets)
    phi = euler_phi(q)
    corr_terms = []
    for chi in chars:
        w = (complex(char_value(chi, a)).conjugate()
             + complex(char_value(chi, b)).conjugate())
        if w != 0:
            corr_terms.append(w * h_term(x, chi, zero_sets[chi.label], T))
    corr = _kahan_complex(corr_terms) / phi ** 2
    main = x * x / (2 * phi * phi)
    _check_real(corr, main)
    return ExplicitRow(
        x=x,
        exact=exact,
        main=main,
        zero_correction=corr,
        truncation_bound=truncation_bound(x, q, T),
    )


def thm14_rhs(
    x: float,
    q: int,
    c: int,
    zero_sets: dict[str, ZeroSet],
    T: float,
    exact: float = math.nan,
) -> ExplicitRow:
    """Main term minus zero correction for sum_{n<=x, n=c(q)} G(n); the
    inner a-sum is collapsed through the closed-form character sum."""
    chars = _require_sets(q, zero_sets)
    phi = euler_phi(q)
    corr_terms = []
    for chi in chars:
        w = char_sum_closed_form(chi, c).conjugate()
        if w != 0:
            corr_terms.append(w * h_term(x, chi, zero_sets[chi.label], T))
    corr = 2.0 * _kahan_complex(corr_terms) / phi ** 2
    main = float(singular_series(q, c)) * x * x / 2.0
    _check_real(corr, main)
    return ExplicitRow(
        x=x,
        exact=exact,
        main=main,
        zero_correction=corr,
        truncation_bound=truncation_bound(x, q, T),
    )


def _check_real(corr: complex, scale: float) -> None:
    if abs(corr.imag) > 1e-6 * max(abs(corr.real), scale, 1.0):
        raise GzError(
            f"conjugate pairing failed: imaginary part {corr.imag:.3e} "
            f"against scale {scale:.3e}"
        )


def landau_gonek(
    x: float,
    chi: DirichletCharacter,
    zeros: ZeroSet,
    T: float,
) -> tuple[complex, complex, float]:
    """(sum, prediction, error_budget) for sum_{|gamma|<=T} x^rho.

    prediction = -(T/pi) chi(x) Lambda(x), zero when x is not an integer
    prime power; the budget assembles the three error terms with unit
    constants, one of them through the distance <x> from x to the
    nearest other prime power.
    """
    if not 1 < x:
        raise ValueError("x must exceed 1")
    total = zero_power_sum(zeros, T, x)
    lx = math.log(x)

    lam = 0.0
    chival = 0j
    xi = int(round(x))
    if abs(x - xi) < 1e-12 and xi > 1:
        fac = factorize(xi)
        if fac.is_prime_power():
            lam = fac.von_mangoldt()
        chival = complex(char_value(chi, xi))
    prediction = -(T / math.pi) * chival * lam

    nearest_gap = _nearest_pp_gap_search(x)
    q = chi.q
    budget = (
        x * math.log(2 * q * x * T) * math.log(math.log(3 * x))
        + lx * min(T, x / nearest_gap)
        + math.log(2 * q * T) * min(T, 1 / lx if lx > 0 else T)
    )
    return total, prediction, budget


def _nearest_pp_gap_search(x: float) -> float:
    """<x>: distance to the nearest prime power other than x itself.

    Walks outward from floor(x) and ceil(x); the pair at radius r lies at
    least r from x, so the walk stops once r reaches the best distance.
    """
    best = math.inf
    lo = math.floor(x)
    hi = math.ceil(x)
    radius = 0
    while radius < best:
        for n in (lo, hi):
            if n > 1 and abs(n - x) > 1e-12 and factorize(n).is_prime_power():
                best = min(best, abs(n - x))
        lo -= 1
        hi += 1
        radius += 1
        if radius > 10 ** 6:
            raise GzError("no prime power found nearby")
    return best


def z_gamma_ratio(rho: complex, rho2: complex) -> complex:
    """Gamma(rho) Gamma(rho') / Gamma(1 + rho + rho') via log-gamma
    differences (no overflow for |gamma| <= 1e4)."""
    for r in (rho, rho2):
        if not 0 < r.real < 1:
            raise ValueError(f"{r} outside the open critical strip")
    # strip membership puts 1 + rho + rho' in Re > 1: no Gamma pole can occur
    s = rho + rho2
    return cmath.exp(
        complex(loggamma(rho)) + complex(loggamma(rho2))
        - complex(loggamma(1 + s))
    )


def z_gamma_ratio_matrix(rhos1: np.ndarray, rhos2: np.ndarray) -> np.ndarray:
    """|Z| over the outer product of two zero arrays (vectorized)."""
    lg1 = loggamma(rhos1)
    lg2 = loggamma(rhos2)
    out = np.exp(lg1[:, None] + lg2[None, :]
                 - loggamma(1 + rhos1[:, None] + rhos2[None, :]))
    return out


def residue_r(
    rho_q: complex,
    q: int,
    a: int,
    b: int,
    zero_sets: dict[str, ZeroSet],
    tol: float = 1e-6,
) -> complex:
    """Residue of the continued series at s = rho_q + 1:
    -(1/phi^2) rho_q^-1 sum over chi vanishing at rho_q of
    (conj chi(a) + conj chi(b)) m_chi(rho_q)."""
    chars = _require_sets(q, zero_sets)
    phi = euler_phi(q)
    total = 0j
    found = False
    for chi in chars:
        m = _multiplicity_at(zero_sets[chi.label], rho_q, tol)
        if m:
            found = True
            w = (complex(char_value(chi, a)).conjugate()
                 + complex(char_value(chi, b)).conjugate())
            total += w * m
    if not found:
        raise ValueError(f"{rho_q} is not a recorded zero mod {q}")
    return -total / (phi * phi * rho_q)


def residue_r1(
    rho_q: complex,
    q: int,
    c: int,
    zero_sets: dict[str, ZeroSet],
    tol: float = 1e-6,
) -> complex:
    """Residue analog for the congruence-class series: the a-summed
    character weight collapses through the closed-form character sum."""
    chars = _require_sets(q, zero_sets)
    phi = euler_phi(q)
    total = 0j
    found = False
    for chi in chars:
        m = _multiplicity_at(zero_sets[chi.label], rho_q, tol)
        if m:
            found = True
            total += char_sum_closed_form(chi, c).conjugate() * m
    if not found:
        raise ValueError(f"{rho_q} is not a recorded zero mod {q}")
    return -2.0 * total / (phi * phi * rho_q)


def _multiplicity_at(zeros: ZeroSet, rho: complex, tol: float) -> int:
    return sum(
        e.multiplicity for e in zeros.entries if abs(e.rho - rho) <= tol
    )
