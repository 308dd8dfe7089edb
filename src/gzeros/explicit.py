"""Explicit-formula right-hand sides and zero-sum terms.

The central object is the truncated zero term

    H_T(x, chi) = sum_{|gamma| <= T} x^(rho+1) / (rho (rho+1)).

Both main asymptotics read main - (scale/phi(q)^2) sum_chi w_chi H_T(x, chi)
and differ only in the weight w_chi of chi's zeros and the main term:

    S(x; q, a, b):            w_chi = conj chi(a) + conj chi(b), scale 1,
                              main x^2 / (2 phi(q)^2);
    sum_{n<=x, n=c(q)} G(n):  w_chi = conj csum(chi, c), scale 2,
                              main S_q(c) x^2 / 2,

with csum the complete character sum collapsed through its closed form.
_thm12_weights and _thm14_weights give the weights once per grid; one kernel
(_explicit_row) sums the correction over the nonzero ones with exact
fsum rounding, since the sums are cancellation-heavy and runs must be
reproducible bit for bit, and one kernel (_residue) gives the residue
-(scale/phi(q)^2) rho^-1 sum_chi w_chi m_chi(rho) of the continued
series at s = rho + 1.  Every zero sum is lfunc.zero_power_sum.

Also here: the Landau-Gonek prime-power detector sum_{|gamma|<=T} x^rho
with its assembled unit-constant error budget and the Gamma-ratio of the
zero-pair term with its T^(1/2) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import (DirichletCharacter, _exponent_rows, _exponents,
                         _roots_of_unity, build_group, char_sum_closed_form,
                         char_values_table, group)
from .errors import GzError
from .lfunc import REFINE_TOL, ZeroSet, _loggamma, zero_power_sum
from .numtheory import SIEVE_CAP, euler_phi, factorize
from .singular import singular_series


class MissingZeroSetError(GzError):
    pass


# (chi, w_chi) for every chi mod q: the weight of chi's zeros in a formula
Weights = list[tuple[DirichletCharacter, complex]]


def h_term(x: float, chi: DirichletCharacter, zeros: ZeroSet, T: float) -> complex:
    """H_T(x, chi) = sum over |gamma| <= T of x^(rho+1)/(rho(rho+1)),
    counted with multiplicity (0 for x <= 0)."""
    return x * zero_power_sum(zeros, T, x, lambda rho: 1 / (rho * (rho + 1)))


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


def _thm12_weights(q: int, a: int, b: int, zero_sets: dict[str, ZeroSet]) -> Weights:
    """(chi, conj chi(a) + conj chi(b)) for every chi mod q, chi(n) = e(K/L)
    from chi's exponents at n with char_values_table's doubles."""
    chars = _require_sets(q, zero_sets)
    grp = group(q)
    K = _exponents(grp, _exponent_rows(grp), [a % q, b % q])
    conj = np.where(K >= 0, _roots_of_unity(grp.exponent)[K], 0).conjugate()
    return list(zip(chars, (conj[:, 0] + conj[:, 1]).tolist()))


def _thm14_weights(q: int, c: int, zero_sets: dict[str, ZeroSet]) -> Weights:
    """(chi, conj csum(chi, c)) for every chi mod q."""
    return [(chi, char_sum_closed_form(chi, c).conjugate())
            for chi in _require_sets(q, zero_sets)]


def truncation_bound(x: float, q: int, T: float) -> float:
    """x^2/T (log qx)^2 with constant one (the report's budget column)."""
    return x * x / T * math.log(max(q * x, 2.0)) ** 2


def _explicit_row(x: float, q: int, weights: Weights, scale: float, main: float,
                  zero_sets: dict[str, ZeroSet], T: float,
                  exact: float) -> ExplicitRow:
    """main - (scale/phi^2) sum of w H_T(x, chi) over the nonzero weights.
    The imaginary part of the correction cancels by conjugate pairing;
    it is checked and discarded.  x and T are bounded so x^2/T stays finite."""
    if not (0 < x <= SIEVE_CAP and REFINE_TOL <= T < math.inf):
        raise ValueError(f"need 0 < x={x} <= SIEVE_CAP and REFINE_TOL <= T={T} < inf")
    terms = [w * h_term(x, chi, zero_sets[chi.label], T)
             for chi, w in weights if w != 0]
    total = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    corr = scale * total / euler_phi(q) ** 2
    if abs(corr.imag) > 1e-6 * max(abs(corr.real), main, 1.0):
        raise GzError(f"conjugate pairing failed: imaginary part "
                      f"{corr.imag:.3e} against scale {main:.3e}")
    return ExplicitRow(x, exact, main, corr, truncation_bound(x, q, T))


def check_thm12_classes(q: int, a: int, b: int) -> None:
    """ValueError unless (ab, q) = 1, which Thm 1.2 assumes."""
    if math.gcd(a * b, q) != 1:
        raise ValueError("thm12_rhs requires (ab, q) = 1")


def thm12_rows(xs: list[float], exact: list[float], q: int, a: int, b: int,
               zero_sets: dict[str, ZeroSet], T: float) -> list[ExplicitRow]:
    """Main term minus zero correction for S(x; q, a, b) at each x."""
    check_thm12_classes(q, a, b)
    weights = _thm12_weights(q, a, b, zero_sets)
    return [_explicit_row(x, q, weights, 1.0, x * x / (2 * euler_phi(q) ** 2),
                          zero_sets, T, e) for x, e in zip(xs, exact)]


def thm12_rhs(x: float, q: int, a: int, b: int, zero_sets: dict[str, ZeroSet],
              T: float, exact: float = math.nan) -> ExplicitRow:
    """thm12_rows at one x."""
    return thm12_rows([x], [exact], q, a, b, zero_sets, T)[0]


def thm14_rows(xs: list[float], exact: list[float], q: int, c: int,
               zero_sets: dict[str, ZeroSet], T: float) -> list[ExplicitRow]:
    """Main term minus zero correction for sum_{n<=x, n=c(q)} G(n) at each
    x; the inner a-sum is collapsed through the closed-form character sum."""
    weights = _thm14_weights(q, c, zero_sets)
    series = float(singular_series(q, c))
    return [_explicit_row(x, q, weights, 2.0, series * x * x / 2.0, zero_sets, T, e)
            for x, e in zip(xs, exact)]


def thm14_rhs(x: float, q: int, c: int, zero_sets: dict[str, ZeroSet],
              T: float, exact: float = math.nan) -> ExplicitRow:
    """thm14_rows at one x."""
    return thm14_rows([x], [exact], q, c, zero_sets, T)[0]


def check_landau_gonek_x(x: float) -> None:
    """ValueError unless 1 < x < 2^63, the domain of factorize, which
    reads chi(x) Lambda(x) at an integer x."""
    if not (1 < x < math.inf):
        raise ValueError(f"x must be finite and exceed 1, got {x}")
    if x >= 2 ** 63:
        raise ValueError(f"x={x:g} must be below 2^63")


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
    check_landau_gonek_x(x)
    total = zero_power_sum(zeros, T, x)
    lx = math.log(x)

    lam = 0.0
    chival = 0j
    xi = int(round(x))
    if abs(x - xi) < 1e-12 and xi > 1:
        fac = factorize(xi)
        if fac.is_prime_power():
            lam = fac.von_mangoldt()
        chival = complex(char_values_table(chi)[xi % chi.q])
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


def z_gamma_ratio_matrix(rhos1: np.ndarray, rhos2: np.ndarray) -> np.ndarray:
    """Z = Gamma(rho) Gamma(rho') / Gamma(1 + rho + rho') over the outer
    product of two zero arrays, by log-gamma differences (no overflow for
    |gamma| <= 1e4)."""
    lg1 = _loggamma(rhos1)
    lg2 = _loggamma(rhos2)
    return np.exp(lg1[:, None] + lg2[None, :]
                  - _loggamma(1 + rhos1[:, None] + rhos2[None, :]))


def _residue(rho_q: complex, q: int, weights: Weights, scale: float,
             zero_sets: dict[str, ZeroSet], tol: float) -> complex:
    """-(scale/phi^2) rho_q^-1 sum of w m_chi(rho_q) over the characters
    whose recorded zeros include rho_q (to within tol)."""
    total = 0j
    found = False
    for chi, w in weights:
        zs = zero_sets[chi.label]
        m = int(zs.mult[np.abs(zs.rho - rho_q) <= tol].sum())
        if m:
            found = True
            total += w * m
    if not found:
        raise ValueError(f"{rho_q} is not a recorded zero mod {q}")
    phi = euler_phi(q)
    return -scale * total / (phi * phi * rho_q)


def residue_r(rho_q: complex, q: int, a: int, b: int,
              zero_sets: dict[str, ZeroSet], tol: float = 1e-6) -> complex:
    """Residue of the continued series at s = rho_q + 1:
    -(1/phi^2) rho_q^-1 sum over chi vanishing at rho_q of
    (conj chi(a) + conj chi(b)) m_chi(rho_q)."""
    return _residue(rho_q, q, _thm12_weights(q, a, b, zero_sets), 1.0,
                    zero_sets, tol)


def residue_r1(rho_q: complex, q: int, c: int,
               zero_sets: dict[str, ZeroSet], tol: float = 1e-6) -> complex:
    """Residue analog for the congruence-class series: the a-summed
    character weight collapses through the closed-form character sum."""
    return _residue(rho_q, q, _thm14_weights(q, c, zero_sets), 2.0,
                    zero_sets, tol)
