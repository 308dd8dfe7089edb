"""Explicit-formula right-hand sides and zero-sum terms.

The central object is the truncated zero term

    H_T(x, chi) = sum_{|gamma| <= T} x^(rho+1) / (rho (rho+1)).

Thm 1.2 and Thm 1.4 are one explicit formula,
main - (scale/phi(q)^2) sum_chi w_chi H_T(x, chi), and differ only in the
weight w_chi of chi's zeros and the main term; Thm 1.1 is its main term
alone (no weights):

    S(x; q, a, b):            w_chi = conj chi(a) + conj chi(b), scale 1,
                              main x^2 / (2 phi(q)^2);
    sum_{n<=x, n=c(q)} G(n):  w_chi = conj csum(chi, c), scale 2,
                              main S_q(c) x^2 / 2,

with csum the complete character sum collapsed through its closed form.
_formula reads each mode's weights as one array over the exponent rows,
keyed by label in character_labels(q) order, so no DirichletCharacter is
built; one kernel (explicit_rows) sums the correction over the nonzero
ones with exact fsum rounding, since the sums are cancellation-heavy and
runs must be reproducible bit for bit, and one kernel (_residue) gives the
residue -(scale/phi(q)^2) rho^-1 sum_chi w_chi m_chi(rho) of the continued
series at s = rho + 1.  Every zero sum is lfunc.zero_power_sum.

Also here: the Landau-Gonek prime-power detector sum_{|gamma|<=T} x^rho
with its assembled unit-constant error budget and the Gamma-ratio of the
zero-pair term with its T^(1/2) bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import (DirichletCharacter, _char_table, _exponent_rows,
                         _exponents, _roots_of_unity, char_values_table,
                         character_labels, group)
from .errors import GzError
from .lfunc import REFINE_TOL, ZeroSet, _loggamma, zero_power_sum
from .numtheory import SIEVE_CAP, euler_phi, factorize
from .singular import singular_series


class MissingZeroSetError(GzError):
    pass


def h_term(x: float, chi: DirichletCharacter | str, zeros: ZeroSet,
           T: float) -> complex:
    """H_T(x, chi) = sum over |gamma| <= T of x^(rho+1)/(rho(rho+1)),
    counted with multiplicity (0 for x <= 0).  chi, a character or its
    label, names the set: the sum reads only its zeros."""
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


def check_thm12_classes(q: int, a: int, b: int) -> None:
    """ValueError unless (ab, q) = 1, which Thm 1.2 assumes."""
    if math.gcd(a * b, q) != 1:
        raise ValueError("Thm 1.2 requires (ab, q) = 1")


def check_height(T: float) -> None:
    """ValueError unless REFINE_TOL <= T < inf, so x^2/T stays finite."""
    if not REFINE_TOL <= T < math.inf:
        raise ValueError(f"need REFINE_TOL <= T={T} < inf")


def _formula(mode: str, q: int, classes: tuple[int, ...],
             zero_sets: dict[str, ZeroSet]):
    """(weights, scale, main) of the mode's explicit formula: weights pairs
    each label of character_labels(q) with w_chi (none for thm11), main is
    the main term as a function of x.  chi(n) = e(K/L), L the group
    exponent, is read off the exponent rows for every chi at once and
    rounded by _roots_of_unity(L):

    thm11, classes (a, b): no zero term, main x^2 / (2 phi^2);
    thm12, classes (a, b): conj chi(a) + conj chi(b), two columns of K;
    thm14, classes (c,):   conj csum(chi, c), csum = coeff e(pos/order) in
                           column c of _char_table, scale 2.

    Every chi with a weight needs its zero set, whatever the weight."""
    phi = euler_phi(q)
    if mode == "thm14":
        (c,) = classes
        tab, L, r = _char_table(q), group(q).exponent, c % q
        # pos is -1 where coeff is 0: any root times 0 is 0
        w = (tab.coeff[:, r]
             * _roots_of_unity(L)[tab.pos[:, r] * (L // tab.order)]).conjugate()
        series = float(singular_series(q, c))
        scale, main = 2.0, lambda x: series * x * x / 2.0
    elif mode in ("thm11", "thm12"):
        scale, main = 1.0, lambda x: x * x / (2 * phi * phi)
        if mode == "thm11":
            return [], scale, main
        a, b = classes
        check_thm12_classes(q, a, b)
        grp = group(q)
        K = _exponents(grp, _exponent_rows(grp), [a % q, b % q])
        conj = np.where(K >= 0, _roots_of_unity(grp.exponent)[K], 0).conjugate()
        w = conj[:, 0] + conj[:, 1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    labels = character_labels(q)
    for label in labels:
        if label not in zero_sets:
            raise MissingZeroSetError(f"no zero set for {label}")
    return list(zip(labels, w.tolist())), scale, main


def truncation_bound(x: float, q: int, T: float) -> float:
    """x^2/T (log qx)^2 with constant one (the report's budget column)."""
    return x * x / T * math.log(max(q * x, 2.0)) ** 2


def explicit_rows(mode: str, q: int, classes: tuple[int, ...], xs, exact,
                  zero_sets: dict[str, ZeroSet], T: float) -> list[ExplicitRow]:
    """The mode's explicit formula against exact at each x (see _formula):
    main - (scale/phi^2) sum of w H_T(x, chi) over the nonzero weights.
    The imaginary part of the correction cancels by conjugate pairing;
    it is checked and discarded.  x and T are bounded so x^2/T stays finite."""
    check_height(T)
    weights, scale, main = _formula(mode, q, classes, zero_sets)
    weights = [(label, w) for label, w in weights if w != 0]
    phi = euler_phi(q)
    rows = []
    for x, e in zip(xs, exact):
        if not 0 < x <= SIEVE_CAP:
            raise ValueError(f"need 0 < x={x} <= SIEVE_CAP")
        terms = [w * h_term(x, label, zero_sets[label], T) for label, w in weights]
        total = complex(math.fsum(t.real for t in terms),
                        math.fsum(t.imag for t in terms))
        corr, m = scale * total / phi ** 2, main(x)
        if abs(corr.imag) > 1e-6 * max(abs(corr.real), m, 1.0):
            raise GzError(f"conjugate pairing failed: imaginary part "
                          f"{corr.imag:.3e} against scale {m:.3e}")
        rows.append(ExplicitRow(x, e, m, corr, truncation_bound(x, q, T)))
    return rows


def thm12_rhs(x: float, q: int, a: int, b: int, zero_sets: dict[str, ZeroSet],
              T: float, exact: float = math.nan) -> ExplicitRow:
    """Main term minus zero correction for S(x; q, a, b) at x."""
    return explicit_rows("thm12", q, (a, b), [x], [exact], zero_sets, T)[0]


def thm14_rhs(x: float, q: int, c: int, zero_sets: dict[str, ZeroSet],
              T: float, exact: float = math.nan) -> ExplicitRow:
    """Main term minus zero correction for sum_{n<=x, n=c(q)} G(n) at x;
    the inner a-sum is collapsed through the closed-form character sum."""
    return explicit_rows("thm14", q, (c,), [x], [exact], zero_sets, T)[0]


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


def _residue(rho_q: complex, q: int, mode: str, classes: tuple[int, ...],
             zero_sets: dict[str, ZeroSet], tol: float) -> complex:
    """-(scale/phi^2) rho_q^-1 sum of w m_chi(rho_q) over the characters
    whose recorded zeros include rho_q (to within tol), with the mode's
    weights and scale (_formula)."""
    weights, scale, _ = _formula(mode, q, classes, zero_sets)
    total = 0j
    found = False
    for label, w in weights:
        zs = zero_sets[label]
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
    return _residue(rho_q, q, "thm12", (a, b), zero_sets, tol)


def residue_r1(rho_q: complex, q: int, c: int,
               zero_sets: dict[str, ZeroSet], tol: float = 1e-6) -> complex:
    """Residue analog for the congruence-class series: the a-summed
    character weight collapses through the closed-form character sum."""
    return _residue(rho_q, q, "thm14", (c,), zero_sets, tol)
