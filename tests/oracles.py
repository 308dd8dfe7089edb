"""Reference oracles the tests check gzeros against.

Each is written from its definition: exact roots of unity, discrete logs
found by brute force over the character basis, cyclotomic polynomials
from the Moebius product, sums taken term by term, and the paper's
quantities from their formulas.  They may call public gzeros functions
but never a _-prefixed helper (tests/test_dead_code.py checks this), so
no oracle shares a private kernel with the code it checks.  gz runs none
of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from gzeros.characters import (
    DirichletCharacter,
    char_values_table,
    conjugate,
    group,
    is_primitive,
    root_number,
)
from gzeros.circle import ExpSumGrid
from gzeros.goldbach import twisted_entries
from gzeros.lfunc import ZeroSet, l_values_array, zero_power_sum
from gzeros.numtheory import SieveTable, factorize, floor_x, moebius
from gzeros.singular import SingularConstants

# ---------------------------------------------------------------------------
# exact roots of unity and characters


@dataclass(frozen=True)
class RootOfUnity:
    """Exact e(k/m) = exp(2*pi*i*k/m) with 0 <= k < m and gcd(k, m) = 1
    (or k = 0, m = 1 for the value 1)."""

    k: int
    m: int

    @staticmethod
    def make(k: int, m: int) -> "RootOfUnity":
        if m <= 0:
            raise ValueError("denominator must be positive")
        k %= m
        g = math.gcd(k, m)
        if k == 0:
            return RootOfUnity(0, 1)
        return RootOfUnity(k // g, m // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.make(self.k * other.m + other.k * self.m,
                                self.m * other.m)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.make(self.k * e, self.m)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.k, self.m)

    def __complex__(self) -> complex:
        if self.m == 1:
            return 1 + 0j
        if 2 * self.k == self.m:
            return -1 + 0j
        a = 2.0 * math.pi * self.k / self.m
        return complex(math.cos(a), math.sin(a))


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


@lru_cache(maxsize=None)
def _discrete_logs(q: int) -> dict[int, tuple[int, ...]]:
    """Every unit n mod q -> its exponent vector d over group(q)'s basis:
    n = prod_i g_i^{d_i} mod each prime power, found by walking every d."""
    comps = group(q).components
    out = {}
    for d in itertools.product(*(range(c.order) for c in comps)):
        n = 0
        for p, k in factorize(q).factors:
            pk = p ** k
            r = math.prod(pow(c.generator, di, pk)
                          for c, di in zip(comps, d) if c.prime_power == pk)
            rest = q // pk
            n += r * rest * pow(rest, -1, pk)  # CRT
        out[n % q] = d
    return out


def char_value(chi: DirichletCharacter, n: int):
    """chi(n) = e(sum_i e_i d_i / m_i) as an exact RootOfUnity, d the
    discrete logs of n and m_i the generator orders, or the integer 0 off
    the units."""
    d = _discrete_logs(chi.q).get(n % chi.q)
    if d is None:
        return 0
    orders = [c.order for c in group(chi.q).components]
    k = sum((Fraction(e * di, m) for e, di, m in zip(chi.exponents, d, orders)),
            Fraction(0))
    return RootOfUnity.make(k.numerator, k.denominator)


# ---------------------------------------------------------------------------
# the complete character sum, by brute force


def _pair_units(q: int, c: int):
    """The a = 1..q with (a(c - a), q) = 1."""
    return [a for a in range(1, q + 1)
            if math.gcd(a, q) == 1 and math.gcd((c - a) % q if q > 1 else 1, q) == 1]


def char_sum_brute(chi: DirichletCharacter, c: int) -> complex:
    """Direct sum over a = 1..q with (a(c-a), q) = 1 of chi(a)."""
    total = 0 + 0j
    for a in _pair_units(chi.q, c):
        total += complex(char_value(chi, a))
    return total


def char_sum_brute_exact(chi: DirichletCharacter, c: int) -> dict[RootOfUnity, int]:
    """Brute-force sum as exact multiset {root of unity: count}."""
    counts: dict[RootOfUnity, int] = {}
    for a in _pair_units(chi.q, c):
        v = char_value(chi, a)
        counts[v] = counts.get(v, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# exact zero tests of integer combinations of roots of unity


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyrem(num: list[int], den: list[int]) -> list[int]:
    """Remainder of num by the monic den (ascending coefficients)."""
    num = list(num)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1]
        for j, dc in enumerate(den):
            num[i + j] -= coef * dc
    return num[: len(den) - 1]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n = prod_{d | n} (X^d - 1)^mu(n/d), ascending coefficients."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0 and moebius(n // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if moebius(n // d) > 0:
                num = _polymul(num, factor)
            else:
                den = _polymul(den, factor)
    # exact division of monic integer polynomials, highest term first
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = num[i + len(den) - 1]
        for j, dc in enumerate(den):
            num[i + j] -= out[i] * dc
    assert not any(num), "non-exact cyclotomic division"
    return tuple(out)


def root_sum_is_zero(counts: np.ndarray, n: int) -> bool:
    """Exact test: is sum_k counts[k] e(k/n) = 0?  It is exactly when
    Phi_n divides sum_k counts[k] X^k, the minimal polynomial of e(1/n)."""
    return not any(_polyrem([int(v) for v in counts], list(_cyclotomic(n))))


def root_counts_equal(counts: np.ndarray, n: int, t: int, zeta: RootOfUnity) -> bool:
    """Exact test: does sum_k counts[k] e(k/n) equal t * zeta?

    zeta must have order dividing n.
    """
    v = counts.astype(np.int64).copy()
    if t != 0:
        if n % zeta.m != 0:
            raise ValueError("root order does not divide n")
        v[zeta.k * (n // zeta.m)] -= t
    return root_sum_is_zero(v, n)


# ---------------------------------------------------------------------------
# paper quantities, term by term


def dense_lambda(sieve: SieveTable, x: int, chi: DirichletCharacter | None = None):
    """The dense arrays the sparse code replaced: v[0..x] with v[n] =
    Lambda(n) (float64), or chi(n) Lambda(n) (complex128) for a character
    chi."""
    pos = sieve.prime_powers(x)
    v = np.zeros(x + 1, dtype=np.float64)
    v[pos] = sieve.lam(slice(0, len(pos)))
    if chi is None:
        return v
    w = char_values_table(chi)[np.arange(x + 1) % chi.q] * v
    w[:2] = 0
    return w


def j_weight(n: int, constants: SingularConstants) -> float:
    """J(n): 0 for odd n, n C2 prod_{p|n, p>2} (p-1)/(p-2) for even n."""
    if n < 1:
        raise ValueError("j_weight: n must be >= 1")
    if n % 2 == 1:
        return 0.0
    out = n * constants.C2
    for p, _ in factorize(n).factors:
        if p > 2:
            out *= (p - 1) / (p - 2)
    return out


def r_term(
    x: int,
    chi1: DirichletCharacter,
    chi2: DirichletCharacter,
    grid: ExpSumGrid,
) -> complex:
    """R(x; chi1, chi2) = int_0^1 W(a,chi1) W(a,chi2) T(-a) da on the
    exact grid."""
    w1 = grid.w_vals(chi1)
    w2 = grid.w_vals(chi2)
    return complex(np.sum(w1 * w2 * np.conj(grid.t_vals)) / grid.N)


def psi_chi(u: float, chi: DirichletCharacter, sieve: SieveTable) -> complex:
    """Exact sum_{n <= u} chi(n) Lambda(n), for floor_x(u) <= sieve.limit,
    with the real and imaginary parts rounded exactly by math.fsum."""
    vals = twisted_entries(chi, int(floor_x(u)), sieve)[1]
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def psi_explicit(
    u: float, chi: DirichletCharacter, zeros: ZeroSet, T: float
) -> complex:
    """delta_0(chi) u - sum_{|gamma| <= T} u^rho / rho (the constant term
    of the full formula is omitted and measured separately)."""
    main = u if chi.is_principal else 0.0
    return main - zero_power_sum(zeros, T, u, lambda rho: 1 / rho)


def zero_sum_diagnostics(
    zeros: ZeroSet, q: int, T: float, y: float = 0.0
) -> dict[str, float]:
    """Measured zero-sum statistics divided by their bound shapes.

    Requires zeros up to height >= max(T, |y| + 1).  Keys:

    sum_inv_rho        sum over |gamma| <= T of m/|rho|
    c_sum_inv_rho      ... divided by (log 2qT)^2
    tail_inv_rho2      sum over T < |gamma| <= height of m/|rho|^2
    c_tail_inv_rho2    ... divided by (log 2qT)/T
    offdiag_sum        sum over |gamma| <= T of m/(1 + |gamma - y|)
    c_offdiag          ... divided by (log qT)^2
    max_unit_count     max over unit windows [k, k+1) of the zero count
    c_unit_count       ... divided by log(q (|k|+2)) at the argmax
    """
    if zeros.height < max(T, abs(y) + 1) - 1e-9:
        raise ValueError("zero set height insufficient for diagnostics")
    inside = np.abs(zeros.gamma) <= T
    m, gamma, abs_rho = zeros.mult[inside], zeros.gamma[inside], np.abs(zeros.rho)
    s1 = float(np.sum(m / abs_rho[inside]))
    s2 = float(np.sum(zeros.mult[~inside] / abs_rho[~inside] ** 2))
    off = float(np.sum(m / (1 + np.abs(gamma - y))))

    # gamma lies in the unit window [k, k+1) with k = floor(gamma); windows
    # run over -ceil(T) <= k < T, and argmax takes the smallest k on ties
    k, k0 = np.floor(gamma).astype(np.int64), -math.ceil(T)
    counts = np.bincount(k[k < T] - k0, weights=m[k < T])
    best_count, best_k = 0.0, 0
    if len(counts):
        best_count, best_k = float(counts.max()), int(np.argmax(counts)) + k0
    l2qt = math.log(2 * q * T)
    return {
        "sum_inv_rho": s1,
        "c_sum_inv_rho": s1 / l2qt ** 2,
        "tail_inv_rho2": s2,
        "c_tail_inv_rho2": s2 * T / l2qt,
        "offdiag_sum": off,
        "c_offdiag": off / math.log(q * T) ** 2,
        "max_unit_count": best_count,
        "c_unit_count": best_count / math.log(q * (abs(best_k) + 2)),
    }


# ---------------------------------------------------------------------------
# the Hurwitz zeta function


def hurwitz_zeta(s, alpha: float) -> np.ndarray:
    """zeta(s, alpha) = sum_{k >= 0} (k + alpha)^-s over a complex array s
    with Re s >= -1/2 and s != 1, alpha > 0: the first N terms, one exp
    each, then the Euler-Maclaurin tail at N + alpha,

        (N + alpha)^(1-s)/(s - 1) + (N + alpha)^-s/2
          + sum_{r=1..12} B_2r/(2r)! (s)_{2r-1} (N + alpha)^(-s-2r+1),

    with B_2r from mpmath.  N = 20 + max |s| makes each correction at most
    (|s| + 2r)^2 / (2 pi N)^2 < 1/27 of the one before; below Re s = -1/2
    the head terms grow and the sum loses its digits, so it raises."""
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if not np.all(np.isfinite(s)) or np.any(s == 1) or s.real.min() < -0.5:
        raise ValueError(f"Re s >= -1/2, s != 1 and finite s only: {s}")
    if not alpha > 0:
        raise ValueError(f"alpha={alpha} must be positive")
    N = 20 + int(np.abs(s).max())
    head = np.exp(-np.multiply.outer(np.log(np.arange(N) + alpha), s)).sum(axis=0)
    a = N + alpha
    tail = a ** (1 - s) / (s - 1) + a ** -s / 2
    poch = s  # (s)_{2r-1} = s (s + 1) ... (s + 2r - 2)
    for r in range(1, 13):
        b = float(mp.bernoulli(2 * r) / mp.factorial(2 * r))
        tail = tail + b * poch * a ** (-s - 2 * r + 1)
        poch = poch * (s + 2 * r - 1) * (s + 2 * r)
    return head + tail


# ---------------------------------------------------------------------------
# the completed L-function and zero sets


def completed_lambda(s: complex, chi: DirichletCharacter) -> complex:
    """Lambda(s, chi) = (q/pi)^((s+kappa)/2) Gamma((s+kappa)/2) L(s, chi),
    for primitive chi, with the gamma factor from mpmath."""
    if not is_primitive(chi):
        raise ValueError("completed_lambda requires a primitive character")
    sk = mp.mpc(s + chi.parity) / 2
    gamma_factor = mp.exp(sk * mp.log(mp.mpf(chi.q) / mp.pi) + mp.loggamma(sk))
    return complex(gamma_factor) * complex(l_values_array(chi, s)[0])


def functional_equation_residual(s: complex, chi: DirichletCharacter) -> float:
    """|Lambda(s,chi) - eps(chi) Lambda(1-s, conj chi)| / |Lambda(s,chi)|."""
    lhs = completed_lambda(s, chi)
    rhs = root_number(chi) * completed_lambda(1 - s, conjugate(chi))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def check_conjugate_symmetry(zs: ZeroSet, zs_conj: ZeroSet, tol: float = 1e-7) -> bool:
    """The zeros of the two sets must pair under gamma <-> -gamma."""
    a, b = zs.gamma, -zs_conj.gamma[::-1]  # both ascending
    return len(a) == len(b) and bool(np.all(np.abs(a - b) <= tol))
