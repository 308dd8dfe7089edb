"""Circle-method quantities on the exact DFT grid.

With T(alpha) = sum_{n<=x} e(n alpha), S(alpha, chi) = sum chi(n)
Lambda(n) e(n alpha) and W = S - delta_0 T, everything is sampled at
alpha_j = j/N.  For N >= 2x+1 the uniform grid integrates every
trigonometric polynomial appearing in the orthogonality decomposition
exactly (all frequencies lie in (-x, 2x), so none is a nonzero multiple
of N), which turns the key identity

    S(x; chi1, chi2) = int_0^1 S(alpha,chi1) S(alpha,chi2) T(-alpha) dalpha

into a finite sum with no quadrature error beyond float roundoff.  The
|T(alpha)| weight of J(chi) is not a polynomial, so that integral is a
controlled trapezoid approximation instead; callers refine its grid
(N = 8x in the verification suite).

The Selberg-type integral over [x, 2x] of |sum_{t<n<=t+h} chi(n)
Lambda(n) - delta_0 h|^2 dt is a finite sum over integer t: for integer
x and h the window sum is constant on each [k, k+1), so the integral is
sum_{k=x}^{2x-1} |psi_chi(k+h) - psi_chi(k) - delta_0 h|^2, exactly.

Both read chi(n) Lambda(n) through goldbach's one twist walk, a block of
the sieve at a time: ExpSumGrid.s_vals scatters the blocks into its FFT
input, one character when it is read, and selberg_integral takes psi_chi
from goldbach's running-sum builder and forms its window differences a
block of k at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .errors import CapacityError
from .goldbach import _blocks, _residues, _running_sum, _twisted_blocks
from .numtheory import SieveTable

GRID_X_CAP = 10 ** 6


@dataclass
class ExpSumGrid:
    """T on the uniform N-point grid alpha_j = j/N, and the prime powers
    n <= x from which each S(alpha_j, chi) is formed when it is read: the
    grid holds no S, so its size does not grow with phi(q)."""

    x: int
    q: int
    N: int
    t_vals: np.ndarray                      # T(alpha_j), complex128
    sieve: SieveTable
    pos: np.ndarray                         # prime powers n <= x
    res: np.ndarray                         # their residues mod q

    def s_vals(self, chi: DirichletCharacter) -> np.ndarray:
        """S(alpha_j, chi) by one FFT, formed anew on each call."""
        coeff = np.zeros(self.N, dtype=np.complex128)
        for n, vals in _twisted_blocks(chi, self.pos, self.res, self.sieve):
            coeff[n] = vals
        s = np.fft.ifft(coeff)
        s *= self.N  # in place: the same products as ifft(coeff) * N
        return s

    def w_vals(self, chi: DirichletCharacter) -> np.ndarray:
        """W(alpha_j, chi) = S - delta_0(chi) T, formed anew on each call."""
        w = self.s_vals(chi)
        if chi.is_principal:
            w -= self.t_vals
        return w


def check_grid(x: int, N: int) -> None:
    """ValueError when N < 2x+1 (so x >= 1 when N = 8x), CapacityError
    when x > GRID_X_CAP."""
    if N < 2 * x + 1:
        raise ValueError(f"N={N} below exactness threshold 2x+1={2 * x + 1}")
    if x > GRID_X_CAP:
        raise CapacityError(f"x={x} beyond grid cap {GRID_X_CAP}")


def check_xi(xi: float, x: int) -> None:
    """ValueError unless 1/x <= xi <= 1/2 (x >= 1)."""
    if not (1.0 / x <= xi <= 0.5):
        raise ValueError(f"xi={xi} outside [1/x, 1/2]")


def check_window(x: int, h: int) -> None:
    """ValueError unless x and h are integers with 2 <= h <= x."""
    for name, v in (("x", x), ("h", h)):
        if not isinstance(v, numbers.Integral):
            raise ValueError(f"{name}={v!r} must be an integer")
    if not 2 <= h <= x:
        raise ValueError(f"h={h} outside [2, x]")


def build_grid(x: int, q: int, sieve: SieveTable, N: int) -> ExpSumGrid:
    """T(alpha_j) by one FFT, and the prime powers up to x with their
    residues mod q, from which ExpSumGrid.s_vals forms each S."""
    check_grid(x, N)
    pos = sieve.prime_powers(x)  # checks x against the sieve first
    ind = np.zeros(N, dtype=np.complex128)
    ind[1: x + 1] = 1.0
    t_vals = np.fft.ifft(ind) * N  # sum_n e(+n j/N)
    return ExpSumGrid(x=x, q=q, N=N, t_vals=t_vals, sieve=sieve, pos=pos,
                      res=_residues(q, pos, sieve))


def quadrature_s(grid: ExpSumGrid, chi1: DirichletCharacter,
                 chi2: DirichletCharacter) -> complex:
    """(1/N) sum_j S(a_j,chi1) S(a_j,chi2) T(-a_j): exact for N >= 2x+1."""
    s1 = grid.s_vals(chi1)
    s2 = grid.s_vals(chi2)
    return complex(np.sum(s1 * s2 * np.conj(grid.t_vals)) / grid.N)


def j_chi(w: np.ndarray, grid: ExpSumGrid) -> float:
    """J(chi) = int |W|^2 |T| da for w = grid.w_vals(chi), trapezoid on the
    (periodic) grid.

    The quadrature error scales like N^-2 times the total variation of
    the integrand; the verification suite uses N = 8x.
    """
    return float(np.mean(np.abs(w) ** 2 * np.abs(grid.t_vals)))


def w_mass(xi: float, w: np.ndarray, grid: ExpSumGrid) -> float:
    """int_{-xi}^{xi} |W(alpha, chi)|^2 dalpha for w = grid.w_vals(chi), by
    trapezoid on the grid, with interpolated endpoint values at +-xi.
    Requires 1/x <= xi <= 1/2."""
    check_xi(xi, grid.x)
    # alpha_j mapped to (-1/2, 1/2] reads j/N - 1 for j > N/2, so the
    # ascending order is j = N//2 + 1, ..., N - 1, 0, ..., N//2
    half = grid.N // 2 + 1
    a = np.roll(np.arange(grid.N) / grid.N, -half)
    a[: grid.N - half] -= 1.0
    w2 = np.roll(np.abs(w) ** 2, -half)
    if xi == 0.5:
        # full period: the trapezoid of a periodic function is its mean
        return float(np.mean(w2))
    # extend by periodicity so interpolation at +-xi always brackets
    a_ext = np.concatenate([[a[-1] - 1.0], a, [a[0] + 1.0]])
    w2_ext = np.concatenate([[w2[-1]], w2, [w2[0]]])
    lo, hi = -xi, xi
    inside = (a_ext > lo) & (a_ext < hi)
    pts = np.concatenate([[lo], a_ext[inside], [hi]])
    vals = np.concatenate([
        [np.interp(lo, a_ext, w2_ext)],
        w2_ext[inside],
        [np.interp(hi, a_ext, w2_ext)],
    ])
    return float(np.trapezoid(vals, pts))


def selberg_integral(
    x: int, h: int, chi: DirichletCharacter, sieve: SieveTable
) -> float:
    """int_x^{2x} |sum_{t<n<=t+h} chi(n) Lambda(n) - delta_0(chi) h|^2 dt
    for integers 2 <= h <= x, as the finite sum

        sum_{k=x}^{2x-1} |psi_chi(k+h) - psi_chi(k) - delta_0(chi) h|^2.

    It is exact: for t in [k, k+1) the window t < n <= t+h holds exactly
    the integers k < n <= k+h, so the integrand is constant there.  The
    sieve must reach 2x+h-1.  The x terms are formed a block of k at a
    time from the running sum of chi(n) Lambda(n) over the prime powers,
    and added by one np.sum."""
    check_window(x, h)
    pos = sieve.prime_powers(2 * x + h - 1)
    walk = _twisted_blocks(chi, pos, _residues(chi.q, pos, sieve), sieve)
    _, run = _running_sum(pos, len(pos), walk, np.complex128)
    target = h if chi.is_principal else 0.0
    terms = np.empty(x)
    for j in _blocks(x):
        k = np.arange(x + j.start, x + j.stop, dtype=pos.dtype)
        # psi_chi(n) = run[#{prime powers <= n}]
        terms[j] = np.abs(run[np.searchsorted(pos, k + h, side="right")]
                          - run[np.searchsorted(pos, k, side="right")]
                          - target) ** 2
    return float(np.sum(terms))
