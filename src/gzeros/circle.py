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

Both read chi(n) Lambda(n) at the prime powers from
goldbach.twisted_entries: build_grid scatters them into its FFT input,
and selberg_integral takes psi_chi from their running sum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .characters import DirichletCharacter, build_group
from .errors import CapacityError
from .goldbach import twisted_entries
from .numtheory import SieveTable

GRID_X_CAP = 10 ** 6


@dataclass
class ExpSumGrid:
    """T and per-character S on the uniform N-point grid alpha_j = j/N."""

    x: int
    q: int
    N: int
    t_vals: np.ndarray                      # T(alpha_j), complex128
    s_vals: dict[str, np.ndarray] = field(default_factory=dict)

    def w_vals(self, chi: DirichletCharacter) -> np.ndarray:
        """W(alpha_j, chi) = S - delta_0(chi) T."""
        s = self.s_vals[chi.label]
        if chi.is_principal:
            return s - self.t_vals
        return s


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
    """Exponential sums for every character mod q via one FFT each."""
    check_grid(x, N)
    sieve.check_limit(x)
    ind = np.zeros(N, dtype=np.complex128)
    ind[1: x + 1] = 1.0
    t_vals = np.fft.ifft(ind) * N  # sum_n e(+n j/N)
    grid = ExpSumGrid(x=x, q=q, N=N, t_vals=t_vals)
    for chi in build_group(q):
        pos, vals = twisted_entries(chi, x, sieve)
        coeff = np.zeros(N, dtype=np.complex128)
        coeff[pos] = vals
        grid.s_vals[chi.label] = np.fft.ifft(coeff) * N
    return grid


def quadrature_s(grid: ExpSumGrid, chi1: DirichletCharacter,
                 chi2: DirichletCharacter) -> complex:
    """(1/N) sum_j S(a_j,chi1) S(a_j,chi2) T(-a_j): exact for N >= 2x+1."""
    s1 = grid.s_vals[chi1.label]
    s2 = grid.s_vals[chi2.label]
    return complex(np.sum(s1 * s2 * np.conj(grid.t_vals)) / grid.N)


def j_chi(chi: DirichletCharacter, grid: ExpSumGrid) -> float:
    """J(chi) = int |W|^2 |T| da, trapezoid on the (periodic) grid.

    The quadrature error scales like N^-2 times the total variation of
    the integrand; the verification suite uses N = 8x.
    """
    w = grid.w_vals(chi)
    return float(np.mean(np.abs(w) ** 2 * np.abs(grid.t_vals)))


def w_mass(xi: float, chi: DirichletCharacter, grid: ExpSumGrid) -> float:
    """int_{-xi}^{xi} |W(alpha, chi)|^2 dalpha by trapezoid on the grid,
    with interpolated endpoint values at +-xi.  Requires 1/x <= xi <= 1/2."""
    check_xi(xi, grid.x)
    a = np.arange(grid.N) / grid.N
    a = np.where(a > 0.5, a - 1.0, a)  # alpha_j mapped to (-1/2, 1/2]
    order = np.argsort(a)
    a = a[order]
    w2 = np.abs(grid.w_vals(chi)[order]) ** 2
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
    sieve must reach 2x+h-1."""
    check_window(x, h)
    pos, vals = twisted_entries(chi, 2 * x + h - 1, sieve)
    run = np.cumsum(np.concatenate((np.zeros(1, dtype=vals.dtype), vals)))
    # psi_chi(n) for n = x, ..., 2x+h-1
    psi = run[np.searchsorted(pos, np.arange(x, 2 * x + h, dtype=pos.dtype),
                              side="right")]
    target = h if chi.is_principal else 0.0
    return float(np.sum(np.abs(psi[h:] - psi[:x] - target) ** 2))
