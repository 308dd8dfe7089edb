"""Exact Goldbach-type sums.

G(n; q, a, b) = sum_{l+m=n, l=a, m=b (mod q)} Lambda(l) Lambda(m), its
summatory S(x; q, a, b), the character-twisted S(x; chi1, chi2), and
congruence-restricted sums sum_{n<=x, n=c (q)} G(n), G(n) = G(n; 1, 1, 1).

Every summatory value comes from one sparse prefix-sum kernel over the
sieve's prime powers: sum_{l+m<=n} u(l) v(m) = sum_{l<n} u(l) V(n-l), l
over the prime powers where u is nonzero, and V(n-l) = C[j] with j the
number of v's prime powers <= n-l (one searchsorted) and C their running
sum from a leading 0.  The terms and their order are those of the dense
sum over length-x arrays u, v and V = cumsum(v), whose zeros add exact
zeros, so the results are bit-identical to it.  Memory is O(x/log x)
whatever q is: S(1e6; 3, 1, 2) peaks at 2.2 MB of allocations (the dense
arrays took 25 MB), and a 25-point grid to x = 1e8 at 330 MB RSS with its
sieve (3.2 GB dense).  There is no FFT, and the sum is a pairwise np.sum
(not a BLAS dot), so results do not depend on the thread count.  A sum
over n <= x ends at floor_x(x) = floor(x (1 + 1e-12)), so grid points
that are integers in exact arithmetic but round just below keep n = x.

The character twist chi(n) Lambda(n) is sparse too: twisted_entries
returns the prime powers n <= x with chi(n) != 0 and their values, and
every twisted sum (s_chi, lfunc.psi_chi, circle.build_grid,
circle.selberg_integral) reads that one result.

Per-n arrays (build_class_convolution) come from one real FFT
convolution on the class lattice: G(a0 + b0 + q k) = sum_i u[i] v[k - i]
with u[i] = Lambda(a0 + q i) and v[j] = Lambda(b0 + q j), both of length
floor((x - a0)/q) + 1 (x <= CONV_X_CAP), and G is an exact 0 off the
class a + b.  Rounding is ~1e-7 absolute per value at x = 1e7:
eps * ||u||_2 ||v||_2 * log2(N) ~ 2e-16 * (x log x / q) * 24.  Prime
powers stay in (the definition uses Lambda, never primes only).
_class_lambda, a dense scatter over 0..x, is only selfcheck's oracle.

gcd(ab, q) > 1 inputs are legal but logged: the main theorems assume
(ab, q) = 1, and computing anyway aids debugging.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter, char_values_table
from .errors import CapacityError
from .numtheory import SieveTable, check_modulus, floor_x

logger = logging.getLogger(__name__)

# the per-n table's envelope: values and cumulative take 16 bytes per n
# whatever q is; at x = 1e7 the build peaks at 0.5 GB RSS for q = 3 and
# at 1.4 GB for q = 1 (a 2^25 transform)
CONV_X_CAP = 10 ** 7


def _check_classes(caller: str, q: int, a: int, b: int) -> None:
    """ValueError for q < 1; a logged warning when gcd(ab, q) > 1."""
    check_modulus(q)
    if math.gcd(a * b, q) != 1:
        logger.warning("%s: gcd(ab, q) > 1 (q=%d a=%d b=%d)", caller, q, a, b)


def _class_entries(q: int, a: int, x: int, sieve: SieveTable):
    """The prime powers l <= x with l = a (mod q), and Lambda(l)."""
    pos, lam = sieve.entries(x)
    keep = pos % q == a % q
    return pos[keep], lam[keep]


def _class_lambda(q: int, a: int, x: int, sieve: SieveTable) -> np.ndarray:
    """Array v[0..x] with v[l] = Lambda(l) [l = a mod q]."""
    pos, lam = _class_entries(q, a, x, sieve)
    v = np.zeros(x + 1, dtype=np.float64)
    v[pos] = lam
    return v


def _lattice_lambda(q: int, a0: int, x: int, sieve: SieveTable) -> np.ndarray:
    """Array u with u[i] = Lambda(a0 + q i) for a0 + q i <= x, 0 <= a0 < q."""
    pos, lam = _class_entries(q, a0, x, sieve)
    u = np.zeros((x - a0) // q + 1, dtype=np.float64)
    u[(pos - a0) // q] = lam
    return u


def goldbach_g(n: int, q: int, a: int, b: int, sieve: SieveTable) -> float:
    """G(n; q, a, b), the exact double-precision sum over decompositions,
    added one term at a time in ascending l."""
    _check_classes("goldbach_g", q, a, b)
    sieve.check_limit(n)
    if n < 4:
        return 0.0
    l, lam_l = _class_entries(q, a, n - 1, sieve)
    m = n - l
    i = np.minimum(np.searchsorted(sieve.positions, m), len(sieve.positions) - 1)
    hit = (sieve.positions[i] == m) & (m % q == b % q)
    terms = lam_l[hit] * sieve.lam[i[hit]]
    # a sequential running sum, not np.sum's pairwise one
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass
class ClassConvolution:
    """g[n] = G(n; q, a, b) for n <= x, plus the running sum S."""

    q: int
    a: int
    b: int
    x: int
    values: np.ndarray      # g[0..x]
    cumulative: np.ndarray  # S[0..x], S[n] = sum_{m<=n} g[m]

    def s_at(self, x: float) -> float:
        """S(x; q, a, b) for any real x <= the table limit."""
        i = min(int(floor_x(x)), self.x)
        return float(self.cumulative[i]) if i >= 0 else 0.0


def check_conv_limit(x: int) -> None:
    """CapacityError when a per-n table to x would pass CONV_X_CAP."""
    if x > CONV_X_CAP:
        raise CapacityError(
            f"x={x} exceeds the per-n convolution cap {CONV_X_CAP}")


def build_class_convolution(
    q: int, a: int, b: int, x: int, sieve: SieveTable
) -> ClassConvolution:
    """G(n; q, a, b) for all n <= x via one FFT on the class lattice."""
    _check_classes("build_class_convolution", q, a, b)
    if x < 0:
        raise ValueError(f"x={x} must be >= 0")
    check_conv_limit(x)
    sieve.check_limit(x)
    a0, b0 = a % q, b % q
    u = _lattice_lambda(q, a0, x, sieve)
    v = u if a0 == b0 else _lattice_lambda(q, b0, x, sieve)
    size = 1
    while size < len(u) + len(v):
        size *= 2
    fu = np.fft.rfft(u, size)
    fv = fu if v is u else np.fft.rfft(v, size)
    values = np.zeros(x + 1, dtype=np.float64)
    on_class = values[a0 + b0::q]
    # a copy out of the inverse transform, which is then freed
    on_class[:] = np.fft.irfft(fu * fv, size)[: len(on_class)]
    values[values < 0] = 0.0
    values[:4] = 0.0
    return ClassConvolution(
        q=q, a=a, b=b, x=x, values=values, cumulative=np.cumsum(values)
    )


def _pair_sums(l: np.ndarray, w: np.ndarray, m: np.ndarray, v: np.ndarray,
               ns: np.ndarray) -> np.ndarray:
    """sum_{l<n} w(l) V(n-l) with V(k) = sum_{m<=k} v(m), for every n in ns:
    sum_{l+m<=n} w(l) v(m) for weights w at the ascending positions l >= 1
    and v at the ascending positions m >= 1 (all int64).

    C is v's prefix sum with a leading 0, summed from that 0 as a dense
    cumsum is, so V(k) = C[#{m <= k}] is the dense V[k] to the bit.
    """
    C = np.cumsum(np.concatenate((np.zeros(1, dtype=v.dtype), v)))
    out = np.zeros(len(ns), dtype=np.result_type(w, v))
    for i, n in enumerate(ns):
        k = int(np.searchsorted(l, n))
        out[i] = np.sum(w[:k] * C[np.searchsorted(m, n - l[:k], side="right")])
    return out


def _grid(xs, sieve: SieveTable) -> tuple[np.ndarray, int]:
    """floor_x of the x values as a 1-d array, and the array length the
    sums need (checked against the sieve)."""
    ns = np.atleast_1d(floor_x(xs))
    top = max(int(ns.max()), 0) if ns.size else 0
    sieve.check_limit(top)
    return ns, top


def _class_sums(ns, top: int, q: int, a: int, b: int, sieve: SieveTable):
    l, u = _class_entries(q, a, top, sieve)
    m, v = (l, u) if (a - b) % q == 0 else _class_entries(q, b, top, sieve)
    return _pair_sums(l, u, m, v, ns)


def _like(xs, values: np.ndarray):
    """A plain number for scalar xs, the array otherwise."""
    return values.item() if np.ndim(xs) == 0 else values


def s_grid(xs, q: int, a: int, b: int, sieve: SieveTable):
    """S(x; q, a, b) for every x in xs (a float for scalar x)."""
    _check_classes("s_grid", q, a, b)
    ns, top = _grid(xs, sieve)
    return _like(xs, _class_sums(ns, top, q, a, b, sieve))


def s_chi(xs, chi1: DirichletCharacter, chi2: DirichletCharacter,
          sieve: SieveTable):
    """S(x; chi1, chi2) = sum_{l+m<=x} chi1(l)Lambda(l) chi2(m)Lambda(m)
    for every x in xs (a complex for scalar x)."""
    if chi1.q != chi2.q:
        raise ValueError("characters must share a modulus")
    ns, top = _grid(xs, sieve)
    l, u = twisted_entries(chi1, top, sieve)
    m, v = (l, u) if chi2 == chi1 else twisted_entries(chi2, top, sieve)
    return _like(xs, _pair_sums(l, u, m, v, ns))


def twisted_entries(chi: DirichletCharacter, x: int,
                    sieve: SieveTable) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= x with chi(n) != 0, and chi(n) Lambda(n) at
    each (complex128)."""
    pos, lam = sieve.entries(x)
    vals = char_values_table(chi)[pos % chi.q] * lam
    keep = vals != 0
    return pos[keep], vals[keep]


def restricted_sum(xs, q: int, c: int, sieve: SieveTable):
    """sum over n <= x, n = c (mod q), of G(n) = G(n; 1, 1, 1), for every
    x in xs (a float for scalar x).

    Summed as sum_{a=1..q} S(x; q, a, c-a) over every class a, non-units
    too: prime powers of p | q count.
    """
    check_modulus(q)
    ns, top = _grid(xs, sieve)
    total = np.zeros(len(ns))
    for a in range(1, q + 1):
        total += _class_sums(ns, top, q, a, c - a, sieve)
    return _like(xs, total)
