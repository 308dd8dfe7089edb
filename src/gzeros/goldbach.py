"""Exact Goldbach-type sums.

G(n; q, a, b) = sum_{l+m=n, l=a, m=b (mod q)} Lambda(l) Lambda(m), its
summatory S(x; q, a, b), the character-twisted S(x; chi1, chi2), and
congruence-restricted sums sum_{n<=x, n=c (q)} G(n), G(n) = G(n; 1, 1, 1).

Every summatory value comes from one prefix-sum kernel,
sum_{l+m<=n} u[l] v[m] = sum_{l<n} u[l] V[n-l] with V = cumsum(v): O(x)
memory whatever q is, no FFT, and a pairwise np.sum (not a BLAS dot), so
results do not depend on the thread count.  A sum over n <= x ends at
floor_x(x) = floor(x (1 + 1e-12)), so grid points that are integers in
exact arithmetic but round just below keep n = x.

Per-n arrays (build_class_convolution) come from one real FFT
convolution of the two class-restricted Lambda arrays (size = next power
of two >= 2x+1), which is exact to ~1e-7 absolute per coefficient at
x = 1e7: the rounding budget is about eps * ||a||_2 ||b||_2 * log2(N)
~ 2e-16 * (x log x) * 24.  Prime powers stay in (the definition uses
Lambda, never primes only).

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


def _check_classes(caller: str, q: int, a: int, b: int) -> None:
    """ValueError for q < 1; a logged warning when gcd(ab, q) > 1."""
    check_modulus(q)
    if math.gcd(a * b, q) != 1:
        logger.warning("%s: gcd(ab, q) > 1 (q=%d a=%d b=%d)", caller, q, a, b)


def _class_lambda(q: int, a: int, x: int, sieve: SieveTable) -> np.ndarray:
    """Array v[0..x] with v[l] = Lambda(l) [l = a mod q]."""
    v = np.zeros(x + 1, dtype=np.float64)
    lo = a % q
    if lo == 0:
        lo = q
    v[lo:: q] = sieve.lambda_[lo: x + 1: q]
    return v


def goldbach_g(n: int, q: int, a: int, b: int, sieve: SieveTable) -> float:
    """G(n; q, a, b), the exact double-precision sum over decompositions."""
    _check_classes("goldbach_g", q, a, b)
    if n > sieve.limit:
        raise ValueError(f"n={n} exceeds sieve limit {sieve.limit}")
    if n < 4:
        return 0.0
    total = 0.0
    for l in range(a % q if a % q else q, n, q):
        if sieve.lambda_[l] > 0.0:
            m = n - l
            if m >= 1 and m % q == b % q and sieve.lambda_[m] > 0.0:
                total += sieve.lambda_[l] * sieve.lambda_[m]
    return total


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


def build_class_convolution(
    q: int, a: int, b: int, x: int, sieve: SieveTable
) -> ClassConvolution:
    """G(n; q, a, b) for all n <= x via one real FFT convolution."""
    _check_classes("build_class_convolution", q, a, b)
    if x > sieve.limit:
        raise CapacityError(f"x={x} exceeds sieve limit {sieve.limit}")
    va = _class_lambda(q, a, x, sieve)
    if (a - b) % q == 0:
        vb = va
    else:
        vb = _class_lambda(q, b, x, sieve)
    size = 1
    while size < 2 * x + 2:
        size *= 2
    fa = np.fft.rfft(va, size)
    fb = fa if vb is va else np.fft.rfft(vb, size)
    conv = np.fft.irfft(fa * fb, size)[: x + 1]
    conv[conv < 0] = 0.0
    # congruence obstruction is exact: zero out n != a+b (mod q)
    n = np.arange(x + 1)
    conv[n % q != (a + b) % q] = 0.0
    conv[:4] = 0.0
    return ClassConvolution(
        q=q, a=a, b=b, x=x, values=conv, cumulative=np.cumsum(conv)
    )


def _pair_sums(u: np.ndarray, v: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{l<n} u[l] V[n-l] with V = cumsum(v), for every n in ns.

    With u[0] = v[0] = 0 this is sum_{l+m<=n} u[l] v[m].  u and v cover
    0..max(ns).
    """
    V = np.cumsum(v)
    l = np.flatnonzero(u)
    w = u[l]
    out = np.zeros(len(ns), dtype=np.result_type(u, v))
    for i, n in enumerate(ns):
        k = int(np.searchsorted(l, n))
        out[i] = np.sum(w[:k] * V[n - l[:k]])
    return out


def _grid(xs, sieve: SieveTable) -> tuple[np.ndarray, int]:
    """floor_x of the x values as a 1-d array, and the array length the
    sums need (checked against the sieve)."""
    ns = np.atleast_1d(floor_x(xs))
    top = max(int(ns.max()), 0) if ns.size else 0
    if top > sieve.limit:
        raise CapacityError(f"x={top} exceeds sieve limit {sieve.limit}")
    return ns, top


def _class_sums(ns, top: int, q: int, a: int, b: int, sieve: SieveTable):
    u = _class_lambda(q, a, top, sieve)
    v = u if (a - b) % q == 0 else _class_lambda(q, b, top, sieve)
    return _pair_sums(u, v, ns)


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
    c1 = twisted_lambda(chi1, top, sieve)
    c2 = c1 if chi2 == chi1 else twisted_lambda(chi2, top, sieve)
    return _like(xs, _pair_sums(c1, c2, ns))


def twisted_lambda(
    chi: DirichletCharacter, x: int, sieve: SieveTable
) -> np.ndarray:
    """Array v[0..x] with v[n] = chi(n) Lambda(n), complex128."""
    if x > sieve.limit:
        raise ValueError(f"x={x} exceeds sieve limit {sieve.limit}")
    table = char_values_table(chi)
    n = np.arange(x + 1)
    v = table[n % chi.q] * sieve.lambda_[: x + 1]
    v[:2] = 0
    return v


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
