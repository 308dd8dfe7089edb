"""Exact integer and multiplicative-function primitives.

Provides:
- factorize(n): deterministic factorization for n < 2^63 (trial division
  plus Miller-Rabin/Pollard rho for the large cofactor)
- euler_phi, moebius, phi2: standard multiplicative functions
- unit_pair_count(q, c): #{a mod q : (a(c-a), q) = 1} = phi(q)^2 S_q(c)
- check_modulus(q): the one q >= 1 check of the entry points
- floor_x(x): floor(x (1 + 1e-12)), the last n of every sum over n <= x
- build_sieve(x): von Mangoldt table Lambda(n) for n <= x as float64 logs,
  with Lambda(n) = log p exactly when n = p^k and 0 otherwise

The sieve is segmented (2^20-element blocks) so construction stays cache
resident; the resulting SieveTable is read-only and safe to share.  It is
never cached on disk: building it is about 3x faster than reading it back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

SEGMENT = 1 << 20
SIEVE_CAP = 10 ** 8

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A non-trivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with primes strictly increasing, exponents >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    def von_mangoldt(self) -> float:
        """Lambda(n): log p for n = p^k, else 0."""
        if len(self.factors) == 1:
            return math.log(self.factors[0][0])
        return 0.0


def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2^63.  n = 1 yields an empty factor list."""
    if not 1 <= n <= 2 ** 63 - 1:
        raise ValueError(f"factorize: n={n} outside [1, 2^63-1]")
    factors: dict[int, int] = {}
    m = n
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        # trial divide a little further before falling back to rho
        d = 49
        while d * d <= m and d < 10 ** 5:
            while m % d == 0:
                factors[d] = factors.get(d, 0) + 1
                m //= d
            d += 2
        stack = [m] if m > 1 else []
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if is_prime(v):
                factors[v] = factors.get(v, 0) + 1
                continue
            g = _pollard_rho(v)
            stack.append(g)
            stack.append(v // g)
    return Factorization(n, tuple(sorted(factors.items())))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi: n must be >= 1")
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius: n must be >= 1")
    fac = factorize(n).factors
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def phi2(n: int) -> int:
    """prod_{p|n} (p-2) over odd squarefree n (the domain it is used on)."""
    if n < 1:
        raise ValueError("phi2: n must be >= 1")
    if n % 2 == 0:
        raise ValueError(f"phi2: n={n} is even")
    fac = factorize(n).factors
    if any(e > 1 for _, e in fac):
        raise ValueError(f"phi2: n={n} has a square factor")
    out = 1
    for p, _ in fac:
        out *= p - 2
    return out


def check_modulus(q: int) -> None:
    """ValueError unless the modulus q is at least 1."""
    if q < 1:
        raise ValueError(f"modulus q={q} must be >= 1")


def unit_pair_count(q: int, c):
    """#{a mod q : (a(c-a), q) = 1} = phi(q)^2 S_q(c) for the class c (or an
    array of classes): prod_{p^k || q} (p-1 if p | c, else p-2) p^(k-1)."""
    check_modulus(q)
    cvals = np.asarray(c, dtype=np.int64)
    out = np.ones(cvals.shape, dtype=np.int64)
    for p, k in factorize(q).factors:
        out *= np.where(cvals % p == 0, p - 1, p - 2) * p ** (k - 1)
    return int(out) if out.ndim == 0 else out


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primes_up_to(limit: int) -> np.ndarray:
    """Primes <= limit via a plain boolean sieve (int64 array)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def floor_x(x):
    """floor(x (1 + 1e-12)), the last n of a sum over n <= x (scalar or
    array), so a grid point that is an integer in exact arithmetic but
    rounds just below it still counts n = x.  A non-finite x raises
    ValueError: its cast to int64 would be meaningless."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x={x[~np.isfinite(x)][0]} must be finite")
    return np.floor(x * (1 + 1e-12)).astype(np.int64)


@dataclass(frozen=True)
class SieveTable:
    """Lambda(n) for 1 <= n <= limit.

    lambda_[n] = log p exactly when n is a power of the prime p, else 0;
    the array is read-only.
    """

    limit: int
    lambda_: np.ndarray  # float64, indices 0..limit; [0] and [1] are 0

    def check_limit(self, x: float) -> None:
        """CapacityError (a ValueError) when x > limit: the one rule for a
        sum or table that reads Lambda(n) for n up to the integer x (a sum
        over n <= u passes x = floor_x(u))."""
        if x > self.limit:
            raise CapacityError(f"x={x} exceeds sieve limit {self.limit}")

    def psi(self, u: float) -> float:
        """Chebyshev psi(u) = sum_{n<=u} Lambda(n), for floor_x(u) <= limit."""
        n = int(floor_x(u))
        self.check_limit(n)
        if n < 2:
            return 0.0
        return float(self.lambda_[: n + 1].sum())


def build_sieve(x: int) -> SieveTable:
    """Von Mangoldt table for n <= x <= SIEVE_CAP.  Deterministic;
    segmented sieve."""
    if not isinstance(x, numbers.Integral):
        raise ValueError(f"build_sieve: x={x!r} must be an integer")
    if x < 2:
        raise ValueError("build_sieve: x must be >= 2")
    if x > SIEVE_CAP:
        raise CapacityError(f"build_sieve: x={x} exceeds cap {SIEVE_CAP}")

    lam = np.zeros(x + 1, dtype=np.float64)
    root = math.isqrt(x)
    base = primes_up_to(root)

    # primes: segment-by-segment composite marking, log at the survivors
    for lo in range(2, x + 1, SEGMENT):
        hi = min(lo + SEGMENT, x + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, (lo + p - 1) // p * p)
            if start < hi:
                mask[start - lo:: p] = False
        idx = np.nonzero(mask)[0] + lo
        idx = idx[idx >= 2]
        lam[idx] = np.log(idx.astype(np.float64))

    # proper prime powers p^k, k >= 2: only p <= sqrt(x) contribute
    for p in base:
        p = int(p)
        logp = math.log(p)
        pk = p * p
        while pk <= x:
            lam[pk] = logp
            pk *= p

    lam.flags.writeable = False
    return SieveTable(limit=x, lambda_=lam)
