"""Exact integer and multiplicative-function primitives.

Provides:
- factorize(n): deterministic factorization for n < 2^63 (trial division
  plus Miller-Rabin/Pollard rho for the large cofactor)
- euler_phi, moebius: standard multiplicative functions
- unit_pair_count(q, c): #{a mod q : (a(c-a), q) = 1} = phi(q)^2 S_q(c)
- check_modulus(q): the one q >= 1 check of the entry points
- floor_x(x): floor(x (1 + 1e-12)), the last n of every sum over n <= x
- primes_up_to(limit): the primes <= limit < 2^31, the one prime sieve; every
  prime list of the package, build_sieve's included, comes from it
- build_sieve(x): the prime powers n = p^k <= x, as a compact SieveTable
  whose lam(i) gives Lambda(n) = log p at the sieve indices i

The prime sieve marks odd numbers only, in blocks of 2^20, so construction
stays cache resident, and writes each block in place into one int32 array;
build_sieve merges the proper prime powers in as the blocks are written.
The resulting SieveTable is read-only and safe to share.  It holds only
the ~x/log x prime powers, 4 bytes each (0.3 MB at x = 10^6, against 8 MB
for a dense float64 Lambda array), and it is the only source of Lambda:
every sum reads SieveTable.prime_powers(x) and computes Lambda with
SieveTable.lam where it reads it.  It is never cached on disk: building it
is about 3x faster than reading it back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

SEGMENT = 1 << 20
SIEVE_CAP = 10 ** 9  # < 2^31: every position is an exact int32

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


def check_modulus(q: int) -> None:
    """ValueError unless the modulus q is at least 1."""
    if q < 1:
        raise ValueError(f"modulus q={q} must be >= 1")


def unit_pair_count(q: int, c):
    """#{a mod q : (a(c-a), q) = 1} = phi(q)^2 S_q(c) for the class c (or an
    array of classes): prod_{p^k || q} (p-1 if p | c, else p-2) p^(k-1)."""
    check_modulus(q)
    cvals = np.asarray(c % q, dtype=np.int64)  # any integer c, past int64 too
    out = np.ones(cvals.shape, dtype=np.int64)
    for p, k in factorize(q).factors:
        out *= np.where(cvals % p == 0, p - 1, p - 2) * p ** (k - 1)
    return int(out) if out.ndim == 0 else out


def _primes_with(limit: int, powers: np.ndarray) -> np.ndarray:
    """The primes <= limit < 2^31 and the ascending int32 powers <= limit
    (none of them prime), merged into one ascending int32 array.

    Only odd numbers are marked: index i stands for 2i + 1, each block holds
    SEGMENT of them, and every odd base prime p of primes_up_to(isqrt(limit))
    marks its odd multiples from p^2, which sit p indices apart.  Each block's
    primes, and the powers below the next block, are written in place into
    one array sized by pi(x) < 1.25506 x / log x for x > 1 (Rosser and
    Schoenfeld, 1962) plus the powers, which is then cut to its count.
    """
    base = primes_up_to(math.isqrt(limit))[1:].tolist()
    n_odd = (limit + 1) // 2  # the odd numbers 1, 3, ..., <= limit
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1 + len(powers), np.int32)
    out[0], count, s = 2, 1, 0
    segment = np.empty(min(SEGMENT, n_odd), dtype=bool)
    for lo in range(0, n_odd, SEGMENT):
        hi = min(lo + SEGMENT, n_odd)
        mask = segment[:hi - lo]
        mask[:] = True
        if lo == 0:
            mask[0] = False  # 1 is not prime
        for p in base:
            # the odd multiples of p sit at i = (p - 1)/2 (mod p)
            start = max((p * p) // 2, lo + ((p - 1) // 2 - lo) % p)
            if start < hi:
                mask[start - lo:: p] = False
        found = np.flatnonzero(mask)
        block = out[count:count + len(found)]
        block[:] = found  # odd index i - lo, then the number 2i + 1, in int32
        del found  # before the merge's copy of the block
        block *= 2
        block += 2 * lo + 1
        e = np.searchsorted(powers, 2 * hi, side="right")  # the powers before 2 hi + 1
        out[count:count + len(block) + e - s] = np.insert(
            block, np.searchsorted(block, powers[s:e]), powers[s:e])
        count, s = count + len(block) + e - s, e
    out.resize(count, refcheck=False)  # shrinks in place: nothing else sees out
    return out


def primes_up_to(limit: int) -> np.ndarray:
    """Primes <= limit < 2^31 (int32 array), sieved a block at a time."""
    if limit >= 2 ** 31:
        raise ValueError(f"primes_up_to: limit={limit} must be below 2^31")
    if limit < 2:
        return np.zeros(0, dtype=np.int32)
    return _primes_with(limit, np.zeros(0, dtype=np.int32))


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
    """The prime powers 2 <= n <= limit, from which Lambda(n) is computed.

    positions is ascending int32 (exact: limit <= SIEVE_CAP < 2^31; search it
    with int32 keys).  The proper powers p^k, k >= 2, sit at the ascending
    sieve indices power_index (int32), and power_log holds math.log(p) for
    each.  Lambda is 0 off the positions.  All three arrays are read-only.
    """

    limit: int
    positions: np.ndarray    # int32, ascending
    power_index: np.ndarray  # int32, ascending: where positions[i] = p^k, k >= 2
    power_log: np.ndarray    # float64, math.log(p) at each of them

    def check_limit(self, x: float) -> None:
        """CapacityError (a ValueError) when x > limit: the one rule for a
        sum or table that reads Lambda(n) for n up to the integer x (a sum
        over n <= u passes x = floor_x(u))."""
        if x > self.limit:
            raise CapacityError(f"x={x} exceeds sieve limit {self.limit}")

    def prime_powers(self, x: int) -> np.ndarray:
        """The prime powers n <= x: a read-only view of positions[:k], whose
        Lambda is lam(slice(0, k))."""
        self.check_limit(x)
        return self.positions[:np.searchsorted(self.positions, np.int32(max(x, 0)),
                                               side="right")]

    def lam(self, i, pos=None) -> np.ndarray:
        """Lambda(positions[i]), a new float64 array, for a slice i of step 1
        or a strictly ascending array i of indices >= 0 (ValueError for any
        other): np.log(positions[i]) with math.log(p) at the proper powers,
        found by searching the few powers among the indices.  np.log works
        element by element, so any slice or gather of the table's Lambda
        keeps its bits.  A caller that has gathered positions[i] already
        passes it as pos."""
        if isinstance(i, slice) and i.step not in (None, 1):
            raise ValueError(f"lam: slice step {i.step} is not 1")
        if not isinstance(i, slice) and np.any(i[1:] <= i[:-1]):
            raise ValueError("lam: indices are not strictly ascending")
        out = np.log(self.positions[i] if pos is None else pos)
        at = self.power_index
        if isinstance(i, slice):
            lo, hi, _ = i.indices(len(self.positions))
            s, e = np.searchsorted(at, (lo, hi))
            out[at[s:e] - lo] = self.power_log[s:e]
        else:
            j = np.searchsorted(i, at)
            hit = j < len(i)
            hit[hit] = i[j[hit]] == at[hit]
            out[j[hit]] = self.power_log[hit]
        return out

    def psi(self, u: float) -> float:
        """Chebyshev psi(u) = sum_{n<=u} Lambda(n), for floor_x(u) <= limit,
        rounded once from the exact sum, as math.fsum rounds it.

        Each Lambda is m 2^(e - 52) with an integer significand m < 2^53 and
        -1 <= e <= 4 (log 2 <= Lambda < log 2^31), so 2^53 Lambda = m 2^(e + 1)
        is an integer below 2^58.  A SEGMENT of them at a time is summed
        exactly in int64, split in 32-bit halves so neither sum overflows.
        """
        k = len(self.prime_powers(int(floor_x(u))))
        total = 0
        for s in range(0, k, SEGMENT):
            bits = self.lam(slice(s, min(s + SEGMENT, k))).view(np.int64)
            m = bits & (2 ** 52 - 1)
            m |= 2 ** 52
            bits >>= 52  # the biased exponent e + 1023
            bits -= 1022
            m <<= bits
            np.right_shift(m, 32, out=bits)
            m &= 2 ** 32 - 1
            total += (int(bits.sum()) << 32) + int(m.sum())
        return total / 2 ** 53  # one correctly rounded division


def build_sieve(x: int) -> SieveTable:
    """The compact prime-power table for n <= x <= SIEVE_CAP: the primes of
    the one prime sieve, with the proper powers merged in as each block of
    primes is written, int32 throughout, 4 bytes per prime power.
    Deterministic.  At x = 1e8: 5.76e6 prime powers, 23 MB (a dense float64
    Lambda array: 800 MB), `gz sieve` peak 83 MB RSS; at 1e9: 5.09e7, 204 MB
    in about 2.8 s, `gz sieve` 3.5 s and peak 255 MB (numpy 2.4, 2-CPU Xeon
    VM)."""
    if not isinstance(x, numbers.Integral):
        raise ValueError(f"build_sieve: x={x!r} must be an integer")
    if x < 2:
        raise ValueError("build_sieve: x must be >= 2")
    if x > SIEVE_CAP:
        raise CapacityError(f"build_sieve: x={x} exceeds cap {SIEVE_CAP}")
    # proper prime powers p^k, k >= 2: only p <= sqrt(x) contribute
    powers = []
    for p in primes_up_to(math.isqrt(x)).tolist():
        pk = p * p
        while pk <= x:
            powers.append((pk, math.log(p)))
            pk *= p
    powers.sort()
    pw = np.array([n for n, _ in powers], dtype=np.int32)
    positions = _primes_with(x, pw)
    power_index = np.searchsorted(positions, pw).astype(np.int32)
    power_log = np.array([v for _, v in powers], dtype=np.float64)
    for arr in (positions, power_index, power_log):
        arr.flags.writeable = False
    return SieveTable(limit=x, positions=positions, power_index=power_index,
                      power_log=power_log)
