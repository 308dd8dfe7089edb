"""Exact Goldbach-type sums.

G(n; q, a, b) = sum_{l+m=n, l=a, m=b (mod q)} Lambda(l) Lambda(m), its
summatory S(x; q, a, b), the character-twisted S(x; chi1, chi2), and
congruence-restricted sums sum_{n<=x, n=c (q)} G(n), G(n) = G(n; 1, 1, 1).

Every summatory value comes from one sparse prefix-sum kernel over the
sieve's prime powers: sum_{l+m<=n} u(l) v(m) = sum_{l<n} u(l) V(n-l), l
over the prime powers where u is nonzero, and V(n-l) = C[j] with j the
number of v's prime powers <= n-l (one searchsorted) and C their running
sum from a leading 0.  One block rule: every loop over the sieve walks its
PAIR_BLOCK slices.  For each n, one np.sum adds the terms whose l lies in
one slice, and one math.fsum joins the block sums, real and imaginary
parts apart.  fsum rounds their exact total once (Shewchuk's algorithm),
so S(x) depends on where the slices split l, not on the order in which
the blocks are joined; at 2e7 every s_grid value lies within 1 ulp of
math.fsum over its own terms.  Memory is O(x/log x) whatever q is:
S(1e6; 3, 1, 2) peaks at 1.9 MB of allocations (dense arrays: 25 MB), a
25-point grid to 1e8 at 42 MB (100 MB RSS with its sieve), to 1e9 at
573 MB RSS.  No FFT and no BLAS dot, so no sum depends on the threads.
A sum over n <= x ends at floor_x(x) = floor(x (1 + 1e-12)), so grid points
that are integers in exact arithmetic but round just below keep n = x.

Every sum reads the sieve one way: _residues is the one residue rule,
_class_blocks the one class walk (class sums and the per-n lattices), and
_twisted_blocks the one twist walk, chi(n) Lambda(n) at every prime power
from the same residues (an exact +0 where chi(n) = 0).  One builder,
_running_sum, fills v's positions and running sum a block at a time, for
the class sums, s_chi's v side and circle.selberg_integral's psi_chi.

Per-n arrays (build_class_convolution) come from a partitioned FFT
convolution on the class lattice (Stockham's sectioned convolution):
G(a0 + b0 + q k) = sum_{i+j=k} u[i] v[j] for the K = floor((x - a0 - b0)/q)
+ 1 outputs on the class a + b, with u[i] = Lambda(a0 + q i) and
v[j] = Lambda(b0 + q j) read for i, j < K (x <= CONV_X_CAP); G is an exact
0 off that class.  Both lattices are cut into P <= CONV_BLOCKS blocks of
one power-of-two length B, each block is transformed at length 2B, block t
of the product is the sum of U_i V_j over i + j = t, and the inverse
transforms are overlap-added.  The build holds the two P x (B + 1) spectra
(one when a0 = b0, the product written over it), then the product and g,
then values and g: max(4PB, x + (P + 1)B) doubles and O(B) transform
scratch, where one zero-padded transform of length N >= 2K held about
4N + K.  (3, 1, 2) peaks at 66 MB RSS at x = 2e6, sieve included (106 MB
with one transform).  Rounding is about eps * ||u||_2 ||v||_2 * log2(2B)
per value, ~ 2e-16 * (x log x / phi(q)) * 20 ~ 3e-7 at x = 1e7 and q = 3,
and the values agree with one transform's to 1e-8 at x = 2e6; against
goldbach_g at x = 1e7 they err by 2.1e-7 (q = 3), as one transform did.  Prime
powers stay in (the definition uses Lambda, never primes only).
The table holds G only, 8 bytes per n: a reader that wants its running
sum (the S column of gz goldbach) takes np.cumsum(values), which carries
the FFT's rounding; s_grid is the exact S(x).

goldbach_g, the per-n reference the table is checked against, shares no
class code with it: it takes class a by its own % q over the prime powers
below n, one PAIR_BLOCK of l at a time, and computes Lambda only at the
hits, where m = n - l is a prime power too.  It holds O(PAIR_BLOCK) beside
the sieve, plus the hit terms for the one sequential cumsum:
goldbach_g(3e8, 3, 1, 2) peaks at 133 MB RSS, its sieve alone at 100 MB.

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

# the per-n table's envelope: values take 8 bytes per n whatever q is;
# at x = 1e7 the build peaks at 176 MB RSS for q = 3 and at 376 MB for
# q = 1 (5 blocks of 2^21), and gz goldbach, which writes its CSV and
# the running sum a block of rows at a time, at 177 MB for q = 3
CONV_X_CAP = 10 ** 7
CONV_BLOCKS = 8  # blocks per class lattice at most: B >= K / CONV_BLOCKS
PAIR_BLOCK = 1 << 16  # sieve entries per block of every loop over the sieve


def _check_classes(caller: str, q: int, a: int, b: int) -> None:
    """ValueError for q < 1; a logged warning when gcd(ab, q) > 1."""
    check_modulus(q)
    if math.gcd(a * b, q) != 1:
        logger.warning("%s: gcd(ab, q) > 1 (q=%d a=%d b=%d)", caller, q, a, b)


def _blocks(k: int):
    """The PAIR_BLOCK slices of the first k sieve entries (one empty slice
    when k = 0), which every loop over the sieve walks."""
    return (slice(s, min(s + PAIR_BLOCK, k))
            for s in range(0, max(k, 1), PAIR_BLOCK))


def _block_length(K: int) -> int:
    """The least power of two B with CONV_BLOCKS * B >= K."""
    B = 1
    while B * CONV_BLOCKS < K:
        B *= 2
    return B


def _lattice_spectra(q: int, c0: int, K: int, B: int,
                     sieve: SieveTable) -> np.ndarray:
    """Row i: rfft(u[iB:(i+1)B], 2B) for u[k] = Lambda(c0 + q k), k < K,
    0 <= c0 < q, one row for each of the ceil(K/B) blocks.  Class c0 is
    read by _class_blocks, and each row is transformed once the class
    passes it."""
    pos = sieve.prime_powers(c0 + q * (K - 1))
    spectra = np.empty((-(-K // B), B + 1), dtype=np.complex128)
    block, i = np.zeros(B), 0
    for l, lam in _class_blocks(pos, _residues(q, pos, sieve), c0, sieve):
        k = (l.astype(np.int64) - c0) // q - i * B  # any q, past int32; from row i
        while len(k) and k[-1] >= B:  # row i is complete
            e = np.searchsorted(k, B)
            block[k[:e]] = lam[:e]
            np.fft.rfft(block, 2 * B, out=spectra[i])
            block[:] = 0.0
            i, k, lam = i + 1, k[e:] - B, lam[e:]
        block[k] = lam
    for i in range(i, len(spectra)):  # the last row and any empty ones
        np.fft.rfft(block, 2 * B, out=spectra[i])
        block[:] = 0.0
    return spectra


def _lattice_convolution(q: int, a0: int, b0: int, K: int, B: int,
                         sieve: SieveTable) -> np.ndarray:
    """g[k] = sum_{i+j=k} u[i] v[j] for k < K, u and v the lattices of the
    classes a0 and b0: the blocks' spectra multiplied, block t of the
    product the sum of U_i V_j over i + j = t, and each inverse transform
    overlap-added (blocks t >= ceil(K/B) start past K)."""
    V = _lattice_spectra(q, b0, K, B, sieve)
    U = V if a0 == b0 else _lattice_spectra(q, a0, K, B, sieve)
    acc, prod = np.empty((2, B + 1), dtype=np.complex128)
    # product row t, the sum of U_i V_(t-i), overwrites V[t], which no
    # lower row reads (U is V when a0 = b0)
    for t in reversed(range(len(V))):
        np.multiply(U[0], V[t], out=acc)
        for i in range(1, t + 1):
            acc += np.multiply(U[i], V[t - i], out=prod)
        V[t] = acc
    del U, acc, prod
    g, out = np.zeros((len(V) + 1) * B), np.empty(2 * B)
    for t, row in enumerate(V):
        g[t * B:(t + 2) * B] += np.fft.irfft(row, 2 * B, out=out)
    return g[:K]


def goldbach_g(n: int, q: int, a: int, b: int, sieve: SieveTable) -> float:
    """G(n; q, a, b), the exact double-precision sum over decompositions,
    added one term at a time in ascending l (class a by its own % q, Lambda
    only where m = n - l is a prime power too)."""
    _check_classes("goldbach_g", q, a, b)
    sieve.check_limit(n)
    if n < 4 or (n - a - b) % q:  # m = n - l is in the class n - a (mod q)
        return 0.0
    pos, terms = sieve.prime_powers(n - 1), []  # 2 and 3 at least
    for j in _blocks(len(pos)):
        l = pos[j]
        # l < n, so l % n is l % q for q >= n, and n is an int32 modulus
        il = np.flatnonzero(l % min(q, n) == a % q)[::-1] + j.start  # descending l
        m = np.int32(n) - pos[il]  # ascending int32 keys, as the positions are
        im = np.searchsorted(sieve.positions[:-1], m)  # at most the last index
        hit = sieve.positions[im] == m
        terms.append(sieve.lam(il[hit][::-1]) * sieve.lam(im[hit], m[hit])[::-1])
    terms = np.concatenate(terms)
    # a sequential running sum, not np.sum's pairwise one
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass
class ClassConvolution:
    """g[n] = G(n; q, a, b) for n <= x (s_grid gives the exact S(x))."""

    q: int
    a: int
    b: int
    x: int
    values: np.ndarray  # g[0..x]


def check_conv_limit(x: int) -> None:
    """CapacityError when a per-n table to x would pass CONV_X_CAP."""
    if x > CONV_X_CAP:
        raise CapacityError(
            f"x={x} exceeds the per-n convolution cap {CONV_X_CAP}")


def build_class_convolution(
    q: int, a: int, b: int, x: int, sieve: SieveTable
) -> ClassConvolution:
    """G(n; q, a, b) for all n <= x by a partitioned FFT on the class lattice."""
    _check_classes("build_class_convolution", q, a, b)
    if x < 0:
        raise ValueError(f"x={x} must be >= 0")
    check_conv_limit(x)
    sieve.check_limit(x)
    a0, b0 = a % q, b % q
    K = (x - a0 - b0) // q + 1 if x >= a0 + b0 else 0  # on-class outputs
    g = _lattice_convolution(q, a0, b0, K, _block_length(K), sieve)
    g[g < 0] = 0.0
    values = np.zeros(x + 1, dtype=np.float64)
    values[a0 + b0::q] = g
    del g
    values[:4] = 0.0
    return ClassConvolution(q=q, a=a, b=b, x=x, values=values)


def _pair_sums(blocks, m: np.ndarray, C: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """sum_{l<n} w(l) V(n-l) with V(k) = sum_{m<=k} v(m), for every n in ns:
    sum_{l+m<=n} w(l) v(m), for blocks of (l, w(l)), l >= 1 ascending in
    each block, and v at the ascending positions m >= 1, in m's dtype.

    C is v's running sum from a leading 0, so V(k) = C[#{m <= k}].  For each
    n, one np.sum adds a block's terms with l < n, and math.fsum joins the
    block sums (real and imaginary parts apart).  fsum rounds once, so the
    result depends on where the blocks split l, not on their order.
    """
    ns = np.maximum(ns, 0).astype(m.dtype)  # n <= 0: no term
    parts = [[] for _ in ns]
    for l, w in blocks:
        for n, k, part in zip(ns, np.searchsorted(l, ns).tolist(), parts):
            if k:
                key = n - l[:k]  # descending: it reaches only m[s:e], searched in cache
                s, e = np.searchsorted(m, key[[-1, 0]], side="right")
                j = s + np.searchsorted(m[s:e], key, side="right")
                # C first: a complex product's bits depend on the operand
                # order, which numpy keeps for a temporary on the left
                part.append(np.sum(C[j] * w[:k]))
    cplx = C.dtype.kind == "c"
    return np.array([complex(math.fsum(p.real for p in part),
                             math.fsum(p.imag for p in part)) if cplx
                     else math.fsum(part) for part in parts], dtype=C.dtype)


def _grid(xs, sieve: SieveTable) -> tuple[np.ndarray, np.ndarray]:
    """floor_x of the x values as a 1-d array, and the prime powers the
    sums read, up to the largest (checked against the sieve)."""
    ns = np.atleast_1d(floor_x(xs))
    return ns, sieve.prime_powers(max(int(ns.max()), 0) if ns.size else 0)


def _residues(q: int, pos: np.ndarray, sieve: SieveTable):
    """The prime powers pos mod q in int8 (int32 past 127); None at q = 1."""
    if q == 1:
        return None
    r = np.empty(len(pos), np.int8 if q <= 127 else np.int32)
    # pos % (limit + 1) is pos % q for q > limit, and an int32 modulus
    return np.remainder(pos, min(q, sieve.limit + 1), out=r, casting="unsafe")


def _class_blocks(pos: np.ndarray, r, c: int, sieve: SieveTable):
    """(l, Lambda(l)) for the prime powers l in pos with residue c in r
    (every l when r is None), a block of the sieve at a time."""
    for j in _blocks(len(pos)):
        if r is not None:
            j = np.flatnonzero(r[j] == c) + j.start
        l = pos[j]
        yield l, sieve.lam(j, l)


def _running_sum(pos: np.ndarray, count: int, blocks, dtype):
    """v's positions m and running sum C from a leading 0, for the count
    entries (m, v) that blocks yield in ascending m, filled a block at a
    time and C summed in place by one sequential np.cumsum.  m is pos, read
    in place, when every prime power is on v's side (count = len(pos))."""
    m = pos if count == len(pos) else np.empty(count, np.int32)
    C, e = np.zeros(count + 1, dtype), 0
    for mj, vj in blocks:
        if m is not pos:
            m[e:e + len(mj)] = mj
        C[e + 1:e + 1 + len(mj)] = vj
        e += len(mj)
    return m, np.cumsum(C, out=C)


def _class_sums(ns, pos, q: int, a: int, b: int, sieve: SieveTable, r):
    """S(n; q, a, b) for every n in ns: class b's positions in pos and the
    running sum of its Lambda, and class a read from r a block at a time."""
    count = len(pos) if r is None else np.count_nonzero(r == b % q)
    if not count:  # every term is Lambda(l) * 0.0 = +0.0
        return np.zeros(len(ns))
    m, C = _running_sum(pos, count, _class_blocks(pos, r, b % q, sieve), np.float64)
    return _pair_sums(_class_blocks(pos, r, a % q, sieve), m, C, ns)


def _like(xs, values: np.ndarray):
    """A plain number for scalar xs, the array otherwise."""
    return values.item() if np.ndim(xs) == 0 else values


def s_grid(xs, q: int, a: int, b: int, sieve: SieveTable):
    """S(x; q, a, b) for every x in xs (a float for scalar x)."""
    _check_classes("s_grid", q, a, b)
    ns, pos = _grid(xs, sieve)
    return _like(xs, _class_sums(ns, pos, q, a, b, sieve, _residues(q, pos, sieve)))


def s_chi(xs, chi1: DirichletCharacter, chi2: DirichletCharacter,
          sieve: SieveTable):
    """S(x; chi1, chi2) = sum_{l+m<=x} chi1(l)Lambda(l) chi2(m)Lambda(m)
    for every x in xs (a complex for scalar x)."""
    if chi1.q != chi2.q:
        raise ValueError("characters must share a modulus")
    ns, pos = _grid(xs, sieve)
    r = _residues(chi1.q, pos, sieve)
    m, C = _running_sum(pos, len(pos), _twisted_blocks(chi2, pos, r, sieve),
                        np.complex128)
    # l runs over the terms chi1(l) != 0 only, as np.sum's split depends on them
    u = ((l[w != 0], w[w != 0]) for l, w in _twisted_blocks(chi1, pos, r, sieve))
    return _like(xs, _pair_sums(u, m, C, ns))


def _twisted_blocks(chi: DirichletCharacter, pos: np.ndarray, r, sieve: SieveTable):
    """(n, chi(n) Lambda(n)) for the prime powers n in pos, r their residues
    mod chi.q, a block of the sieve at a time: an exact +0 at the few n
    that share a factor with chi.q."""
    table = char_values_table(chi)
    for j in _blocks(len(pos)):
        yield pos[j], (table[0] if r is None else table[r[j]]) * sieve.lam(j)


def restricted_sum(xs, q: int, c: int, sieve: SieveTable):
    """sum over n <= x, n = c (mod q), of G(n) = G(n; 1, 1, 1), for every
    x in xs (a float for scalar x).

    Summed as sum_{a=1..q} S(x; q, a, c-a) over every class a, non-units
    too: prime powers of p | q count.
    """
    check_modulus(q)
    ns, pos = _grid(xs, sieve)
    r = _residues(q, pos, sieve)
    total = np.zeros(len(ns))
    for a in range(1, q + 1):
        total += _class_sums(ns, pos, q, a, c - a, sieve, r)
    return _like(xs, total)
