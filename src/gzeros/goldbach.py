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
zeros, so the results are bit-identical to it.  Leaves of PAIR_LEAF terms,
joined where np.sum's pairwise split joins them (_tree_sum; the split is
pinned by test_tree_sum_is_numpy_sum_bit_for_bit), keep its bits with
leaf-sized temporaries.  Memory is O(x/log x) whatever q is: S(1e6; 3, 1, 2)
peaks at 1.7 MB of allocations (dense arrays: 25 MB), a 25-point grid to 1e8
at 53 MB (113 MB RSS with its sieve), to 1e9 at 668 MB RSS.  No FFT: the sum
is a pairwise np.sum (not a BLAS dot), so it does not depend on the threads.
A sum over n <= x ends at floor_x(x) = floor(x (1 + 1e-12)), so grid points
that are integers in exact arithmetic but round just below keep n = x.

The character twist chi(n) Lambda(n) is sparse too: twisted_entries
returns the prime powers n <= x with chi(n) != 0 and their values, and
every twisted sum (s_chi, circle.build_grid, circle.selberg_integral)
reads that one result.

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
the FFT's rounding; s_grid is the exact S(x).  _class_lambda, a dense
scatter over 0..x, is only selfcheck's oracle.

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
PAIR_LEAF = 1 << 15  # terms per leaf of each grid point's pair sum (_tree_sum)
PAIR_BLOCK = 1 << 16  # terms of l gathered at once for every grid point


def _check_classes(caller: str, q: int, a: int, b: int) -> None:
    """ValueError for q < 1; a logged warning when gcd(ab, q) > 1."""
    check_modulus(q)
    if math.gcd(a * b, q) != 1:
        logger.warning("%s: gcd(ab, q) > 1 (q=%d a=%d b=%d)", caller, q, a, b)


def _class_entries(q: int, a: int, x: int, sieve: SieveTable):
    """The prime powers l <= x with l = a (mod q), and Lambda(l)."""
    pos = sieve.prime_powers(x)
    i = np.flatnonzero(np.remainder(pos, q, dtype=np.int64) == a % q)  # any q, past int32
    l = pos[i]
    return l, sieve.lam(i, l)


def _class_lambda(q: int, a: int, x: int, sieve: SieveTable) -> np.ndarray:
    """Array v[0..x] with v[l] = Lambda(l) [l = a mod q]."""
    pos, lam = _class_entries(q, a, x, sieve)
    v = np.zeros(x + 1, dtype=np.float64)
    v[pos] = lam
    return v


def _block_length(K: int) -> int:
    """The least power of two B with CONV_BLOCKS * B >= K."""
    B = 1
    while B * CONV_BLOCKS < K:
        B *= 2
    return B


def _lattice_spectra(q: int, c0: int, K: int, B: int,
                     sieve: SieveTable) -> np.ndarray:
    """Row i: rfft(u[iB:(i+1)B], 2B) for u[k] = Lambda(c0 + q k), k < K,
    0 <= c0 < q, one row for each of the ceil(K/B) blocks."""
    pos, lam = _class_entries(q, c0, c0 + q * (K - 1), sieve)
    k = (pos.astype(np.int64) - c0) // q  # any q, as in _class_entries
    ends = np.searchsorted(k, np.arange(B, K + B, B)).tolist()
    spectra = np.empty((len(ends), B + 1), dtype=np.complex128)
    block, s = np.empty(B), 0
    for i, e in enumerate(ends):
        block[:] = 0.0
        block[k[s:e] - i * B] = lam[s:e]
        np.fft.rfft(block, 2 * B, out=spectra[i])
        s = e
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
    added one term at a time in ascending l."""
    _check_classes("goldbach_g", q, a, b)
    sieve.check_limit(n)
    if n < 4:
        return 0.0
    l, lam_l = _class_entries(q, a, n - 1, sieve)
    m = np.int32(n) - l  # int32 keys, as the positions are
    i = np.minimum(np.searchsorted(sieve.positions, m), len(sieve.positions) - 1)
    hit = (sieve.positions[i] == m) & (np.remainder(m, q, dtype=np.int64) == b % q)
    terms = lam_l[hit] * sieve.lam(i[hit], m[hit])  # descending indices
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


def _tree(lo: int, hi: int, cplx: bool, leaf):
    """leaf(lo', hi') over the PAIR_LEAF-term leaves of lo:hi, added where np.sum
    splits a float64 (complex128 if cplx) run: its half, rounded down to 8 floats."""
    k = hi - lo
    if k <= PAIR_LEAF:
        return leaf(lo, hi)
    h = lo + ((k - k % 8) // 2 if cplx else k // 2 - (k // 2) % 8)
    return _tree(lo, h, cplx, leaf) + _tree(h, hi, cplx, leaf)


def _tree_sum(l, w, m, C, n, lo: int, hi: int, cplx: bool):
    """np.sum(w[lo:hi] * C[#{m <= n - l}]) over l[lo:hi], lo < hi, to the bit."""
    def leaf(a, b):
        key = n - l[a:b]  # descending: it reaches only m[s:e], searched in cache
        s, e = np.searchsorted(m, key[[-1, 0]], side="right")
        return np.sum(w[a:b] * C[s + np.searchsorted(m[s:e], key, side="right")])
    return _tree(lo, hi, cplx, leaf)


def _pair_sums(l: np.ndarray, w, m: np.ndarray, C: np.ndarray,
               ns: np.ndarray, idx=None) -> np.ndarray:
    """sum_{l<n} w(l) V(n-l) with V(k) = sum_{m<=k} v(m), for every n in ns:
    sum_{l+m<=n} w(l) v(m) for weights w at the ascending positions l >= 1
    (only at the indices idx, if given) and v at the ascending positions
    m >= 1, all in the dtype of the keys n - l (searchsorted casts m to any other).
    w is an array or, like SieveTable.lam, a function of a slice or an
    index array and of l there.

    C is v's prefix sum with a leading 0, summed in place from that 0 as a
    dense cumsum is, so V(k) = C[#{m <= k}] is the dense V[k] to the bit.
    All points' leaves are summed PAIR_BLOCK terms of l at a time, gathered once.
    """
    take = w if callable(w) else lambda i, pos: w[i]
    out = np.zeros(len(ns), dtype=np.result_type(take(slice(0, 0), l[:0]), C))
    cplx = out.dtype.kind == "c"
    ks = np.searchsorted(l, ns := np.maximum(ns, 0).astype(l.dtype))  # n <= 0: none
    ks = (ks if idx is None else np.searchsorted(idx, ks.astype(idx.dtype))).tolist()
    kmax, sums, end, lb, wb = max(ks, default=0), {}, 0, None, None
    for lo, hi, i in sorted((lo, hi, i) for i, k in enumerate(ks) if k
                            for lo, hi in _tree(0, k, cplx, lambda a, b: [(a, b)])):
        if lo >= end:  # the leaves from lo to end end before end + PAIR_LEAF
            start, end = lo, lo + PAIR_BLOCK
            j = slice(lo, min(lo + PAIR_BLOCK + PAIR_LEAF, kmax))
            j = j if idx is None else idx[j]
            del lb, wb  # before the next block is gathered
            lb = l[j]  # a view, or the positions at idx gathered once
            wb = take(j, lb)
        sums[i, lo] = _tree_sum(lb, wb, m, C, ns[i], lo - start, hi - start, cplx)
    for i, k in enumerate(ks):
        out[i] = _tree(0, k, cplx, lambda a, b: sums[i, a]) if k else 0.0
    return out


def _grid(xs, sieve: SieveTable) -> tuple[np.ndarray, int]:
    """floor_x of the x values as a 1-d array, and the array length the
    sums need (checked against the sieve)."""
    ns = np.atleast_1d(floor_x(xs))
    top = max(int(ns.max()), 0) if ns.size else 0
    sieve.check_limit(top)
    return ns, top


def _residues(q: int, top: int, sieve: SieveTable):
    """The prime powers <= top mod q in int8 (int32 past 127); None at q = 1."""
    if q == 1:
        return None
    pos = sieve.prime_powers(top)
    r = np.empty(len(pos), np.int8 if q <= 127 else np.int32)
    # pos % (limit + 1) is pos % q for q > limit, and an int32 modulus
    return np.remainder(pos, min(q, sieve.limit + 1), out=r, casting="unsafe")


def _class_sums(ns, top: int, q: int, a: int, b: int, sieve: SieveTable, r):
    pos = sieve.prime_powers(top)
    if r is None:  # q = 1: the whole sieve is class b, and class a
        m, i = pos, None
    else:  # class b's positions and class a's indices, in int32
        m, i = (np.empty(np.count_nonzero(r == c % q), np.int32) for c in (b, a))
    if not len(m):  # every term is Lambda(l) * 0.0 = +0.0
        return np.zeros(len(ns))
    C, e, f = np.zeros(len(m) + 1), 0, 0
    for s in range(0, len(pos), PAIR_BLOCK):  # a block of the sieve at a time
        j = slice(s, min(s + PAIR_BLOCK, len(pos)))
        if r is not None:
            k = np.flatnonzero(r[j] == a % q) + s
            i[f:f + len(k)] = k
            f += len(k)
            j = np.flatnonzero(r[j] == b % q) + s
        mj = pos[j] if r is None else pos.take(j, out=m[e:e + len(j)])
        C[e + 1:e + 1 + len(mj)] = sieve.lam(j, mj)  # class b's Lambda
        e += len(mj)
    del r  # s_grid's residues are freed here
    return _pair_sums(pos, sieve.lam, m, np.cumsum(C, out=C), ns, i)


def _like(xs, values: np.ndarray):
    """A plain number for scalar xs, the array otherwise."""
    return values.item() if np.ndim(xs) == 0 else values


def s_grid(xs, q: int, a: int, b: int, sieve: SieveTable):
    """S(x; q, a, b) for every x in xs (a float for scalar x)."""
    _check_classes("s_grid", q, a, b)
    ns, top = _grid(xs, sieve)
    return _like(xs, _class_sums(ns, top, q, a, b, sieve, _residues(q, top, sieve)))


def s_chi(xs, chi1: DirichletCharacter, chi2: DirichletCharacter,
          sieve: SieveTable):
    """S(x; chi1, chi2) = sum_{l+m<=x} chi1(l)Lambda(l) chi2(m)Lambda(m)
    for every x in xs (a complex for scalar x)."""
    if chi1.q != chi2.q:
        raise ValueError("characters must share a modulus")
    ns, top = _grid(xs, sieve)
    l, u = twisted_entries(chi1, top, sieve)
    m, v = (l, u) if chi2 == chi1 else twisted_entries(chi2, top, sieve)
    C = np.zeros(len(v) + 1, dtype=v.dtype)
    C[1:] = v
    del v
    return _like(xs, _pair_sums(l, u, m, np.cumsum(C, out=C), ns))


def twisted_entries(chi: DirichletCharacter, x: int,
                    sieve: SieveTable) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= x with chi(n) != 0 (int32, as the sieve holds
    them), and chi(n) Lambda(n) at each (complex128)."""
    pos = sieve.prime_powers(x)
    table = char_values_table(chi)
    kept = [(pos[:0], np.zeros(0, table.dtype))]
    for s in range(0, len(pos), PAIR_BLOCK):  # a block of Lambda at a time
        e = min(s + PAIR_BLOCK, len(pos))
        vals = table[pos[s:e] % chi.q] * sieve.lam(slice(s, e))
        keep = vals != 0
        kept.append((pos[s:e][keep], vals[keep]))
    return np.concatenate([p for p, _ in kept]), np.concatenate([v for _, v in kept])


def restricted_sum(xs, q: int, c: int, sieve: SieveTable):
    """sum over n <= x, n = c (mod q), of G(n) = G(n; 1, 1, 1), for every
    x in xs (a float for scalar x).

    Summed as sum_{a=1..q} S(x; q, a, c-a) over every class a, non-units
    too: prime powers of p | q count.
    """
    check_modulus(q)
    ns, top = _grid(xs, sieve)
    r = _residues(q, top, sieve)
    total = np.zeros(len(ns))
    for a in range(1, q + 1):
        total += _class_sums(ns, top, q, a, c - a, sieve, r)
    return _like(xs, total)
