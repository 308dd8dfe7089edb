"""Dirichlet L-functions in the critical strip and their zeros.

Evaluation backend: Euler-Maclaurin, vectorized over s and banded by
|Im s| so line scans stay fast.  A band with top h uses N = max(20,
ceil(h/2)) head terms per residue and 12 Bernoulli corrections; each
correction is about (|s|/(2 pi N))^2 < 1/pi^2 times the one before, and
against mpmath the relative error is below 5e-11 for |Im s| <= 5000 and
-1/2 <= Re s <= 3/2 (Rubinstein, Computational methods and experiments in
analytic number theory, 2005).  The evaluator's domain is Re s >= -1/2,
|Im s| <= IM_CAP = 1e4: past Re s = 3/2 the corrections only shrink
(singular._prime_zeta reads zeta at real s up to about 50), while below
-1/2 they grow with |s| and the result is garbage, so l_values_array
raises CapacityError there.

Since q^-s (j + a/q)^-s = (qj + a)^-s, L(s, chi) = q^-s sum_a chi(a)
zeta(s, a/q) is one integer Dirichlet polynomial and one tail:

    L(s, chi) = sum_{n <= qN} chi(n) n^-s
                + sum_{a=1..q} chi(a) (qN + a)^-s [(N + a/q)/(s - 1) + 1/2
                  + sum_{r=1..12} B_2r/(2r)! (s)_{2r-1} (N + a/q)^(1-2r)].

l_values_array takes every n^-s with n <= q(N + 1) and (n, q) = 1 from
one table: a complex exp at each prime, and n^-s = spf(n)^-s (n/spf(n))^-s,
one complex multiply, at every other n, in layers by Omega(n) (the plan,
cached per (q, N)).  At T = 1000, 118 of zeta's 650 bases are primes,
and on that scan a point costs 5-8 us, against 20 us for one exp per
term (2-CPU x86, numpy 2.4).  The Pochhammer products are formed once per point, and
the sums are real einsums: no BLAS, so no dependence on the thread count.
The table is filled for blocks of EM_BLOCK_TERMS = 2^16 entries (1 MiB)
at a time, and q(N + 1) is capped at L_TERMS_CAP = 1e6 (q <= FIND_Q_CAP
at |Im s| <= IM_CAP needs 739,100); past the cap l_values_array raises
CapacityError before it allocates anything of that size.

One gamma factor serves every use of the completed function
Lambda(s, chi) = G(s, chi) L(s, chi) for primitive chi:

    log G(s, chi) = ((s + kappa)/2) log(q/pi) + log Gamma((s + kappa)/2).

log Gamma is numpy code, _loggamma (the recurrence up to |z| >= 10, then
Stirling's series), which explicit.py's Gamma ratios use too.

The argument-principle count takes the imaginary part of log G, and the
zero scan its imaginary part on the critical line:

    Z_chi(t) = Re[ e^{i theta_chi(t)} L(1/2 + it, chi) ],
    theta_chi(t) = Im log G(1/2 + it, chi) - arg(epsilon(chi)) / 2,

which is real-analytic with the same zeros as L on the line (for every
primitive chi, not only real ones).  The scan step is a tenth of the
mean zero spacing 2 pi / log(q T / 2 pi) at the top of the range; sign
changes are refined by vectorized Illinois regula falsi to brackets
narrower than 2.5e-10.  Completeness is certified by comparing against
the argument-principle count N(T, chi) of zeros in the rectangle
[-1/2, 3/2] x [-T, T].  The count reads only the right half of its
boundary, 1/2 - iT -> 3/2 - iT -> 3/2 + iT -> 1/2 + iT, and N is that
phase change divided by pi: the functional equation
Lambda(1 - conj s, chi) = epsilon(chi) conj Lambda(s, chi) maps the right
half onto the left half traversed backwards, so the left half adds the
same phase change (for zeta, xi(1 - conj s) = conj xi(s)), and the count
never evaluates on Re s = -1/2, where Euler-Maclaurin is least accurate.
Its long right edge is read at its two ends (_winding), so a count takes
18 evaluations of L at any T.  For zeta s(s-1)/2 absorbs the poles.  A count mismatch raises
CertificationFailure: it means a missed zero, a multiple zero, or an
off-line zero.

A ZeroSet is a frozen table of read-only arrays beta, gamma and mult
sorted by gamma; only this module builds one, and other modules read
slices and masks.
Computed zeros store beta = 1/2 exactly; imported sets may carry other
beta values for hypothetical-scenario replay but are never certified.
Zero sets for a whole modulus come from cache.load_or_build_zero_sets,
which searches once per conjugate pair and mirrors the other set.

Every sum over zeros, sum_{|gamma| <= T} m x^rho weight(rho), goes
through the one kernel zero_power_sum (h_term and landau_gonek in
explicit.py).
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import (
    DirichletCharacter,
    char_values_table,
    character_from_label,
    induce_primitive,
    root_number,
)
from .errors import (
    CapacityError,
    CertificationFailure,
    ContourError,
    OffLineZeroError,
    ValidationError,
)
from .numtheory import primes_up_to

logger = logging.getLogger(__name__)

# Part of every zero-cache key: bump it whenever the evaluator or the finder
# changes, so that cached sets built by the old code are not reused.  "4":
# L(s, chi) became one Dirichlet polynomial with its n^-s built from the
# primes, which moves the values in their last bits (ordinates by < 3e-10).
EVALUATOR_VERSION = "4"
IM_CAP = 10 ** 4        # validated envelope for the Euler-Maclaurin backend
FIND_Q_CAP = 100
FIND_T_CAP = 1000
EM_BLOCK_TERMS = 1 << 16  # table entries per block of points: 1 MiB of complex128
L_TERMS_CAP = 10 ** 6     # largest q(N + 1), the top base of L's Dirichlet polynomial
REFINE_TOL = 2.5e-10    # width of a refined bracket around each ordinate


def check_height(T: float) -> None:
    """ValueError unless REFINE_TOL <= T < inf: the one rule for a height
    that the zero count or the explicit side reads (x^2/T stays finite)."""
    if not REFINE_TOL <= T < math.inf:
        raise ValueError(f"T={T} must be finite and >= REFINE_TOL")


# B_{2r} / (2r)! for r = 1..12, from the exact Bernoulli numbers
_B2K = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
]
_B_OVER_FACT = [
    float(b / math.factorial(2 * (r + 1))) for r, b in enumerate(_B2K)
]
# B_{2r} / (2r (2r - 1)), the coefficients of Stirling's series
_STIRLING = [float(b / (2 * r * (2 * r - 1))) for r, b in enumerate(_B2K, 1)]


# ---------------------------------------------------------------------------
# Euler-Maclaurin: the Dirichlet polynomial of L(s, chi)


def _em_bands(s: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(indices, N) for each |Im s| band of s, after the domain checks:
    Re s >= -1/2, |Im s| <= IM_CAP, finite s, s != 1."""
    if not np.all(np.isfinite(s)):
        raise ValueError("s must be finite")  # NaN would never finish a band
    t = np.abs(s.imag)
    tmax = float(t.max()) if len(t) else 0.0
    if tmax > IM_CAP:
        raise CapacityError(f"|Im s| = {tmax} beyond validated envelope {IM_CAP}")
    if len(s) and s.real.min() < -0.5:
        raise CapacityError(f"Re s = {s.real.min()} below validated envelope -1/2")
    if np.any(s == 1):
        raise ValueError("pole at s = 1")
    bands = []
    lo = 0.0
    hi = 10.0
    while True:
        idx = np.nonzero((t > lo) & (t <= hi) if lo else (t <= hi))[0]
        if len(idx):
            bands.append((idx, max(20, int(math.ceil(hi / 2)))))
        if hi >= tmax:
            return bands
        lo, hi = hi, hi * 1.5


@dataclass(frozen=True)
class _PowerPlan:
    """How to fill n^-s for the n <= M prime to q, one row per n.

    Rows are ordered by (n > M - q, Omega(n), n), so each run of rows in
    `layers` is one kind: n = 1, primes (one exp each), or n = spf(n) *
    n/spf(n), the product of the earlier rows `left` and `right`.  Rows
    with n > M - q are the Euler-Maclaurin tail; no row is built from
    them, since 2 (M - q) >= M."""

    n: np.ndarray
    logn: np.ndarray
    left: np.ndarray
    right: np.ndarray
    layers: tuple[tuple[int, int, int], ...]  # (start, stop, Omega)
    head: int                                 # rows with n <= M - q
    widest: int                               # rows in the largest layer


@lru_cache(maxsize=64)
def _power_plan(q: int, M: int) -> _PowerPlan:
    n = np.arange(M + 1, dtype=np.int64)
    spf = n.copy()  # smallest prime factor; n itself for primes (and 0, 1)
    for p in primes_up_to(math.isqrt(M)).tolist():
        view = spf[p * p:: p]
        view[view == n[p * p:: p]] = p
    cofactor = n // np.maximum(spf, 1)
    omega = np.zeros(M + 1, dtype=np.int64)
    while True:  # Omega(n) = Omega(n/spf(n)) + 1, one layer more per pass
        nxt = omega[cofactor] + 1
        nxt[:2] = 0
        if np.array_equal(nxt, omega):
            break
        omega = nxt
    keep = np.gcd(n, q) == 1
    keep[0] = False
    tail = n > M - q
    key = (tail * 64 + omega)[keep]  # (tail, Omega) in one sort key; Omega < 64
    order = np.argsort(key, kind="stable")
    cols = n[keep][order]
    key = key[order]
    row = np.zeros(M + 1, dtype=np.int64)
    row[cols] = np.arange(len(cols))
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    stops = np.append(starts[1:], len(cols))
    arrays = [cols, np.log(cols.astype(np.float64)), row[spf[cols]],
              row[cofactor[cols]]]
    for arr in arrays:
        arr.flags.writeable = False  # the cache hands the same plan to every call
    return _PowerPlan(*arrays,
                      tuple(zip(starts.tolist(), stops.tolist(),
                                (key[starts] % 64).tolist())),
                      int(np.count_nonzero(~tail[cols])),
                      int((stops - starts).max()))


def _fill_powers(plan: _PowerPlan, s: np.ndarray, out: np.ndarray,
                 buf: np.ndarray) -> None:
    """out[i, b] = plan.n[i] ** -s[b]: an exp at each prime, one complex
    multiply at every other n (buf: two scratch arrays for the factors)."""
    for start, stop, omega in plan.layers:
        if omega == 0:
            out[start:stop] = 1.0
        elif omega == 1:
            np.exp(np.multiply.outer(-plan.logn[start:stop], s), out=out[start:stop])
        else:
            # take into separate buffers: mode="raise", or an out= that
            # overlaps the source, would copy through a temporary
            a, b = buf[0, :stop - start], buf[1, :stop - start]
            np.take(out, plan.left[start:stop], axis=0, out=a, mode="clip")
            np.take(out, plan.right[start:stop], axis=0, out=b, mode="clip")
            np.multiply(a, b, out=out[start:stop])


def _dot(w: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """sum_m w[m] powers[m, :] by real einsums on the float view: no BLAS,
    so the sum does not depend on the thread count, and about twice as
    fast as a complex einsum."""
    flat = powers.view(np.float64)
    out = np.einsum("m,mb->b", w.real, flat).view(np.complex128)
    if w.imag.any():
        out = out + 1j * np.einsum("m,mb->b", w.imag, flat).view(np.complex128)
    return out


def _l_band(table: np.ndarray, s: np.ndarray, N: int) -> np.ndarray:
    """L(s, chi) for one |Im s| band (table: chi(n) for n mod q): the head
    sum_{n <= qN} chi(n) n^-s plus the module docstring's tail at the bases
    qN + a, with the Pochhammer products (s)_{2r-1} taken once per point."""
    q = len(table)
    plan = _power_plan(q, q * (N + 1))
    chi_n = table[plan.n % q]
    head_w = chi_n[:plan.head]
    base = plan.n[plan.head:] / q
    rows = [np.full(len(base), 0.5), base]
    rows += [c * base ** (1 - 2 * r) for r, c in enumerate(_B_OVER_FACT, 1)]
    tail_w = np.array(rows) * chi_n[plan.head:]
    r = np.arange(1, len(_B2K))[:, None]
    step = max(1, EM_BLOCK_TERMS // len(plan.n))
    out = np.empty(len(s), dtype=np.complex128)
    for i0 in range(0, len(s), step):
        sv = s[i0: i0 + step]
        powers = np.empty((len(plan.n), len(sv)), dtype=np.complex128)
        _fill_powers(plan, sv, powers,
                     np.empty((2, plan.widest, len(sv)), dtype=np.complex128))
        tail = np.einsum("km,mb->kb", tail_w, powers[plan.head:])
        factors = np.ones((len(_B2K), len(sv)), dtype=np.complex128)
        factors[1:] = (sv + (2 * r - 1)) * (sv + 2 * r)
        poch = np.cumprod(factors, axis=0) * sv
        out[i0: i0 + step] = (_dot(head_w, powers[:plan.head]) + tail[0]
                              + tail[1] / (sv - 1.0)
                              + np.einsum("rb,rb->b", poch, tail[2:]))
    return out


def l_values_array(chi: DirichletCharacter, s) -> np.ndarray:
    """L(s, chi) over an s array, by Euler-Maclaurin on the Dirichlet
    polynomial sum_{n <= qN} chi(n) n^-s (see the module docstring); for
    the character mod 1 this is zeta(s).  s = 1 raises ValueError for
    every chi."""
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    shape, s = s.shape, s.ravel()
    q = chi.q
    bands = _em_bands(s)
    top = max((N for _, N in bands), default=0)
    if q * (top + 1) > L_TERMS_CAP:
        raise CapacityError(
            f"L(s, chi) mod {q} at |Im s| = {np.abs(s.imag).max()} needs "
            f"q(N + 1) = {q * (top + 1)} terms, past the cap {L_TERMS_CAP}")
    table = char_values_table(chi)
    out = np.empty(s.shape, dtype=np.complex128)
    for idx, N in bands:
        out[idx] = _l_band(table, s[idx], N)
    return out.reshape(shape)


def hurwitz_zeta_array(s, alpha: float) -> np.ndarray:
    """zeta(s) = l_values_array of the character mod 1, for alpha = 1 only;
    any other alpha raises ValueError.  Kept only because the benchmark in
    perfbench/ times it by this name (tracing.TARGETS); no code in gzeros
    calls it, and it goes with cache.load_or_build_sieve (ROADMAP item 5)."""
    if alpha != 1:
        raise ValueError(f"alpha={alpha}: only zeta(s) = zeta(s, 1) is evaluated")
    return l_values_array(character_from_label("q=1;e="), s)


def _loggamma(z) -> np.ndarray:
    """log Gamma(z) over a complex array, on the branch analytic off z <= 0
    and real on z > 0, for Re z >= -1/2 away from the poles: points with
    |z| < 10 move to w = z + 10 by log Gamma(z) = log Gamma(z + 10) -
    sum_{k<10} log(z + k), then Stirling's series in 12 terms, whose
    first omitted term at |w| >= 9.5 is below 1e-21."""
    z = np.asarray(z, dtype=np.complex128)
    w = z.ravel().copy()
    small = np.nonzero(np.abs(w) < 10)[0]
    zs = w[small]
    w[small] = zs + 10
    inv = 1 / w
    inv2 = inv * inv
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):  # Horner in 1/w^2
        series = series * inv2 + c
    out = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + series * inv
    out[small] -= np.log(zs[:, None] + np.arange(10)).sum(axis=1)
    return out.reshape(z.shape)


def _log_gamma_factor(chi_star: DirichletCharacter, s) -> np.ndarray:
    """log G(s, chi) = ((s+kappa)/2) log(q/pi) + log Gamma((s+kappa)/2),
    the gamma factor of Lambda(s, chi) = G(s, chi) L(s, chi), over an s
    array (chi primitive)."""
    sk = (np.asarray(s, dtype=np.complex128) + chi_star.parity) / 2.0
    return sk * math.log(chi_star.q / math.pi) + _loggamma(sk)


# ---------------------------------------------------------------------------
# zero sets


@dataclass(frozen=True)
class ZeroEntry:
    beta: float
    gamma: float
    multiplicity: int = 1


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Zeros of L(s, chi) with |gamma| <= height, both signs explicit, as
    read-only arrays sorted by gamma."""

    char_label: str
    height: float
    beta: np.ndarray
    gamma: np.ndarray
    mult: np.ndarray
    certified: bool = False
    diagnostics: str = ""

    def __post_init__(self):
        order = np.argsort(self.gamma, kind="stable")
        for name, dtype in (("beta", float), ("gamma", float), ("mult", np.int64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != order.shape:
                raise ValueError("beta, gamma and mult must have one length")
            arr = arr[order]  # a copy: the caller's array stays apart
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def rho(self) -> np.ndarray:
        return self.beta + 1j * self.gamma

    @property
    def entries(self) -> list[ZeroEntry]:
        """One ZeroEntry per zero, in plain Python floats and ints.  Only
        perfbench/tracing.py reads it; code in gzeros reads the arrays."""
        return [ZeroEntry(*row) for row in zip(
            self.beta.tolist(), self.gamma.tolist(), self.mult.tolist())]

    def below(self, T: float) -> slice:
        """The index range of the zeros with |gamma| <= T."""
        if T > self.height + 1e-9:
            raise ValueError(
                f"requested height {T} exceeds available {self.height}"
            )
        return slice(int(np.searchsorted(self.gamma, -T, "left")),
                     int(np.searchsorted(self.gamma, T, "right")))

    def count(self, T: float | None = None) -> int:
        sel = slice(None) if T is None else self.below(T)
        return int(self.mult[sel].sum())


def mirror_zero_set(zs: ZeroSet, label: str) -> ZeroSet:
    """Zero set of the conjugate character: gamma -> -gamma."""
    return replace(zs, char_label=label, beta=zs.beta[::-1],
                   gamma=-zs.gamma[::-1], mult=zs.mult[::-1])


# ---------------------------------------------------------------------------
# the rotated line function


def z_line(chi_star: DirichletCharacter, t) -> np.ndarray:
    """Z_chi(t) = Re[e^{i theta} L(1/2+it, chi)] on the critical line (real
    array), theta = Im log G(1/2+it, chi) - arg(epsilon(chi))/2."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = 0.5 + 1j * t
    theta = (_log_gamma_factor(chi_star, s).imag
             - cmath.phase(root_number(chi_star)) / 2.0)
    return (np.exp(1j * theta) * l_values_array(chi_star, s)).real


# ---------------------------------------------------------------------------
# argument-principle count


def _phase_values(chi_star: DirichletCharacter, s: np.ndarray) -> np.ndarray:
    """arg of the completed function at points s: Im log G, continuous on
    Re s > 0, plus the principal arg of L (and of s(s-1)/2 for zeta)."""
    lv = l_values_array(chi_star, s)
    ph = _log_gamma_factor(chi_star, s).imag + np.angle(lv)
    if chi_star.q == 1:
        # xi path: multiply by s(s-1)/2 to absorb the two poles
        ph = ph + np.angle(s * (s - 1) / 2.0)
    return ph


def _wrap(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % (2 * math.pi) - math.pi


def _winding(chi_star: DirichletCharacter, T: float) -> float:
    """Phase change / pi along 1/2 - iT -> 3/2 - iT -> 3/2 + iT -> 1/2 + iT,
    the right half of [-1/2, 3/2] x [-T, T]: by the functional equation
    the left half adds the same change, so this is the winding number.
    The horizontal edges are walked; on Re s = 3/2, |arg L| <= log
    zeta(3/2) < pi and s(s-1)/2 avoids the negative reals, so the right
    edge's change is the difference of its end values, unwrapped."""
    total = 0.0
    ends = []
    for c0, c1 in ((complex(0.5, -T), complex(1.5, -T)),
                   (complex(1.5, T), complex(0.5, T))):
        pts = c0 + (c1 - c0) * np.linspace(0.0, 1.0, 9)
        ph = _phase_values(chi_star, pts)
        for depth in range(44):
            d = _wrap(np.diff(ph))
            bad = np.nonzero(np.abs(d) > 1.2)[0]
            if len(bad) == 0:
                break
            if np.min(np.abs(np.diff(pts)[bad])) < 1e-9:
                raise ContourError(
                    f"phase step will not settle near {pts[bad[0]]:.6g}: "
                    "contour too close to a zero"
                )
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            mph = _phase_values(chi_star, mids)
            pts = np.insert(pts, bad + 1, mids)
            ph = np.insert(ph, bad + 1, mph)
        else:
            raise ContourError("phase refinement did not converge")
        total += float(np.sum(_wrap(np.diff(ph))))
        ends += [ph[0], ph[-1]]  # bottom's first, last; top's first, last
    return (total + float(ends[2] - ends[1])) / math.pi


def zero_count_argument(chi: DirichletCharacter, T: float) -> int:
    """N(T, chi): zeros with |gamma| <= T, 0 < beta < 1, counted with
    multiplicity, via the winding of the completed function (_winding).

    Imprimitive characters count the zeros of the inducing primitive one
    (the Euler factors only vanish on Re s = 0 boundary lines, which are
    excluded from the non-trivial strip).  T must be finite and >= REFINE_TOL
    for every chi: below, the sides pass so near s = 1 that T_1/(s - 1) loses
    every digit (chi mod 11 at T = 1e-30), and T = 0 reads 0 off a segment."""
    check_height(T)
    chi_star = induce_primitive(chi)
    w = _winding(chi_star, T)
    n = round(w)
    if abs(w - n) > 0.05:
        raise ContourError(f"non-integer winding {w:.4f}")
    return int(n)


# ---------------------------------------------------------------------------
# zero finding


def _scan_and_bisect(
    chi_star: DirichletCharacter, lo: float, hi: float, step: float
) -> np.ndarray:
    """Ordinates of sign changes of Z in [lo, hi], refined until every
    bracket is narrower than REFINE_TOL.

    Refinement is Illinois regula falsi, vectorized across all brackets:
    the secant point of the bracket, with the function value kept at an
    end halved whenever that end survives two steps in a row.  A secant
    point outside [a, b] (or NaN) falls back to the midpoint, and every
    point is kept at least REFINE_TOL/4 inside the bracket: a secant point
    that rounds onto an end lands next to the root, and the next point
    closes the bracket.  A bracket that has not halved in three steps in a
    row takes the midpoint, so each bracket at least halves every four
    steps and the loop ends.  Each step keeps the sign change, so every
    returned bracket still holds one.
    """
    npts = int((hi - lo) / step) + 2
    grid = np.linspace(lo, hi, npts)
    zv = z_line(chi_star, grid)
    if np.any(zv == 0.0):
        grid = grid + step * 1e-3
        zv = z_line(chi_star, grid)
    idx = np.nonzero(np.sign(zv[:-1]) * np.sign(zv[1:]) < 0)[0]
    if len(idx) == 0:
        return np.zeros(0)
    a, b = grid[idx], grid[idx + 1]  # fancy indexing copies: grid stays intact
    fa, fb = zv[idx], zv[idx + 1]
    sa = np.sign(fa)
    kept = np.zeros(len(a), dtype=np.int8)  # end that survived: -1 a, +1 b
    stalls = np.zeros(len(a), dtype=np.int8)
    edge = REFINE_TOL / 4
    while True:
        live = np.nonzero(b - a >= REFINE_TOL)[0]
        if len(live) == 0:
            break
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        mid = 0.5 * (al + bl)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (al * fbl - bl * fal) / (fbl - fal)
        c = np.where((c >= al) & (c <= bl) & (stalls[live] < 3), c, mid)
        c = np.clip(c, al + edge, bl - edge)
        fc = z_line(chi_star, c)
        left = np.sign(fc) * sa[live] > 0  # the root lies in (c, b)
        a[live] = np.where(left, c, al)
        b[live] = np.where(left, bl, c)
        fa[live] = np.where(left, fc, np.where(kept[live] == -1, 0.5 * fal, fal))
        fb[live] = np.where(left, np.where(kept[live] == 1, 0.5 * fbl, fbl), fc)
        kept[live] = np.where(left, 1, -1)
        halved = b[live] - a[live] <= 0.5 * (bl - al)
        stalls[live] = np.where(halved, 0, stalls[live] + 1)
    return 0.5 * (a + b)


def find_zeros(chi: DirichletCharacter, T: float) -> ZeroSet:
    """All zeros of L(s, chi) with |gamma| <= T, located on the critical
    line and certified against the argument-principle count.

    The scan step is a tenth of the mean zero spacing at the top of the
    range, 2 pi / log(max(q* (T + margin) / 2 pi, e)) for conductor q*;
    a count mismatch rescans at a quarter of the step (up to three times).
    Counts that still disagree raise CertificationFailure.
    """
    if not math.isfinite(T):
        raise ValueError(f"find_zeros: T={T} must be finite")
    if chi.q > FIND_Q_CAP or T > FIND_T_CAP:
        raise CapacityError(
            f"find_zeros envelope is q <= {FIND_Q_CAP}, T <= {FIND_T_CAP}"
        )
    if T < 0.5:
        raise ValueError("T is below the first possible ordinate range")
    chi_star = induce_primitive(chi)
    self_dual = chi_star.order <= 2
    margin = 0.5

    log_density = math.log(max(chi_star.q * (T + margin) / (2 * math.pi), math.e))
    step = 2 * math.pi / log_density / 10
    for attempt in range(4):
        if self_dual:
            pos = _scan_and_bisect(chi_star, 0.0, T + margin, step)
            if len(pos) and pos[0] < 0.05:
                raise OffLineZeroError(
                    "sign change within 0.05 of the real axis: outside the "
                    "validated envelope"
                )
            ordinates = np.concatenate([-pos[::-1], pos])
        else:
            ordinates = _scan_and_bisect(chi_star, -T - margin, T + margin, step)

        # pick the counting height: away from every located ordinate
        t_count = T
        near = np.abs(np.abs(ordinates) - T)
        if len(near) and np.min(near) < 1e-4:
            above = np.abs(ordinates)[np.abs(ordinates) > T]
            ceiling = float(np.min(above)) if len(above) else T + margin
            t_count = min(T + 0.01, 0.5 * (T + ceiling))
        try:
            n_true = zero_count_argument(chi_star, t_count)
        except ContourError:
            t_count = T + 0.1 * margin * (attempt + 1)
            n_true = zero_count_argument(chi_star, t_count)
        n_found = int(np.sum(np.abs(ordinates) <= t_count))
        if n_found == n_true:
            inside = ordinates[np.abs(ordinates) <= T]
            return ZeroSet(chi.label, float(T), np.full(len(inside), 0.5),
                           inside, np.ones(len(inside), dtype=np.int64),
                           certified=True)
        logger.warning(
            "find_zeros %s: found %d vs argument count %d at step %.4g",
            chi.label, n_found, n_true, step,
        )
        step /= 4.0

    raise CertificationFailure(
        f"{chi.label}: sign-change count {n_found} != argument count "
        f"{n_true} at height {t_count}"
    )


# ---------------------------------------------------------------------------
# the zero-sum kernel


def zero_power_sum(zeros: ZeroSet, T: float, x: float, weight=None) -> complex:
    """sum_{|gamma| <= T} m x^rho weight(rho), counted with multiplicity.

    x^rho is evaluated as x^beta e^(i gamma log x) over the whole set at
    once; weight maps an array of rho to an array of factors (None means
    1).  The real and imaginary parts are summed with math.fsum, which
    rounds exactly, so the cancellation-heavy sums repeat bit for bit.
    x <= 0 has no zero contribution and gives 0.
    """
    sel = zeros.below(T)
    beta, gamma = zeros.beta[sel], zeros.gamma[sel]
    if not len(gamma) or x <= 0:
        return 0j
    terms = zeros.mult[sel] * x ** beta * np.exp(1j * gamma * math.log(x))
    if weight is not None:
        terms = terms * weight(beta + 1j * gamma)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


# ---------------------------------------------------------------------------
# zero file I/O

ZEROS_MAGIC = "# GZZEROS v1"


def export_zeros(zs: ZeroSet, path) -> None:
    """Line-oriented text format: magic, character, one zero per line
    ("<beta> <gamma> <multiplicity>", gamma ascending, both signs)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{ZEROS_MAGIC}\n")
        fh.write(f"# char {zs.char_label}\n")
        fh.write(f"# height {zs.height!r}\n")
        fh.write(f"# certified {int(zs.certified)}\n")
        # tolist gives plain floats: the repr of an np.float64 names its type
        for row in zip(zs.beta.tolist(), zs.gamma.tolist(), zs.mult.tolist()):
            fh.write("%r %r %d\n" % row)


def import_zeros(path, char_label: str) -> ZeroSet:
    """Read a zero file written in the export_zeros format.

    Every file must be well formed: finite fields, 0 < beta < 1,
    1 <= multiplicity < 2^53, gamma strictly ascending (a repeated gamma
    is a duplicate), no |gamma| above the "# height" line and a
    "# certified" flag of 0 or 1.  Each on-line entry must satisfy
    |L(1/2 + i gamma, chi)| < 1e-6.  A violation raises ValidationError
    with the offending line number.

    The file's "# certified 1" is kept only when the total multiplicity
    equals the argument-principle count N(height, chi*); a height that
    cannot be counted leaves the set uncertified.

    Entries with beta != 1/2 are accepted for hypothetical-scenario
    replay but force certified = False; they are not validated against
    the evaluator (there is nothing to check them against).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != ZEROS_MAGIC:
        raise ValidationError("missing GZZEROS v1 header", line_number=1)
    if len(lines) < 2 or not lines[1].startswith("# char "):
        raise ValidationError("missing character header", line_number=2)
    file_label = lines[1][len("# char "):].strip()
    if file_label != char_label:
        raise ValidationError(
            f"file is for {file_label!r}, requested {char_label!r}",
            line_number=2,
        )
    height = None
    height_line = None
    certified_flag = 0
    rows: list[tuple[int, float, float, int]] = []  # (line, beta, gamma, mult)
    prev_gamma = -math.inf
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("# height"):
                height, height_line = float(line.split()[-1]), ln
                if not (math.isfinite(height) and height >= 0):
                    raise ValueError(f"height {height} is not a finite T >= 0")
            elif line.startswith("# certified"):
                certified_flag = int(line.split()[-1])
                if certified_flag not in (0, 1):
                    raise ValueError(f"certified flag {certified_flag} is not 0 or 1")
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed zero line {line!r}")
            beta, gamma, mult = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(str(exc), line_number=ln) from exc
        if not math.isfinite(gamma):
            raise ValidationError(f"gamma={gamma} is not finite", line_number=ln)
        if not 0 < beta < 1:
            raise ValidationError(f"beta={beta} outside (0,1)", line_number=ln)
        if not 1 <= mult < 2 ** 53:  # exact in the float64 table below
            raise ValidationError(f"multiplicity {mult} outside [1, 2^53)",
                                  line_number=ln)
        if gamma == prev_gamma:
            raise ValidationError(f"duplicate gamma={gamma}", line_number=ln)
        if gamma < prev_gamma:
            raise ValidationError("gamma values not ascending", line_number=ln)
        prev_gamma = gamma
        rows.append((ln, beta, gamma, mult))

    line_no, beta, gamma, mult = np.array(rows, dtype=float).reshape(-1, 4).T
    top = float(np.abs(gamma).max()) if rows else 0.0
    if height is None:
        height = top
    elif top > height:
        raise ValidationError(
            f"max |gamma| = {top} lies above the height {height}",
            line_number=height_line,
        )
    chi = character_from_label(char_label)
    hypothetical = bool(np.any(beta != 0.5))
    certified = bool(certified_flag) and not hypothetical
    diagnostics = "hypothetical (off-line entries)" if hypothetical else ""
    on_line = np.nonzero(beta == 0.5)[0]
    if len(on_line):
        vals = np.abs(l_values_array(induce_primitive(chi),
                                     0.5 + 1j * gamma[on_line]))
        bad = np.nonzero(vals >= 1e-6)[0]
        if len(bad):
            i = int(on_line[bad[0]])
            raise ValidationError(
                f"|L(1/2 + {rows[i][2]}i)| = {vals[bad[0]]:.3g} >= 1e-6",
                line_number=int(line_no[i]),
            )
    if certified:
        total = int(mult.sum())
        try:
            n_true = zero_count_argument(chi, height)
        except (ContourError, CapacityError, ValueError) as exc:
            n_true = f"unavailable ({exc})"
        if total != n_true:
            certified = False
            diagnostics = (f"multiplicity total {total} != argument count "
                           f"{n_true} at height {height}")
    return ZeroSet(char_label, height, beta, gamma, mult, certified, diagnostics)
