"""Dirichlet L-functions in the critical strip and their zeros.

Evaluation backend: Euler-Maclaurin for the Hurwitz zeta with frozen
parameters, vectorized over s and banded by |Im s| so line scans stay
fast.  A band with top h uses N = max(20, ceil(h/2)) direct terms and 12
Bernoulli corrections; each correction is about (|s|/(2 pi N))^2 < 1/pi^2
times the one before, and against mpmath the relative error is below
5e-11 for |Im s| <= 5000 and -1/2 <= Re s <= 3/2 (Rubinstein,
Computational methods and experiments in analytic number theory, 2005).
The evaluator's domain is Re s >= -1/2, |Im s| <= IM_CAP = 1e4: past
Re s = 3/2 the corrections only shrink (singular._prime_zeta reads real s
up to about 50), while below -1/2 they grow with |s| and the result is
garbage, so hurwitz_zeta_array raises CapacityError there.
Then L(s, chi) = q^-s sum_a chi(a) zeta(s, a/q).

One gamma factor serves every use of the completed function
Lambda(s, chi) = G(s, chi) L(s, chi) for primitive chi:

    log G(s, chi) = ((s + kappa)/2) log(q/pi) + log Gamma((s + kappa)/2).

log Gamma is numpy code, _loggamma (the recurrence up to |z| >= 10, then
Stirling's series), which explicit.py's Gamma ratios use too.  L(1, chi)
needs no digamma: by Gauss's theorem psi(a/q) = -gamma_E - log 2q
- (pi/2) cot(pi a/q) + 2 sum_{0<n<q/2} cos(2 pi n a/q) log sin(pi n/q),
and the constants cancel against sum_a chi(a) = 0.

completed_lambda takes its exp, the argument-principle count its
imaginary part, and the zero scan its imaginary part on the critical line:

    Z_chi(t) = Re[ e^{i theta_chi(t)} L(1/2 + it, chi) ],
    theta_chi(t) = Im log G(1/2 + it, chi) - arg(epsilon(chi)) / 2,

which is real-analytic with the same zeros as L on the line (for every
primitive chi, not only real ones).  The scan step is a tenth of the
mean zero spacing 2 pi / log(q T / 2 pi) at the top of the range; sign
changes are refined by vectorized Illinois regula falsi to brackets
narrower than 2.5e-10.  Completeness is certified by comparing against
the argument-principle count N(T, chi) of zeros in the rectangle
[-1/2, 3/2] x [-T, T].  The count walks only the right half of its
boundary, 1/2 - iT -> 3/2 - iT -> 3/2 + iT -> 1/2 + iT, and N is that
phase change divided by pi: the functional equation
Lambda(1 - conj s, chi) = epsilon(chi) conj Lambda(s, chi) maps the right
half onto the left half traversed backwards, so the left half adds the
same phase change (for zeta, xi(1 - conj s) = conj xi(s)).  So the
count never evaluates on Re s = -1/2, where Euler-Maclaurin is least
accurate.  For the zeta path the s(s-1)/2 factor absorbs the poles, which is the pole
correction.  A count mismatch raises CertificationFailure: it means a
missed zero, a multiple zero, or an off-line zero.

A ZeroSet is a frozen table of read-only arrays beta, gamma and mult
sorted by gamma; only this module builds one, and other modules read
slices and masks.
Computed zeros store beta = 1/2 exactly; imported sets may carry other
beta values for hypothetical-scenario replay but are never certified.
Zero sets for a whole modulus come from cache.load_or_build_zero_sets,
which searches once per conjugate pair and mirrors the other set.

Every sum over zeros, sum_{|gamma| <= T} m x^rho weight(rho), goes
through the one kernel zero_power_sum (psi_explicit here, h_term and
landau_gonek in explicit.py).
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .characters import (
    DirichletCharacter,
    char_values_table,
    character_from_label,
    conjugate,
    induce_primitive,
    is_primitive,
    root_number,
)
from .errors import (
    CapacityError,
    CertificationFailure,
    ContourError,
    OffLineZeroError,
    ValidationError,
)
from .goldbach import twisted_entries
from .numtheory import SieveTable, floor_x

logger = logging.getLogger(__name__)

# Part of every zero-cache key: bump it whenever the evaluator or the finder
# changes, so that cached sets built by the old code are not reused.
EVALUATOR_VERSION = "3"
IM_CAP = 10 ** 4        # validated envelope for the Euler-Maclaurin backend
FIND_Q_CAP = 100
FIND_T_CAP = 1000
EM_BERNOULLI_TERMS = 12
REFINE_TOL = 2.5e-10    # width of a refined bracket around each ordinate

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
# Hurwitz zeta (Euler-Maclaurin, vectorized)


def _hurwitz_fixed(s: np.ndarray, alpha: float, N: int) -> np.ndarray:
    """E-M evaluation with a fixed truncation N (s: 1-D complex array)."""
    out = np.empty(s.shape, dtype=np.complex128)
    j = np.arange(N, dtype=np.float64) + alpha
    logj = np.log(j)
    Na = N + alpha
    logNa = math.log(Na)
    chunk = max(16, 4_000_000 // max(N, 1))
    for i0 in range(0, len(s), chunk):
        sv = s[i0: i0 + chunk]
        head = np.exp(-sv[:, None] * logj[None, :]).sum(axis=1)
        tailpow = np.exp(-sv * logNa)  # (N+alpha)^-s
        total = head + tailpow * (Na / (sv - 1.0) + 0.5)
        poch = sv.copy()               # (s)_1
        powfac = tailpow / Na          # (N+alpha)^{-s-1}
        for r in range(1, EM_BERNOULLI_TERMS + 1):
            total = total + _B_OVER_FACT[r - 1] * poch * powfac
            if r < EM_BERNOULLI_TERMS:
                poch = poch * (sv + (2 * r - 1)) * (sv + 2 * r)
                powfac = powfac / (Na * Na)
        out[i0: i0 + chunk] = total
    return out


def hurwitz_zeta_array(s, alpha: float) -> np.ndarray:
    """zeta(s, alpha) for a complex array s with Re s >= -1/2 and
    |Im s| <= IM_CAP, banded by |Im s|."""
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    if not 0 < alpha:
        raise ValueError("alpha must be positive")
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
    out = np.empty(s.shape, dtype=np.complex128)
    lo = 0.0
    hi = 10.0
    while True:
        mask = (t > lo) & (t <= hi) if lo else (t <= hi)
        if mask.any():
            N = max(20, int(math.ceil(hi / 2)))
            out[mask] = _hurwitz_fixed(s[mask], alpha, N)
        if hi >= tmax:
            break
        lo, hi = hi, hi * 1.5
    return out


def hurwitz_zeta(s: complex, alpha: float) -> complex:
    """zeta(s, alpha) for 0 < alpha <= 1 (validated: |Im s| <= 1e4)."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return complex(hurwitz_zeta_array(np.array([s]), alpha)[0])


def l_values_array(chi: DirichletCharacter, s) -> np.ndarray:
    """L(s, chi) = q^-s sum_a chi(a) zeta(s, a/q) over an s array.

    At s = 1 the Hurwitz poles cancel for non-principal chi, and
    L(1, chi) = -q^-1 sum_a chi(a) psi(a/q) by Gauss's digamma theorem.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.complex128))
    q = chi.q
    if q == 1:
        return hurwitz_zeta_array(s, 1.0)
    table = char_values_table(chi)
    at_pole = s == 1
    out = np.zeros(s.shape, dtype=np.complex128)
    if at_pole.any():
        if chi.is_principal:
            raise ValueError("pole of L(s, chi_0) at s = 1")
        a = np.arange(1, q)
        n = np.arange(1, (q + 1) // 2)
        cos_na = np.cos(2 * math.pi * (np.outer(a, n) % q) / q)
        psi = (-0.5 * math.pi / np.tan(math.pi * a / q)  # + gamma_E + log 2q
               + 2 * cos_na @ np.log(np.sin(math.pi * n / q)))
        out[at_pole] = -(table[1:] @ psi) / q
    rest = ~at_pole
    if rest.any():
        acc = np.zeros(int(rest.sum()), dtype=np.complex128)
        srest = s[rest]
        for a in range(1, q + 1):
            w = table[a % q]
            if w != 0:
                acc += w * hurwitz_zeta_array(srest, a / q)
        out[rest] = np.exp(-srest * math.log(q)) * acc
    return out


def l_value(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi); principal characters have the pole at s = 1."""
    if chi.is_principal and s == 1:
        raise ValueError("pole of L(s, chi_0) at s = 1")
    return complex(l_values_array(chi, np.array([s]))[0])


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


def completed_lambda(s: complex, chi: DirichletCharacter) -> complex:
    """Lambda(s, chi) = (q/pi)^((s+kappa)/2) Gamma((s+kappa)/2) L(s, chi),
    for primitive chi."""
    if not is_primitive(chi):
        raise ValueError("completed_lambda requires a primitive character")
    return complex(np.exp(_log_gamma_factor(chi, s))) * l_value(s, chi)


def functional_equation_residual(s: complex, chi: DirichletCharacter) -> float:
    """|Lambda(s,chi) - eps(chi) Lambda(1-s, conj chi)| / |Lambda(s,chi)|."""
    lhs = completed_lambda(s, chi)
    rhs = root_number(chi) * completed_lambda(1 - s, conjugate(chi))
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


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
    """arg of the completed function at points s (mod 2pi is fine: only
    wrapped differences are used)."""
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
    the left half adds the same change, so this is the winding number."""
    corners = [
        complex(0.5, -T),
        complex(1.5, -T),
        complex(1.5, T),
        complex(0.5, T),
    ]
    total = 0.0
    for c0, c1 in zip(corners, corners[1:]):
        length = abs(c1 - c0)
        npts = max(8, int(length / 0.25) + 1)
        pts = c0 + (c1 - c0) * np.linspace(0.0, 1.0, npts + 1)
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
    return total / math.pi


def zero_count_argument(chi: DirichletCharacter, T: float) -> int:
    """N(T, chi): zeros with |gamma| <= T, 0 < beta < 1, counted with
    multiplicity, via the winding of the completed function, read off the
    right half of the rectangle (the zeta path carries the pole
    correction through its s(s-1)/2 factor).

    Imprimitive characters count the zeros of the inducing primitive one
    (the Euler factors only vanish on Re s = 0 boundary lines, which are
    excluded from the non-trivial strip).
    """
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
# psi sums and the truncated explicit formula


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


def import_zeros(path, char_label: str, validate: bool = True) -> ZeroSet:
    """Read a zero file written in the export_zeros format.

    Every file must be well formed: finite fields, 0 < beta < 1,
    1 <= multiplicity < 2^53, gamma strictly ascending (a repeated gamma
    is a duplicate), no |gamma| above the "# height" line and a
    "# certified" flag of 0 or 1.  A violation raises ValidationError
    with the offending line number.

    validate=True also checks each on-line entry against the evaluator,
    |L(1/2 + i gamma, chi)| < 1e-6, and keeps the file's "# certified 1"
    only when the total multiplicity equals the argument-principle count
    N(height, chi*); a height that cannot be counted leaves the set
    uncertified.  validate=False trusts the flag (the cache reads only
    files it wrote and checksummed).

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
    if validate and len(on_line):
        vals = np.abs(l_values_array(induce_primitive(chi),
                                     0.5 + 1j * gamma[on_line]))
        bad = np.nonzero(vals >= 1e-6)[0]
        if len(bad):
            i = int(on_line[bad[0]])
            raise ValidationError(
                f"|L(1/2 + {rows[i][2]}i)| = {vals[bad[0]]:.3g} >= 1e-6",
                line_number=int(line_no[i]),
            )
    if validate and certified:
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


def check_conjugate_symmetry(zs: ZeroSet, zs_conj: ZeroSet, tol: float = 1e-7) -> bool:
    """The zeros of the two sets must pair under gamma <-> -gamma."""
    a, b = zs.gamma, -zs_conj.gamma[::-1]  # both ascending
    return len(a) == len(b) and bool(np.all(np.abs(a - b) <= tol))
