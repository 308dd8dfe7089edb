import cmath
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gzeros.cache import load_or_build_zero_sets
from gzeros.characters import (
    build_group, character_from_label, conjugate, induce_primitive,
)
from gzeros.errors import (CapacityError, CertificationFailure, GzError,
                           ValidationError)
from gzeros.lfunc import (
    ZeroSet,
    export_zeros,
    find_zeros,
    hurwitz_zeta,
    hurwitz_zeta_array,
    import_zeros,
    l_values_array,
    mirror_zero_set,
    zero_count_argument,
    zero_power_sum,
)
from gzeros.numtheory import build_sieve
from oracles import (
    char_value,
    check_conjugate_symmetry,
    completed_lambda,
    functional_equation_residual,
    psi_chi,
    psi_explicit,
)


@pytest.fixture(scope="module")
def zeta_char():
    return build_group(1)[0]


@pytest.fixture(scope="module")
def chi4():
    return [c for c in build_group(4) if not c.is_principal][0]


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(10 ** 5)


@pytest.fixture(scope="module")
def zeta_zeros(zeta_char):
    return find_zeros(zeta_char, 600)


# ---------------------------------------------------------------------------
# Hurwitz zeta

def test_hurwitz_zeta_basel():
    assert hurwitz_zeta(2, 1).real == pytest.approx(math.pi ** 2 / 6, rel=1e-13)


def test_hurwitz_zeta_direct_sum_oracle():
    # slow direct summation with integral tail, Re s > 1
    def direct(s, a, N=10 ** 6):
        n = np.arange(N, dtype=np.float64) + a
        return complex(np.sum(n ** -s) + (N + a) ** (1 - s) / (s - 1))

    for s, a in [(3.0, 1.0), (2.5 + 3j, 0.3), (4.0 + 10j, 0.77), (1.5, 0.5)]:
        mine = hurwitz_zeta(complex(s), a)
        ref = direct(complex(s), a)
        assert abs(mine - ref) / abs(ref) < 1e-9


def test_hurwitz_zeta_mpmath_strip():
    # independent high-precision library, inside the critical strip
    mp.mp.dps = 30
    for s, a in [(0.5 + 30j, 1.0), (0.25 + 7j, 0.4), (-0.5 + 120j, 1.0),
                 (0.75 + 500j, 0.9)]:
        mine = hurwitz_zeta_array(np.array([complex(s)]), a)[0]
        ref = complex(mp.zeta(mp.mpc(s), a))
        assert abs(mine - ref) / abs(ref) < 1e-11


@pytest.mark.parametrize("alpha", [1.0, 1 / 7, 0.9])
@pytest.mark.parametrize("t", [999.7, 2500.2, 5000.0])
@pytest.mark.parametrize("sigma", [-0.5, 0.5, 1.5])
def test_hurwitz_zeta_truncation_high_t(sigma, t, alpha):
    # pins the band truncation N = max(20, ceil(h/2)) where it is tightest:
    # high on the line and on both edges of the counting contour
    mp.mp.dps = 30
    s = complex(sigma, t)
    mine = hurwitz_zeta_array(np.array([s]), alpha)[0]
    ref = complex(mp.zeta(mp.mpc(s), alpha))
    assert abs(mine - ref) / abs(ref) < 5e-11


def test_hurwitz_zeta_shift_identity():
    # zeta(s, a) = zeta(s, a+1) + a^-s; checks the constant-term wiring
    for s in [0.0001 + 0j, 2.0 + 0j, 0.5 + 9j]:
        for a in [0.3, 0.9]:
            lhs = hurwitz_zeta(complex(s), a)
            rhs = hurwitz_zeta_array(np.array([complex(s)]), a + 1)[0] + a ** -s
            assert abs(lhs - rhs) < 1e-12 * max(1, abs(lhs))


def test_hurwitz_zeta_s0():
    # zeta(0, a) = 1/2 - a
    for a in [0.25, 0.5, 1.0]:
        val = hurwitz_zeta_array(np.array([0j]), a)[0]
        assert val.real == pytest.approx(0.5 - a, abs=1e-12)


def test_hurwitz_zeta_pole_and_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(CapacityError):
        hurwitz_zeta_array(np.array([0.5 + 2e4j]), 1.0)


def test_hurwitz_zeta_rejects_nan():
    # a NaN ordinate used to loop forever in the |Im s| band loop; the
    # alarm turns a regression into a failure instead of a hung suite
    import signal

    def hung(signum, frame):
        raise TimeoutError("hurwitz_zeta did not return on NaN input")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError):
            hurwitz_zeta(complex(0.5, math.nan), 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta_array(np.array([0.5 + 3j, complex(0.5, math.nan)]), 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@given(st.floats(-30, 30), st.floats(-1000, 1000), st.floats(0.05, 1))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_hurwitz_zeta_property_against_mpmath(sigma, t, alpha):
    # the evaluator's domain is Re s >= -1/2: there it agrees with mpmath,
    # below it raises instead of returning an Euler-Maclaurin blow-up
    import signal

    s = complex(sigma, t)
    assume(abs(s - 1) >= 1e-3)

    def hung(signum, frame):
        raise TimeoutError(f"hurwitz_zeta_array({s}, {alpha}) did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        if sigma < -0.5:
            with pytest.raises(ValueError, match="Re s"):
                hurwitz_zeta_array(s, alpha)
            return
        mine = complex(hurwitz_zeta_array(s, alpha)[0])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    mp.mp.dps = 30
    ref = complex(mp.zeta(mp.mpc(s), alpha))
    assert abs(mine - ref) <= 1e-10 * abs(ref)


def test_functional_equation_residual_refuses_re_s_past_the_envelope():
    # Lambda(1 - s) at s = 25 + i needs zeta(-24 - i, a): refused, where
    # the unchecked evaluator returned a residual of 5.4e12
    chi = character_from_label("q=5;e=1")
    with pytest.raises(CapacityError, match="Re s = -24"):
        functional_equation_residual(25 + 1j, chi)


# ---------------------------------------------------------------------------
# L-values

def test_l_value_zeta(zeta_char):
    assert l_values_array(zeta_char, 2)[0].real == pytest.approx(
        math.pi ** 2 / 6, rel=1e-13)
    with pytest.raises(ValueError):
        l_values_array(zeta_char, 1)


def test_l_value_chi4_leibniz(chi4):
    # alternating series oracle sum (-1)^k/(2k+1)
    k = np.arange(2 * 10 ** 6)
    leibniz = float(np.sum((-1.0) ** (k % 2) / (2 * k + 1)))
    val = l_values_array(chi4, 1)[0]
    assert val.imag == pytest.approx(0, abs=1e-14)
    assert val.real == pytest.approx(math.pi / 4, rel=1e-12)
    assert val.real == pytest.approx(leibniz, rel=1e-6)


def test_l_value_at_one_matches_mpmath():
    # L(1, chi) = -q^-1 sum_a chi(a) psi(a/q), with mpmath's digamma
    for q in range(2, 31):
        for chi in build_group(q):
            if chi.is_principal:
                continue
            ref = -mp.fsum(complex(char_value(chi, a)) * mp.digamma(mp.mpf(a) / q)
                           for a in range(1, q)) / q
            assert abs(l_values_array(chi, 1)[0] - complex(ref)) <= 1e-12, chi.label


def test_l_value_at_one_takes_memory_linear_in_q():
    # the cosine sum over a is one FFT of chi's table; a (q - 1) x (q - 1)/2
    # cosine matrix peaked at 30.7 MiB at this q
    import tracemalloc

    chi = character_from_label("q=2003;e=1")
    tracemalloc.start()
    try:
        l_values_array(chi, 1)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_PRIMITIVE = [chi for q in (1, 3, 4, 5, 7, 8, 12) for chi in build_group(q)
              if chi.conductor == q]


@given(st.sampled_from(_PRIMITIVE), st.floats(-0.5, 1.5), st.floats(-1000, 1000))
@settings(derandomize=True, max_examples=50, deadline=None)
def test_l_values_property_against_mpmath(chi, sigma, t):
    # the Dirichlet-polynomial evaluator against q^-s sum_a chi(a) zeta(s, a/q)
    import signal

    s = complex(sigma, t)
    assume(abs(s - 1) >= 1e-3)

    def hung(signum, frame):
        raise TimeoutError(f"l_values_array({chi.label}, {s}) did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        mine = complex(l_values_array(chi, s)[0])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # mpmath's zeta(s, a) at Re s < 0 reflects to zeta(1 - s, .), which
    # loses about -log10 |s| digits near s = 0: work with that many more
    digits = 20 + (max(0, math.ceil(-math.log10(abs(s)))) if s else 0)
    q, ms = chi.q, mp.mpc(s)
    with mp.workdps(digits):
        ref = complex(mp.power(q, -ms) * mp.fsum(
            complex(char_value(chi, a)) * mp.zeta(ms, Fraction(a, q))
            for a in range(1, q + 1) if math.gcd(a, q) == 1))
    assert abs(mine - ref) <= 5e-11 * max(1.0, abs(ref)), chi.label


def _mod_2pi_i(d):
    """|d| with Im d reduced into [-pi, pi): log-gamma branches agree mod 2 pi i."""
    return np.abs(d.real + 1j * ((d.imag + math.pi) % (2 * math.pi) - math.pi))


def test_loggamma_matches_scipy():
    from scipy.special import loggamma

    from gzeros.lfunc import _loggamma

    rng = np.random.default_rng(12)
    t = np.linspace(-1000, 1000, 4001)
    sigma, height = rng.uniform(-0.5, 1.5, 4000), rng.uniform(-1e4, 1e4, 4000)
    g1, g2 = rng.uniform(-1000, 1000, (2, 60))
    domains = {
        "z_line": np.concatenate([(0.5 + kappa + 1j * t) / 2 for kappa in (0, 1)]),
        "count contour": np.concatenate(
            [(sigma + kappa + 1j * height) / 2 for kappa in (0, 1)]),
        "small |z|": (rng.uniform(0.05, 10, 2000)
                      * np.exp(1j * rng.uniform(-1.5, 1.5, 2000))),
        "pair 1 + rho + rho'": 1 + (0.5 + 1j * g1)[:, None] + (0.5 + 1j * g2)[None, :],
    }
    for name, z in domains.items():
        assert np.max(_mod_2pi_i(_loggamma(z) - loggamma(z))) <= 1e-11, name


def test_loggamma_matches_mpmath_at_small_z():
    from gzeros.lfunc import _loggamma

    z = np.array([1e-3, 0.5, 1, 2, 0.1 + 0.1j, 0.25 + 1e-3j, 0.75 + 3j, 3.3 - 2j,
                  9.99 + 0.1j, 10.01 - 0.1j, -0.25 + 0.5j, 0.3 - 9j])
    ref = np.array([complex(mp.loggamma(complex(v))) for v in z])
    assert np.max(np.abs(_loggamma(z) - ref)) <= 1e-13
    assert _loggamma(0.5 + 0j).shape == ()


def test_l_value_euler_factor_consistency():
    s = 2 + 3j
    for chi in build_group(12):
        star = induce_primitive(chi)
        rhs = l_values_array(star, s)[0]
        for p in (2, 3):
            rhs *= 1 - complex(char_value(star, p)) * p ** -s
        assert l_values_array(chi, s)[0] == pytest.approx(rhs, rel=1e-12)


def test_completed_lambda_functional_equation(chi4, zeta_char):
    assert functional_equation_residual(0.3 + 5j, chi4) < 1e-9
    chi5 = character_from_label("q=5;e=1")
    assert functional_equation_residual(0.3 + 5j, chi5) < 1e-9
    assert functional_equation_residual(0.4 + 2j, zeta_char) < 1e-9
    impr = [c for c in build_group(12) if c.conductor < 12][0]
    with pytest.raises(ValueError):
        completed_lambda(0.5, impr)


# ---------------------------------------------------------------------------
# zero counts

def test_zero_count_zeta(zeta_char):
    assert zero_count_argument(zeta_char, 10) == 0
    assert zero_count_argument(zeta_char, 15) == 2  # +-14.13
    assert zero_count_argument(zeta_char, 100) == 58  # 29 pairs


def _winding_full_rectangle(chi_star, T):
    """Reference count: phase change / 2pi around all four sides of
    [-1/2, 3/2] x [-T, T]."""
    from gzeros.errors import ContourError
    from gzeros.lfunc import _phase_values, _wrap

    corners = [complex(-0.5, -T), complex(1.5, -T), complex(1.5, T),
               complex(-0.5, T), complex(-0.5, -T)]
    total = 0.0
    for c0, c1 in zip(corners, corners[1:]):
        npts = max(8, int(abs(c1 - c0) / 0.25) + 1)
        pts = c0 + (c1 - c0) * np.linspace(0.0, 1.0, npts + 1)
        ph = _phase_values(chi_star, pts)
        for _ in range(44):
            d = _wrap(np.diff(ph))
            bad = np.nonzero(np.abs(d) > 1.2)[0]
            if len(bad) == 0:
                break
            if np.min(np.abs(np.diff(pts)[bad])) < 1e-9:
                raise ContourError("contour too close to a zero")
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            pts = np.insert(pts, bad + 1, mids)
            ph = np.insert(ph, bad + 1, _phase_values(chi_star, mids))
        else:
            raise ContourError("phase refinement did not converge")
        total += float(np.sum(_wrap(np.diff(ph))))
    return total / (2 * math.pi)


def test_zero_count_matches_full_rectangle(zeta_char):
    # the half-rectangle count against the four-side reference
    cases = [(zeta_char, T) for T in (15, 100, 200)]
    cases += [(chi, 40) for q in range(3, 14) for chi in build_group(q)
              if chi.conductor == q and not chi.is_principal]
    for chi, T in cases:
        w = _winding_full_rectangle(chi, T)
        assert abs(w - round(w)) < 0.05
        assert zero_count_argument(chi, T) == round(w), chi.label


def test_zero_count_point_budget(zeta_char, monkeypatch):
    # one long side of 8,002 points plus two short ones of 9; all four
    # sides would take 16,024.  Every L value passes through the per-band
    # kernel, so the counter there sees each point once.
    from gzeros import lfunc

    points = []
    real = lfunc._l_band

    def counting(table, s, N):
        values = real(table, s, N)
        points.append(values.size)
        return values

    monkeypatch.setattr(lfunc, "_l_band", counting)
    assert zero_count_argument(zeta_char, 1000) == 1298
    assert 8_002 <= sum(points) <= 8_500


def test_zero_count_shape(zeta_char):
    # growth consistent with the T log T shape of the counting lemma
    for T in [50, 100, 200]:
        n = zero_count_argument(zeta_char, T)
        main = T / math.pi * (math.log(T / (2 * math.pi)) - 1)
        assert abs(n - main) < 10 + 0.1 * main


# ---------------------------------------------------------------------------
# zero finding

def test_find_zeros_zeta_first(zeta_char):
    zs = find_zeros(zeta_char, 15)
    pos = zs.gamma[zs.gamma > 0]
    assert len(pos) == 1
    assert pos[0] == pytest.approx(14.134725141734693, abs=1e-8)
    assert zs.certified
    assert zs.count() == 2  # both signs listed


def test_first_zero_against_mpmath_bisection_oracle(zeta_char):
    # independent oracle: bisection on the mpmath Hardy Z function
    mp.mp.dps = 20
    lo, hi = mp.mpf(14), mp.mpf(14.5)
    flo = mp.siegelz(lo)
    for _ in range(60):
        mid = (lo + hi) / 2
        fm = mp.siegelz(mid)
        if mp.sign(fm) == mp.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    oracle = float((lo + hi) / 2)
    zs = find_zeros(zeta_char, 15)
    gamma1 = float(zs.gamma.max())
    assert abs(gamma1 - oracle) < 1e-6


@pytest.fixture(scope="module")
def zeta1000(zeta_char):
    """find_zeros(zeta, 1000), the number of points z_line evaluated and
    the search's tracemalloc peak in bytes."""
    import tracemalloc

    from gzeros import lfunc

    points = []
    real = lfunc.z_line

    def counting(chi_star, t):
        values = real(chi_star, t)
        points.append(values.size)
        return values

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(lfunc, "z_line", counting)
        tracemalloc.start()
        try:
            zs = find_zeros(zeta_char, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return zs, sum(points), peak


def test_find_zeros_zeta_1000_against_mpmath(zeta1000):
    zs, _, _ = zeta1000
    assert zs.certified and zs.count() == 1298
    pos = zs.gamma[zs.gamma > 0]
    for n in [1, 2, 3, 100, 649]:
        assert abs(pos[n - 1] - float(mp.zetazero(n).imag)) < 1e-9


def test_find_zeros_zeta_1000_point_budget(zeta1000):
    # a scan at a tenth of the mean spacing (about 8,100 points) plus a
    # few Illinois steps for each of the 649 brackets
    _, points, _ = zeta1000
    assert points <= 15_000


def test_find_zeros_zeta_1000_memory(zeta1000):
    # the power table is filled a block of EM_BLOCK_TERMS entries at a
    # time; an evaluator with 4M-term chunks peaked at 31 MiB here
    _, _, peak = zeta1000
    assert peak < 8 << 20


def test_l_values_past_the_term_cap_refuse_before_allocating():
    # q(N + 1) = 211 * 7391 terms at |Im s| = 9999: refused by name, with
    # nothing of that size built first
    import tracemalloc

    chi = character_from_label("q=211;e=1")
    s = np.array([0.5 + 9999j])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="past the cap"):
            l_values_array(chi, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_l_values_at_the_envelope_corner_match_the_hurwitz_sum():
    # q = FIND_Q_CAP at |Im s| near IM_CAP fits under the term cap; the
    # table path agrees with q^-s sum_a chi(a) zeta(s, a/q), one exp per term
    from gzeros.characters import char_values_table

    chi = character_from_label("q=100;e=1,1")
    s = np.array([0.5 + 9999.5j, 1.5 - 9000j])
    mine = l_values_array(chi, s)
    table = char_values_table(chi)
    ref = sum(table[a] * hurwitz_zeta_array(s, a / 100) for a in range(1, 100)
              if table[a] != 0) * np.exp(-s * math.log(100))
    assert np.all(np.abs(mine - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_find_zeros_chi4(chi4):
    zs = find_zeros(chi4, 7)
    assert zs.certified
    gammas = [round(g, 4) for g in zs.gamma.tolist()]
    assert gammas == [-6.0209, 6.0209]


def test_find_zeros_symmetry_and_lambda_smallness():
    for q in [3, 4, 5]:
        sets = load_or_build_zero_sets(q, 60)
        for chi in build_group(q):
            zs = sets[chi.label]
            assert zs.certified
            star = induce_primitive(chi)
            conj_set = sets[conjugate(chi).label]
            assert check_conjugate_symmetry(zs, conj_set)
            assert np.all(zs.beta == 0.5)
            for g in zs.gamma.tolist():
                assert abs(completed_lambda(0.5 + 1j * g, star)) < 1e-9


def test_find_zeros_count_mismatch_raises(zeta_char, monkeypatch):
    from gzeros import lfunc

    real = lfunc.zero_count_argument
    monkeypatch.setattr(lfunc, "zero_count_argument",
                        lambda chi, T: real(chi, T) + 2)
    with pytest.raises(CertificationFailure) as info:
        find_zeros(zeta_char, 30)
    # 3 ordinates below 30, both signs: 6 found against a count of 8
    assert "sign-change count 6 != argument count 8" in str(info.value)


def test_find_zeros_envelope():
    with pytest.raises(CapacityError):
        find_zeros(build_group(1)[0], 2000)


def test_z_line_is_real():
    # the rotated function must be purely real up to rounding; probed
    # through the imaginary part of the unrotated product
    chi5 = character_from_label("q=5;e=1")
    t = np.linspace(1, 40, 200)
    from gzeros.lfunc import _log_gamma_factor, l_values_array as lva
    from gzeros.characters import root_number

    s = 0.5 + 1j * t
    theta = _log_gamma_factor(chi5, s).imag - cmath.phase(root_number(chi5)) / 2
    z = np.exp(1j * theta) * lva(chi5, s)
    assert np.max(np.abs(z.imag)) < 1e-8 * max(1.0, np.max(np.abs(z.real)))


# ---------------------------------------------------------------------------
# zero sums (measured lemma shapes)

def test_zero_sum_bounds_measured(zeta_zeros):
    q = 1
    T = 500
    inside = np.abs(zeta_zeros.gamma) <= T
    s1 = np.sum(1 / np.abs(zeta_zeros.rho[inside]))
    assert s1 <= 3 * math.log(2 * q * T) ** 2
    s2 = np.sum(1 / np.abs(zeta_zeros.rho[~inside]) ** 2)
    assert s2 <= 3 * math.log(2 * q * T) / T


@pytest.mark.parametrize("weight", [None, lambda r: 1 / r,
                                    lambda r: 1 / (r * (r + 1))],
                         ids=["one", "inv_rho", "h_term"])
def test_zero_power_sum_matches_scalar_loop(zeta_zeros, weight):
    # reference: the per-zero cmath loop the kernel replaced; the array
    # path may round each term differently, so the tolerance is a few ulps
    # of the summed term sizes
    scalar = weight or (lambda r: 1)
    for x, T in [(2.0, 600.0), (1e4, 200.0), (7.5e6, 100.0)]:
        sel = zeta_zeros.below(T)
        rows = zip(zeta_zeros.beta[sel].tolist(), zeta_zeros.gamma[sel].tolist(),
                   zeta_zeros.mult[sel].tolist())
        terms = [m * x ** b * cmath.exp(1j * g * math.log(x)) * scalar(complex(b, g))
                 for b, g, m in rows]
        ref = complex(math.fsum(t.real for t in terms),
                      math.fsum(t.imag for t in terms))
        scale = sum(abs(t) for t in terms)
        assert abs(zero_power_sum(zeta_zeros, T, x, weight) - ref) <= 1e-14 * scale
    assert zero_power_sum(zeta_zeros, 10.0, 5.0, weight) == 0
    with pytest.raises(ValueError):
        zero_power_sum(zeta_zeros, 700.0, 5.0, weight)


def test_observed_B(zeta_zeros):
    assert zeta_zeros.beta.max() == 0.5
    assert np.all(zeta_zeros.beta == 0.5)


# ---------------------------------------------------------------------------
# psi and the explicit formula

def test_psi_chi_values(zeta_char, sieve):
    val = psi_chi(10, zeta_char, sieve)
    expect = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert val.real == pytest.approx(expect, rel=1e-12)
    assert psi_chi(1.5, zeta_char, sieve) == 0


def test_psi_chi_ends_at_floor_x(zeta_char, sieve):
    # exp(log 1849) rounds just below 1849 = 43^2; the sum keeps n = 1849
    u = math.exp(math.log(1849))
    assert psi_chi(u, zeta_char, sieve) == psi_chi(1849, zeta_char, sieve)
    assert psi_chi(u, zeta_char, sieve).real == pytest.approx(sieve.psi(1849),
                                                              rel=1e-12)


def test_psi_explicit_zeta(zeta_char, sieve, zeta_zeros):
    u, T = 10 ** 4, 500
    exact = psi_chi(u, zeta_char, sieve)
    err = abs(exact - psi_explicit(u, zeta_char, zeta_zeros, T))
    assert exact.real == pytest.approx(sieve.psi(u), rel=1e-12)
    # measured against the error shape of the truncated formula
    assert err <= 5 * (u / T) * math.log(u) ** 2


def test_psi_explicit_improves_with_height(zeta_char, sieve, zeta_zeros):
    u = 10 ** 4
    errs = []
    for T in [50, 200, 500]:
        errs.append(abs(psi_chi(u, zeta_char, sieve)
                        - psi_explicit(u, zeta_char, zeta_zeros, T)))
    assert errs[-1] < errs[0]


def test_psi_explicit_requires_height(zeta_char, zeta_zeros):
    with pytest.raises(ValueError):
        psi_explicit(100, zeta_char, zeta_zeros, 10 ** 4)


def test_psi_chi_nonprincipal_is_bounded(chi4, sieve):
    # psi(u, chi) for nonprincipal chi stays o(u): generous desk band
    for u in [10 ** 3, 10 ** 4, 10 ** 5]:
        val = abs(psi_chi(u, chi4, sieve))
        assert val <= 3 * math.sqrt(u) * math.log(u) ** 2


# ---------------------------------------------------------------------------
# import / export

def test_zero_file_roundtrip(tmp_path, zeta_char):
    zs = find_zeros(zeta_char, 50)
    path = tmp_path / "zeros.txt"
    export_zeros(zs, path)
    back = import_zeros(path, zs.char_label)
    assert back.char_label == zs.char_label
    assert back.height == zs.height
    assert back.certified
    assert back.gamma.tolist() == zs.gamma.tolist()


def test_zero_file_corrupted_gamma(tmp_path, zeta_char):
    zs = find_zeros(zeta_char, 30)
    path = tmp_path / "zeros.txt"
    export_zeros(zs, path)
    lines = path.read_text().splitlines()
    # shift one ordinate by 0.1: the evaluator must reject it
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            beta, gamma, mult = line.split()
            lines[i] = f"{beta} {float(gamma) + 0.1!r} {mult}"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as info:
        import_zeros(path, zs.char_label)
    assert info.value.line_number is not None


def test_zero_file_wrong_label(tmp_path, zeta_char):
    zs = find_zeros(zeta_char, 30)
    path = tmp_path / "zeros.txt"
    export_zeros(zs, path)
    with pytest.raises(ValidationError):
        import_zeros(path, "q=3;e=1")


def test_zero_file_hypothetical_not_certified(tmp_path):
    path = tmp_path / "hypo.txt"
    path.write_text(
        "# GZZEROS v1\n# char q=1;e=\n# height 50.0\n# certified 1\n"
        "0.75 -20.0 1\n0.5 14.134725141734693 1\n0.75 20.0 1\n"
    )
    zs = import_zeros(path, "q=1;e=")
    assert not zs.certified
    assert zs.beta.max() == 0.75
    assert "hypothetical" in zs.diagnostics


def test_recertify_imported_count(tmp_path, zeta_char):
    zs = find_zeros(zeta_char, 50)
    path = tmp_path / "zeros.txt"
    export_zeros(zs, path)
    back = import_zeros(path, zs.char_label)
    assert back.count(50) == zero_count_argument(zeta_char, 50)


def test_mirror_zero_set():
    zs = ZeroSet("q=5;e=1", 10.0, [0.5, 0.5], [3.0, -7.0], [1, 1], True)
    m = mirror_zero_set(zs, "q=5;e=3")
    assert m.gamma.tolist() == [-3.0, 7.0]
    assert m.certified


# ---------------------------------------------------------------------------
# the zero table: read-only arrays sorted by gamma


def test_zero_table_is_read_only_and_sorted(zeta_zeros):
    zs = ZeroSet("q=5;e=1", 10.0, [0.5, 0.25, 0.5], [3.0, -7.0, 1.0], [1, 2, 1])
    assert zs.gamma.tolist() == [-7.0, 1.0, 3.0]
    assert zs.beta.tolist() == [0.25, 0.5, 0.5]
    assert zs.mult.tolist() == [2, 1, 1]
    for table in (zs, zeta_zeros):
        assert np.all(np.diff(table.gamma) > 0)
        for arr in (table.beta, table.gamma, table.mult):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    with pytest.raises(AttributeError):
        zs.gamma = np.zeros(3)
    with pytest.raises(ValueError):
        ZeroSet("q=5;e=1", 10.0, [0.5], [3.0, 4.0], [1, 1])


def test_below_is_the_abs_gamma_mask(zeta_zeros):
    gamma = zeta_zeros.gamma
    on_ordinate = float(gamma[gamma > 0][10])
    between = 0.5 * (on_ordinate + float(gamma[gamma > 0][11]))
    for T in (on_ordinate, between, 0.0, 600.0):
        mask = np.abs(gamma) <= T
        sel = zeta_zeros.below(T)
        assert np.array_equal(gamma[sel], gamma[mask])
        assert np.array_equal(zeta_zeros.mult[sel], zeta_zeros.mult[mask])
    assert zeta_zeros.count(on_ordinate) == 22


def test_mirroring_twice_gives_back_the_arrays(chi4):
    zs = find_zeros(chi4, 30)
    back = mirror_zero_set(mirror_zero_set(zs, "q=4;e=1"), zs.char_label)
    for name in ("beta", "gamma", "mult"):
        assert np.array_equal(getattr(back, name), getattr(zs, name))
    assert (back.char_label, back.height, back.certified, back.diagnostics) == \
        (zs.char_label, zs.height, zs.certified, zs.diagnostics)


def test_entries_are_plain_python_scalars(zeta_zeros):
    entries = zeta_zeros.entries
    assert len(entries) == len(zeta_zeros.gamma)
    for e, b, g, m in zip(entries, zeta_zeros.beta, zeta_zeros.gamma,
                          zeta_zeros.mult):
        assert type(e.beta) is float and type(e.gamma) is float
        assert type(e.multiplicity) is int
        assert (e.beta, e.gamma, e.multiplicity) == (b, g, m)


def test_exported_zero_lines_are_plain_reprs(tmp_path, zeta_char):
    zs = find_zeros(zeta_char, 50)
    path = tmp_path / "zeros.txt"
    export_zeros(zs, path)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == len(zs.gamma)
    number = r"-?\d+(\.\d+)?(e[-+]\d+)?"
    for row, g in zip(rows, zs.gamma.tolist()):
        assert re.fullmatch(f"{number} {number} \\d+", row), row
        assert row == f"0.5 {g!r} 1"


# ---------------------------------------------------------------------------
# import does not trust the header: a zeta file at T = 40 (12 zeros)


@pytest.fixture(scope="module")
def zeta40_lines(zeta_char, tmp_path_factory):
    path = tmp_path_factory.mktemp("zeta40") / "zeros.txt"
    export_zeros(find_zeros(zeta_char, 40), path)
    lines = path.read_text().splitlines()
    assert lines[2] == "# height 40.0" and lines[3] == "# certified 1"
    assert len(lines) == 4 + 12
    return lines


def _import_lines(tmp_path, lines):
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    return import_zeros(path, "q=1;e=")


def test_import_recounts_a_dropped_zero(tmp_path, zeta40_lines):
    zs = _import_lines(tmp_path, zeta40_lines[:5] + zeta40_lines[6:])
    assert zs.count() == 11
    assert not zs.certified
    assert "argument count 12" in zs.diagnostics


def test_import_rejects_a_duplicate_gamma(tmp_path, zeta40_lines):
    lines = zeta40_lines[:6] + zeta40_lines[5:]
    with pytest.raises(ValidationError, match="duplicate") as info:
        _import_lines(tmp_path, lines)
    assert info.value.line_number == 7


@pytest.mark.parametrize("mult", ["-5", "0"])
def test_import_rejects_multiplicity_below_one(tmp_path, zeta40_lines, mult):
    lines = list(zeta40_lines)
    beta, gamma, _ = lines[5].split()
    lines[5] = f"{beta} {gamma} {mult}"
    with pytest.raises(ValidationError, match="multiplicity") as info:
        _import_lines(tmp_path, lines)
    assert info.value.line_number == 6


def test_import_rejects_height_below_gammas(tmp_path, zeta40_lines):
    lines = list(zeta40_lines)
    lines[2] = "# height 10.0"
    with pytest.raises(ValidationError, match="height") as info:
        _import_lines(tmp_path, lines)
    assert info.value.line_number == 3


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_import_rejects_non_finite_gamma(tmp_path, zeta40_lines, value):
    lines = list(zeta40_lines)
    beta, _, mult = lines[5].split()
    lines[5] = f"{beta} {value} {mult}"
    with pytest.raises(ValidationError) as info:
        _import_lines(tmp_path, lines)
    assert info.value.line_number == 6


def test_import_uncountable_height_stays_uncertified(tmp_path, zeta40_lines,
                                                     monkeypatch):
    import gzeros.lfunc
    from gzeros.errors import ContourError

    def no_count(chi, T):
        raise ContourError("contour too close to a zero")

    monkeypatch.setattr(gzeros.lfunc, "zero_count_argument", no_count)
    zs = _import_lines(tmp_path, zeta40_lines)
    assert zs.count() == 12
    assert not zs.certified


# a drawn token for one field: non-finite, out of range, empty, or a
# 5,000-digit integer (past int()'s default digit limit)
_BAD_TOKENS = ["nan", "inf", "-1", "0", "1e400", "", "9" * 5000]


# (operation, line, second line, field, token); the four header lines are
# drawn as often as the twelve zero lines, and indices wrap
_MUTATION = st.tuples(
    st.sampled_from(["drop", "repeat", "swap", "field"]),
    st.one_of(st.integers(0, 3), st.integers(0, 15)),
    st.integers(0, 15), st.integers(0, 2), st.sampled_from(_BAD_TOKENS))


def _mutate(lines, mutations):
    """Drop, repeat or swap lines, or replace one field of a line."""
    lines = list(lines)
    for op, i, j, k, token in mutations:
        i, j = i % len(lines), j % len(lines)
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "field":
            fields = lines[i].split() or [""]
            fields[k % len(fields)] = token
            lines[i] = " ".join(fields)
    return lines


@given(st.lists(_MUTATION, min_size=1, max_size=3))
@example([("field", 3, 0, 2, "-1")])  # "# certified -1"
@settings(derandomize=True, max_examples=150, deadline=None)
def test_import_property_on_malformed_files(zeta40_lines, tmp_path_factory,
                                            mutations):
    # every import of a mangled file raises a typed error or returns finite
    # arrays, and a set comes back certified only from an on-line file
    # whose flag reads 1
    import signal

    lines = _mutate(zeta40_lines, mutations)
    path = tmp_path_factory.getbasetemp() / "mutated-zeros.txt"
    path.write_text("\n".join(lines) + "\n")

    def hung(signum, frame):
        raise TimeoutError(f"import_zeros did not return on {lines!r}")

    for validate in (True, False):
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            zs = import_zeros(path, "q=1;e=", validate=validate)
        except (GzError, ValueError):
            continue
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert math.isfinite(zs.height)
        for arr in (zs.beta, zs.gamma, zs.mult):
            assert np.all(np.isfinite(arr))
        if zs.certified:
            assert np.all(zs.beta == 0.5)
            assert "# certified 1" in lines


_LABELS_TO_12 = [chi.label for q in range(1, 13) for chi in build_group(q)]
_HEIGHTS = st.one_of(
    st.floats(0.5, 60),
    st.sampled_from([-3.0, -math.inf, 0.0, 1e-300, 0.49, 1000.5, 1e5,
                     math.inf, math.nan]),
)


@given(st.sampled_from(_LABELS_TO_12), _HEIGHTS)
@example("q=11;e=3", -3.0)  # a negative T counted -1 zeros
@settings(derandomize=True, max_examples=40, deadline=None)
def test_zero_search_property(label, T):
    # at any T, find_zeros returns a certified set of finite ordinates as
    # large as the argument count, and zero_count_argument a count >= 0;
    # otherwise each raises a typed error or a ValueError, and neither hangs
    import signal

    chi = character_from_label(label)

    def hung(signum, frame):
        raise TimeoutError(f"zero search for {label} at T={T} did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        try:
            count = zero_count_argument(chi, T)
        except (GzError, ValueError):
            count = None
        try:
            zs = find_zeros(chi, T)
        except (GzError, ValueError):
            zs = None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if count is not None:
        assert isinstance(count, int) and count >= 0
    if zs is not None:
        assert zs.certified and np.all(np.isfinite(zs.gamma))
        assert np.all(np.abs(zs.gamma) <= T)
        assert int(zs.mult.sum()) == count


@pytest.mark.parametrize("label", ["q=1;e=", "q=11;e=3"])
def test_zero_count_refuses_heights_below_refine_tol(label):
    # one rule for every chi: at T = 1e-300 the contour passed within
    # rounding of s = 1 (ContourError for chi mod 11, 0 for zeta), and at
    # T = 0 zeta hit its pole while chi mod 11 read 0 off a segment
    from gzeros.lfunc import REFINE_TOL

    chi = character_from_label(label)
    for T in (0.0, 1e-300, 1e-12):
        with pytest.raises(ValueError, match=f"T={T} must be finite and >= REFINE_TOL"):
            zero_count_argument(chi, T)
    assert zero_count_argument(chi, REFINE_TOL) == 0
