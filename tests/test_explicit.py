import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gzeros.cache import load_or_build_zero_sets
from gzeros.characters import build_group
from gzeros.explicit import (
    ExplicitRow,
    MissingZeroSetError,
    _nearest_pp_gap_search,
    h_term,
    landau_gonek,
    residue_r,
    residue_r1,
    thm12_rhs,
    thm14_rhs,
    truncation_bound,
    z_gamma_ratio_matrix,
)
from gzeros.errors import GzError
from gzeros.goldbach import restricted_sum, s_grid
from gzeros.lfunc import find_zeros
from gzeros.numtheory import build_sieve, euler_phi
from oracles import RootOfUnity, char_value, closed_form_reference


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(10 ** 5)


@pytest.fixture(scope="module")
def zeta_zeros():
    return find_zeros(build_group(1)[0], 200)


@pytest.fixture(scope="module")
def zsets1(zeta_zeros):
    return {"q=1;e=": zeta_zeros}


@pytest.fixture(scope="module")
def zsets3():
    return load_or_build_zero_sets(3, 200)


@pytest.fixture(scope="module")
def zsets4():
    return load_or_build_zero_sets(4, 200)


def test_h_term_empty_below_first_zero(zeta_zeros):
    zc = build_group(1)[0]
    assert h_term(100.0, zc, zeta_zeros, 10.0) == 0


def test_h_term_x1_bounded(zeta_zeros):
    zc = build_group(1)[0]
    val = h_term(1.0, zc, zeta_zeros, 200.0)
    # |sum 1/(rho(rho+1))| <= sum 1/|rho|^2: a small absolute constant
    bound = float(np.sum(1 / np.abs(zeta_zeros.rho) ** 2))
    assert abs(val) <= bound


def test_h_term_first_zero_scale(zeta_zeros):
    # dominated by the first zeros; the sum oscillates, so the band
    # (0.01, 0.3) x^1.5 holds for the peak over a grid, not pointwise
    # (at x = 1e4 the measured value is 2.6e-4 x^1.5: deep cancellation)
    zc = build_group(1)[0]
    ratios = []
    for x in [1e3, 3e3, 1e4, 2e4, 5e4, 1e5]:
        val = abs(h_term(x, zc, zeta_zeros, 100.0))
        assert val < 0.3 * x ** 1.5
        ratios.append(val / x ** 1.5)
    assert max(ratios) > 0.01


def test_thm12_q1_reduces_to_plain_display(zsets1, zeta_zeros):
    # x^2/2 - 2 sum x^(rho+1)/(rho(rho+1))
    zc = build_group(1)[0]
    x, T = 5000.0, 200.0
    row = thm12_rhs(x, 1, 1, 1, zsets1, T)
    indep = x * x / 2 - 2 * h_term(x, zc, zeta_zeros, T).real
    assert row.rhs == pytest.approx(indep, rel=1e-12)
    assert row.truncation_bound == pytest.approx(truncation_bound(x, 1, T))


def test_thm12_against_exact_small_x(zsets3, sieve):
    # x = 10 sits far below the asymptotic regime: the residual carries
    # the formula's lower-order terms.  Measured once and frozen: the
    # residual stays within truncation_bound + 8 (measured E ~ 6.9).
    x = 10.0
    exact = s_grid(x, 3, 1, 1, sieve)
    row = thm12_rhs(x, 3, 1, 1, zsets3, 200.0, exact=exact)
    assert abs(row.residual) <= row.truncation_bound + 8.0


def test_thm12_exact_tracking(zsets3, sieve):
    # residual within the unit-constant truncation budget at desk scale
    for x in [10 ** 3, 10 ** 4, 10 ** 5]:
        row = thm12_rhs(float(x), 3, 1, 1, zsets3, 200.0,
                        exact=s_grid(x, 3, 1, 1, sieve))
        assert abs(row.residual) <= row.truncation_bound


def test_thm12_imaginary_cancellation():
    zsets5 = load_or_build_zero_sets(5, 100)
    x = 10 ** 4
    row = thm12_rhs(float(x), 5, 2, 3, zsets5, 100.0)
    assert abs(row.zero_correction.imag) < 1e-8 * max(abs(row.main), 1.0)


def test_thm12_requires_coprimality(zsets3):
    with pytest.raises(ValueError):
        thm12_rhs(100.0, 3, 3, 1, zsets3, 100.0)


def test_thm12_missing_set():
    with pytest.raises(MissingZeroSetError):
        thm12_rhs(100.0, 3, 1, 1, {}, 100.0)


def test_thm14_q1_degenerates_to_thm12(zsets1):
    x, T = 2000.0, 150.0
    r14 = thm14_rhs(x, 1, 1, zsets1, T)
    r12 = thm12_rhs(x, 1, 1, 1, zsets1, T)
    assert r14.main == pytest.approx(r12.main, rel=1e-15)
    assert r14.rhs == pytest.approx(r12.rhs, rel=1e-12)


def test_thm14_even_modulus_odd_class(sieve):
    # q=2, c=1: main term vanishes; exact sum is tiny
    zsets2 = load_or_build_zero_sets(2, 200)
    x = 10 ** 4
    row = thm14_rhs(float(x), 2, 1, zsets2, 200.0)
    assert row.main == 0.0
    exact = restricted_sum(x, 2, 1, sieve)
    assert abs(exact - row.rhs) <= row.truncation_bound


def test_thm14_tracks_restricted_sum(zsets4, sieve):
    x = 10 ** 4
    for c in [2, 4]:
        exact = restricted_sum(x, 4, c, sieve)
        row = thm14_rhs(float(x), 4, c, zsets4, 200.0, exact=exact)
        assert abs(row.residual) <= row.truncation_bound


def test_thm14_builds_the_closed_form_once_per_character(zsets4):
    # the closed form is a row of the per-modulus character table: one
    # build for q = 4, however many characters and x rows read it
    from gzeros import characters

    characters._char_table.cache_clear()
    for x in np.geomspace(1e3, 1e5, 25):
        thm14_rhs(float(x), 4, 2, zsets4, 200.0)
    built = characters._char_table.cache_info()
    assert built.misses == built.currsize == 1
    tab = characters._char_table(4)
    coeff, pos = tab.coeff[1], tab.pos[1]
    assert not coeff.flags.writeable and not pos.flags.writeable


# ---------------------------------------------------------------------------
# Landau-Gonek

def test_landau_gonek_prime(zeta_zeros):
    zc = build_group(1)[0]
    s, pred, budget = landau_gonek(2.0, zc, zeta_zeros, 200.0)
    assert pred.real == pytest.approx(-(200 / math.pi) * math.log(2), rel=1e-12)
    assert abs(s - pred) / abs(pred) < 0.3
    assert abs(s.imag) < 1e-9 * abs(s.real)


def test_landau_gonek_non_prime_power(zeta_zeros):
    zc = build_group(1)[0]
    s, pred, budget = landau_gonek(6.0, zc, zeta_zeros, 200.0)
    assert pred == 0
    assert abs(s) <= budget


def test_landau_gonek_non_integer(zeta_zeros):
    zc = build_group(1)[0]
    s, pred, budget = landau_gonek(2.5, zc, zeta_zeros, 200.0)
    assert pred == 0
    assert abs(s) <= budget


def test_nearest_pp_gap():
    assert _nearest_pp_gap_search(2) == 1          # 3
    assert _nearest_pp_gap_search(23) == 2         # 25
    assert _nearest_pp_gap_search(6.0) == 1.0      # 5 or 7
    assert _nearest_pp_gap_search(2.5) == 0.5
    # the prime powers at floor(x) and ceil(x) count too
    assert _nearest_pp_gap_search(4.001) == pytest.approx(0.001)   # 4
    assert _nearest_pp_gap_search(127.9) == pytest.approx(0.1)     # 128


def test_landau_gonek_rejects_infinite_x(zeta_zeros):
    with pytest.raises(ValueError):
        landau_gonek(math.inf, build_group(1)[0], zeta_zeros, 50.0)


def test_landau_gonek_character():
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    zs = find_zeros(chi4, 200)
    s, pred, budget = landau_gonek(3.0, chi4, zs, 200.0)
    # chi4(3) = -1: prediction is +(T/pi) log 3
    assert pred.real == pytest.approx((200 / math.pi) * math.log(3), rel=1e-12)
    assert abs(s - pred) <= budget


# ---------------------------------------------------------------------------
# the Gamma-ratio of the zero-pair term

def test_z_ratio_half_half():
    # Gamma(1/2)^2 / Gamma(2) = pi
    half = np.array([0.5 + 0j])
    assert z_gamma_ratio_matrix(half, half)[0, 0] == pytest.approx(math.pi, rel=1e-12)


def test_z_ratio_symmetry():
    rhos = np.array([0.5 + 14.13j, 0.5 + 21.02j])
    mat = z_gamma_ratio_matrix(rhos, rhos)
    assert mat[0, 1] == mat[1, 0]


def test_z_ratio_bound_on_zero_pairs(zeta_zeros):
    rhos = zeta_zeros.rho
    T = 200.0
    mat = np.abs(z_gamma_ratio_matrix(rhos, rhos))
    scale = np.abs(rhos)[:, None] * np.abs(rhos)[None, :] / math.sqrt(T)
    assert float(np.max(mat * scale)) <= 10.0


# ---------------------------------------------------------------------------
# residues

def test_residue_r_first_zeta_zero(zsets1, zeta_zeros):
    gamma = zeta_zeros.gamma
    rho1 = complex(0.5, float(gamma[np.abs(gamma) < 15].max()))
    r = residue_r(rho1, 1, 1, 1, zsets1)
    # -(1/phi^2) (1/rho) * (1+1) * m with m = 1
    assert r == pytest.approx(-2.0 / rho1, rel=1e-12)


def test_residue_r_vanishing_weight():
    # q=4: the nontrivial character has chi(1) + chi(3) = 0
    zsets = load_or_build_zero_sets(4, 50)
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    gamma = zsets[chi4.label].gamma
    gamma1 = float(gamma[gamma > 0].min())
    rho = complex(0.5, gamma1)
    r = residue_r(rho, 4, 1, 3, zsets)
    assert r == 0


def test_residue_r1_collapses_mod4():
    # q* = 4 is not squarefree: mu(q*) = 0 kills the weight
    zsets = load_or_build_zero_sets(4, 50)
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    gamma = zsets[chi4.label].gamma
    gamma1 = float(gamma[gamma > 0].min())
    r1 = residue_r1(complex(0.5, gamma1), 4, 1, zsets)
    assert r1 == 0
    # but the zeta zeros do contribute through the principal character
    gamma = zsets["q=4;e=0"].gamma
    gz = float(gamma[gamma > 0].min())
    r1z = residue_r1(complex(0.5, gz), 4, 2, zsets)
    assert r1z != 0


def test_residue_unknown_zero(zsets1):
    with pytest.raises(ValueError):
        residue_r(complex(0.5, 11.0), 1, 1, 1, zsets1)


# ---------------------------------------------------------------------------
# report plumbing

def test_monotone_truncation(zsets1, sieve):
    # raising T from 50 to 200 must not raise the RMS residual by more
    # than the truncation-bound improvement allows
    xs = [10 ** 3, 10 ** 4, 10 ** 5]
    exact = s_grid(xs, 1, 1, 1, sieve)

    def rms_at(T):
        rs = [
            thm12_rhs(float(x), 1, 1, 1, zsets1, T, exact=e).residual
            for x, e in zip(xs, exact)
        ]
        return math.sqrt(sum(r * r for r in rs) / len(rs))

    r50, r200 = rms_at(50.0), rms_at(200.0)
    delta_bound = max(
        truncation_bound(float(x), 1, 50.0) - truncation_bound(float(x), 1, 200.0)
        for x in xs
    )
    assert r200 <= r50 + delta_bound


def test_explicit_row_algebra():
    row = ExplicitRow(
        x=10.0, exact=55.0, main=50.0,
        zero_correction=3 + 0j, truncation_bound=9.9,
    )
    assert row.rhs == 47.0
    assert row.residual == pytest.approx(55.0 - 50.0 + 3.0)


# ---------------------------------------------------------------------------
# the shared weight/kernel path against the per-theorem loops it replaced

def _ref_corr(terms, phi):
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms)) / phi ** 2


def _ref_thm12(x, q, a, b, zero_sets, T):
    """(main, correction) of S(x; q, a, b), written out as one loop."""
    phi = euler_phi(q)
    terms = []
    for chi in build_group(q):
        w = (complex(char_value(chi, a)).conjugate()
             + complex(char_value(chi, b)).conjugate())
        if w != 0:
            terms.append(w * h_term(x, chi, zero_sets[chi.label], T))
    return x * x / (2 * phi * phi), _ref_corr(terms, phi)


def _ref_weight14(chi, c):
    """conj csum(chi, c) from the per-character closed form and its exact
    root of unity, rounded once."""
    t, pos = closed_form_reference(chi, c)
    return (t * complex(RootOfUnity.make(pos, chi.order))).conjugate() if t else 0j


def _ref_thm14(x, q, c, zero_sets, T):
    from gzeros.singular import singular_series

    phi = euler_phi(q)
    terms = []
    for chi in build_group(q):
        w = _ref_weight14(chi, c)
        if w != 0:
            terms.append(w * h_term(x, chi, zero_sets[chi.label], T))
    corr = 2.0 * complex(math.fsum(t.real for t in terms),
                         math.fsum(t.imag for t in terms)) / phi ** 2
    return float(singular_series(q, c)) * x * x / 2.0, corr


def _ref_multiplicity(zeros, rho, tol=1e-6):
    return sum(m for r, m in zip(zeros.rho.tolist(), zeros.mult.tolist())
               if abs(r - rho) <= tol)


def _ref_residue_r(rho_q, q, a, b, zero_sets):
    phi = euler_phi(q)
    total = 0j
    for chi in build_group(q):
        m = _ref_multiplicity(zero_sets[chi.label], rho_q)
        if m:
            w = (complex(char_value(chi, a)).conjugate()
                 + complex(char_value(chi, b)).conjugate())
            total += w * m
    return -total / (phi * phi * rho_q)


def _ref_residue_r1(rho_q, q, c, zero_sets):
    phi = euler_phi(q)
    total = 0j
    for chi in build_group(q):
        m = _ref_multiplicity(zero_sets[chi.label], rho_q)
        if m:
            total += _ref_weight14(chi, c) * m
    return -2.0 * total / (phi * phi * rho_q)


@pytest.mark.parametrize("q", [1, 3, 4, 5, 7, 8])
def test_shared_kernel_matches_per_theorem_loops(q):
    T = 50.0
    zsets = load_or_build_zero_sets(q, T)
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    for x in (1e3, 1e5, 1e7):
        for a in units:
            for b in units:
                row = thm12_rhs(x, q, a, b, zsets, T)
                assert (row.main, row.zero_correction) == \
                    _ref_thm12(x, q, a, b, zsets, T)
        for c in range(1, q + 1):
            row = thm14_rhs(x, q, c, zsets, T)
            assert (row.main, row.zero_correction) == _ref_thm14(x, q, c, zsets, T)
    for chi in build_group(q):
        zs = zsets[chi.label]
        rho = min(zs.rho[zs.gamma > 0].tolist(), key=lambda r: r.imag)
        for a in units:
            for b in units:
                assert residue_r(rho, q, a, b, zsets) == \
                    _ref_residue_r(rho, q, a, b, zsets)
        for c in range(1, q + 1):
            assert residue_r1(rho, q, c, zsets) == _ref_residue_r1(rho, q, c, zsets)


@pytest.fixture(scope="module")
def zsets_to_5():
    sets = {}
    for q in (1, 3, 4, 5):
        sets.update(load_or_build_zero_sets(q, 20.0))
    return sets


_RHS_X = st.one_of(st.floats(), st.sampled_from(
    [0.0, -1.0, 1e-300, 0.5, 1e3, 1e8, 1e8 + 1, 1e9, 1e9 + 1, 1e154, 1e300,
     math.inf, math.nan]))
_RHS_T = st.one_of(st.floats(), st.sampled_from(
    [0.0, -3.0, 1e-300, 1e-12, 0.5, 20.0, 1e6, math.inf, math.nan]))
_CLASS = st.one_of(st.integers(-20, 20), st.integers(-10 ** 30, 10 ** 30))


@given(st.sampled_from([-1, 0, 1, 2, 3, 4, 5]), _CLASS, _CLASS, _CLASS, _RHS_X,
       _RHS_T, st.one_of(st.just(math.nan), st.floats(-1e18, 1e18)))
@example(4, 1, 1, 10 ** 30, 1e3, 20.0, 0.0)  # c past int64 overflowed
@example(3, 1, 2, 1, math.inf, 20.0, 0.0)    # x = inf gave NaN rows
@example(3, 1, 2, 1, 1e3, 0.0, 0.0)          # T = 0 divided by zero
@settings(derandomize=True, max_examples=300, deadline=None)
def test_rhs_property(zsets_to_5, q, a, b, c, x, T, exact):
    # thm12_rhs and thm14_rhs return a finite row or raise a typed error or
    # a ValueError, and neither hangs
    import signal

    def hung(signum, frame):
        raise TimeoutError(f"rhs at q={q} x={x} T={T} did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        rows = []
        for rhs in (lambda: thm12_rhs(x, q, a, b, zsets_to_5, T, exact=exact),
                    lambda: thm14_rhs(x, q, c, zsets_to_5, T, exact=exact)):
            try:
                rows.append(rhs())
            except (GzError, ValueError):
                pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for row in rows:
        values = [row.main, row.zero_correction.real, row.zero_correction.imag,
                  row.truncation_bound, row.rhs]
        if math.isfinite(exact):
            values.append(row.residual)
        assert all(math.isfinite(v) for v in values), (row, q, a, b, c)
