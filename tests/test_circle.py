import math

import numpy as np
import pytest

from gzeros.characters import build_group
from gzeros.circle import (
    build_grid,
    j_chi,
    quadrature_s,
    selberg_integral,
    w_mass,
)
from gzeros.goldbach import s_chi
from gzeros.lfunc import find_zeros
from gzeros.explicit import h_term
from gzeros.numtheory import build_sieve
from oracles import dense_lambda, r_term


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(10 ** 4)


@pytest.fixture(scope="module")
def grid500(sieve):
    return build_grid(500, 1, sieve, 1024)


def test_grid_basics(sieve, grid500):
    # T(0) = x exactly; S(0, chi0 mod 1) = psi(x)
    assert grid500.t_vals[0].real == pytest.approx(500, abs=1e-9)
    assert grid500.t_vals[0].imag == pytest.approx(0, abs=1e-9)
    chi0 = build_group(1)[0]
    assert grid500.s_vals[chi0.label][0].real == pytest.approx(
        sieve.psi(500), rel=1e-12
    )


def test_grid_parseval_t(grid500):
    # (1/N) sum |T|^2 = floor(x): exact DFT identity, integer check
    val = float(np.mean(np.abs(grid500.t_vals) ** 2))
    assert val == pytest.approx(500, abs=1e-8)


def test_grid_requires_exactness(sieve):
    with pytest.raises(ValueError):
        build_grid(500, 1, sieve, 999)


def test_grid_t_against_direct(sieve):
    g = build_grid(50, 1, sieve, 128)
    # direct geometric evaluation at a few nodes
    for j in [0, 1, 7, 100]:
        alpha = j / 128
        direct = sum(np.exp(2j * np.pi * n * alpha) for n in range(1, 51))
        assert g.t_vals[j] == pytest.approx(direct, abs=1e-9)


def test_grid_s_against_direct(sieve):
    g = build_grid(60, 5, sieve, 160)
    for chi in build_group(5):
        w = dense_lambda(sieve, 60, chi)
        for j in [1, 13]:
            alpha = j / 160
            direct = sum(
                w[n] * np.exp(2j * np.pi * n * alpha) for n in range(1, 61)
            )
            assert g.s_vals[chi.label][j] == pytest.approx(direct, abs=1e-9)


def test_decompose_exactness_q1(sieve):
    grid = build_grid(500, 1, sieve, 1024)
    chi0 = build_group(1)[0]
    assert abs(quadrature_s(grid, chi0, chi0) - s_chi(500, chi0, chi0, sieve)) < 1e-6


def test_decompose_exactness_q3_all_pairs(sieve):
    x = 300
    grid = build_grid(x, 3, sieve, 2 * x + 1)
    chars = build_group(3)
    for c1 in chars:
        for c2 in chars:
            assert abs(quadrature_s(grid, c1, c2) - s_chi(x, c1, c2, sieve)) < 1e-6


def test_decompose_trivial_x3(sieve):
    grid = build_grid(3, 1, sieve, 7)
    chi0 = build_group(1)[0]
    assert abs(quadrature_s(grid, chi0, chi0)) < 1e-9
    assert abs(s_chi(3, chi0, chi0, sieve)) == 0


def test_r_term_identity_q1(sieve):
    # S(x; chi0, chi0) = x^2/2 - 2 H + R + err, err measured at desk scale
    x = 500
    chi0 = build_group(1)[0]
    grid = build_grid(x, 1, sieve, 2048)
    zeros = find_zeros(chi0, 200)
    R = r_term(x, chi0, chi0, grid)
    assert abs(R.imag) < 1e-6
    S = s_chi(x, chi0, chi0, sieve).real
    H = h_term(float(x), chi0, zeros, 200.0).real
    err = abs(S - (x * x / 2 - 2 * H + R.real))
    # measured: the I-term x^2/2 carries an O(x) defect (sum (n-1) vs x^2/2)
    # plus the zero-sum truncation; 6 x log^2(x) covers both generously
    assert err <= 6 * x * math.log(x) ** 2


def test_r_term_real_for_real_characters(sieve):
    x = 300
    grid = build_grid(x, 4, sieve, 2 * x + 1)
    for c1 in build_group(4):
        for c2 in build_group(4):
            val = r_term(x, c1, c2, grid)
            assert abs(val.imag) < 1e-6 * max(1.0, abs(val.real))


def test_cauchy_schwarz_chain(sieve):
    # |R(x; chi1, chi2)| <= sqrt(J(chi1) J(chi2)) on a shared grid
    x = 400
    grid = build_grid(x, 5, sieve, 4 * x)
    chars = build_group(5)
    jvals = {c.label: j_chi(c, grid) for c in chars}
    for c1 in chars:
        for c2 in chars:
            R = abs(r_term(x, c1, c2, grid))
            assert R <= math.sqrt(jvals[c1.label] * jvals[c2.label]) * (1 + 1e-9)


def test_j_chi_positive_finite(sieve):
    grid = build_grid(100, 1, sieve, 800)
    chi0 = build_group(1)[0]
    val = j_chi(chi0, grid)
    assert val > 0
    assert math.isfinite(val)


def test_w_mass_full_interval_is_parseval(sieve):
    x = 200
    grid = build_grid(x, 3, sieve, 2 * x + 1)
    for chi in build_group(3):
        w = dense_lambda(sieve, x, chi).astype(np.complex128)
        w[1: x + 1] -= 1.0 if chi.is_principal else 0.0
        expect = float(np.sum(np.abs(w[1: x + 1]) ** 2))
        assert w_mass(0.5, chi, grid) == pytest.approx(expect, rel=1e-9)


def test_w_mass_monotone(sieve):
    x = 500
    grid = build_grid(x, 1, sieve, 8 * x)
    chi0 = build_group(1)[0]
    vals = [w_mass(xi, chi0, grid) for xi in [1 / x, 0.01, 0.1, 0.3, 0.5]]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_w_mass_bound_shape(sieve):
    # Gallagher-lemma shape: mass / (xi x log^4(2qx)) bounded; measured
    # constants are tiny (the unit-circle PNT cancellation empties |W|^2
    # near alpha = 0), 0.01 is a generous frozen ceiling
    x = 10 ** 4
    grid = build_grid(x, 1, sieve, 8 * x)
    chi0 = build_group(1)[0]
    for xi in (1 / x, 1e-3, 1e-2, 0.1, 0.5):
        ratio = w_mass(xi, chi0, grid) / (xi * x * math.log(2 * x) ** 4)
        assert ratio <= 0.01


def test_w_mass_domain(sieve):
    grid = build_grid(100, 1, sieve, 256)
    chi0 = build_group(1)[0]
    with pytest.raises(ValueError):
        w_mass(1e-4, chi0, grid)
    with pytest.raises(ValueError):
        w_mass(0.6, chi0, grid)


def test_selberg_exact_vs_brute(sieve):
    # independent oracle: recompute the window sum from scratch at the
    # midpoint of every breakpoint segment
    x, h = 100, 10
    for chi in [build_group(1)[0]] + build_group(3)[1:]:
        val = selberg_integral(x, h, chi, sieve)
        w = dense_lambda(sieve, 2 * x + h + 1, chi)
        bounds = sorted(
            {float(x), float(2 * x)}
            | {float(n) for n in range(x + 1, 2 * x)}
            | {n - float(h) for n in range(x + 1, 2 * x + h + 1)
               if x < n - h < 2 * x}
        )
        target = h if chi.is_principal else 0.0
        brute = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            t = 0.5 * (lo + hi)
            window = sum(w[n] for n in range(1, len(w)) if t < n <= t + h)
            brute += abs(window - target) ** 2 * (hi - lo)
        assert val == pytest.approx(brute, rel=1e-9)


def test_selberg_riemann_sum_oracle(sieve):
    # plain fine Riemann sum converges to the exact value
    x, h = 100, 10
    chi0 = build_group(1)[0]
    val = selberg_integral(x, h, chi0, sieve)
    w = dense_lambda(sieve, 2 * x + h + 1, chi0)
    cum = np.cumsum(w)
    ts = np.linspace(x, 2 * x, 200001)[:-1] + 0.5 / 200000
    window = cum[np.floor(ts + h).astype(int)] - cum[np.floor(ts).astype(int)]
    riemann = float(np.sum(np.abs(window - h) ** 2) * (x / 200000))
    assert val == pytest.approx(riemann, rel=1e-4)


def test_selberg_scale_q1(sieve):
    # positive and within the coarse x^2 log^4 shape at h = x
    x = 1000
    chi0 = build_group(1)[0]
    val = selberg_integral(x, x, chi0, sieve)
    assert 0 < val <= x * x * math.log(x) ** 4


def test_selberg_domain(sieve):
    chi0 = build_group(1)[0]
    with pytest.raises(ValueError):
        selberg_integral(100, 1, chi0, sieve)
    with pytest.raises(ValueError):
        selberg_integral(100, 200, chi0, sieve)
    with pytest.raises(ValueError):
        selberg_integral(10 ** 4, 10, chi0, sieve)


def test_selberg_refuses_non_integer_inputs(sieve):
    chi0 = build_group(1)[0]
    with pytest.raises(ValueError, match="h=10.5"):
        selberg_integral(100, 10.5, chi0, sieve)
    with pytest.raises(ValueError, match="x=100.5"):
        selberg_integral(100.5, 10, chi0, sieve)


def test_selberg_sieve_limit_is_2x_plus_h_minus_1():
    # the last window is (2x-1, 2x-1+h]: a sieve ending there suffices
    x, h = 100, 10
    chi0 = build_group(1)[0]
    exact_fit = build_sieve(2 * x + h - 1)
    assert (selberg_integral(x, h, chi0, exact_fit)
            == selberg_integral(x, h, chi0, build_sieve(10 ** 4)))
    with pytest.raises(ValueError):
        selberg_integral(x, h, chi0, build_sieve(2 * x + h - 2))
