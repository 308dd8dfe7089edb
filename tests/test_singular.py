import math
from fractions import Fraction

import pytest

from gzeros.numtheory import euler_phi, factorize, moebius
from gzeros.singular import (
    compute_c2,
    j_average,
    j_weight_table,
    singular_series,
)
from oracles import j_weight


@pytest.fixture(scope="module")
def constants():
    return compute_c2(10 ** 5)


def test_c2_value_and_stability(constants):
    assert 1.3 < constants.C2 < 1.33
    assert 0.66 < constants.C2 / 2 < 0.6602
    assert constants.tail_bound < 1e-12
    c2_hi = compute_c2(10 ** 6)
    assert abs(constants.C2 - c2_hi.C2) < 1e-10
    # partial product decreases monotonically toward the limit
    assert constants.partial_product > c2_hi.partial_product > c2_hi.C2 - 1e-12


def test_c2_rejects_small_cutoff():
    with pytest.raises(ValueError):
        compute_c2(10 ** 4)


def test_j_weight_values(constants):
    C2 = constants.C2
    assert j_weight(1, constants) == 0.0
    assert j_weight(7, constants) == 0.0
    assert j_weight(2, constants) == pytest.approx(2 * C2, rel=1e-14)
    assert j_weight(4, constants) == pytest.approx(4 * C2, rel=1e-14)
    assert j_weight(6, constants) == pytest.approx(6 * C2 * 2, rel=1e-14)
    assert j_weight(30, constants) == pytest.approx(
        30 * C2 * 2 * (4 / 3), rel=1e-14
    )


def test_j_weight_table_matches_pointwise(constants):
    table = j_weight_table(3000, constants)
    for n in range(1, 3000, 37):
        assert table[n] == pytest.approx(j_weight(n, constants), rel=1e-12)
    assert table[0] == 0.0


def test_j_weight_kernel_property(constants):
    # J(2n)/(2n) depends only on the odd squarefree kernel of n
    def kernel(n):
        k = 1
        for p, _ in factorize(n).factors:
            if p > 2:
                k *= p
        return k

    table = j_weight_table(2 * 10 ** 4, constants)
    ratios = {}
    for n in range(1, 10 ** 4):
        k = kernel(n)
        r = table[2 * n] / (2 * n)
        if k in ratios:
            assert r == pytest.approx(ratios[k], rel=1e-12)
        else:
            ratios[k] = r


def test_j_expansion_identity(constants):
    # J(2N) = 2 C2 N sum_{d|N, d odd} mu(d)^2/phi2(d), phi2(d) = prod (p-2)
    for N in [1, 2, 9, 15, 24, 105]:
        total = 0.0
        for d in range(1, N + 1):
            if N % d == 0 and d % 2 == 1 and moebius(d) != 0:
                total += 1 / math.prod(p - 2 for p in factorize(d).primes)
        assert j_weight(2 * N, constants) == pytest.approx(
            2 * constants.C2 * N * total, rel=1e-12
        )


def test_singular_series_values():
    assert singular_series(2, 1) == 0
    assert singular_series(3, 2) == Fraction(1, 4)
    assert singular_series(1, 5) == 1
    assert singular_series(6, 6) == Fraction(1, 2)
    # zero iff (2, q) does not divide c
    for q in range(1, 30):
        for c in range(1, q + 1):
            vanishes = singular_series(q, c) == 0
            assert vanishes == (q % 2 == 0 and c % 2 == 1)


def test_singular_series_partition():
    # sum_c phi(q)^2 S_q(c) = phi(q)^2: each unit a pairs with exactly
    # phi(q) residues c with c - a a unit
    for q in range(1, 60):
        phi = euler_phi(q)
        total = sum(singular_series(q, c) for c in range(1, q + 1))
        assert total * phi * phi == phi * phi


def test_j_average_even_modulus_odd_class(constants):
    exact, main, resid = j_average(10 ** 4, 2, 1, j_weight_table(10 ** 4, constants))
    assert exact == 0.0
    assert main == 0.0
    assert resid == 0.0


def test_j_average_hand_sum(constants):
    exact, main, resid = j_average(4, 1, 1, j_weight_table(4, constants))
    assert exact == pytest.approx(6 * constants.C2, rel=1e-12)
    assert main == pytest.approx(8.0, abs=1e-12)
    assert resid == pytest.approx(exact - main, abs=1e-12)


def test_j_average_residual_scale(constants):
    x = 10 ** 5
    table = j_weight_table(x, constants)
    exact, main, resid = j_average(x, 1, 1, table)
    assert abs(resid) <= 10 * x * math.log(x)
    # oscillation is observed, not required: record the sign pattern but
    # only assert the residuals exist on the sampled grid
    signs = set()
    for xx in [10 ** 3, 10 ** 4, 5 * 10 ** 4, 10 ** 5]:
        _, _, r = j_average(xx, 1, 1, table)
        signs.add(r > 0)
    assert len(signs) >= 1


def test_j_average_matches_brute(constants):
    x, q, c = 2000, 6, 4
    table = j_weight_table(x, constants)
    exact, main, _ = j_average(x, q, c, table)
    brute = sum(j_weight(n, constants) for n in range(1, x + 1) if n % q == c % q)
    assert exact == pytest.approx(brute, rel=1e-12)
    assert main == pytest.approx(float(singular_series(q, c)) * x * x / 2, rel=1e-15)


def test_j_average_rejects_modulus_zero(constants):
    table = j_weight_table(1000, constants)
    with pytest.raises(ValueError):
        j_average(1000, 0, 1, table)
    with pytest.raises(ValueError, match="stops before"):
        j_average(1001, 1, 1, table)
