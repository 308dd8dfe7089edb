import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzeros import numtheory
from gzeros.errors import CapacityError
from gzeros.numtheory import (
    build_sieve,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    phi2,
    primes_up_to,
    unit_pair_count,
)


def test_factorize_basics():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(2 ** 31 - 1).factors == ((2147483647, 1),)


def test_factorize_trial_division_oracle():
    # independent oracle: bare trial division
    def trial(n):
        out = []
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e:
                out.append((d, e))
            d += 1
        if n > 1:
            out.append((n, 1))
        return tuple(out)

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 6)
        assert factorize(n).factors == trial(n)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    fac = factorize(p * q)
    assert fac.factors == ((p, 1), (q, 1))


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2 ** 63)


def test_multiplicative_values():
    assert euler_phi(10) == 4
    assert euler_phi(1) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    assert moebius(1) == 1
    assert phi2(15) == (3 - 2) * (5 - 2)
    assert phi2(1) == 1


def test_phi2_domain():
    with pytest.raises(ValueError):
        phi2(6)
    with pytest.raises(ValueError):
        phi2(9)


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_multiplicativity_on_coprime_pairs(m, n):
    if math.gcd(m, n) != 1:
        return
    assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
    assert moebius(m * n) == moebius(m) * moebius(n)


def test_is_prime_matches_sieve():
    primes = set(primes_up_to(2000).tolist())
    for n in range(2000):
        assert is_prime(n) == (n in primes)


def test_sieve_small_values():
    sv = build_sieve(10)
    # prime powers <= 10: 2,3,4,5,7,8,9
    expect = {2: math.log(2), 3: math.log(3), 4: math.log(2),
              5: math.log(5), 7: math.log(7), 8: math.log(2), 9: math.log(3)}
    for n in range(11):
        assert sv.lambda_[n] == pytest.approx(expect.get(n, 0.0), abs=0)
    # hand enumeration: 3log2 + 2log3 + log5 + log7
    assert sv.psi(10) == pytest.approx(
        3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7), rel=1e-12
    )


def test_sieve_x2():
    sv = build_sieve(2)
    assert sv.lambda_[1] == 0.0
    assert sv.lambda_[2] == pytest.approx(math.log(2), rel=0)


def test_sieve_prime_power_flag_matches_lambda():
    sv = build_sieve(5000)
    # Lambda(n) > 0 exactly at the prime powers: spot-check against factorize
    for n in range(2, 500):
        assert (sv.lambda_[n] > 0) == factorize(n).is_prime_power()


def test_sieve_holds_only_its_limit_and_a_read_only_lambda():
    sv = build_sieve(1000)
    assert [f.name for f in dataclasses.fields(sv)] == ["limit", "lambda_"]
    with pytest.raises(ValueError):
        sv.lambda_[7] = 0.0
    assert sv.lambda_[7] == pytest.approx(math.log(7), rel=0)


def test_psi_ends_where_every_sum_over_n_ends():
    # exp(log 1849) = 1848.9999999999998: floor_x keeps n = 1849 = 43^2
    sv = build_sieve(2000)
    u = math.exp(math.log(1849))
    assert u < 1849
    assert sv.psi(u) == sv.psi(1849)
    assert sv.psi(1849) - sv.psi(1848) == pytest.approx(math.log(43), rel=1e-12)


def test_psi_refuses_u_past_the_sieve_limit():
    # the limit applies to floor_x(u), the last n summed: 1000.5 ends at 1000
    sv = build_sieve(1000)
    assert sv.psi(1000) == pytest.approx(996.68, abs=0.01)
    for u in (1001, 2000, 1e9):
        with pytest.raises(ValueError, match="exceeds sieve limit"):
            sv.psi(u)


def test_sieve_limit_applies_to_the_last_n_summed():
    # psi, psi_chi and s_grid all check floor_x(u): 1000.5 sums to n = 1000
    # against a sieve to 1000, and u = 1001 needs Lambda(1001)
    from gzeros.characters import character_from_label
    from gzeros.goldbach import s_grid
    from gzeros.lfunc import psi_chi

    sv = build_sieve(1000)
    zeta = character_from_label("q=1;e=")
    assert sv.psi(1000.5) == sv.psi(1000)
    assert psi_chi(1000.5, zeta, sv) == psi_chi(1000, zeta, sv)
    assert psi_chi(1000, zeta, sv).real == pytest.approx(sv.psi(1000), rel=1e-12)
    assert s_grid(1000.5, 1, 1, 1, sv) == s_grid(1000, 1, 1, 1, sv)
    for call in (lambda: sv.psi(1001), lambda: psi_chi(1001, zeta, sv),
                 lambda: s_grid(1001, 1, 1, 1, sv)):
        with pytest.raises(CapacityError, match="x=1001 exceeds sieve limit 1000"):
            call()


@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_non_finite_bound_is_refused_by_name(u):
    # floor_x would cast a non-finite u to the int64 minimum, which passes
    # check_limit and sums to nothing
    from gzeros.characters import character_from_label
    from gzeros.goldbach import s_grid
    from gzeros.lfunc import psi_chi

    sv = build_sieve(1000)
    zeta = character_from_label("q=1;e=")
    for call in (lambda: sv.psi(u), lambda: psi_chi(u, zeta, sv),
                 lambda: s_grid(u, 1, 1, 1, sv)):
        with pytest.raises(ValueError, match=f"x={u} must be finite"):
            call()


def test_build_sieve_refuses_a_non_integer_x():
    for x in (1e3, 1000.0, "1000", None):
        with pytest.raises(ValueError, match=f"x={x!r} must be an integer"):
            build_sieve(x)
    assert build_sieve(np.int64(1000)).psi(1000) == build_sieve(1000).psi(1000)


def test_chebyshev_identity():
    # sum_{d|n} Lambda(d) = log n, brute force over divisors
    sv = build_sieve(10 ** 4)
    rng = random.Random(3)
    ns = list(range(2, 200)) + [rng.randrange(200, 10 ** 4) for _ in range(300)]
    for n in ns:
        total = sum(sv.lambda_[d] for d in divisors(n))
        assert abs(total - math.log(n)) < 1e-9


def test_psi_pnt_scale():
    # PNT at desk height, cross-checked against an independent prime list
    sv = build_sieve(10 ** 6)
    total = sv.psi(10 ** 6)
    assert 0.99 <= total / 10 ** 6 <= 1.01
    primes = primes_up_to(10 ** 6)
    indep = float(np.log(primes.astype(np.float64)).sum())
    # theta(x) and psi(x) differ by the proper prime powers only
    pp_extra = total - indep
    assert 0 < pp_extra < 2 * math.sqrt(10 ** 6) * math.log(10 ** 6)


def test_sieve_capacity(monkeypatch):
    monkeypatch.setattr(numtheory, "SIEVE_CAP", 10 ** 6)
    with pytest.raises(CapacityError):
        build_sieve(10 ** 7)


def test_sieve_deterministic():
    a = build_sieve(50000)
    b = build_sieve(50000)
    assert np.array_equal(a.lambda_, b.lambda_)


def test_unit_pair_count_matches_direct_count():
    for q in range(1, 61):
        expect = [
            sum(1 for a in range(q) if math.gcd(a * (c - a), q) == 1)
            for c in range(q)
        ]
        assert unit_pair_count(q, np.arange(q)).tolist() == expect
        assert [unit_pair_count(q, c) for c in range(q)] == expect
    with pytest.raises(ValueError):
        unit_pair_count(0, 1)
