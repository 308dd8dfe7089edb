import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzeros import numtheory
from gzeros.errors import CapacityError
from gzeros.numtheory import (
    build_sieve,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    primes_up_to,
    unit_pair_count,
)
from oracles import dense_lambda


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


def test_primes_up_to_matches_miller_rabin():
    # is_prime shares no code with the sieve; the windows straddle the
    # segment boundaries 2 + k SEGMENT, and the limits k SEGMENT + 1 and
    # + 2 end the sieve on a full segment and on a one-number segment
    for limit in range(201):
        assert primes_up_to(limit).tolist() == [n for n in range(limit + 1)
                                                if is_prime(n)]
    for k in (1, 2, 3):
        mid = k * numtheory.SEGMENT
        expect = [n for n in range(mid - 64, mid + 65) if is_prime(n)]
        for limit in (mid - 64, mid + 1, mid + 2, mid + 64):
            primes = primes_up_to(limit)
            assert primes[primes >= mid - 64].tolist() == [n for n in expect
                                                           if n <= limit]
    assert len(primes_up_to(10 ** 6)) == 78498
    assert len(primes_up_to(10 ** 7)) == 664579


def test_sieve_small_values():
    sv = build_sieve(10)
    # prime powers <= 10: 2,3,4,5,7,8,9
    expect = {2: math.log(2), 3: math.log(3), 4: math.log(2),
              5: math.log(5), 7: math.log(7), 8: math.log(2), 9: math.log(3)}
    assert sv.positions.tolist() == sorted(expect)
    assert sv.lam(slice(None)).tolist() == [expect[n] for n in sorted(expect)]
    lam = dense_lambda(sv, 10)
    for n in range(11):
        assert lam[n] == pytest.approx(expect.get(n, 0.0), abs=0)
    # hand enumeration: 3log2 + 2log3 + log5 + log7
    assert sv.psi(10) == pytest.approx(
        3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7), rel=1e-12
    )


def test_sieve_x2():
    sv = build_sieve(2)
    assert sv.positions.tolist() == [2]
    assert dense_lambda(sv, 2).tolist() == [0.0, 0.0, math.log(2)]


def test_sieve_prime_power_flag_matches_lambda():
    sv = build_sieve(5000)
    # Lambda(n) > 0 exactly at the prime powers: spot-check against factorize
    lam = dense_lambda(sv, 500)
    for n in range(2, 500):
        assert (lam[n] > 0) == factorize(n).is_prime_power()


def test_sieve_holds_only_its_limit_and_a_read_only_lambda():
    # 4 bytes per prime power: Lambda is computed where it is read, and the
    # only float64 array held is math.log(p) at the proper powers p^k
    sv = build_sieve(1000)
    assert [f.name for f in dataclasses.fields(sv)] == [
        "limit", "positions", "power_index", "power_log"]
    # int32 positions are exact: every position is <= SIEVE_CAP < 2^31
    assert sv.positions.dtype == np.int32 and sv.power_index.dtype == np.int32
    assert sv.power_log.dtype == np.float64
    for arr in (sv.positions, sv.power_index, sv.power_log):
        with pytest.raises(ValueError):
            arr[3] = 0
    # the proper powers 4, 8, 9, 16, 25, 27, 32, ... <= 1000: 11 squares,
    # 5 cubes and 2^4..2^9, 3^4, 3^5, 5^4
    assert sv.positions[sv.power_index].tolist() == sorted(
        p ** k for p in range(2, 32) if is_prime(p)
        for k in range(2, 10) if p ** k <= 1000)
    assert sv.power_log.tolist() == [
        math.log(factorize(int(n)).primes[0]) for n in sv.positions[sv.power_index]]
    assert sv.positions[4] == 7
    assert sv.lam(np.array([4]))[0] == math.log(7)
    # prime_powers(x) is a read-only view of the table
    with pytest.raises(ValueError):
        sv.prime_powers(10)[0] = 0
    assert sv.prime_powers(10).tolist() == [2, 3, 4, 5, 7, 8, 9]
    with pytest.raises(ValueError, match="step"):
        sv.lam(slice(0, 10, 2))


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
    from oracles import psi_chi

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
    from oracles import psi_chi

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
    lam = dense_lambda(sv, 10 ** 4)
    for n in ns:
        d = np.arange(1, n + 1)
        total = lam[d[n % d == 0]].sum()
        assert abs(total - math.log(n)) < 1e-9


def test_psi_pnt_scale():
    # PNT at desk height; theta(x) comes from primes_up_to, the sieve that
    # build_sieve reads, so this checks the proper prime powers' share
    sv = build_sieve(10 ** 6)
    total = sv.psi(10 ** 6)
    assert 0.99 <= total / 10 ** 6 <= 1.01
    primes = primes_up_to(10 ** 6)
    indep = float(np.log(primes.astype(np.float64)).sum())
    # theta(x) and psi(x) differ by the proper prime powers only
    pp_extra = total - indep
    assert 0 < pp_extra < 2 * math.sqrt(10 ** 6) * math.log(10 ** 6)


def test_sieve_capacity(monkeypatch):
    with pytest.raises(CapacityError, match="exceeds cap 1000000000"):
        build_sieve(numtheory.SIEVE_CAP + 1)
    monkeypatch.setattr(numtheory, "SIEVE_CAP", 10 ** 6)
    with pytest.raises(CapacityError):
        build_sieve(10 ** 7)


def test_sieve_cap_keeps_every_position_an_exact_int32():
    # x = 1e9 is the declared envelope; int32 positions and primes_up_to's
    # int32 output hold every integer up to it, and nothing past 2^31 - 1
    assert numtheory.SIEVE_CAP == 10 ** 9 < 2 ** 31
    assert primes_up_to(100).dtype == np.int32
    with pytest.raises(ValueError, match="below 2"):
        primes_up_to(2 ** 31)


def test_sieve_deterministic():
    a = build_sieve(50000)
    b = build_sieve(50000)
    for name in ("positions", "power_index", "power_log"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.lam(slice(None)), b.lam(slice(None)))


def _dense_sieve(x):
    # the dense von Mangoldt array that build_sieve returned before it
    # kept only the prime powers: the reference for the compact table
    lam = np.zeros(x + 1, dtype=np.float64)
    base = primes_up_to(math.isqrt(x))
    for lo in range(2, x + 1, numtheory.SEGMENT):
        hi = min(lo + numtheory.SEGMENT, x + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = max(p * p, (lo + p - 1) // p * p)
            if start < hi:
                mask[start - lo:: p] = False
        idx = np.nonzero(mask)[0] + lo
        lam[idx] = np.log(idx.astype(np.float64))
    for p in base.tolist():
        pk = p * p
        while pk <= x:
            lam[pk] = math.log(p)
            pk *= p
    return lam


@pytest.fixture(scope="module")
def dense3():
    # three segments, so the merge of primes and proper powers crosses
    # segment boundaries
    x = 3 * numtheory.SEGMENT + 12345
    return x, _dense_sieve(x), build_sieve(x)


def test_compact_sieve_matches_the_dense_table_bit_for_bit(dense3):
    x, ref, sv = dense3
    assert np.array_equal(sv.positions, np.flatnonzero(ref))
    assert np.array_equal(sv.lam(slice(None)), ref[sv.positions])
    assert np.array_equal(dense_lambda(sv, x), ref)
    assert sv.psi(x) == math.fsum(ref)


def test_lambda_on_demand_matches_the_dense_table_bit_for_bit(dense3):
    # lam(i) is np.log(positions[i]) patched at the proper powers: every
    # slice and every strictly ascending gather has the dense table's bits,
    # and any other index array is refused
    x, ref, sv = dense3
    want = ref[sv.positions]
    n, at = len(sv.positions), sv.power_index.tolist()
    assert len(at) > 100 and at[-1] < n - 1
    slices = [slice(None), slice(at[0], at[-1]), slice(at[3], at[9] + 1),
              slice(at[5], at[5] + 1), slice(at[7] + 1, at[8]), slice(7, at[-1]),
              slice(at[-1], None), slice(at[-1] - 1, n), slice(10, 10)]
    for s in slices:
        assert sv.lam(s).tobytes() == want[s].tobytes(), s
        assert sv.lam(s, sv.positions[s]).tobytes() == want[s].tobytes(), s
    rng = np.random.default_rng(27)
    picked = np.union1d(rng.choice(n, 5000, replace=False), at[::3])
    repeats = np.sort(rng.choice(at + [0, n - 1], 400))
    assert np.any(repeats[1:] == repeats[:-1])
    one = np.array([at[4]])
    for dtype in (np.int32, np.intp):
        for i in (picked, np.array(at), np.zeros(0), one, one - 1, np.array([n - 1])):
            i = i.astype(dtype)
            assert sv.lam(i).tobytes() == want[i].tobytes(), (dtype, i[:5])
            # and from positions the caller has gathered already
            at_i = sv.positions[i]
            assert sv.lam(i, at_i).tobytes() == want[i].tobytes(), (dtype, i[:5])
        for i in (picked[::-1], rng.permutation(picked), np.array(at)[::-1], repeats,
                  rng.permutation(repeats)):
            i = i.astype(dtype)
            with pytest.raises(ValueError, match="strictly ascending"):
                sv.lam(i)
            with pytest.raises(ValueError, match="strictly ascending"):
                sv.lam(i, sv.positions[i])


def test_goldbach_g_through_proper_powers_matches_brute_force(dense3):
    # decompositions n = p^k + m with a proper power p^k on one side (and on
    # both for m = 4, 9, 27), summed one term at a time in ascending l from
    # the dense table
    from gzeros.goldbach import goldbach_g

    x, ref, sv = dense3
    for pk in (2 ** 21, 3 ** 13, 5 ** 9, 7 ** 7, 1447 ** 2):
        for m in (2, 4, 9, 27):
            n = pk + m
            for q in (1, 3, 4):
                for a, b in ((pk % q, m % q), (m % q, pk % q)):
                    l = np.arange(1, n)
                    keep = ((l % q == a) & ((n - l) % q == b)
                            & (ref[l] > 0) & (ref[n - l] > 0))
                    assert keep[pk - 1] or keep[m - 1]
                    total = 0.0
                    for t in (ref[l[keep]] * ref[n - l[keep]]).tolist():
                        total += t
                    assert goldbach_g(n, q, a, b, sv) == total, (n, q, a, b)


def test_psi_is_fsum_across_blocks():
    # 1.27e6 prime powers at 2e7: psi's exact integer sum spans two blocks
    sv = build_sieve(2 * 10 ** 7)
    assert len(sv.positions) > numtheory.SEGMENT
    for u in (2, 3, 4, 10.5, 1000, 1849, 2 * 10 ** 7):
        k = len(sv.prime_powers(int(u)))
        assert sv.psi(u) == math.fsum(sv.lam(slice(0, k))), u


def test_build_sieve_peak_memory_holds_one_table():
    # build_sieve(8e6) alone: int32 positions and a float64 Lambda merged
    # by np.insert peaked at 6.3 MiB traced; the primes written in place
    # into one int32 array, grown by the proper powers and merged in place
    # (Lambda computed where it is read), 4.7 MiB
    tracemalloc.start()
    try:
        build_sieve(8 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.3 * 2 ** 20


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
