import gc
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzeros.analysis import geometric_grid
from gzeros.characters import build_group
from gzeros.circle import build_grid, selberg_integral
from gzeros import goldbach
from gzeros.errors import CapacityError
from gzeros.goldbach import (
    CONV_X_CAP,
    build_class_convolution,
    floor_x,
    goldbach_g,
    restricted_sum,
    s_chi,
    s_grid,
    twisted_entries,
)
from gzeros.numtheory import build_sieve, euler_phi
from oracles import char_value, class_lambda, dense_lambda, psi_chi


@pytest.fixture(scope="module")
def sieve():
    return build_sieve(2 * 10 ** 4)


def brute_g(n, q, a, b, sieve):
    lam = dense_lambda(sieve, n)
    total = 0.0
    for l in range(1, n):
        m = n - l
        if l % q == a % q and m % q == b % q:
            total += lam[l] * lam[m]
    return total


def test_g_hand_values(sieve):
    # l in {4, 7}: (log 2)^2 + log5 log7
    expect = math.log(2) ** 2 + math.log(5) * math.log(7)
    assert goldbach_g(12, 3, 1, 2, sieve) == pytest.approx(expect, rel=1e-12)
    assert goldbach_g(3, 3, 1, 2, sieve) == 0.0
    # congruence obstruction
    for n in range(4, 60):
        if n % 3 != 0:  # a+b = 3
            assert goldbach_g(n, 3, 1, 2, sieve) == 0.0


def test_g_matches_brute(sieve):
    for q, a, b in [(1, 1, 1), (3, 1, 2), (4, 1, 3), (5, 2, 3)]:
        for n in range(4, 300):
            assert goldbach_g(n, q, a, b, sieve) == pytest.approx(
                brute_g(n, q, a, b, sieve), abs=1e-10
            )


def test_g_out_of_range(sieve):
    with pytest.raises(ValueError):
        goldbach_g(sieve.limit + 1, 1, 1, 1, sieve)


def test_convolution_matches_direct_double_loop(sieve):
    # FFT vs direct O(x^2) summation (np.convolve), every n <= x, every
    # class pair for the small moduli (non-units, a = 0 and a = b too, and
    # x small enough to leave a lattice or the class a + b empty); plus a
    # pure-python spot check of the oracle itself
    for x in (0, 1, 3, 7, 2000):
        for q in [1, 3, 4, 5, 8]:
            for a in range(1, q + 1):
                for b in range(1, q + 1):
                    conv = build_class_convolution(q, a, b, x, sieve)
                    va = class_lambda(q, a, x, sieve)
                    vb = class_lambda(q, b, x, sieve)
                    direct = np.convolve(va, vb)[: x + 1]
                    ref = np.maximum(1.0, np.abs(direct))
                    assert np.max(np.abs(conv.values - direct) / ref) < 1e-6
    for n in (12, 97, 500):
        assert brute_g(n, 3, 1, 2, sieve) == pytest.approx(
            float(np.convolve(
                class_lambda(3, 1, n, sieve), class_lambda(3, 2, n, sieve)
            )[n]), rel=1e-12, abs=1e-12,
        )


def test_convolution_invariants(sieve):
    conv = build_class_convolution(3, 1, 2, 5000, sieve)
    # the table owns its array: no view pins the transform buffer
    assert conv.values.base is None
    assert np.all(conv.values >= 0)
    running = np.cumsum(conv.values)
    assert np.all(np.diff(running) >= 0)
    n = np.arange(5001)
    assert np.all(conv.values[n % 3 != 0] == 0)
    # S(3) = 0
    assert running[3] == 0.0


def _on_class_reference(q, a0, b0, K, sieve):
    """The first K values of the direct convolution on the class a0 + b0."""
    x = a0 + b0 + q * (K - 1)
    direct = np.convolve(class_lambda(q, a0, x, sieve),
                         class_lambda(q, b0, x, sieve))
    return direct[a0 + b0::q][:K]


@pytest.mark.parametrize("q, a0, b0", [(3, 1, 2), (1, 0, 0), (5, 3, 4),
                                       (4, 1, 1), (5, 0, 2)])
def test_partitioned_convolution_at_block_edges(q, a0, b0, sieve):
    # K = 1, B - 1, B, B + 1 and P B -+ 1 on-class outputs (P = 8 blocks and
    # 9) from blocks of a given length B, against the direct convolution
    B = 16
    for K in (1, B - 1, B, B + 1, 8 * B - 1, 8 * B + 1):
        g = goldbach._lattice_convolution(q, a0, b0, K, B, sieve)
        ref = _on_class_reference(q, a0, b0, K, sieve)
        assert len(g) == K
        assert np.max(np.abs(g - ref) / np.maximum(1.0, np.abs(ref))) < 1e-9, K


@pytest.mark.parametrize("q, a, b", [(3, 1, 2), (1, 1, 1), (5, 3, 4),
                                     (4, 3, 3), (7, 6, 6), (5, 2, 3)])
def test_partitioned_build_against_direct_sums(q, a, b, sieve, monkeypatch):
    # the block rule's edges (B doubles past K = 8 B), a0 + b0 >= q, q = 1,
    # a0 = b0 and an empty class (x < a0 + b0), against np.convolve and
    # goldbach_g; every transform has a power-of-two length 2B
    lengths = []
    for name in ("rfft", "irfft"):
        f = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda v, n, *args, _f=f, **kw:
                            lengths.append(n) or _f(v, n, *args, **kw))
    a0, b0 = a % q, b % q
    for K in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000):
        x = a0 + b0 + q * K - 1  # K outputs on the class a + b
        if x < 0:
            continue
        lengths.clear()
        g = build_class_convolution(q, a, b, x, sieve).values
        assert g.base is None and len(g) == x + 1
        assert np.all(g >= 0)
        n = np.arange(x + 1)
        assert np.all(g[((n - a0 - b0) % q != 0) | (n < 4)] == 0)
        direct = np.convolve(class_lambda(q, a, x, sieve),
                             class_lambda(q, b, x, sieve))[: x + 1]
        assert np.max(np.abs(g - direct) / np.maximum(1.0, np.abs(direct))) < 1e-9
        for k in range(max(4, x - 3 * q), x + 1):
            assert g[k] == pytest.approx(goldbach_g(k, q, a, b, sieve),
                                         rel=1e-9, abs=1e-9)
        B = goldbach._block_length(K)
        assert B * goldbach.CONV_BLOCKS >= K and (B == 1 or 4 * B < K)
        assert set(lengths) <= {2 * B} and B & (B - 1) == 0
        assert len(lengths) <= 3 * goldbach.CONV_BLOCKS


def test_per_n_table_for_a_modulus_past_int32(sieve):
    # lattice indices are int64: past 2^31 the one output left is n = a + b
    g = build_class_convolution(2 ** 40, 3, 5, 1000, sieve).values
    assert np.flatnonzero(g).tolist() == [8]
    assert g[8] == pytest.approx(math.log(3) * math.log(5), rel=1e-12)


def test_per_n_build_peak_memory(sieve6):
    # two block-padded spectra (4 P B doubles), then the product's spectra
    # and the overlap-added g, then values and g (one zero-padded transform
    # of length 2^20 held 18.7 MiB at (3, 1, 2); this build holds 14.1)
    x = 10 ** 6
    for q, a, b in [(3, 1, 2), (1, 1, 1)]:
        K = (x - a % q - b % q) // q + 1
        B = goldbach._block_length(K)
        P = -(-K // B)
        gc.collect()
        tracemalloc.start()
        try:
            build_class_convolution(q, a, b, x, sieve6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # plus one block, and the class entries: a position, Lambda, a
        # lattice index and a residue, 24 bytes per prime power at most
        entries = 24 * len(sieve6.prime_powers(x))
        assert peak < 8 * max(4 * P * B, x + 1 + (P + 1) * B) + 8 * B + entries, q


def test_s_symmetry(sieve):
    # S(x; q, a, b) = S(x; q, b, a)
    for q, a, b in [(5, 2, 3), (8, 3, 5), (3, 1, 2)]:
        assert s_grid(4000, q, a, b, sieve) == pytest.approx(
            s_grid(4000, q, b, a, sieve), rel=1e-12)


def test_s_grid_matches_convolution(sieve):
    for q, a, b in [(1, 1, 1), (3, 1, 2), (5, 2, 3)]:
        running = np.cumsum(build_class_convolution(q, a, b, 10 ** 4, sieve).values)
        for x in [10, 100, 999, 10 ** 4]:
            assert s_grid(x, q, a, b, sieve) == pytest.approx(
                running[x], rel=1e-9, abs=1e-9
            )


def test_s_brute_small(sieve):
    # S(20) by direct double loop
    brute = sum(brute_g(n, 1, 1, 1, sieve) for n in range(4, 21))
    conv = build_class_convolution(1, 1, 1, 20, sieve)
    assert np.cumsum(conv.values)[20] == pytest.approx(brute, rel=1e-10)
    assert s_grid(20, 1, 1, 1, sieve) == pytest.approx(brute, rel=1e-10)


def test_class_decomposition_covers_total(sieve):
    # sum over coprime pairs (a,b) misses only gcd>1 boundary terms
    x, q = 10 ** 4, 6
    total = s_grid(x, 1, 1, 1, sieve)
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    parts = sum(
        s_grid(x, q, a, b, sieve)
        for a in units
        for b in units
    )
    gap = total - parts
    assert 0 <= gap <= math.log(q * x) ** 2 * x


def test_s_chi_principal_mod1(sieve):
    chi0 = build_group(1)[0]
    x = 3000
    # the FFT table's running sum: s_grid shares s_chi's kernel
    ref = np.cumsum(build_class_convolution(1, 1, 1, x, sieve).values)[x]
    val = s_chi(x, chi0, chi0, sieve)
    assert val.imag == pytest.approx(0, abs=1e-9)
    assert val.real == pytest.approx(ref, rel=1e-10)


def test_s_chi_orthogonality_reconstruction(sieve):
    # phi(q)^-2 sum_{chi1,chi2} conj(chi1(a)) conj(chi2(b)) S(x;chi1,chi2)
    # = S(x; q, a, b)
    q, x = 3, 1000
    chars = build_group(q)
    phi = euler_phi(q)
    svals = {
        (c1.label, c2.label): s_chi(x, c1, c2, sieve)
        for c1 in chars
        for c2 in chars
    }
    for a in [1, 2]:
        for b in [1, 2]:
            total = 0j
            for c1 in chars:
                for c2 in chars:
                    w = (
                        complex(char_value(c1, a)).conjugate()
                        * complex(char_value(c2, b)).conjugate()
                    )
                    total += w * svals[(c1.label, c2.label)]
            total /= phi * phi
            ref = np.cumsum(build_class_convolution(q, a, b, x, sieve).values)[x]
            assert total.imag == pytest.approx(0, abs=1e-8)
            assert total.real == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_s_chi_triangle_bound(sieve):
    x = 2000
    psi2 = sieve.psi(x) ** 2
    for chi1 in build_group(5):
        for chi2 in build_group(5):
            assert abs(s_chi(x, chi1, chi2, sieve)) <= psi2


def test_s_chi_modulus_mismatch(sieve):
    with pytest.raises(ValueError):
        s_chi(100, build_group(3)[0], build_group(5)[0], sieve)


def test_twisted_entries_values(sieve):
    chi = [c for c in build_group(4) if not c.is_principal][0]
    pos, vals = twisted_entries(chi, 20, sieve)
    v = dict(zip(pos.tolist(), vals.tolist()))
    # chi(n) = 0 drops the powers of 2 (gcd(2,4) > 1)
    assert sorted(v) == [3, 5, 7, 9, 11, 13, 17, 19]
    assert v[3] == pytest.approx(-math.log(3))
    assert v[5] == pytest.approx(math.log(5))
    assert v[7] == pytest.approx(-math.log(7))
    assert v[9] == pytest.approx(math.log(3))


def test_restricted_sum_partition(sieve):
    x = 5000
    total = np.cumsum(build_class_convolution(1, 1, 1, x, sieve).values)[x]
    for q in [1, 2, 3, 7]:
        parts = sum(restricted_sum(x, q, c, sieve) for c in range(1, q + 1))
        assert parts == pytest.approx(total, rel=1e-12)


def test_restricted_sum_odd_class_small(sieve):
    # odd n needs a power-of-two summand; brute force confirms smallness
    x = 10 ** 4
    odd_total = restricted_sum(x, 2, 1, sieve)
    # bound: 2 * sum_{2^k <= x} log 2 * psi(x) is generous
    assert odd_total <= 2 * math.log(2) * math.log2(x) * sieve.psi(x)
    assert odd_total > 0


def test_leading_behavior_band():
    # S(x; q, a, b) * 2 phi(q)^2 / x^2 in [0.8, 1.2] at x = 1e6
    sieve6 = build_sieve(10 ** 6)
    x = 10 ** 6
    for q, a, b in [(1, 1, 1), (2, 1, 1), (3, 1, 2), (4, 1, 3), (5, 2, 3)]:
        s = s_grid(x, q, a, b, sieve6)
        ratio = s * 2 * euler_phi(q) ** 2 / x ** 2
        assert 0.8 <= ratio <= 1.2, (q, a, b, ratio)


@pytest.fixture(scope="module")
def sieve6():
    return build_sieve(10 ** 6)


@pytest.fixture(scope="module")
def plain_g(sieve):
    return [goldbach_g(n, 1, 1, 1, sieve) for n in range(2001)]


# (q, a, b) for S(x; q, a, b), or (q, None, c) for the Thm 1.4 sum over
# n = c (mod q); (4, 2, 2) and (6, 3, 3) are non-unit classes
ENGINE_CASES = [(3, 1, 2), (4, 1, 3), (5, 2, 3), (4, 2, 2), (6, 3, 3),
                *[(4, None, c) for c in range(1, 5)]]


@pytest.mark.parametrize("q, a, b", ENGINE_CASES)
def test_engine_matches_fft_and_brute_force(q, a, b, sieve, sieve6, plain_g, caplog):
    # the prefix-sum engine against two independent routes: the FFT
    # per-n tables on a 25-point grid to 1e6, and goldbach_g summed by
    # hand for small x, including x < 4 and x on an integer boundary
    caplog.set_level(logging.ERROR)  # non-unit classes log gcd warnings
    if a is None:
        c = b
        pairs = [(r, c - r) for r in range(1, q + 1)]
        engine = lambda xs, sv: restricted_sum(xs, q, c, sv)
        g = [v if n % q == c % q else 0.0 for n, v in enumerate(plain_g)]
    else:
        pairs = [(a, b)]
        engine = lambda xs, sv: s_grid(xs, q, a, b, sv)
        g = [goldbach_g(n, q, a, b, sieve) for n in range(2001)]
    xs = geometric_grid(1e3, 1e6, 25)
    table = sum(np.cumsum(build_class_convolution(q, r, t, 10 ** 6, sieve6).values)
                for r, t in pairs)
    ref = table[floor_x(xs)]
    assert np.max(np.abs(engine(xs, sieve6) - ref) / ref) <= 1e-12
    small = [3, 4, 10, 999, 1000, 2000]
    brute = [math.fsum(g[: x + 1]) for x in small]
    got = engine(np.array(small, dtype=np.float64), sieve)
    for x, e, want in zip(small, got, brute):
        assert e == pytest.approx(want, rel=1e-12, abs=1e-12), x


def test_floor_rule_keeps_integer_endpoints(sieve):
    # exp(log(1000)) is 999.9999999999998: the sum must still include n = 1000
    x = math.exp(math.log(1000.0))
    assert x < 1000
    assert int(floor_x(x)) == 1000
    assert s_grid(x, 1, 1, 1, sieve) == s_grid(1000, 1, 1, 1, sieve)
    assert s_grid(x, 1, 1, 1, sieve) > s_grid(999, 1, 1, 1, sieve)
    running = np.cumsum(build_class_convolution(1, 1, 1, 2000, sieve).values)
    assert running[1000] == pytest.approx(s_grid(1000, 1, 1, 1, sieve), rel=1e-12)


def test_engine_grid_beyond_sieve(sieve):
    from gzeros.errors import CapacityError

    with pytest.raises(CapacityError):
        s_grid([10.0, sieve.limit + 1.0], 3, 1, 2, sieve)
    with pytest.raises(CapacityError):
        restricted_sum(sieve.limit + 1, 4, 1, sieve)


@pytest.mark.parametrize("q", [0, -3])
def test_entry_points_reject_modulus_below_one(sieve, q):
    # a modulus below 1 must raise, not sum over no class and return 0.0
    with pytest.raises(ValueError):
        restricted_sum(100.0, q, 1, sieve)
    with pytest.raises(ValueError):
        s_grid(100.0, q, 1, 1, sieve)
    with pytest.raises(ValueError):
        goldbach_g(100, q, 1, 1, sieve)
    with pytest.raises(ValueError):
        build_class_convolution(q, 1, 1, 100, sieve)


@pytest.fixture(scope="module")
def sieve2000():
    return build_sieve(2000)


@given(q=st.integers(1, 12),
       xs=st.lists(st.floats(0, 2000), min_size=1, max_size=4))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_engine_property_against_all_pairs(q, xs, sieve2000):
    # s_grid, restricted_sum and s_chi for every class and character pair
    # mod q against brute force over the matrix of all prime-power pairs
    # (l, m) with l + m <= x, summed by class with np.bincount; psi_chi,
    # selberg_integral and build_grid's s_vals for every character against
    # the dense reference: psi exactly (fsum), the others bit for bit
    logging.disable(logging.WARNING)  # non-unit classes log gcd warnings
    try:
        pos, lam = sieve2000.positions, sieve2000.lam(slice(None))
        chars = build_group(q)
        twisted = {c.label: np.array([complex(char_value(c, n)) for n in pos.tolist()])
                   * lam for c in chars}
        pair_class = (pos % q)[:, None] * q + (pos % q)[None, :]
        arr = np.array(xs)
        inside = [pos[:, None] + pos[None, :] <= n for n in floor_x(arr).tolist()]
        by_class = [np.bincount(pair_class[m], minlength=q * q,
                                weights=np.outer(lam, lam)[m]).reshape(q, q)
                    for m in inside]

        def close(want):
            return pytest.approx(np.array(want), rel=1e-12, abs=1e-12)

        for a in range(1, q + 1):
            for b in range(1, q + 1):
                want = [t[a % q, b % q] for t in by_class]
                assert s_grid(arr, q, a, b, sieve2000) == close(want)
        r = np.arange(q)
        for c in range(1, q + 1):
            want = [t[r, (c - r) % q].sum() for t in by_class]
            assert restricted_sum(arr, q, c, sieve2000) == close(want)
        for c1 in chars:
            for c2 in chars:
                pairs = np.outer(twisted[c1.label], twisted[c2.label])
                want = [pairs[m].sum() for m in inside]
                assert s_chi(arr, c1, c2, sieve2000) == close(want)
        top = int(floor_x(arr.max()))
        sx = max(top // 3, 2)  # the Selberg sum reads n <= 2 sx + h - 1
        h = max(sx // 7, 2)
        grid = build_grid(top, q, sieve2000, 2 * top + 1)
        for chi in chars:
            for u in xs:
                ref = dense_lambda(sieve2000, int(floor_x(u)), chi)
                want = complex(math.fsum(ref.real), math.fsum(ref.imag))
                assert psi_chi(u, chi, sieve2000) == want
            run = np.cumsum(dense_lambda(sieve2000, 2 * sx + h - 1, chi))
            k = np.arange(sx, 2 * sx)
            target = h if chi.is_principal else 0.0
            want = float(np.sum(np.abs(run[k + h] - run[k] - target) ** 2))
            assert selberg_integral(sx, h, chi, sieve2000) == want
            coeff = np.zeros(grid.N, dtype=np.complex128)
            coeff[: top + 1] = dense_lambda(sieve2000, top, chi)
            want = np.fft.ifft(coeff) * grid.N
            assert grid.s_vals[chi.label].tobytes() == want.tobytes()
    finally:
        logging.disable(logging.NOTSET)


def _dense_pair_sums(u, v, ns):
    # the dense engine the sparse kernel replaced: u, v and V = cumsum(v)
    # are length-(max(ns) + 1) arrays
    V = np.cumsum(v)
    l = np.flatnonzero(u)
    w = u[l]
    out = np.zeros(len(ns), dtype=np.result_type(u, v))
    for i, n in enumerate(ns):
        k = int(np.searchsorted(l, n))
        out[i] = np.sum(w[:k] * V[n - l[:k]])
    return out


def _dense_class(q, a, x, sieve):
    lam = dense_lambda(sieve, x)
    v = np.zeros(x + 1)
    lo = a % q or q
    v[lo:: q] = lam[lo:: q]
    return v


def test_engine_is_bit_identical_to_the_dense_engine(sieve6):
    xs = geometric_grid(1e3, 1e6, 25)
    ns = floor_x(xs)
    top = int(ns.max())
    for q, a, b in [(1, 1, 1), (3, 1, 2), (4, 3, 3), (5, 2, 4)]:
        ref = _dense_pair_sums(_dense_class(q, a, top, sieve6),
                               _dense_class(q, b, top, sieve6), ns)
        assert np.array_equal(s_grid(xs, q, a, b, sieve6), ref), (q, a, b)
    for c in range(1, 5):
        ref = np.zeros(len(ns))
        for a in range(1, 5):
            ref += _dense_pair_sums(_dense_class(4, a, top, sieve6),
                                    _dense_class(4, c - a, top, sieve6), ns)
        assert np.array_equal(restricted_sum(xs, 4, c, sieve6), ref), c
    chars = build_group(5)
    for c1, c2 in [(chars[0], chars[0]), (chars[1], chars[2]), (chars[3], chars[1])]:
        ref = _dense_pair_sums(dense_lambda(sieve6, top, c1),
                               dense_lambda(sieve6, top, c2), ns)
        got = s_chi(xs, c1, c2, sieve6)
        # bit for bit, the sign of a zero included
        assert got.tobytes() == ref.tobytes(), (c1.label, c2.label)


def test_s_grid_peak_memory_is_below_one_dense_array(sieve6):
    # the sparse engine reads only the prime powers: at x = 1e6 its peak
    # stays below one float64 array of length x + 1
    tracemalloc.start()
    try:
        s_grid(1e6, 3, 1, 2, sieve6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (10 ** 6 + 1)


def test_psi_peak_memory_is_below_one_dense_array(sieve6):
    # psi_chi and SieveTable.psi read only the prime powers too
    chi = build_group(3)[1]
    for psi in (lambda: psi_chi(1e6, chi, sieve6), lambda: sieve6.psi(1e6)):
        tracemalloc.start()
        try:
            psi()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (10 ** 6 + 1)


def test_convolution_cap_refuses_before_allocating(sieve):
    # x past CONV_X_CAP is refused by that cap, before the sieve limit is
    # read and before any array is built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="per-n convolution cap"):
            build_class_convolution(3, 1, 2, CONV_X_CAP + 1, sieve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5
    assert CONV_X_CAP == 10 ** 7


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_tree_sum_is_numpy_sum_bit_for_bit(dtype, monkeypatch):
    # each grid point's pair sum is added a leaf at a time and the leaves
    # joined where np.sum's pairwise split joins them: this pins that split,
    # and with it every S(x) bit, to the installed numpy.  With C = [1] and
    # no m, every term is w itself; terms spread over 16 decades make the
    # sum depend on its order (the sequential sum differs below).
    rng = np.random.default_rng(24)
    fixed = [1, 127, 128, 129, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 16 + 7]
    drawn = rng.integers(2 ** 16, 3 * 10 ** 6, 3).tolist()
    cplx = dtype is np.complex128
    order_matters = 0
    for leaf, lengths in [(128, fixed + drawn[:1]), (goldbach.PAIR_LEAF, fixed + drawn)]:
        monkeypatch.setattr(goldbach, "PAIR_LEAF", leaf)
        for k in lengths:
            w = rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)
            if cplx:
                w = w + 1j * rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)
            got = goldbach._tree_sum(np.arange(1, k + 1), w, np.zeros(0, np.int64),
                                     np.ones(1, dtype), k + 1, 0, k, cplx)
            assert got.tobytes() == np.sum(w).tobytes(), (leaf, k)
            order_matters += np.cumsum(w)[-1] != np.sum(w)
    assert order_matters > 0


def test_s_grid_peak_memory_holds_leaves_not_classes():
    # a 25-point grid to 8e6, q = 3: four class-length temporaries per grid
    # point and an int64 pos % q peaked at 14.4 MiB; leaf-length ones, one
    # byte per residue and l's positions taken into its own index array,
    # 9.3 MiB
    sieve8 = build_sieve(8 * 10 ** 6)
    xs = geometric_grid(1e3, 8e6, 25)
    tracemalloc.start()
    try:
        s_grid(xs, 3, 1, 2, sieve8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20


def test_sieve_and_s_grid_peak_memory_with_int32_positions():
    # build_sieve(8e6) and a 25-point s_grid (q = 3) under one trace: int64
    # positions and class copies of l and Lambda(l) peaked at 17.5 MiB;
    # int32 positions, and class a read through int32 sieve indices a
    # block at a time, 12.2 MiB; with Lambda computed where it is read
    # rather than stored beside the positions, 8.6 MiB
    xs = geometric_grid(1e3, 8e6, 25)
    tracemalloc.start()
    try:
        s_grid(xs, 3, 1, 2, build_sieve(8 * 10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.8 * 2 ** 20


def test_s_grid_at_q1_reads_the_sieve_in_place():
    # at q = 1 both classes are the whole sieve: only the running sum C is
    # new, so q = 1 peaks no higher than q = 3 (17.0 MiB against 9.3 MiB
    # when q = 1 took a residue pass and copied pos and Lambda)
    sieve8 = build_sieve(8 * 10 ** 6)
    xs = geometric_grid(1e3, 8e6, 25)
    peaks = {}
    for q, b in [(1, 1), (3, 2)]:
        tracemalloc.start()
        try:
            s_grid(xs, q, 1, b, sieve8)
            peaks[q] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[3]


def _python_pair_sums(l, w, m, v, ns):
    # sum_{l + m <= n} w(l) v(m) with Python ints and exact float sums
    return [math.fsum(wi * vj for li, wi in zip(l, w) for mj, vj in zip(m, v)
                      if li + mj <= n) for n in ns]


def test_pair_sums_near_the_int32_limit():
    # int32 positions whose sums reach 2^31 - 1: every key n - l stays an
    # exact int32, with and without the index-read class a; integer
    # weights make each sum exact, so it must equal the reference
    top = 2 ** 31 - 1
    l = np.array([1, 2, 3, 5, 7, 2 ** 30, top - 9, top - 3, top - 1], np.int32)
    m = np.array([2, 3, 4, top - 8, top - 5, top - 2], np.int32)
    rng = np.random.default_rng(26)
    w = rng.integers(1, 100, len(l)).astype(np.float64)
    v = rng.integers(1, 100, len(m)).astype(np.float64)
    ns = np.array([0, 5, top - 7, top - 3, top - 2, top - 1, top], np.int64)
    C = np.concatenate(([0.0], np.cumsum(v)))
    want = _python_pair_sums(l.tolist(), w.tolist(), m.tolist(), v.tolist(),
                             ns.tolist())
    assert goldbach._pair_sums(l, w, m, C, ns).tolist() == want
    idx = np.array([0, 3, 5, 6, 8], np.int32)
    want = _python_pair_sums(l[idx].tolist(), w[idx].tolist(), m.tolist(),
                             v.tolist(), ns.tolist())
    assert goldbach._pair_sums(l, w, m, C, ns, idx).tolist() == want


def test_restricted_sum_frees_its_classes_without_the_collector(sieve6):
    # a recursive closure over the class arrays would keep every class pair
    # alive in a reference cycle until the cyclic collector ran
    xs = geometric_grid(1e3, 1e6, 25)
    gc.disable()
    try:
        restricted_sum(xs, 4, 1, sieve6)
        tracemalloc.start()
        for _ in range(3):
            restricted_sum(xs, 4, 1, sieve6)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 2 ** 16
