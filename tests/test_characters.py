import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzeros.characters import (
    _char_table,
    build_group,
    character_from_label,
    character_labels,
    conjugate,
    format_label,
    gauss_sum,
    group,
    induce_primitive,
    is_primitive,
    parse_label,
    root_number,
)
from gzeros.errors import CapacityError
from gzeros.numtheory import euler_phi
from oracles import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    char_sum_brute,
    char_sum_brute_exact,
    char_value,
    closed_form_reference,
    root_counts_equal,
    root_sum_is_zero,
)


# ---------------------------------------------------------------------------
# exact roots of unity

def test_root_of_unity_canonical():
    assert RootOfUnity.make(2, 8) == RootOfUnity(1, 4)
    assert RootOfUnity.make(8, 8) == ONE
    assert RootOfUnity.make(-1, 4) == RootOfUnity(3, 4)
    assert RootOfUnity.make(3, 6) == MINUS_ONE


@given(st.integers(0, 100), st.integers(1, 100), st.integers(0, 100), st.integers(1, 100))
@settings(max_examples=100, deadline=None)
def test_root_of_unity_mul_matches_complex(k1, m1, k2, m2):
    a, b = RootOfUnity.make(k1, m1), RootOfUnity.make(k2, m2)
    prod = a * b
    assert 0 <= prod.k < prod.m and math.gcd(prod.k, prod.m) in (1, prod.m)
    assert complex(prod) == pytest.approx(complex(a) * complex(b), abs=1e-12)


def test_root_of_unity_pow_conj():
    z = RootOfUnity.make(1, 5)
    assert z ** 5 == ONE
    assert z * z.conjugate() == ONE
    assert (z ** 2).conjugate() == RootOfUnity.make(3, 5)


# ---------------------------------------------------------------------------
# group construction

def test_group_q1():
    chars = build_group(1)
    assert len(chars) == 1
    assert chars[0].is_principal
    assert chars[0].conductor == 1
    assert char_value(chars[0], 7) == ONE


def test_group_q5_orders():
    chars = build_group(5)
    assert sorted(c.order for c in chars) == [1, 2, 4, 4]
    assert chars[0].is_principal


def test_group_q8_orders():
    chars = build_group(8)
    assert len(chars) == 4
    assert all(c.order <= 2 for c in chars)


def test_group_sizes_and_uniqueness():
    for q in [1, 2, 3, 4, 6, 9, 12, 16, 24, 40, 72, 100]:
        chars = build_group(q)
        assert len(chars) == euler_phi(q)
        assert len({c.exponents for c in chars}) == len(chars)


def _prime_powers(q):
    """[(p, p^k)] for the p^k exactly dividing q, by trial division."""
    out, p = [], 2
    while q > 1:
        if q % p == 0:
            pk = 1
            while q % p == 0:
                q, pk = q // p, pk * p
            out.append((p, pk))
        p += 1
    return out


def _mult_order(g, n):
    o, v = 1, g % n
    while v != 1:
        v, o = v * g % n, o + 1
    return o


def test_basis_is_pinned():
    # the basis fixes every label, so every zero-cache key: for odd p^k the
    # least g >= 2 of order phi(p^k), for 2^k (-1, 5) cut to (-1) for 4 and
    # to () for 2, and each dlog table inverts the products of the
    # generators' powers (-1 off the units)
    for q in [*range(1, 301), 2003, 4096, 6561, 10007]:
        grp = group(q)
        expect = []
        for p, pk in _prime_powers(q):
            phi = pk - pk // p
            if p == 2:
                expect += [(2, pk, pk - 1, 2), (2, pk, 5, pk // 4)][:pk.bit_length() - 2]
            else:
                g = next(g for g in range(2, pk)
                         if g % p and _mult_order(g, pk) == phi)
                expect.append((p, pk, g, phi))
        assert [(c.prime, c.prime_power, c.generator, c.order)
                for c in grp.components] == expect, q
        for p, pk in _prime_powers(q):
            idx = [i for i, c in enumerate(grp.components) if c.prime == p]
            seen = np.zeros(pk, dtype=bool)
            for e in itertools.product(*(range(grp.orders[i]) for i in idx)):
                n = math.prod(pow(grp.components[i].generator, ei, pk)
                              for i, ei in zip(idx, e)) % pk
                assert [int(grp._dlogs[i][n]) for i in idx] == list(e), (q, n)
                seen[n] = True
            for i in idx:
                assert grp._dlogs[i].dtype == np.int64
                assert np.all(grp._dlogs[i][~seen] == -1)


def test_labels_are_pinned(capsys):
    from gzeros.cli import dispatch

    assert dispatch(["characters", "--q", "24"]) == 0
    assert capsys.readouterr().out == (
        "label,order,conductor,parity,principal\n"
        "q=24;e=0,0,0,1,1,0,1\n"
        "q=24;e=0,0,1,2,3,1,0\n"
        "q=24;e=0,1,0,2,8,0,0\n"
        "q=24;e=0,1,1,2,24,1,0\n"
        "q=24;e=1,0,0,2,4,1,0\n"
        "q=24;e=1,0,1,2,12,0,0\n"
        "q=24;e=1,1,0,2,8,1,0\n"
        "q=24;e=1,1,1,2,24,0,0\n"
    )
    stars = {q: [induce_primitive(c).label for c in build_group(q)]
             for q in (12, 40)}
    assert stars[12] == ["q=1;e=", "q=3;e=1", "q=4;e=1", "q=12;e=1,1"]
    assert stars[40] == [
        "q=1;e=", "q=5;e=1", "q=5;e=2", "q=5;e=3",
        "q=8;e=0,1", "q=40;e=0,1,1", "q=40;e=0,1,2", "q=40;e=0,1,3",
        "q=4;e=1", "q=20;e=1,1", "q=20;e=1,2", "q=20;e=1,3",
        "q=8;e=1,1", "q=40;e=1,1,1", "q=40;e=1,1,2", "q=40;e=1,1,3",
    ]


def test_group_closed_under_multiplication():
    # the pointwise product of two characters mod q is a character mod q
    for q in [5, 8, 12, 36]:
        tables = np.array([[complex(char_value(c, n)) for n in range(q)]
                           for c in build_group(q)])
        keys = {tuple(np.round(t, 9).tolist()) for t in tables}
        for t1 in tables:
            for t2 in tables:
                assert tuple(np.round(t1 * t2, 9).tolist()) in keys


def test_homomorphism_oracle_q5():
    # brute force: the value tables of the 4 characters mod 5 must be
    # exactly the 4 homomorphisms (Z/5)* -> C*
    chars = build_group(5)
    tables = set()
    for c in chars:
        tables.add(tuple(np.round(
            [complex(char_value(c, n)) for n in range(1, 5)], 9
        ).tolist()))
    # generator 2 of (Z/5)*: homs send 2 to each 4th root of unity
    expect = set()
    for w in [1, 1j, -1, -1j]:
        vals = {}
        x, v = 1, 1 + 0j
        for _ in range(4):
            x = x * 2 % 5
            v = v * w
            vals[x] = v
        expect.add(tuple(np.round([vals[n] for n in range(1, 5)], 9).tolist()))
    assert tables == expect


def test_char_value_period_and_multiplicativity():
    for q in [5, 8, 9, 12]:
        for chi in build_group(q):
            for n in range(1, 2 * q):
                v1 = char_value(chi, n)
                v2 = char_value(chi, n + q)
                assert v1 == v2
            for m in range(1, 20):
                for n in range(1, 20):
                    lhs = char_value(chi, m * n)
                    a, b = char_value(chi, m), char_value(chi, n)
                    rhs = a * b if (a != 0 and b != 0) else 0
                    assert lhs == rhs


def test_char_value_zero_off_units():
    chars = build_group(6)
    for chi in chars:
        assert char_value(chi, 6) == 0
        assert char_value(chi, 2) == 0
        assert char_value(chi, 3) == 0


def test_char_values_table_matches_char_value():
    # the vectorized table equals the exact oracle's complex(char_value) bit
    # for bit, for every character mod q <= 100 at every residue (203,085
    # values), and for a modulus past the per-modulus table's cap
    # (phi(q) q > 2^22 at 2053)
    from gzeros.characters import _char_table, char_values_table

    with pytest.raises(CapacityError):
        _char_table(2053)
    chars = [chi for q in range(1, 101) for chi in build_group(q)]
    for chi in chars + [character_from_label("q=2053;e=5")]:
        ref = np.array([complex(char_value(chi, n or chi.q)) for n in range(chi.q)])
        table = char_values_table(chi)
        assert np.array_equal(table.view(np.int64), ref.view(np.int64)), chi.label


def test_char_order4_mod5_at_2():
    chars = [c for c in build_group(5) if c.order == 4]
    for chi in chars:
        v = char_value(chi, 2)
        assert v in (RootOfUnity(1, 4), RootOfUnity(3, 4))
        assert v ** 4 == ONE
        assert v ** 2 == char_value(chi, 4) == MINUS_ONE
    # generator convention: least primitive root mod 5 is 2, so the
    # character with exponent vector (1,) sends 2 to e(1/4)
    lead = character_from_label("q=5;e=1")
    assert char_value(lead, 2) == RootOfUnity(1, 4)


# every modulus to 60, and past it the prime powers 2^k <= 1024 and 3^6,
# 720 = 2^4 3^2 5 and 2310 = 2 3 5 7 11
_FACT_MODULI = sorted({*range(1, 61), *(2 ** k for k in range(1, 11)), 729, 720, 2310})


def test_parity():
    # the non-trivial character mod 4 is odd
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert chi4.parity == 1
    # the quadratic character mod 5 is even
    chi5 = [c for c in build_group(5) if c.order == 2][0]
    assert chi5.parity == 0
    for q in _FACT_MODULI:
        for chi in build_group(q):
            v = char_value(chi, q - 1)  # chi(-1)
            assert v == (ONE if chi.parity == 0 else MINUS_ONE), chi.label


def test_labels_roundtrip():
    for q in [1, 5, 8, 60]:
        for chi in build_group(q):
            q2, e2 = parse_label(chi.label)
            assert (q2, e2) == (chi.q, chi.exponents)
            assert character_from_label(chi.label) == chi
    assert format_label(5, (1,)) == "q=5;e=1"


# ---------------------------------------------------------------------------
# conductor / induction

def _generators(elements, q):
    """A generating set of the subgroup of (Z/q)* with these elements: each
    element, in ascending order, that the ones before it do not reach."""
    span, gens = {1 % q}, []
    for n in sorted(elements):
        if n not in span:
            gens.append(n)
            new, power = set(span), n
            while power not in span:  # span <n> = the cosets span n^j
                new |= {s * power % q for s in span}
                power = power * n % q
            span = new
    assert span == set(elements)  # the elements were a subgroup
    return gens


def test_conductors():
    assert all(c.conductor == 1 for c in build_group(12) if c.is_principal)
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert chi4.conductor == 4
    # from the values alone: chi's order is the lcm of the orders of its
    # values on generators of (Z/q)*, and its conductor the least d | q with
    # chi = 1 on generators of the units = 1 mod d
    for q in _FACT_MODULI:
        units = [n for n in range(q) if math.gcd(n, q) == 1]
        kernels = [(d, _generators([n for n in units if n % d == 1 % d], q))
                   for d in range(1, q + 1) if q % d == 0]
        gens = kernels[0][1]
        for chi in build_group(q):
            order = math.lcm(*(char_value(chi, g).m for g in gens))
            cond = next(d for d, ker in kernels
                        if all(char_value(chi, g) == ONE for g in ker))
            assert (chi.order, chi.conductor, chi.is_principal) == (
                order, cond, order == 1), chi.label


def test_character_facts_digest():
    # (label, order, conductor, parity, is_principal) of every character
    # mod q <= 1200, as gz characters writes them: the labels and facts key
    # every zero-cache file, so their digest is pinned
    digest = hashlib.sha256()
    for q in range(1, 1201):
        digest.update("".join(f"{c.label},{c.order},{c.conductor},{c.parity},"
                              f"{int(c.is_principal)}\n" for c in build_group(q)).encode())
    assert digest.hexdigest() == (
        "77f37acc1eea59e6d3b5961a8a394fd7ec60e0504e616d38355a6275ad14a4b2")


def test_induce_primitive():
    # mod-12 character induced from the mod-3 one
    chars12 = build_group(12)
    from_3 = [c for c in chars12 if c.conductor == 3]
    assert from_3
    for chi in from_3:
        star = induce_primitive(chi)
        assert star.q == 3 and is_primitive(star)
        for n in range(1, 40):
            if math.gcd(n, 12) == 1:
                assert char_value(chi, n) == char_value(star, n)
    # idempotence, and for every q <= 200 chi* agrees with chi on the units
    # mod q: the primitive character that does is unique, so its label, and
    # with it every zero-cache key, is fixed
    from gzeros.characters import char_values_table

    for q in range(1, 201):
        unit = np.gcd(np.arange(q), q) == 1
        for chi in build_group(q):
            star = induce_primitive(chi)
            assert induce_primitive(star) == star
            assert star.conductor == chi.conductor == star.q
            assert star.order == chi.order
            assert star.parity == chi.parity
            assert np.array_equal(char_values_table(star)[np.arange(q) % star.q][unit],
                                  char_values_table(chi)[unit]), chi.label


# ---------------------------------------------------------------------------
# Gauss sums

def test_gauss_sum_q1():
    assert gauss_sum(build_group(1)[0]) == 1


def test_gauss_sum_mod4():
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert gauss_sum(chi4) == pytest.approx(2j, abs=1e-12)
    assert abs(root_number(chi4)) == pytest.approx(1, abs=1e-12)


def test_gauss_sum_magnitude():
    for q in [3, 4, 5, 7, 8, 11, 13]:
        for chi in build_group(q):
            if is_primitive(chi):
                assert abs(gauss_sum(chi)) == pytest.approx(
                    math.sqrt(q), rel=1e-10
                )


def test_gauss_sum_rejects_imprimitive():
    impr = [c for c in build_group(12) if c.conductor < 12]
    with pytest.raises(ValueError):
        gauss_sum(impr[0])


# ---------------------------------------------------------------------------
# orthogonality (exact)

def test_orthogonality_exact_small_q():
    for q in range(1, 61):
        chars = build_group(q)
        grp = group(q)
        L = grp.exponent
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            counts = np.zeros(L, dtype=np.int64)
            for chi in chars:
                v = char_value(chi, a)
                counts[v.k * (L // v.m)] += 1
            if a % q == 1 % q:
                assert root_counts_equal(counts, L, euler_phi(q), ONE)
            else:
                assert root_sum_is_zero(counts, L)


def test_character_table_envelope():
    # phi(q) q <= 2^22: q = 2003 is inside; mod 4099 it is 16.8M entries per
    # array, which would still fit in memory, so only the check stops it
    from gzeros.characters import TABLE_CAP, verify_char_sum_identity
    from gzeros.explicit import thm14_rhs

    assert euler_phi(2003) * 2003 <= TABLE_CAP < euler_phi(4099) * 4099
    for build in (lambda: thm14_rhs(1e3, 4099, 1, {}, 20.0),
                  lambda: _char_table(4099),
                  lambda: verify_char_sum_identity(4099)):
        with pytest.raises(CapacityError):
            build()


def test_orthogonality_float_to_q500():
    # beyond the exact sweep: complex embedding, < 1e-10, every unit a
    from gzeros.characters import _char_table

    for q in range(61, 501, 7):
        tab = _char_table(q)
        phi = euler_phi(q)
        vals = np.where(
            tab.kn >= 0, np.exp(2j * np.pi * tab.kn / tab.order[:, None]), 0
        )
        total = vals.sum(axis=0)
        r = np.arange(q)
        expect = np.where(r % q == 1 % q, phi, 0)
        expect = expect * (np.gcd(r, q) == 1)
        assert np.max(np.abs(total - expect)) < 1e-10


# ---------------------------------------------------------------------------
# the complete character sum

def _table_closed_form(chi, c):
    """coeff e(pos/order) at chi's row and the column of c in the table."""
    tab = _char_table(chi.q)
    i = build_group(chi.q).index(chi)
    t, pos = int(tab.coeff[i, c % chi.q]), int(tab.pos[i, c % chi.q])
    return t * complex(RootOfUnity.make(pos, chi.order)) if t else 0j


def test_char_sum_examples():
    g3 = build_group(3)
    principal = g3[0]
    assert char_sum_brute(principal, 2) == pytest.approx(1)
    assert char_sum_brute(principal, 3) == pytest.approx(2)
    assert _table_closed_form(principal, 3) == pytest.approx(2)
    # q = 4 nontrivial: q* = 4 is not squarefree, mu(4) = 0
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert _table_closed_form(chi4, 1) == 0
    assert char_sum_brute(chi4, 1) == pytest.approx(0, abs=1e-12)


def test_char_sum_exact_oracle_small():
    # exhaustive exact equivalence for q <= 40 against the per-a brute
    # force (the acceptance run covers q <= 200 with the batched path);
    # the closed form is the table row, and Thm 1.4's weight of chi is its
    # conjugate in floating point, bit for bit
    from gzeros.explicit import _formula

    for q in range(1, 41):
        tab = _char_table(q)
        every_set = dict.fromkeys(character_labels(q))
        weights = {c: _formula("thm14", q, (c,), every_set)[0]
                   for c in range(1, q + 1)}
        for i, chi in enumerate(build_group(q)):
            n = chi.order
            coeff, pos = tab.coeff[i], tab.pos[i]
            for c in range(1, q + 1):
                t = int(coeff[c % q])
                zeta = RootOfUnity.make(int(pos[c % q]), n)
                counts = np.zeros(n, dtype=np.int64)
                for v, cnt in char_sum_brute_exact(chi, c).items():
                    assert n % v.m == 0
                    counts[v.k * (n // v.m)] += cnt
                assert root_counts_equal(counts, n, t, zeta), (q, chi.label, c)
                assert weights[c][i] == (chi.label,
                                         (t * complex(zeta)).conjugate())


def test_character_table_matches_per_character_reference():
    # every row of the per-modulus table against the per-character objects
    # (label, order, parity, conductor: one rule, which test_conductors
    # and test_parity check against the values), its K against char_value,
    # and the per-character closed form built from induce_primitive +
    # char_value
    for q in range(1, 61):
        tab = _char_table(q)
        labels = character_labels(q)
        for i, chi in enumerate(build_group(q)):
            assert labels[i] == chi.label
            n, karr = tab.order[i], tab.kn[i]
            assert (n, int(karr[q - 1] > 0), tab.conductor[i]) == (
                chi.order, chi.parity, chi.conductor), chi.label
            for r in range(q):
                v = char_value(chi, r)
                assert karr[r] == (v.k * (n // v.m) if v != 0 else -1)
                coeff, pos = closed_form_reference(chi, r)
                assert tab.coeff[i, r] == coeff, (chi.label, r)
                if coeff:
                    assert tab.pos[i, r] == pos, (chi.label, r)


def test_char_sum_oracle_fails_on_a_planted_fault(monkeypatch):
    # the batched oracle must still be able to say no: one closed-form
    # entry off by one, or every c = 0 sieve count off by one
    from gzeros import characters

    real = characters._char_table.__wrapped__

    def planted(q):
        tab = real(q)
        coeff = tab.coeff.copy()
        coeff[-1, q // 2] += 1
        return dataclasses.replace(tab, coeff=coeff)

    with monkeypatch.context() as m:
        m.setattr(characters._char_table, "__wrapped__", planted)
        assert [q for q in range(1, 40) if characters.verify_char_sum_identity(q)] == []
    assert all(characters.verify_char_sum_identity(q) for q in range(1, 40))

    real_count = characters.unit_pair_count
    monkeypatch.setattr(characters, "unit_pair_count",
                        lambda q, c: real_count(q, c) + (np.asarray(c) == 0))
    assert [q for q in range(1, 40) if characters.verify_char_sum_identity(q)] == []


def _embedding_prime(q, tab):
    """The least prime p = 1 (mod L) above phi(q) + max|coeff|, L the group
    exponent: the field verify_char_sum_identity works in."""
    from gzeros.numtheory import is_prime

    L = group(q).exponent
    p = euler_phi(q) + int(np.abs(tab.coeff).max()) + 1
    while (p - 1) % L or not is_prime(p):
        p += 1
    return p


def _row_identity_holds(tab, q, i):
    """The cyclotomic route for row i of a table: at every class c, the
    count of each e(k/n) over the a with (a(c-a), q) = 1, minus coeff
    e(pos/n), is zero in Z[zeta_n] (root_counts_equal), n = order."""
    n = int(tab.order[i])
    unit = np.gcd(np.arange(q), q) == 1
    units = np.flatnonzero(unit)
    for c in range(q):
        k = tab.kn[i, units[unit[(c - units) % q]]]
        t = int(tab.coeff[i, c])
        zeta = RootOfUnity.make(int(tab.pos[i, c]), n) if t else ONE
        if not root_counts_equal(np.bincount(k, minlength=n), n, t, zeta):
            return False
    return True


def _plant(monkeypatch, fault):
    """verify_char_sum_identity reads fault(q, table) in place of the table."""
    from gzeros import characters

    real = characters._char_table.__wrapped__
    monkeypatch.setattr(characters._char_table, "__wrapped__",
                        lambda q: fault(q, real(q)))


def _with(tab, **entries):
    """tab with copies of the named arrays, each with arr[index] = value
    for its (index, value)."""
    out = {}
    for name, (index, value) in entries.items():
        out[name] = getattr(tab, name).copy()
        out[name][index] = value
    return dataclasses.replace(tab, **out)


def _conjugate_row_copied(q, tab):
    # the row of chi^-1 becomes a copy of chi's: each row still satisfies a
    # true identity, but not as the Galois conjugate of chi's row
    i = int(np.argmax(tab.order > 2))
    e = build_group(q)[i].exponents
    j = int(np.ravel_multi_index([-v % m for v, m in zip(e, group(q).orders)],
                                 group(q).orders))
    return _with(tab, kn=(j, tab.kn[i]), pos=(j, tab.pos[i]), coeff=(j, tab.coeff[i]))


def _coeff_shifted_by_p(q, tab):
    # invisible mod p: caught only because p is read from the table
    c = int(np.flatnonzero(tab.coeff[0])[0])
    p = _embedding_prime(q, tab)
    return _with(tab, coeff=((0, c), tab.coeff[0, c] + p))


def _k_past_the_exponent(q, tab):
    # chi0(1) = e(1) = omega^L: the same value, outside [0, L)
    return _with(tab, kn=((0, 1 % q), 1))


def _units_mask_off(q, tab):
    # every chi(0) = 1: no sum reads it, but 0 is not a unit mod q > 1
    return _with(tab, kn=((slice(None), 0), 0))


@pytest.mark.parametrize("fault, moduli", [
    (_conjugate_row_copied, [5, 7, 9, 13, 15, 16, 21, 35, 39]),
    (_coeff_shifted_by_p, range(1, 40)),
    (_k_past_the_exponent, range(1, 40)),
    (_units_mask_off, range(2, 40)),
], ids=["conjugate-row-copied", "coeff-shifted-by-p", "k-past-the-exponent",
        "units-mask-off"])
def test_prime_field_oracle_fails_on_planted_faults(monkeypatch, fault, moduli):
    from gzeros import characters

    _plant(monkeypatch, fault)
    assert [q for q in moduli if characters.verify_char_sum_identity(q)] == []


def test_conjugate_row_copy_keeps_every_row_a_true_identity():
    # so only the Galois-closure pass can see that fault
    from gzeros.characters import _char_table

    for q in (5, 7, 13):
        tab = _conjugate_row_copied(q, _char_table(q))
        assert all(_row_identity_holds(tab, q, i) for i in range(len(tab.order)))


def test_prime_field_oracle_raises_past_exact_float64_sums(monkeypatch):
    # a coefficient of 2^52 needs p > 2^52: phi(q) p would pass 2^53
    from gzeros import characters

    _plant(monkeypatch, lambda q, tab: _with(tab, coeff=((0, 1), 2 ** 52)))
    with pytest.raises(CapacityError):
        characters.verify_char_sum_identity(5)


# name -> (array, column kind, new value of the entry at row i, column r):
# the column is the last unit, or the middle column where row i's coeff is
# nonzero, or the first where it is zero
_SINGLE_ENTRY_FAULTS = {
    "kn+1": ("kn", "unit", lambda tab, i, r: (tab.kn[i, r] + 1) % tab.order[i]),
    "pos+1": ("pos", "nonzero", lambda tab, i, r: (tab.pos[i, r] + 1) % tab.order[i]),
    "coeff+1": ("coeff", "nonzero", lambda tab, i, r: tab.coeff[i, r] + 1),
    "coeff-negated": ("coeff", "nonzero", lambda tab, i, r: -tab.coeff[i, r]),
    "coeff-from-0": ("coeff", "zero", lambda tab, i, r: 1),
    "pos-under-coeff-0": ("pos", "zero", lambda tab, i, r: 0),
}


def test_prime_field_oracle_agrees_with_the_cyclotomic_route(monkeypatch):
    # every single-entry fault of the catalogue, at up to three rows of each
    # table for q <= 40: the same verdict from both routes
    from gzeros import characters

    real = characters._char_table.__wrapped__
    verdicts = set()
    for q in range(1, 41):
        tab = real(q)
        phi = len(tab.order)
        assert all(_row_identity_holds(tab, q, i) for i in range(phi))
        for i in sorted({0, phi // 2, phi - 1}):
            nonzero = np.flatnonzero(tab.coeff[i])
            columns = {"unit": np.flatnonzero(tab.kn[i] >= 0)[-1:],
                       "nonzero": nonzero[len(nonzero) // 2:][:1],
                       "zero": np.flatnonzero(tab.coeff[i] == 0)[:1]}
            for name, (field, kind, value) in _SINGLE_ENTRY_FAULTS.items():
                for r in columns[kind].tolist():
                    faulty = _with(tab, **{field: ((i, r), value(tab, i, r))})
                    monkeypatch.setattr(characters._char_table, "__wrapped__",
                                        lambda _, t=faulty: t)
                    fast = characters.verify_char_sum_identity(q)
                    assert fast == _row_identity_holds(faulty, q, i), (q, i, name)
                    verdicts.add((name, fast))
    # both verdicts occur: a value fault is caught, a pos under coeff 0 is not
    assert ("pos-under-coeff-0", True) in verdicts and ("coeff+1", False) in verdicts


def test_sieve_identity_small():
    # #{a : (a(c-a), q) = 1} = phi(q)^2 S_q(c) exactly
    from gzeros.singular import singular_series

    for q in list(range(1, 40)) + [60, 90, 120]:
        phi = euler_phi(q)
        for c in range(1, q + 1):
            count = sum(
                1
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1 and math.gcd((c - a) % q if q > 1 else 1, q) == 1
            )
            expect = Fraction(phi * phi) * singular_series(q, c)
            assert expect.denominator == 1
            assert count == expect


def test_conjugate_character():
    for q in [5, 7]:
        for chi in build_group(q):
            cc = conjugate(chi)
            for n in range(1, q):
                v, w = char_value(chi, n), char_value(cc, n)
                if v == 0:
                    assert w == 0
                else:
                    assert w == v.conjugate()


def test_character_tables_import_no_numpy_ma():
    # a plain np.unique imports numpy.ma (13-15 ms per process on numpy
    # 2.4); the character table and the exact identity take their distinct
    # values with sorted(set(...)) instead
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gzeros

    env = dict(os.environ, PYTHONPATH=str(Path(gzeros.__file__).parents[1]))
    code = ("import sys; from gzeros.characters import _char_table, "
            "verify_char_sum_identity; _char_table(12); "
            "assert verify_char_sum_identity(12); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

