import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gzeros.characters import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    build_group,
    char_sum_brute,
    char_sum_brute_exact,
    char_sum_closed_form,
    char_value,
    character_from_label,
    conjugate,
    format_label,
    gauss_sum,
    group,
    induce_primitive,
    is_primitive,
    pair_weight_nonzero,
    parse_label,
    root_counts_equal,
    root_number,
    root_sum_is_zero,
    _closed_form_coefficients,
)
from gzeros.errors import CapacityError
from gzeros.numtheory import euler_phi, factorize, moebius


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
    # the vectorized table equals complex(char_value) bit for bit, also for
    # a modulus past the per-modulus table's cap (phi(q) q > 2^22 at 2053)
    from gzeros.characters import _char_table, char_values_table

    with pytest.raises(CapacityError):
        _char_table(2053)
    chars = [chi for q in range(1, 61) for chi in build_group(q)]
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


def test_parity():
    # the non-trivial character mod 4 is odd
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert chi4.parity == 1
    # the quadratic character mod 5 is even
    chi5 = [c for c in build_group(5) if c.order == 2][0]
    assert chi5.parity == 0
    for q in [3, 5, 7, 8, 12]:
        for chi in build_group(q):
            v = char_value(chi, q - 1)  # chi(-1)
            assert v == (ONE if chi.parity == 0 else MINUS_ONE)


def test_labels_roundtrip():
    for q in [1, 5, 8, 60]:
        for chi in build_group(q):
            q2, e2 = parse_label(chi.label)
            assert (q2, e2) == (chi.q, chi.exponents)
            assert character_from_label(chi.label) == chi
    assert format_label(5, (1,)) == "q=5;e=1"


# ---------------------------------------------------------------------------
# conductor / induction

def test_conductors():
    assert all(c.conductor == 1 for c in build_group(12) if c.is_principal)
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert chi4.conductor == 4
    # brute force: conductor = smallest modulus giving the same values on
    # residues coprime to q
    for q in [8, 9, 12, 15, 16, 24, 45]:
        for chi in build_group(q):
            cond = chi.conductor
            assert q % cond == 0
            # chi factors through mod cond on the units of q
            seen = {}
            for n in range(1, 3 * q):
                if math.gcd(n, q) != 1:
                    continue
                key = n % cond
                v = char_value(chi, n)
                if key in seen:
                    assert seen[key] == v
                else:
                    seen[key] = v
            # and through no smaller divisor of q
            for d in [d for d in range(1, cond) if cond % d == 0]:
                ok = True
                seen = {}
                for n in range(1, 3 * q):
                    if math.gcd(n, q) != 1:
                        continue
                    key = n % d
                    v = char_value(chi, n)
                    if key in seen and seen[key] != v:
                        ok = False
                        break
                    seen[key] = v
                assert not ok


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
    # idempotence
    for q in [8, 12, 45, 40]:
        for chi in build_group(q):
            star = induce_primitive(chi)
            assert induce_primitive(star) == star
            assert star.conductor == chi.conductor
            assert star.order == chi.order
            assert star.parity == chi.parity


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
    from gzeros.characters import TABLE_CAP, _char_table, verify_char_sum_identity

    assert euler_phi(2003) * 2003 <= TABLE_CAP < euler_phi(4099) * 4099
    chi = character_from_label("q=4099;e=1")
    for build in (lambda: char_sum_closed_form(chi, 1),
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

def test_char_sum_examples():
    g3 = build_group(3)
    principal = g3[0]
    assert char_sum_brute(principal, 2) == pytest.approx(1)
    assert char_sum_brute(principal, 3) == pytest.approx(2)
    assert char_sum_closed_form(principal, 3) == pytest.approx(2)
    # q = 4 nontrivial: q* = 4 is not squarefree, mu(4) = 0
    chi4 = [c for c in build_group(4) if not c.is_principal][0]
    assert char_sum_closed_form(chi4, 1) == 0
    assert char_sum_brute(chi4, 1) == pytest.approx(0, abs=1e-12)


def test_char_sum_exact_oracle_small():
    # exhaustive exact equivalence for q <= 40 against the per-a brute
    # force (the acceptance run covers q <= 200 with the batched path);
    # the closed form is the coefficient table char_sum_closed_form reads
    for q in range(1, 41):
        for chi in build_group(q):
            n = chi.order
            coeff, pos = _closed_form_coefficients(chi)
            for c in range(1, q + 1):
                t = int(coeff[c % q])
                zeta = RootOfUnity.make(int(pos[c % q]), n)
                counts = np.zeros(n, dtype=np.int64)
                for v, cnt in char_sum_brute_exact(chi, c).items():
                    assert n % v.m == 0
                    counts[v.k * (n // v.m)] += cnt
                assert root_counts_equal(counts, n, t, zeta), (q, chi.label, c)
                assert char_sum_closed_form(chi, c) == t * complex(zeta)


def _closed_form_reference(chi, c):
    """(coeff, pos) of mu(q*) chi*(c) (phi(q)/phi(q*)) prod_{p | q, p !| q* c}
    (p-2)/(p-1), from induce_primitive and char_value, per character."""
    star = induce_primitive(chi)
    value = char_value(star, c)
    if value == 0:
        return 0, -1
    t = Fraction(moebius(star.q) * euler_phi(chi.q), euler_phi(star.q))
    for p in factorize(chi.q).primes:
        if star.q % p and c % p:
            t *= Fraction(p - 2, p - 1)
    assert t.denominator == 1
    return int(t), value.k * (chi.order // value.m)


def test_character_table_matches_per_character_reference():
    # every row of the per-modulus table against the per-character objects
    # (row index, order, parity, conductor) and the per-character closed
    # form built from induce_primitive + char_value
    from gzeros.characters import _char_table, _row

    for q in range(1, 61):
        tab = _char_table(q)
        for i, chi in enumerate(build_group(q)):
            assert _row(chi) == i
            n, karr = tab.order[i], tab.kn[i]
            assert (n, int(karr[q - 1] > 0), tab.conductor[i]) == (
                chi.order, chi.parity, chi.conductor), chi.label
            for r in range(q):
                v = char_value(chi, r)
                assert karr[r] == (v.k * (n // v.m) if v != 0 else -1)
                coeff, pos = _closed_form_reference(chi, r)
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


def test_pair_weight_predicate():
    # chi(1) + chi(1) = 2 chi(1) never vanishes
    assert pair_weight_nonzero(5, 1, 1)
    # mod 4: chi(1) + chi(3) = 1 - 1 = 0 for the nontrivial character
    assert not pair_weight_nonzero(4, 1, 3)


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
