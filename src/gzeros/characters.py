"""Dirichlet characters mod q as exact objects.

A character is stored as an exponent vector over a fixed generator basis
of (Z/q)*, chosen by one rule on each CRT factor p^k of q: the least
primitive root of p^k for odd p, and (-1, 5) of orders (2, 2^{k-2}) for
2^k, cut to (-1) for 4 and to nothing for 2.  One walk over the products
of the generators' powers fills every discrete-log table.  The basis is a
cache-key contract: it fixes every label, and so every zero-cache file.

Values chi(n) are exact roots of unity e(k/m); they stay exact through
multiplication and conjugation and are embedded into complex doubles
only at evaluation boundaries.  Character labels "q=<q>;e=<v1,v2,...>"
are the exponent vectors in this fixed basis, so they are deterministic
across runs.

The characters of one modulus also come as one table, in build_group
order: the exponent matrix K (phi(q) x q), one integer product of the
exponent vectors with the scaled discrete-log tables mod the group
exponent, with every character's order and conductor, and the
closed form of the complete character sum over a with (a(c-a), q) = 1
for every class c.  verify_char_sum_identity checks that closed form
against a direct count with zero tolerance: both sides are integer
combinations of roots of unity, reduced mod the cyclotomic polynomial
and compared exactly.  The float32 matmul that sums them is exact
because every product and partial sum is an integer of size at most
max|R_n| q < 2^24, a bound the code checks (CapacityError past it).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .numtheory import divisors, euler_phi, factorize, moebius, unit_pair_count

GROUP_CAP = 10 ** 6
TABLE_CAP = 2 ** 22  # phi(q) * q entries per array of a modulus' table


@dataclass(frozen=True)
class RootOfUnity:
    """Exact e(k/m) = exp(2*pi*i*k/m) with 0 <= k < m and gcd(k, m) = 1
    (or k = 0, m = 1 for the value 1)."""

    k: int
    m: int

    @staticmethod
    def make(k: int, m: int) -> "RootOfUnity":
        if m <= 0:
            raise ValueError("denominator must be positive")
        k %= m
        g = math.gcd(k, m)
        if k == 0:
            return RootOfUnity(0, 1)
        return RootOfUnity(k // g, m // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.make(self.k * other.m + other.k * self.m,
                                self.m * other.m)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.make(self.k * e, self.m)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.k, self.m)

    def __complex__(self) -> complex:
        if self.m == 1:
            return 1 + 0j
        if 2 * self.k == self.m:
            return -1 + 0j
        a = 2.0 * math.pi * self.k / self.m
        return complex(math.cos(a), math.sin(a))

    @property
    def order(self) -> int:
        return self.m


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


# ---------------------------------------------------------------------------
# group basis


def _least_primitive_root(p: int, k: int) -> int:
    """Least g >= 2 of multiplicative order phi(p^k) mod odd p^k."""
    pk = p ** k
    order = pk - pk // p
    fac = factorize(order).primes
    for g in range(2, pk):
        if g % p and all(pow(g, order // r, pk) != 1 for r in fac):
            return g
    raise AssertionError(f"no primitive root mod {pk}")


def _dlog_tables(pk: int, gens: list[tuple[int, int]]) -> list[np.ndarray]:
    """One table per generator (g_i, m_i) of a basis of (Z/pk)*: the table
    of g_i maps prod_j g_j^{e_j} mod pk to e_i, for every exponent vector
    e < (m_j), and every non-unit to -1."""
    units = np.ones(1, dtype=np.int64)
    for g, m in gens:
        powers = np.ones(1, dtype=np.int64)  # g^0..g^(m-1), doubling
        while powers.size < m:
            powers = np.append(powers, powers * pow(g, powers.size, pk) % pk)
        units = np.outer(units, powers[:m]).ravel() % pk
    tables = []
    for e in np.indices([m for _, m in gens]).reshape(len(gens), units.size):
        dl = np.full(pk, -1, dtype=np.int64)
        dl[units] = e
        tables.append(dl)
    return tables


@dataclass(frozen=True)
class _Component:
    """One CRT component of (Z/q)*: modulus p^k, generator, order."""

    prime: int
    prime_power: int
    generator: int  # -1 encoded as prime_power - 1
    order: int


class CharacterGroup:
    """Generator basis and discrete-log tables for (Z/q)*.

    Shared, immutable; build once per modulus via group(q).
    """

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("modulus must be positive")
        if q > GROUP_CAP:
            raise CapacityError(f"character group cap is {GROUP_CAP}, got {q}")
        self.q = q
        self.phi = euler_phi(q)
        self.components: list[_Component] = []
        self._dlogs: list[np.ndarray] = []  # per component: dlog of n mod p^k

        for p, k in factorize(q).factors:
            pk = p ** k
            if p == 2:  # (-1, 5), cut to (-1) for 4 and to () for 2
                gens = [(pk - 1, 2), (5, pk // 4)][:k - 1]
            else:
                gens = [(_least_primitive_root(p, k), pk - pk // p)]
            self._dlogs += _dlog_tables(pk, gens)
            self.components += [_Component(p, pk, g, m) for g, m in gens]

        self.orders = tuple(c.order for c in self.components)
        # exponent of the group (lcm of component orders)
        L = 1
        for m in self.orders:
            L = L * m // math.gcd(L, m)
        self.exponent = L

    def dlog_vector(self, n: int) -> tuple[int, ...] | None:
        """Component discrete logs of n, or None when gcd(n, q) > 1."""
        if self.q == 1:
            return ()
        if math.gcd(n % self.q, self.q) != 1:
            return None
        out = []
        for comp, dl in zip(self.components, self._dlogs):
            out.append(int(dl[n % comp.prime_power]))
        return tuple(out)


@lru_cache(maxsize=None)
def group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


# ---------------------------------------------------------------------------
# characters


@dataclass(frozen=True)
class DirichletCharacter:
    """Exact character mod q: exponent vector over the group basis."""

    q: int
    exponents: tuple[int, ...]
    order: int
    conductor: int
    parity: int  # 0 even, 1 odd
    is_principal: bool

    @property
    def label(self) -> str:
        return format_label(self.q, self.exponents)


def format_label(q: int, exponents: tuple[int, ...]) -> str:
    return f"q={q};e={','.join(str(e) for e in exponents)}"


def parse_label(label: str) -> tuple[int, tuple[int, ...]]:
    try:
        qpart, epart = label.split(";")
        q = int(qpart.split("=")[1])
        estr = epart.split("=")[1]
        exps = tuple(int(t) for t in estr.split(",")) if estr else ()
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad character label {label!r}") from exc
    return q, exps


def _char_order(grp: CharacterGroup, exps: tuple[int, ...]) -> int:
    n = 1
    for e, m in zip(exps, grp.orders):
        o = m // math.gcd(m, e)
        n = n * o // math.gcd(n, o)
    return n


def _char_parity(grp: CharacterGroup, exps: tuple[int, ...]) -> int:
    if grp.q <= 2:
        return 0
    # chi(-1) = e(t / L) with L the group exponent, so t is 0 or L/2
    L = grp.exponent
    dv = grp.dlog_vector(grp.q - 1)  # -1 mod q
    t = sum(e * d * (L // m) for e, d, m in zip(exps, dv, grp.orders)) % L
    if 2 * t % L:
        raise AssertionError("chi(-1) not +-1")
    return 2 * t // L


def _component_conductor(comp: _Component, e: int) -> int:
    """Conductor of the component character g -> e(e/order)."""
    p, pk, m = comp.prime, comp.prime_power, comp.order
    o = m // math.gcd(m, e)
    if o == 1:
        return 1
    if p == 2 and comp.generator == pk - 1:
        return 4
    if p == 2:
        # 5-part of order 2^t has conductor 2^{t+2}
        return 4 * o
    # odd p: smallest j with o | phi(p^j)
    j = 1
    while (p - 1) * p ** (j - 1) % o != 0:
        j += 1
    return p ** j


def _conductor(grp: CharacterGroup, exps: tuple[int, ...]) -> int:
    cond = 1
    by_prime: dict[int, int] = {}
    for comp, e in zip(grp.components, exps):
        c = _component_conductor(comp, e)
        by_prime[comp.prime] = max(by_prime.get(comp.prime, 1), c)
    for c in by_prime.values():
        cond *= c
    return cond


def _make_character(grp: CharacterGroup, exps: tuple[int, ...]) -> DirichletCharacter:
    exps = tuple(e % m for e, m in zip(exps, grp.orders))
    order = _char_order(grp, exps)
    return DirichletCharacter(
        q=grp.q,
        exponents=exps,
        order=order,
        conductor=_conductor(grp, exps),
        parity=_char_parity(grp, exps),
        is_principal=order == 1,
    )


def build_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, deterministic order
    (lexicographic in the exponent vectors over the fixed basis)."""
    grp = group(q)
    chars = []
    exps = [0] * len(grp.orders)
    while True:
        chars.append(_make_character(grp, tuple(exps)))
        i = len(exps) - 1
        while i >= 0:
            exps[i] += 1
            if exps[i] < grp.orders[i]:
                break
            exps[i] = 0
            i -= 1
        if i < 0:
            break
    assert len(chars) == grp.phi
    return chars


def character_from_label(label: str) -> DirichletCharacter:
    q, exps = parse_label(label)
    grp = group(q)
    if len(exps) != len(grp.orders):
        raise ValueError(
            f"label {label!r} has {len(exps)} exponents, basis has "
            f"{len(grp.orders)}"
        )
    return _make_character(grp, exps)


def conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    grp = group(chi.q)
    return _make_character(grp, tuple(-e for e in chi.exponents))


def char_value(chi: DirichletCharacter, n: int):
    """chi(n) as an exact RootOfUnity, or the integer 0 off the units."""
    grp = group(chi.q)
    dv = grp.dlog_vector(n)
    if dv is None:
        return 0
    num = Fraction(0)
    for e, d, m in zip(chi.exponents, dv, grp.orders):
        num += Fraction(e * d, m)
    num -= int(num)
    return RootOfUnity.make(num.numerator, num.denominator)


def char_values_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(n) for n = 0..q-1 as complex128 (period-q lookup table).

    chi(n) = e(K/L), L the group exponent, with K from the dlog tables as in
    one row of _char_table; e(K/L) is rounded as complex(RootOfUnity) rounds
    it, so the values equal complex(char_value(chi, n)) bit for bit."""
    grp = group(chi.q)
    L = grp.exponent
    r = np.arange(chi.q, dtype=np.int64)
    K = np.zeros(chi.q, dtype=np.int64)
    for e, c, dl in zip(chi.exponents, grp.components, grp._dlogs):
        K = (K + e * (L // c.order) * dl[r % c.prime_power]) % L
    unit = np.gcd(r, chi.q) == 1
    out = np.zeros(chi.q, dtype=np.complex128)
    out[unit] = _roots_of_unity(chi.order)[K[unit] // (L // chi.order)]
    return out


@lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> np.ndarray:
    """complex(RootOfUnity.make(k, m)) for k = 0..m-1, read-only."""
    out = np.array([complex(RootOfUnity.make(k, m)) for k in range(m)])
    out.flags.writeable = False
    return out


def induce_primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character chi* mod q* inducing chi.

    chi*(n) = chi(n') for any n' = n (mod q*) with gcd(n', q) = 1; the
    exponent vector over q*'s own basis is solved componentwise on the
    basis generators, so labels stay canonical.
    """
    qs = chi.conductor
    if qs == chi.q:
        return chi
    gs = group(qs)
    exps = []
    for comp in gs.components:
        # lift the basis generator (mod the q* component) to n' coprime
        # to q, congruent to it mod p^c and to 1 mod the rest of q
        n1 = _crt_lift(comp.generator, comp.prime, chi.q)
        v = char_value(chi, n1)
        assert v != 0
        # v = e(k/m); the exponent e_i satisfies e(e_i / order_i) = v
        e_i = Fraction(v.k, v.m) * comp.order
        assert e_i.denominator == 1, "induced value incompatible with basis"
        exps.append(int(e_i) % comp.order)
    out = _make_character(gs, tuple(exps))
    assert out.conductor == qs, "induced character is not primitive"
    return out


def _crt_lift(a: int, p: int, q: int) -> int:
    """n = a (mod the p-part of q), n = 1 (mod the rest of q), n in [1, q];
    gcd(n, q) = 1 for a unit a mod p."""
    qp = p
    while q % (qp * p) == 0:
        qp *= p
    rest = q // qp
    n = (a + qp * ((1 - a) * pow(qp, -1, rest) % rest)) % q
    return n or q


def is_primitive(chi: DirichletCharacter) -> bool:
    return chi.conductor == chi.q


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q) for primitive chi; |tau| = sqrt(q)."""
    if not is_primitive(chi):
        raise ValueError("gauss_sum requires a primitive character")
    q = chi.q
    if q == 1:
        return 1 + 0j
    vals = char_values_table(chi)
    a = np.arange(q)
    return complex(np.sum(vals[a % q] * np.exp(2j * np.pi * a / q)))


def root_number(chi: DirichletCharacter) -> complex:
    """epsilon(chi) = tau(chi) / (i^kappa sqrt(q)), modulus 1."""
    if not is_primitive(chi):
        raise ValueError("root_number requires a primitive character")
    eps = gauss_sum(chi) / (1j ** chi.parity * math.sqrt(chi.q))
    return complex(eps)


def pair_weight_nonzero(q: int, a: int, b: int) -> bool:
    """Whether chi(a) + chi(b) != 0 for every character mod q (the
    hypothesis of the reverse implication; exposed, not interpreted)."""
    for chi in build_group(q):
        va, vb = char_value(chi, a), char_value(chi, b)
        if va == 0 and vb == 0:
            return False
        if isinstance(va, RootOfUnity) and isinstance(vb, RootOfUnity):
            if va * vb.conjugate() == MINUS_ONE:
                return False
    return True


# ---------------------------------------------------------------------------
# the complete character sum of the key lemma


def char_sum_closed_form(chi: DirichletCharacter, c: int) -> complex:
    """sum_{a=1..q, (a(c-a),q)=1} chi(a) in closed form,
        mu(q*) chi*(c) (phi(q)/phi(q*)) prod_{p | q, p !| q* c} (p-2)/(p-1),
    which is t e(pos/ord chi) with t an integer: the class-of-c entry of
    _closed_form_coefficients, the table verify_char_sum_identity checks."""
    coeff, pos = _closed_form_coefficients(chi)
    r = c % chi.q
    t = int(coeff[r])
    return t * complex(RootOfUnity.make(int(pos[r]), chi.order)) if t else 0j


def char_sum_brute(chi: DirichletCharacter, c: int) -> complex:
    """Direct sum over a = 1..q with (a(c-a), q) = 1 of chi(a)."""
    q = chi.q
    total = 0 + 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1 and math.gcd((c - a) % q if q > 1 else 1, q) == 1:
            total += complex(char_value(chi, a))
    return total


def char_sum_brute_exact(chi: DirichletCharacter, c: int) -> dict[RootOfUnity, int]:
    """Brute-force sum as exact multiset {root of unity: count}."""
    q = chi.q
    counts: dict[RootOfUnity, int] = {}
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1 and math.gcd((c - a) % q if q > 1 else 1, q) == 1:
            v = char_value(chi, a)
            counts[v] = counts.get(v, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# exact zero-testing of integer combinations of roots of unity

@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_n(X), computed by exact division
    of X^n - 1 by the product of the lower cyclotomic polynomials."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    deg_den = len(den) - 1
    out = [0] * (len(num) - deg_den)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + deg_den]
        assert coef % den[-1] == 0
        coef //= den[-1]
        out[i] = coef
        if coef:
            for j, dc in enumerate(den):
                num[i + j] -= coef * dc
    assert all(v == 0 for v in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> np.ndarray:
    """Matrix R (phi(n) x n): column k = coefficients of X^k mod Phi_n.

    An integer vector v (counts of e(k/n)) represents zero in Z[zeta_n]
    exactly when R @ v == 0, since 1, zeta, ..., zeta^{phi(n)-1} is a
    Q-basis of the cyclotomic field.
    """
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    cols = np.zeros((deg, n), dtype=np.int64)
    cur = np.zeros(deg, dtype=np.int64)
    cur[0] = 1
    for k in range(n):
        cols[:, k] = cur
        # multiply by X mod Phi_n
        lead = cur[-1]
        nxt = np.zeros(deg, dtype=np.int64)
        nxt[1:] = cur[:-1]
        if lead:
            nxt -= lead * np.array(phi[:-1], dtype=np.int64)
        cur = nxt
    return cols


def root_sum_is_zero(counts: np.ndarray, n: int) -> bool:
    """Exact test: is sum_k counts[k] * e(k/n) equal to 0?"""
    red = _reduction_matrix(n)
    return bool(np.all(red @ counts.astype(np.int64) == 0))


def root_counts_equal(counts: np.ndarray, n: int, t: int, zeta: RootOfUnity) -> bool:
    """Exact test: does sum_k counts[k] e(k/n) equal t * zeta?

    zeta must have order dividing n.
    """
    v = counts.astype(np.int64).copy()
    if t != 0:
        if n % zeta.m != 0:
            raise ValueError("root order does not divide n")
        v[zeta.k * (n // zeta.m)] -= t
    return root_sum_is_zero(v, n)


# ---------------------------------------------------------------------------
# bulk exact verification of the character-sum lemma


@dataclass(frozen=True)
class _CharTable:
    """Every character mod q at once, one row each in build_group order.
    Columns are residues r = 0..q-1; chi(r) = e(kn[r]/order) (-1 off the
    units), and the closed form at the class r of c is coeff e(pos/order)
    (coeff 0, pos -1 where chi*(c) = 0).  All arrays are read-only."""

    order: np.ndarray
    conductor: np.ndarray
    kn: np.ndarray
    coeff: np.ndarray
    pos: np.ndarray


@lru_cache(maxsize=32)
def _char_table(q: int) -> _CharTable:
    """The table of the characters mod q.  Its arrays are phi(q) x q int64,
    so it is built only while phi(q) q <= TABLE_CAP = 2^22 (q = 2003 is
    inside); past it CapacityError, before any such array exists."""
    size = euler_phi(q) * q
    if size > TABLE_CAP:
        raise CapacityError(f"character table mod {q}: phi(q) q = {size} "
                            f"exceeds {TABLE_CAP}")
    grp = group(q)
    L = grp.exponent
    r = np.arange(q, dtype=np.int64)
    unit = np.gcd(r, q) == 1
    exps = np.array(list(itertools.product(*map(range, grp.orders))), dtype=np.int64)
    # K = exponent vectors times the dlog tables scaled to e(./L), mod L; its
    # gcd over all columns, units or not, is L / order, and kn = K / (L / order)
    dlogs = np.array([np.maximum(dl[r % c.prime_power], 0) * (L // c.order)
                      for c, dl in zip(grp.components, grp._dlogs)],
                     dtype=np.int64).reshape(-1, q)
    kn = exps @ dlogs % L
    order = L // np.gcd(np.gcd.reduce(kn, axis=1), L)
    kn //= (L // order)[:, None]
    kn[:, ~unit] = -1
    # the conductor is the least d | q with chi = 1 on the units = 1 mod d
    cond = np.empty(grp.phi, dtype=np.int64)
    for d in reversed(divisors(q)):
        cond[np.all(kn[:, unit & (r % d == 1 % d)] == 0, axis=1)] = d
    coeff = np.zeros_like(kn)
    pos = np.empty_like(kn)
    for qs in np.unique(cond).tolist():
        # q = A * q_out with q_out prime to q*: chi*(c) = chi(c') for the lift
        # c' = c (mod A), 1 (mod q_out); the primes of q_out give the sieve
        # factors of unit_pair_count, and A / q* the rest of phi(q)/phi(q*)
        A = math.prod(p ** k for p, k in factorize(q).factors if qs % p == 0)
        q_out = q // A
        lift = (r + A * ((1 - r) * pow(A, -1, q_out) % q_out)) % q
        rows = cond == qs
        pos[rows] = kn[np.ix_(rows, lift)]
        coeff[rows] = moebius(qs) * (A // qs) * unit_pair_count(q_out, r)
    coeff[pos < 0] = 0
    tab = _CharTable(order, cond, kn, coeff, pos)
    for arr in vars(tab).values():
        arr.flags.writeable = False
    return tab


def _row(chi: DirichletCharacter) -> int:
    """Index of chi in build_group(chi.q) and in its modulus' table."""
    return int(np.ravel_multi_index(chi.exponents, group(chi.q).orders))


def _closed_form_coefficients(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    """Vector over residue columns r = 0..q-1 (the class of c): integer
    coefficient and exponent position (in zeta_ord(chi)), -1 where the closed
    form vanishes; chi's row of the table built once per modulus."""
    tab = _char_table(chi.q)
    return tab.coeff[_row(chi)], tab.pos[_row(chi)]


def verify_char_sum_identity(q: int) -> bool:
    """Exact check, for every chi mod q and every c in [1, q], that the
    brute-force sum over a with (a(c-a), q) = 1 of chi(a) equals the
    closed form.  Both sides live in Z[zeta_n]; equality is tested by
    reducing mod the n-th cyclotomic polynomial before counting: for the
    characters of order n, R_n[:, kn[a]] summed against the count matrix
    U[a, c] = [c - a is a unit] must equal R_n[:, pos] coeff.  The float32
    matmul is exact while every product and partial sum, an integer of
    size at most max|R_n| q, stays below 2^24 (CapacityError past it)."""
    tab = _char_table.__wrapped__(q)  # each q once: past the per-q cache
    units = np.flatnonzero(tab.kn[0] >= 0)
    U = (tab.kn[0][(np.arange(q) - units[:, None]) % q] >= 0).astype(np.float32)
    for n in np.unique(tab.order).tolist():
        rows = tab.order == n
        red = _reduction_matrix(n).astype(np.float32)
        if np.abs(red).max() * q >= 2 ** 24:
            raise CapacityError(f"q={q}: float32 sums would not be exact")
        closed = np.take(red, tab.pos[rows], axis=1)
        closed *= tab.coeff[rows].astype(np.float32)
        brute = np.take(red, tab.kn[rows][:, units], axis=1)
        brute = brute.reshape(-1, len(units)) @ U
        if not np.array_equal(brute.reshape(closed.shape), closed):
            return False
    return True


def verify_sieve_identity(q: int) -> bool:
    """Exact integer identity #{a : (a(c-a), q) = 1} = phi(q)^2 S_q(c)
    for every c in [1, q] (the principal-character case of the lemma):
    a cyclic convolution counts, numtheory.unit_pair_count predicts."""
    r = np.arange(q, dtype=np.int64)
    unit = (np.gcd(r, q) == 1).astype(np.int64)
    conv = np.convolve(unit, unit)
    counts = conv[:q].copy()
    counts[: q - 1] += conv[q:]
    return bool(np.array_equal(counts, unit_pair_count(q, r)))
