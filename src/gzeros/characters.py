"""Dirichlet characters mod q as exact objects.

A character is stored as an exponent vector over a fixed generator basis
of (Z/q)* obtained from the CRT splitting q = prod p^k:

- odd p^k: the least primitive root of p^k (single cyclic component);
- 2: no component; 4: the generator -1 (order 2);
- 2^k, k >= 3: the pair (-1, 5) with orders (2, 2^{k-2}).

Values chi(n) are exact roots of unity e(k/m); they stay exact through
multiplication and conjugation and are embedded into complex doubles
only at evaluation boundaries.  Character labels "q=<q>;e=<v1,v2,...>"
are the exponent vectors in this fixed basis, so they are deterministic
across runs.

The characters of one modulus also come as one table, in build_group
order: the exponent matrix K (phi(q) x q), one integer product of the
exponent vectors with the scaled discrete-log tables mod the group
exponent, with every character's order, parity and conductor, and the
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


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    fac = factorize(p - 1).primes
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in fac):
            return g
    raise AssertionError(f"no primitive root mod {p}")


def _primitive_root_mod_pk(p: int, k: int) -> int:
    """Least primitive root of odd p^k."""
    g = _primitive_root_mod_p(p)
    if k == 1:
        return g
    # g or g + p is primitive mod p^2, and then mod every p^k
    if pow(g, p - 1, p * p) == 1:
        g += p
    # take the least one by scanning below g as well
    pk = p ** k
    order = (p - 1) * p ** (k - 1)
    fac = factorize(order).primes
    for cand in range(2, g + 1):
        if cand % p == 0:
            continue
        if all(pow(cand, order // r, pk) != 1 for r in fac):
            return cand
    return g


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
            if p == 2:
                if k == 1:
                    continue
                if k == 2:
                    self._add_component(p, pk, pk - 1, 2)
                else:
                    self._add_component(p, pk, pk - 1, 2)
                    self._add_component(p, pk, 5, 2 ** (k - 2))
            else:
                g = _primitive_root_mod_pk(p, k)
                self._add_component(p, pk, g, (p - 1) * p ** (k - 1))

        self.orders = tuple(c.order for c in self.components)
        # exponent of the group (lcm of component orders)
        L = 1
        for m in self.orders:
            L = L * m // math.gcd(L, m)
        self.exponent = L

    def _add_component(self, p: int, pk: int, g: int, order: int) -> None:
        if p == 2 and pk >= 8 and g == 5:
            # joint table over <-1> x <5>: dlog for the 5-part
            dl = np.full(pk, -1, dtype=np.int64)
            v = 1
            for j in range(order):
                dl[v] = j
                dl[pk - v] = j  # -v has the same 5-part exponent
                v = v * 5 % pk
            self.components.append(_Component(p, pk, 5, order))
            self._dlogs.append(dl)
        elif p == 2 and g == pk - 1:
            # sign part: 0 if n is a power of 5 mod 2^k, else 1
            dl = np.full(pk, -1, dtype=np.int64)
            if pk == 4:
                dl[1], dl[3] = 0, 1
            else:
                v = 1
                for _ in range(euler_phi(pk) // 2):
                    dl[v] = 0
                    dl[pk - v] = 1
                    v = v * 5 % pk
            self.components.append(_Component(p, pk, pk - 1, order))
            self._dlogs.append(dl)
        else:
            dl = np.full(pk, -1, dtype=np.int64)
            v = 1
            for j in range(order):
                dl[v] = j
                v = v * g % pk
            self.components.append(_Component(p, pk, g, order))
            self._dlogs.append(dl)

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

    @property
    def is_exceptional(self) -> bool:
        """delta_1 flag: no Siegel zero exists in the computed ranges, so
        this is identically False; off-line zeros raise instead."""
        return False

    def value(self, n: int):
        return char_value(self, n)

    def __call__(self, n: int) -> complex:
        return complex(char_value(self, n))


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


def multiply(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    if chi1.q != chi2.q:
        raise ValueError("characters have different moduli")
    grp = group(chi1.q)
    return _make_character(
        grp, tuple(a + b for a, b in zip(chi1.exponents, chi2.exponents))
    )


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
    """chi(n) for n = 0..q-1 as complex128 (period-q lookup table)."""
    grp = group(chi.q)
    out = np.zeros(chi.q, dtype=np.complex128)
    for n in range(chi.q):
        v = char_value(chi, n if n else chi.q)
        if v:
            out[n] = complex(v)
    if chi.q == 1:
        out[0] = 1.0
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
        n1 = _crt_lift(comp.generator, comp.prime_power, chi.q)
        v = char_value(chi, n1)
        assert v != 0
        # v = e(k/m); the exponent e_i satisfies e(e_i / order_i) = v
        e_i = Fraction(v.k, v.m) * comp.order
        assert e_i.denominator == 1, "induced value incompatible with basis"
        exps.append(int(e_i) % comp.order)
    out = _make_character(gs, tuple(exps))
    assert out.conductor == qs, "induced character is not primitive"
    return out


def _crt_lift(a: int, pc: int, q: int) -> int:
    """n = a (mod pc), n = 1 (mod q/p-part), gcd(n, q) = 1."""
    p = factorize(pc).primes[0]
    qp = 1
    for pp, e in factorize(q).factors:
        if pp == p:
            qp = pp ** e
    rest = q // qp
    # a mod pc lifted to mod qp keeping a mod pc (a + pc*t); any lift works
    # for the character value since chi* has period pc on this component.
    if rest == 1:
        return a % q or q
    inv = pow(qp, -1, rest)
    n = (a + qp * ((1 - a) * inv % rest)) % q
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

    exponents: np.ndarray
    order: np.ndarray
    parity: np.ndarray
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
    tab = _CharTable(exps, order, (kn[:, q - 1] > 0).astype(np.int64), cond,
                     kn, coeff, pos)
    for arr in vars(tab).values():
        arr.flags.writeable = False
    return tab


def _row(chi: DirichletCharacter) -> int:
    """Index of chi in build_group(chi.q) and in its modulus' table."""
    return int(np.ravel_multi_index(chi.exponents, group(chi.q).orders))


def char_exponent_table(chi: DirichletCharacter) -> tuple[int, np.ndarray]:
    """(n, karr): chi(r) = e(karr[r]/n) for residues r = 0..q-1, with
    karr[r] = -1 off the units.  n = ord(chi)."""
    return chi.order, _char_table(chi.q).kn[_row(chi)]


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
