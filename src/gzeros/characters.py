"""Dirichlet characters mod q as exact objects.

A character is stored as an exponent vector over a fixed generator basis
of (Z/q)*, chosen by one rule on each CRT factor p^k of q: the least
primitive root of p^k for odd p, and (-1, 5) of orders (2, 2^{k-2}) for
2^k, cut to (-1) for 4 and to nothing for 2.  One walk over the products
of the generators' powers fills every discrete-log table.  The basis is a
cache-key contract: it fixes every label, and so every zero-cache file.

Each character fact has one rule, applied to a matrix of exponent rows
(one row per character, in build_group's order), so build_group, one
character and the per-modulus table all read the same derivation:
- _facts gives order, conductor and parity.  The component g_i ->
  e(e_i/m_i) has order o_i = m_i / gcd(m_i, e_i), and chi's order is the
  lcm of the o_i.  A component of order o > 1 has conductor a gcd(o, g),
  with (a, g) = (p, p^(k-1)) for odd p, (2, 2) for the generator -1 of
  2^k and (4, 2^(k-2)) for the generator 5; chi's conductor is the
  product over primes of the largest.  The parity is 2K(q-1)/L.
- _exponents gives K with chi(n) = e(K/L), L the group exponent: the
  exponent rows times the discrete logs of n scaled to e(./L), mod L, in
  integers (-1 off the units).  Every value, the primitive character of
  induce_primitive included, comes from this K.
A complex value comes from one rounding rule (_unit_root): e(k/m) with
k/m reduced is exactly 1 at 0 and -1 at 1/2, else cos + i sin of
2.0 * pi * k / m.  Exact RootOfUnity arithmetic lives only in the tests'
oracle (tests/oracles.py), which the tables match bit for bit.  Character
labels "q=<q>;e=<v1,v2,...>" are the exponent vectors in this fixed
basis, so they are deterministic across runs.

The characters of one modulus also come as one table (_char_table): the
K of every character at every residue, with the facts, and the closed
form of the complete character sum over a with (a(c-a), q) = 1 for
every class c, whose column c gives Thm 1.4's weights in explicit.
verify_char_sum_identity checks that closed form against a direct count
with zero tolerance: it checks that the table is closed under
chi -> chi^j, then compares both sides mod a prime p that splits
completely in Q(zeta_L), L the group exponent, in one exact float64
product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .numtheory import check_modulus, euler_phi, factorize, is_prime, moebius, unit_pair_count

GROUP_CAP = 10 ** 6
TABLE_CAP = 2 ** 22  # phi(q) * q entries per array of a modulus' table


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
        check_modulus(q)
        if q > GROUP_CAP:
            raise CapacityError(f"character group cap is {GROUP_CAP}, got {q}")
        self.q = q
        self.components: list[_Component] = []
        self._dlogs: list[np.ndarray] = []  # per component: dlog of n mod p^k
        cond = []  # per component: (a, g) of the conductor rule in _facts

        for p, k in factorize(q).factors:
            pk = p ** k
            if p == 2:  # (-1, 5), cut to (-1) for 4 and to () for 2
                gens = [(pk - 1, 2), (5, pk // 4)][:k - 1]
                cond += [(2, 2), (4, pk // 4)][:k - 1]
            else:
                gens = [(_least_primitive_root(p, k), pk - pk // p)]
                cond.append((p, pk // p))
            self._dlogs += _dlog_tables(pk, gens)
            self.components += [_Component(p, pk, g, m) for g, m in gens]

        self.orders = tuple(c.order for c in self.components)
        self.exponent = math.lcm(*self.orders)  # of the group
        self._m = np.array(self.orders, dtype=np.int64)
        self._a, self._g = np.array(cond, dtype=np.int64).reshape(-1, 2).T


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


def _facts(grp: CharacterGroup, E: np.ndarray) -> tuple[np.ndarray, ...]:
    """(order, conductor, parity) of the characters whose exponent vectors
    are the rows of E (int64, reduced mod the generator orders m_i).

    The component character g_i -> e(e_i/m_i) has order o_i = m_i /
    gcd(m_i, e_i), and chi's order is their lcm.  A component of order
    o > 1 has conductor a gcd(o, g), with (a, g) = (p, p^(k-1)) for the
    primitive root of odd p^k, (2, 2) for -1 and (4, 2^(k-2)) for 5 mod
    2^k; the conductors of one prime are its powers, so chi's conductor,
    the product over primes of the largest, is their lcm too.  The parity
    is chi(-1) = e(K/L) = +-1 read as 2K/L, with K at q - 1 (_exponents)."""
    o = grp._m // np.gcd(E, grp._m)
    cond = np.where(o > 1, grp._a * np.gcd(o, grp._g), 1)
    K = _exponents(grp, E, [grp.q - 1])[:, 0]
    return (np.lcm.reduce(o, axis=1, initial=1),
            np.lcm.reduce(cond, axis=1, initial=1), 2 * K // grp.exponent)


def _exponents(grp: CharacterGroup, E: np.ndarray, r) -> np.ndarray:
    """K (len(E) x len(r), int64) with chi(r) = e(K/L), L the group
    exponent, for chi with exponent vector each row of E and the residues
    r: E times the discrete logs of r scaled to e(./L), mod L; -1 where r
    is not a unit."""
    r = np.asarray(r, dtype=np.int64)
    D = np.array([dl[r % c.prime_power] for c, dl in zip(grp.components, grp._dlogs)],
                 dtype=np.int64).reshape(len(grp.orders), len(r))
    K = (E * (grp.exponent // grp._m)) @ D % grp.exponent
    K[:, np.gcd(r, grp.q) != 1] = -1
    return K


def _characters(grp: CharacterGroup, E: np.ndarray) -> list[DirichletCharacter]:
    """The characters whose exponent vectors are the rows of E."""
    order, cond, parity = (a.tolist() for a in _facts(grp, E))
    return [DirichletCharacter(grp.q, tuple(e), n, f, s, n == 1)
            for e, n, f, s in zip(E.tolist(), order, cond, parity)]


def _make_character(grp: CharacterGroup, exps: tuple[int, ...]) -> DirichletCharacter:
    exps = [e % m for e, m in zip(exps, grp.orders)]
    return _characters(grp, np.array([exps], dtype=np.int64))[0]


def _exponent_rows(grp: CharacterGroup) -> np.ndarray:
    """Every exponent vector over the basis, one row each, in the order of
    itertools.product over range(m_i)."""
    return np.indices(grp.orders).reshape(len(grp.orders), math.prod(grp.orders)).T


def build_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, deterministic order
    (lexicographic in the exponent vectors over the fixed basis)."""
    grp = group(q)
    return _characters(grp, _exponent_rows(grp))


def character_labels(q: int) -> list[str]:
    """The labels of build_group(q), in its order, without the facts."""
    return [format_label(q, tuple(e)) for e in _exponent_rows(group(q)).tolist()]


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


def char_values_table(chi: DirichletCharacter) -> np.ndarray:
    """chi(n) for n = 0..q-1 as complex128 (period-q lookup table).

    chi(n) = e(K/L), L the group exponent, with K from _exponents as in
    one row of _char_table, and each e(K/L) rounded by _unit_root."""
    grp = group(chi.q)
    K = _exponents(grp, np.array([chi.exponents], dtype=np.int64), np.arange(chi.q))[0]
    unit = K >= 0
    out = np.zeros(chi.q, dtype=np.complex128)
    out[unit] = _roots_of_unity(chi.order)[K[unit] // (grp.exponent // chi.order)]
    return out


def _unit_root(k: int, m: int) -> complex:
    """e(k/m) as a complex double, by the one rounding rule: with k/m
    reduced, exactly 1 at 0 and -1 at 1/2, else the cos and sin of
    2.0 * pi * k / m, multiplied in that order."""
    k %= m
    g = math.gcd(k, m)
    k, m = k // g, m // g
    if k == 0:
        return 1 + 0j
    if 2 * k == m:
        return -1 + 0j
    a = 2.0 * math.pi * k / m
    return complex(math.cos(a), math.sin(a))


@lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> np.ndarray:
    """_unit_root(k, m) for k = 0..m-1, read-only."""
    out = np.array([_unit_root(k, m) for k in range(m)])
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
    grp, gs = group(chi.q), group(qs)
    # lift each basis generator (mod the q* component) to n' coprime to q,
    # congruent to it mod p^k | q and to 1 mod the rest of q
    part = {c.prime: c.prime_power for c in grp.components}
    n = [_crt_lift(c.generator, part[c.prime], chi.q) for c in gs.components]
    K = _exponents(grp, np.array([chi.exponents], dtype=np.int64), n)[0]
    # chi(n') = e(K/L) = e(e_i/m_i), so e_i = K m_i / L
    assert np.all(K * gs._m % grp.exponent == 0), "induced value incompatible with basis"
    out = _make_character(gs, tuple((K * gs._m // grp.exponent).tolist()))
    assert out.conductor == qs, "induced character is not primitive"
    return out


def _crt_lift(a, A: int, q: int):
    """n = a (mod A), n = 1 (mod q / A), n in [0, q), for A | q with A
    prime to q / A; elementwise for an array a."""
    rest = q // A
    return (a + A * ((1 - a) * pow(A, -1, rest) % rest)) % q


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


# ---------------------------------------------------------------------------
# bulk exact verification of the character-sum lemma


@dataclass(frozen=True)
class _CharTable:
    """Every character mod q at once, one row each in build_group order.
    Columns are residues r = 0..q-1; chi(r) = e(kn[r]/order) (-1 off the
    units), and the closed form at the class r of c,
        mu(q*) chi*(c) (phi(q)/phi(q*)) prod_{p | q, p !| q* c} (p-2)/(p-1),
    is coeff e(pos/order) (coeff 0, pos -1 where chi*(c) = 0).  All arrays
    are read-only."""

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
    E = _exponent_rows(grp)
    order, cond, _ = _facts(grp, E)
    r = np.arange(q, dtype=np.int64)
    kn = _exponents(grp, E, r)
    kn //= (grp.exponent // order)[:, None]  # e(K/L) = e(kn/order); -1 stays -1
    conds = sorted(set(cond.tolist()))  # np.unique imports numpy.ma (~14 ms)
    lift, count = np.empty((2, len(conds), q), dtype=np.int64)  # per conductor
    for i, qs in enumerate(conds):
        # q = A * q_out with q_out prime to q*: chi*(c) = chi(c') for the lift
        # c' = c (mod A), 1 (mod q_out); the primes of q_out give the sieve
        # factors of unit_pair_count, and A / q* the rest of phi(q)/phi(q*)
        A = math.prod(p ** k for p, k in factorize(q).factors if qs % p == 0)
        lift[i] = _crt_lift(r, A, q)
        count[i] = moebius(qs) * (A // qs) * unit_pair_count(q // A, r)
    which = np.searchsorted(conds, cond)  # each row's conductor
    pos = kn[np.arange(len(kn))[:, None], lift[which]]
    coeff = np.where(pos < 0, 0, count[which])
    tab = _CharTable(order, cond, kn, coeff, pos)
    for arr in vars(tab).values():
        arr.flags.writeable = False
    return tab


def verify_char_sum_identity(q: int) -> bool:
    """Exact check, for every chi mod q and every c in [1, q], that the
    brute-force sum over a with (a(c-a), q) = 1 of chi(a) equals the
    closed form.  With L the group exponent, K = kn L/order and P = pos
    L/order put the table in e(./L).  Two passes:
    1. Galois closure.  kn is -1 exactly off the r with gcd(r, q) = 1, and
       K and P (where coeff != 0) lie in [0, L).  For each j of a
       generating set of (Z/L)*, picked by closure, the row of chi^j (the
       exponent vector j e mod m) has K and P equal to j times chi's mod L
       and the same coeff.
    2. One embedding.  With p the least prime = 1 (mod L) above phi(q) +
       max|coeff| and omega of order L mod p, every row has sum_a
       omega^K(a) [c - a a unit] = coeff omega^P (mod p): one float64
       product, exact while phi(q) p < 2^53 (CapacityError past it).
    Proof: let alpha_chi in Z[zeta_L] be brute minus closed at one c.
    Pass 1 gives alpha_{chi^j} = sigma_j(alpha_chi), so pass 2 sends
    alpha_chi to 0 under all phi(L) maps zeta_L -> omega^j into F_p.  As p
    splits completely in Q(zeta_L), alpha_chi lies in pZ[zeta_L], so it is 0
    or |N(alpha_chi)| >= p^phi(L).  Its coefficients have l1 norm at most
    phi(q) + |coeff| < p, so |N(alpha_chi)| < p^phi(L): alpha_chi = 0."""
    tab = _char_table.__wrapped__(q)  # each q once: past the per-q cache
    grp = group(q)
    L = grp.exponent
    r = np.arange(q, dtype=np.int64)
    unit = np.gcd(r, q) == 1
    nz = tab.coeff != 0
    n = tab.order[:, None]
    if (np.any(L % n) or np.any((tab.kn < 0) == unit) or np.any(tab.kn < -1)
            or np.any(tab.kn >= n) or np.any(nz & ((tab.pos < 0) | (tab.pos >= n)))):
        return False
    # K, P in [0, L), L <= q <= 4290 inside TABLE_CAP: j K < 2^25 fits int32
    K = (tab.kn[:, unit] * (L // n)).astype(np.int32)
    P = np.where(nz, tab.pos * (L // n), 0).astype(np.int32)
    E, closure = _exponent_rows(grp), {1 % L}
    for j in range(1, L):
        if math.gcd(j, L) == 1 and j not in closure:  # a new generator
            while not (more := {x * j % L for x in closure}) <= closure:
                closure |= more
            row = np.ravel_multi_index(tuple(j * E.T % grp._m[:, None]), grp.orders)
            if not (np.array_equal(K[row], j * K % L) and np.array_equal(P[row], j * P % L)
                    and np.array_equal(tab.coeff[row], tab.coeff)):
                return False
    if len(closure) != euler_phi(L):
        raise AssertionError(f"the generators reach {len(closure)} units mod {L}")

    phi = len(K)
    bound = phi + int(np.abs(tab.coeff).max())
    p = bound + 1 + (-bound) % L  # the least p = 1 (mod L) above the bound
    while not is_prime(p):
        p += L
    if phi * p >= 2 ** 53:
        raise CapacityError(f"q={q}: float64 sums mod {p} would not be exact")
    omega = next(w for w in (pow(g, (p - 1) // L, p) for g in range(1, p))
                 if all(pow(w, L // s, p) != 1 for s in factorize(L).primes))
    powers = np.array([pow(omega, k, p) for k in range(L)], dtype=np.int64)
    units = np.flatnonzero(unit)
    U = np.lib.stride_tricks.sliding_window_view(np.tile(unit, 2).astype(np.float64),
                                                 q)[q - units]  # [c - a a unit]
    brute = (powers[K].astype(np.float64) @ U).astype(np.int64)
    return not np.any((brute - tab.coeff * powers[P]) % p)


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
