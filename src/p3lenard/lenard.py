"""Lenard sequences and the identities they satisfy.

The recursion  l_{j+1}' = l_j''' + 4 u l_j' + 2 u' l_j  is handled in two
representations:

* ``generate`` integrates each step exactly, producing honest differential
  polynomials in u.  This works for the classical seed l_0 = 1/2 at every
  order, but seeds such as l_0 = s/2 leave the differential-polynomial ring
  after one step (the antiderivative of u**2 is nonlocal) and raise
  :class:`~p3lenard.diffpoly.NotExactDerivative`.

* ``symbolic`` keeps each l_j (j >= 1) as an opaque order-0 symbol and
  installs its derivative from the recursion.  Every identity below —
  master, shift, anti-diagonal transport, and the conservation residuals —
  is a consequence of the recursion alone, so it normalizes to zero in this
  representation for any seed, including the nonlocal ones.

The lattice identities share their pieces, so each ``LenardSequence`` keeps
a private memo of the three values they reuse: D(l_j), Omega_{n,m}' (keyed
by the unordered pair, since Omega is symmetric) and D(B_{a,b}) for the
bracket B_{a,b} = Omega_{a,b} - l_a l_{b+1}.  Omega itself is not cached.
Every constructor and ``with_entry`` start with an empty memo.  An entry
records the sequence entries it was computed from and is reused only while
``seq.ell(i)`` is still each of those objects, so replacing an entry, even
in place through ``seq.ells[j] = ...``, makes the memo recompute it.  The
derivative rules of a symbolic sequence are fixed when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .jetring import Poly, Ring
from .diffpoly import U_RING, NotExactDerivative, formal_integral


class IndexOutOfRange(IndexError):
    """A sequence index outside the stored range was requested."""


@dataclass(frozen=True)
class SeedCondition:
    """Initial entry l_0 of a Lenard sequence, as a polynomial in s and u."""

    variant: str
    poly: Poly

    @classmethod
    def standard(cls) -> "SeedCondition":
        return cls("standard", U_RING.const(Fraction(1, 2)))

    @classmethod
    def painleve3(cls) -> "SeedCondition":
        return cls("painleve3", U_RING.s() * Fraction(1, 2))

    @classmethod
    def custom(cls, poly: Poly) -> "SeedCondition":
        if poly.ring != U_RING:
            raise ValueError("custom seed must live in the u-jet ring")
        return cls("custom", poly)


@dataclass
class LenardSequence:
    """Entries l_0 .. l_N plus the derivative rules that close the recursion.

    ``rules`` is empty for explicitly integrated sequences (their entries are
    u-jet polynomials, differentiated as such) and maps each symbolic entry's
    name to its recursion-supplied derivative otherwise.
    """

    seed: SeedCondition
    ells: list
    constants: list
    ring: Ring
    rules: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __len__(self):
        return len(self.ells)

    def ell(self, j: int) -> Poly:
        if not 0 <= j < len(self.ells):
            raise IndexOutOfRange(f"index {j} outside 0..{len(self.ells) - 1}")
        return self.ells[j]

    @property
    def u(self) -> Poly:
        return self.ring.var("u", 0)

    def D(self, p: Poly) -> Poly:
        """Total derivative, recursion-aware for symbolic entries."""
        return p.total_derivative(self.rules or None)

    def _memoized(self, key, indices, compute):
        """``compute()``, kept under ``key`` while each entry l_i, i in
        ``indices``, is the object it was computed from."""
        read = tuple(self.ell(i) for i in indices)
        hit = self._memo.get(key)
        if hit is not None and all(a is b for a, b in zip(hit[0], read)):
            return hit[1]
        value = compute()
        self._memo[key] = (read, value)
        return value

    def D_ell(self, j: int) -> Poly:
        """D(l_j), memoized."""
        return self._memoized(("D", j), (j,), lambda: self.D(self.ell(j)))

    def recursion_rhs(self, j: int) -> Poly:
        """l_j''' + 4 u l_j' + 2 u' l_j."""
        lj = self.ell(j)
        d1 = self.D(lj)
        return self.D(self.D(d1)) + 4 * self.u * d1 + 2 * self.D(self.u) * lj

    def with_entry(self, j: int, value: Poly) -> "LenardSequence":
        """Copy with entry j replaced (boundary conditions, corruption tests).
        The recursion invariant is deliberately not re-checked."""
        ells = list(self.ells)
        if j == len(ells):
            ells.append(value)
        else:
            self.ell(j)
            ells[j] = value
        return LenardSequence(self.seed, ells, list(self.constants),
                              self.ring, dict(self.rules))


def generate(seed: SeedCondition, count: int, constants: list) -> LenardSequence:
    """Integrate the recursion ``count`` times, adding one constant per step."""
    if count < 1:
        raise ValueError("count must be positive")
    if len(constants) != count:
        raise ValueError(f"need {count} integration constants, got {len(constants)}")
    seq = LenardSequence(seed, [seed.poly], [], U_RING)
    for j in range(count):
        rhs = seq.recursion_rhs(j)
        try:
            nxt = formal_integral(rhs)
        except NotExactDerivative as exc:
            err = NotExactDerivative(
                f"recursion step {j} -> {j + 1} left the differential-"
                f"polynomial ring: {exc}")
            err.step_index = j
            raise err from exc
        if seq.D(nxt) != rhs:
            err = NotExactDerivative(
                f"recursion step {j} -> {j + 1}: the derivative of the formal "
                f"integral differs from the recursion right-hand side")
            err.step_index = j
            raise err
        c = Fraction(constants[j])
        seq.ells.append(nxt + U_RING.const(c))
        seq.constants.append(c)
    return seq


def symbolic(seed: SeedCondition, count: int) -> LenardSequence:
    """Sequence with opaque entries l_1 .. l_count and recursion-closed D."""
    if count < 1:
        raise ValueError("count must be positive")
    names = tuple(f"l{j}" for j in range(1, count + 1))
    ring = Ring(("u",) + names)
    seq = LenardSequence(seed, [ring.embed(seed.poly)], [Fraction(0)] * count, ring)
    for j in range(1, count + 1):
        seq.rules[f"l{j}"] = seq.recursion_rhs(j - 1)
        seq.ells.append(ring.var(f"l{j}", 0))
    return seq


# -- Omega and the lattice identities -----------------------------------------

def omega(seq: LenardSequence, n: int, m: int) -> Poly:
    """(l_n l_m)'' - 3 l_n' l_m' + 4 u l_n l_m."""
    ln, lm = seq.ell(n), seq.ell(m)
    prod = ln * lm
    return (seq.D(seq.D(prod)) - 3 * seq.D_ell(n) * seq.D_ell(m)
            + 4 * seq.u * prod)


def bracket(seq: LenardSequence, a: int, b: int) -> Poly:
    """B_{a,b} = Omega_{a,b} - l_a l_{b+1}."""
    return omega(seq, a, b) - seq.ell(a) * seq.ell(b + 1)


def _omega_prime(seq: LenardSequence, n: int, m: int) -> Poly:
    """Omega_{n,m}', memoized per unordered pair."""
    pair = (min(n, m), max(n, m))
    return seq._memoized(("Omega'",) + pair, pair,
                         lambda: seq.D(omega(seq, n, m)))


def _bracket_prime(seq: LenardSequence, a: int, b: int) -> Poly:
    """B_{a,b}', memoized."""
    return seq._memoized(("B'", a, b), (a, b, b + 1),
                         lambda: seq.D(bracket(seq, a, b)))


def master_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_{n+1}' + l_n l_{m+1}' - Omega_{n,m}'; zero for any recursion-
    consistent sequence."""
    lhs = seq.ell(m) * seq.D_ell(n + 1) + seq.ell(n) * seq.D_ell(m + 1)
    return lhs - _omega_prime(seq, n, m)


def shift_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_n' - l_{m+1} l_{n-1}' - B_{n-1,m}'."""
    if n < 1:
        raise IndexOutOfRange("shift identity needs n >= 1")
    return (seq.ell(m) * seq.D_ell(n)
            - seq.ell(m + 1) * seq.D_ell(n - 1)
            - _bracket_prime(seq, n - 1, m))


def transport_residual(seq: LenardSequence, m: int, n: int, r: int) -> Poly:
    """Residual of moving l_m l_n' a distance r along an anti-diagonal:
    l_m l_n' - l_{m+r} l_{n-r}' - sum_{q<r} B_{n-q-1,m+q}'."""
    if r < 0:
        raise IndexOutOfRange("transport distance must be nonnegative")
    if n - r < 0:
        raise IndexOutOfRange(f"transport distance {r} exceeds n = {n}")
    acc = seq.ell(m) * seq.D_ell(n) - seq.ell(m + r) * seq.D_ell(n - r)
    for q in range(r):
        acc -= _bracket_prime(seq, n - q - 1, m + q)
    return acc


# -- closed-form route for the classical seed ----------------------------------

def closed_form_standard(p: int) -> Poly:
    """p-th Lenard differential polynomial via the sigma-degeneration
    rearrangement, with no integration performed."""
    if p < 1:
        raise IndexOutOfRange("closed form defined for p >= 1")
    return _closed_form_list(p)[p]


def _closed_form_list(count: int) -> list:
    seed = SeedCondition.standard()
    seq = LenardSequence(seed, [seed.poly], [], U_RING)
    for p in range(1, count + 1):
        acc = U_RING.zero()
        for q in range(p - 1):
            acc += bracket(seq, p - 1 - q, q)
        acc += omega(seq, 0, p - 1)
        seq.ells.append(acc)
    return seq.ells
