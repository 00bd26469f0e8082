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

Every derivative below comes from one jet table per sequence,
``seq.jet(j, i)`` = D^i(l_j), filled by ``generate`` and ``symbolic``.
Omega_{n,m}, the brackets B_{a,b} = Omega_{a,b} - l_a l_{b+1} and their
derivatives are bilinear in the entries and follow by Leibniz from jets with
i <= 3, so no product is differentiated.  The factors of one index come from
l_j's own jets: P_j = l_j''' + 4 u l_j' + 4 u' l_j (never l_{j+1}' + 2 u' l_j,
which holds only where the recursion does) and Q_j = l_j''' + 4 u l_j', so
Omega_{n,m}' = l_m P_n + l_n Q_m.  Every lattice residual is a sum of unit
steps T(m, n, 1) = l_m l_n' + l_{n-1} l_{m+1}' - (l_m P_{n-1} + l_{n-1} Q_m):
the master residual at (n, m) is T(m, n + 1, 1), the shift residual is
T(m, n, 1), and the transport residual telescopes, T(m, n, r) = sum_{q<r}
T(m + q, n - q, 1).  Each step and each (P_j, Q_j) is kept on the sequence
next to the jets, so the checks on one sequence build each of them once.
Products commute, so Omega_{n,m} = Omega_{m,n}: ``bracket_diagonal``, the
one sum of B over a whole anti-diagonal (tau_p, and sigma_p in the closed
form), lists each jet product of a mirrored pair once with weight 2, and so
each mirrored lift, and sums them in one accumulate, with the u terms in one
more.  A jet, a factor pair or a step is reused only while the entries it
read are the objects it was computed from, so replacing an entry, even in
place through ``seq.ells[j] = ...``, recomputes what read it; ``with_entry``
starts empty tables.  Symbolic rules are fixed when built; the jets of l_j
read only those of l_1 .. l_j.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import is_

from .jetring import Poly, Ring
from .diffpoly import U_RING, NotExactDerivative, formal_integral


class IndexOutOfRange(IndexError):
    """A sequence index outside the stored range was requested."""


class SeedCondition(namedtuple("SeedCondition", "variant poly")):
    """Initial entry l_0 of a Lenard sequence, as a polynomial in s and u."""

    __slots__ = ()

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


class LenardSequence:
    """Entries l_0 .. l_N plus the derivative rules that close the recursion.

    ``rules`` is empty for explicitly integrated sequences (their entries are
    u-jet polynomials, differentiated as such) and maps each symbolic entry's
    name to its recursion-supplied derivative otherwise.  ``u`` and ``du``
    are u and u' in ``ring``, built once.
    """

    def __init__(self, ells: list, ring: Ring, rules: dict | None = None):
        self.ells, self.ring = ells, ring
        self.rules = {} if rules is None else rules
        self._jets, self._pq, self._steps = {}, {}, {}
        self.u, self.du = ring.var("u", 0), ring.var("u", 1)

    def __len__(self):
        return len(self.ells)

    def ell(self, j: int) -> Poly:
        if not 0 <= j < len(self.ells):
            raise IndexOutOfRange(f"index {j} outside 0..{len(self.ells) - 1}")
        return self.ells[j]

    def D(self, p: Poly) -> Poly:
        """Total derivative, recursion-aware for symbolic entries."""
        return p.total_derivative(self.rules or None)

    def jet(self, j: int, i: int) -> Poly:
        """D^i(l_j), kept while l_j is the entry it was computed from."""
        lj = self.ell(j)
        if i == 0:
            return lj
        hit = self._jets.get((j, i))
        if hit is not None and hit[0] is lj:
            return hit[1]
        value = self.D(self.jet(j, i - 1))
        self._jets[j, i] = (lj, value)
        return value

    def _kept(self, table: dict, key, reads: tuple, build):
        """table[key], built by ``build()`` and reused, like a jet, only while
        the entries l_j, j in ``reads``, are the objects it was built from."""
        ells = [self.ell(j) for j in reads]
        hit = table.get(key)
        if hit is not None and all(map(is_, hit[0], ells)):
            return hit[1]
        value = build()
        table[key] = ells, value
        return value

    def recursion_rhs(self, j: int) -> Poly:
        """l_j''' + 4 u l_j' + 2 u' l_j."""
        return (self.jet(j, 3) + 4 * self.u * self.jet(j, 1)
                + 2 * self.du * self.ell(j))

    def with_entry(self, j: int, value: Poly) -> "LenardSequence":
        """Copy with entry j replaced (boundary conditions, corruption tests).
        The recursion invariant is deliberately not re-checked."""
        ells = list(self.ells)
        if j == len(ells):
            ells.append(value)
        else:
            self.ell(j)
            ells[j] = value
        return LenardSequence(ells, self.ring, dict(self.rules))


def generate(seed: SeedCondition, count: int, constants: list) -> LenardSequence:
    """Integrate the recursion ``count`` times, adding one constant per step."""
    if count < 1:
        raise ValueError("count must be positive")
    if len(constants) != count:
        raise ValueError(f"need {count} integration constants, got {len(constants)}")
    seq = LenardSequence([seed.poly], U_RING)
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
        seq.ells.append(nxt + U_RING.const(Fraction(constants[j])))
        # D(l_{j+1}) is the jet the next step reads
        if seq.jet(j + 1, 1) != rhs:
            err = NotExactDerivative(
                f"recursion step {j} -> {j + 1}: the derivative of the formal "
                f"integral differs from the recursion right-hand side")
            err.step_index = j
            raise err
    return seq


def symbolic(seed: SeedCondition, count: int) -> LenardSequence:
    """Sequence with opaque entries l_1 .. l_count and recursion-closed D."""
    if count < 1:
        raise ValueError("count must be positive")
    names = tuple(f"l{j}" for j in range(1, count + 1))
    ring = Ring(("u",) + names)
    seq = LenardSequence([ring.embed(seed.poly)], ring)
    for j in range(1, count + 1):
        seq.rules[f"l{j}"] = seq.recursion_rhs(j - 1)
        seq.ells.append(ring.var(f"l{j}", 0))
    return seq


# -- Omega and the lattice identities -----------------------------------------

def _omega_sum(seq: LenardSequence, pairs, products=()) -> Poly:
    """Sum of w Omega_{n,m} over the (int w, n, m) of ``pairs`` and of the
    (weight, factor, factor) ``products``: one accumulate of l_n'' l_m -
    l_n' l_m' + l_n l_m'' (2w l_n'' l_n if n = m) and one of u's 4w l_n l_m."""
    products, u_parts = list(products), []
    for w, n, m in pairs:
        n0, n1, n2 = (seq.jet(n, i) for i in range(3))
        m0, m1, m2 = (seq.jet(m, i) for i in range(3))
        products += [(2 * w, n2, n0)] if n == m else [(w, n2, m0), (w, n0, m2)]
        products.append((-w, n1, m1))
        u_parts.append((4 * w, n0, m0))
    return seq.ring.sum_products(products + [(1, seq.u, seq.ring.sum_products(u_parts))])


def omega(seq: LenardSequence, n: int, m: int) -> Poly:
    """(l_n l_m)'' - 3 l_n' l_m' + 4 u l_n l_m, expanded by Leibniz:
    l_n'' l_m - l_n' l_m' + l_n l_m'' + 4 u l_n l_m."""
    return _omega_sum(seq, [(1, n, m)])


def bracket_diagonal(seq: LenardSequence, a: int, b: int) -> Poly:
    """sum_{q=0}^{a-b} B_{a-q,b+q}, the brackets B_{a,b} = Omega_{a,b} -
    l_a l_{b+1} of a whole anti-diagonal, from (a, b) to (b, a); zero for
    a < b.  Omega_{a,b} = Omega_{b,a}, and the lifts l_{a-q} l_{b+q+1} of
    steps q and a - b - 1 - q are one product: each mirrored pair is listed
    once with weight 2 (the middle one 1); the last lift has no mirror."""
    if a < b:
        return seq.ring.zero()
    lifts = [(-1 if 2 * q + 1 == a - b else -2, seq.ell(a - q), seq.ell(b + q + 1))
             for q in range((a - b + 1) // 2)]
    return _omega_sum(seq, [(1 if 2 * q == a - b else 2, a - q, b + q)
                            for q in range((a - b) // 2 + 1)],
                      lifts + [(-1, seq.ell(b), seq.ell(a + 1))])


def _factors(seq: LenardSequence, j: int) -> tuple:
    """(P_j, Q_j), where Q_j = l_j''' + 4 u l_j' and P_j = Q_j + 4 u' l_j."""
    q = seq.jet(j, 3) + 4 * seq.u * seq.jet(j, 1)
    return q + 4 * seq.du * seq.jet(j, 0), q


def _step(seq: LenardSequence, m: int, n: int) -> Poly:
    """The unit step T(m, n, 1) = l_m l_n' - l_{m+1} l_{n-1}' - B_{n-1,m}' =
    l_m l_n' + l_{n-1} l_{m+1}' - (l_m P_{n-1} + l_{n-1} Q_m), kept on ``seq``
    with the factors it reads; the sides are compared before any subtraction,
    so a passing step subtracts nothing."""
    def factor(j: int, i: int) -> Poly:
        return seq._kept(seq._pq, j, (j,), lambda: _factors(seq, j))[i]

    def build() -> Poly:
        lm, lb = seq.ell(m), seq.ell(n - 1)
        lhs = lm * seq.jet(n, 1) + lb * seq.jet(m + 1, 1)
        rhs = lm * factor(n - 1, 0) + lb * factor(m, 1)
        return seq.ring.zero() if lhs == rhs else lhs - rhs

    return seq._kept(seq._steps, (m, n), (m, m + 1, n - 1, n), build)


def master_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_{n+1}' + l_n l_{m+1}' - Omega_{n,m}', where Omega_{n,m}' = l_m P_n +
    l_n Q_m: the unit step T(m, n + 1, 1); zero for any recursion-consistent
    sequence."""
    return _step(seq, m, n + 1)


def shift_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_n' - l_{m+1} l_{n-1}' - B_{n-1,m}', the unit step T(m, n, 1)."""
    if n < 1:
        raise IndexOutOfRange("shift identity needs n >= 1")
    return _step(seq, m, n)


def transport_residual(seq: LenardSequence, m: int, n: int, r: int) -> Poly:
    """Residual of moving l_m l_n' a distance r along an anti-diagonal,
    T(m, n, r) = l_m l_n' - l_{m+r} l_{n-r}' - sum_{q<r} B_{n-q-1,m+q}', which
    telescopes into the r unit steps T(m + q, n - q, 1)."""
    if not 0 <= r <= n:
        raise IndexOutOfRange(f"transport distance {r} outside 0..{n}")
    seq.ell(m), seq.ell(n)      # refused even at r = 0, where no step reads them
    return sum((_step(seq, m + q, n - q) for q in range(r)), seq.ring.zero())


# -- closed-form route for the classical seed ----------------------------------

def closed_form_standard(count: int) -> list:
    """[l_0, ..., l_count] of the classical seed l_0 = 1/2 via the sigma-
    degeneration rearrangement, from one sweep with no integration
    performed: sigma_p = 0 gives l_p = sum_{q<p-1} B_{p-1-q,q} +
    Omega_{0,p-1}, the whole bracket diagonal taken while l_p is still zero
    (its only l_p is the -l_0 l_p of B_{0,p-1})."""
    if count < 1:
        raise IndexOutOfRange("closed form defined for count >= 1")
    seq = LenardSequence([SeedCondition.standard().poly], U_RING)
    for p in range(1, count + 1):
        seq.ells.append(U_RING.zero())
        seq.ells[p] = bracket_diagonal(seq, p - 1, 0)
    return seq.ells
