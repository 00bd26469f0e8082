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
i <= 3, so no product is differentiated; Omega' and B' gather their u and u'
terms to multiply full jets only two and three times.  A ``Brackets`` table
builds each B' of a sequence once, drops it after the last window that
reads it, and its ``window`` adds one B' per step of an anti-diagonal sweep.
Products commute, so Omega_{n,m} = Omega_{m,n}: ``bracket_diagonal``, the
one sum of B over a whole anti-diagonal (tau_p, sigma_p and the closed
form), builds the Omega of each mirrored pair once and counts it twice, and
so each mirrored lift l_{a-q} l_{b+q+1}.  A jet is reused only while
``seq.ell(j)`` is the object it was computed from, so replacing an entry,
even in place through ``seq.ells[j] = ...``, recomputes its jets;
``with_entry`` starts an empty table.  Symbolic rules are fixed when built;
the jets of l_j read only those of l_1 .. l_j.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, starmap

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
    are u and u' in ``ring``, built once.  Equality and repr read the five
    fields, never the jet table or ``u`` and ``du``.
    """

    def __init__(self, seed: SeedCondition, ells: list, constants: list,
                 ring: Ring, rules: dict | None = None):
        self.seed, self.ells, self.constants, self.ring = seed, ells, constants, ring
        self.rules = {} if rules is None else rules
        self._jets = {}
        self.u, self.du = ring.var("u", 0), ring.var("u", 1)

    def _key(self):
        return self.seed, self.ells, self.constants, self.ring, self.rules

    def __eq__(self, other):
        return (self._key() == other._key()
                if other.__class__ is self.__class__ else NotImplemented)

    def __repr__(self):
        return ("LenardSequence(seed=%r, ells=%r, constants=%r, ring=%r, "
                "rules=%r)" % self._key())

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
        c = Fraction(constants[j])
        seq.ells.append(nxt + U_RING.const(c))
        seq.constants.append(c)
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
    seq = LenardSequence(seed, [ring.embed(seed.poly)], [Fraction(0)] * count, ring)
    for j in range(1, count + 1):
        seq.rules[f"l{j}"] = seq.recursion_rhs(j - 1)
        seq.ells.append(ring.var(f"l{j}", 0))
    return seq


# -- Omega and the lattice identities -----------------------------------------

def omega(seq: LenardSequence, n: int, m: int) -> Poly:
    """(l_n l_m)'' - 3 l_n' l_m' + 4 u l_n l_m, expanded by Leibniz:
    l_n'' l_m - l_n' l_m' + l_n l_m'' + 4 u l_n l_m."""
    n0, n1, n2 = (seq.jet(n, i) for i in range(3))
    m0, m1, m2 = (seq.jet(m, i) for i in range(3))
    return n2 * m0 - n1 * m1 + n0 * m2 + 4 * seq.u * (n0 * m0)


def diagonal(a: int, b: int, count: int) -> list:
    """[(a - q, b + q) for q = 0..count-1]: the anti-diagonal walk of every
    bracket sum."""
    return [(a - q, b + q) for q in range(count)]


def _lift(seq: LenardSequence, a: int, b: int) -> Poly:
    """l_a l_{b+1}, the product that B_{a,b} takes from Omega_{a,b}."""
    return seq.ell(a) * seq.ell(b + 1)


def _mirrored(f, seq: LenardSequence, a: int, b: int, count: int) -> Poly:
    """sum_{q<count} f(seq, a - q, b + q) for an f whose steps q and
    count - 1 - q agree: each mirrored pair is built once and counted
    twice."""
    half = count // 2
    total = 2 * sum((f(seq, *key) for key in diagonal(a, b, half)), seq.ring.zero())
    if count % 2:
        total += f(seq, a - half, b + half)
    return total


def bracket_diagonal(seq: LenardSequence, a: int, b: int) -> Poly:
    """sum_{q=0}^{a-b} B_{a-q,b+q}, the brackets B_{a,b} = Omega_{a,b} -
    l_a l_{b+1} of a whole anti-diagonal, from (a, b) to (b, a); zero for
    a < b.  Products commute, so Omega_{a,b} = Omega_{b,a}, and the lifts
    l_{a-q} l_{b+q+1} of steps q and a - b - 1 - q are one product: the
    Omega of each mirrored pair and each mirrored lift are built once and
    counted twice.  The last lift, l_b l_{a+1}, has no mirror."""
    if a < b:
        return seq.ring.zero()
    lifts = _mirrored(_lift, seq, a, b, a - b) + _lift(seq, b, a)
    return _mirrored(omega, seq, a, b, a - b + 1) - lifts


def _omega_prime(seq: LenardSequence, n: int, m: int) -> Poly:
    """Omega_{n,m}' by Leibniz, where the l'' l' terms cancel, in two products
    of full jets: l_m (l_n''' + 4 u l_n' + 4 u' l_n) + l_n (l_m''' + 4 u l_m')."""
    n0, n1, n3 = seq.jet(n, 0), seq.jet(n, 1), seq.jet(n, 3)
    m0, m1, m3 = seq.jet(m, 0), seq.jet(m, 1), seq.jet(m, 3)
    u4, du4 = 4 * seq.u, 4 * seq.du
    return m0 * (n3 + u4 * n1 + du4 * n0) + n0 * (m3 + u4 * m1)


def _bracket_prime(seq: LenardSequence, a: int, b: int) -> Poly:
    """B_{a,b}' = Omega_{a,b}' - l_a' l_{b+1} - l_a l_{b+1}' in three products
    of full jets: l_b (l_a''' + 4 u l_a' + 4 u' l_a)
    + l_a (l_b''' + 4 u l_b' - l_{b+1}') - l_a' l_{b+1}."""
    a0, a1, a3 = seq.jet(a, 0), seq.jet(a, 1), seq.jet(a, 3)
    b0, b1, b3 = seq.jet(b, 0), seq.jet(b, 1), seq.jet(b, 3)
    u4, du4 = 4 * seq.u, 4 * seq.du
    return (b0 * (a3 + u4 * a1 + du4 * a0) + a0 * (b3 + u4 * b1 - seq.jet(b + 1, 1))
            - a1 * seq.ell(b + 1))


def master_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_{n+1}' + l_n l_{m+1}' - Omega_{n,m}'; zero for any recursion-
    consistent sequence."""
    lhs = seq.ell(m) * seq.jet(n + 1, 1) + seq.ell(n) * seq.jet(m + 1, 1)
    return lhs - _omega_prime(seq, n, m)


def shift_identity_residual(seq: LenardSequence, n: int, m: int) -> Poly:
    """l_m l_n' - l_{m+1} l_{n-1}' - B_{n-1,m}', the transport residual T(m, n, 1)."""
    if n < 1:
        raise IndexOutOfRange("shift identity needs n >= 1")
    return transport_residual(seq, m, n, 1)


class Brackets(dict):
    """B'_{a,b} of one sequence by (a, b), each built once through the
    module's ``_bracket_prime``.  Given the (m, n, top) of every window a
    run reads, it drops each entry after its last read."""

    def __init__(self, seq: LenardSequence, windows=()):
        self.seq = seq
        self.reads = Counter(key for m, n, top in windows
                             for key in diagonal(n - 1, m, top))

    def __call__(self, a: int, b: int) -> Poly:
        key = a, b
        if key not in self:
            self[key] = _bracket_prime(self.seq, a, b)
        self.reads[key] -= 1
        return self[key] if self.reads[key] else self.pop(key)

    def window(self, m: int, n: int, top: int, start: int = 0):
        """Yield the two sides of T(m, n, r) for r = start..top: the jet
        products l_m l_n' - l_{m+r} l_{n-r}' and the running sum of B',
        which adds one entry per step.  T(m, n, r) is zero iff they agree."""
        if not 0 <= top <= n:
            raise IndexOutOfRange(f"transport distance {top} outside 0..{n}")
        seq = self.seq
        head = seq.ell(m) * seq.jet(n, 1)
        sums = accumulate(starmap(self, diagonal(n - 1, m, top)),
                          initial=seq.ring.zero())
        for r, brackets in enumerate(sums):
            if r >= start:
                yield head - seq.ell(m + r) * seq.jet(n - r, 1), brackets


def transport_residual(seq: LenardSequence, m: int, n: int, r: int, *,
                       table: Brackets | None = None) -> Poly:
    """Residual of moving l_m l_n' a distance r along an anti-diagonal,
    T(m, n, r) = l_m l_n' - l_{m+r} l_{n-r}' - sum_{q<r} B_{n-q-1,m+q}',
    from exactly r bracket derivatives B' (three products of full jets each)
    of ``table``, a fresh ``Brackets(seq)`` by default."""
    table = Brackets(seq) if table is None else table
    jets, brackets = next(table.window(m, n, r, start=r))
    return jets - brackets


# -- closed-form route for the classical seed ----------------------------------

def closed_form_standard(count: int) -> list:
    """[l_0, ..., l_count] of the classical seed l_0 = 1/2 via the sigma-
    degeneration rearrangement, from one sweep with no integration
    performed: sigma_p = 0 gives l_p = sum_{q<p-1} B_{p-1-q,q} +
    Omega_{0,p-1}, the whole bracket diagonal taken while l_p is still zero
    (its only l_p is the -l_0 l_p of B_{0,p-1})."""
    if count < 1:
        raise IndexOutOfRange("closed form defined for count >= 1")
    seed = SeedCondition.standard()
    seq = LenardSequence(seed, [seed.poly], [], U_RING)
    for p in range(1, count + 1):
        seq.ells.append(U_RING.zero())
        seq.ells[p] = bracket_diagonal(seq, p - 1, 0)
    return seq.ells
