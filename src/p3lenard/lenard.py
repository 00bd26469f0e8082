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
i <= 3, so no product is differentiated.  A ``Lattice`` table, owned by one
run of checks, builds each factor of one index once from l_j's own jets:
P_j = l_j''' + 4 u l_j' + 4 u' l_j (never l_{j+1}' + 2 u' l_j, which holds
only where the recursion does), Q_j = l_j''' + 4 u l_j', R_j = Q_j - l_{j+1}',
so Omega_{n,m}' = l_m P_n + l_n Q_m and B_{a,b}' = l_b P_a + l_a R_b - l_a' l_{b+1}.
It sums each anti-diagonal c once, G_c(t) = l_t l_{c-t}' plus the B_{c-1-j,j}'
for j < t that a check spans, so T(m, n, r) = G_{m+n}(m) - G_{m+n}(m+r); it
drops each entry after its last planned read.  Products commute, so Omega_{n,m} =
Omega_{m,n}: ``bracket_diagonal``, the one sum of B over a whole
anti-diagonal (tau_p, sigma_p and the closed form), lists each jet product
of a mirrored pair once with weight 2, and so each mirrored lift, and sums
them in one accumulate, with the u terms in one more.  A jet is reused
only while ``seq.ell(j)`` is the object it was computed from, so replacing
an entry, even in place through ``seq.ells[j] = ...``, recomputes its
jets; ``with_entry`` starts an empty table.  Symbolic rules are fixed when built; the jets of l_j read only
those of l_1 .. l_j.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction

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
        self._jets = {}
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


class Lattice(dict):
    """The factors P_j, Q_j, R_j and sums G_c(t) that the transport residuals
    (m, n, r) in ``checks`` and the Omega' (n, m) in ``pairs`` read from one
    sequence, each built once and dropped after its last planned read."""

    def __init__(self, seq: LenardSequence, checks=(), pairs=()):
        self.seq, self.reads, self.runs = seq, Counter(), {}
        for m, n, r in checks:
            if not 0 <= r <= n:
                raise IndexOutOfRange(f"transport distance {r} outside 0..{n}")
            self.reads.update(((m + n, m), (m + n, m + r)))
        self.steps = {(m + n, j) for m, n, r in checks for j in range(m, m + r)}
        for c in {c for c, _ in self.reads}:
            reads = sorted(t for d, t in self.reads if d == c)
            self.runs.update(dict.fromkeys([(c, t) for t in reads], self._run(c, reads)))
        for c, j in self.steps:
            self.reads.update((("P", c - 1 - j), ("R", j)))
        self.reads.update(("Q", j) for j in {j for _, j in self.steps})
        self.reads.update(key for n, m in pairs for key in (("P", n), ("Q", m)))

    def sides(self, m: int, n: int, r: int) -> tuple:
        """(G_c(m), G_c(m + r)) with c = m + n; T(m, n, r) is their difference."""
        return self._sum(m + n, m), self._sum(m + n, m + r)

    def omega_prime(self, n: int, m: int) -> Poly:
        """Omega_{n,m}' = l_m P_n + l_n Q_m; the l'' l' terms cancel."""
        return (self.seq.ell(m) * self._factor("P", n)
                + self.seq.ell(n) * self._factor("Q", m))

    def _take(self, key):
        self.reads[key] -= 1
        return self[key] if self.reads[key] else self.pop(key)

    def _factor(self, kind: str, j: int) -> Poly:
        if (kind, j) not in self:
            if kind == "R":
                self[kind, j] = self._factor("Q", j) - self.seq.jet(j + 1, 1)
            else:
                for name, value in zip("PQ", _factors(self.seq, j)):
                    if self.reads[name, j]:
                        self[name, j] = value
        return self._take((kind, j))

    def _bracket(self, a: int, b: int) -> Poly:
        """B_{a,b}' in three products of full jets and factors."""
        seq = self.seq
        return (seq.ell(b) * self._factor("P", a) + seq.ell(a) * self._factor("R", b)
                - seq.jet(a, 1) * seq.ell(b + 1))

    def _run(self, c: int, reads: list):
        """Yield ((c, t), G_c(t)) at the sorted read positions t of diagonal c.
        Steps no check spans add no B'; a sum equal to the one before is that
        object, so the sums of a run whose checks pass hold the memory of one."""
        seq, total, last_sum = self.seq, self.seq.ring.zero(), None
        for last, t in zip(reads[:1] + reads, reads):
            if (c, last) in self.steps:
                for j in range(last, t):
                    total += self._bracket(c - 1 - j, j)
            value = total + seq.ell(t) * seq.jet(c - t, 1)
            last_sum = last_sum if value == last_sum else value
            yield (c, t), last_sum

    def _sum(self, c: int, t: int) -> Poly:
        """G_c(t), keeping each G that its run passes on the way."""
        while (c, t) not in self:
            key, value = next(self.runs[c, t])
            del self.runs[key]
            self[key] = value
        return self._take((c, t))


def master_identity_residual(seq: LenardSequence, n: int, m: int, *,
                             table: Lattice | None = None) -> Poly:
    """l_m l_{n+1}' + l_n l_{m+1}' - Omega_{n,m}'; zero for any recursion-
    consistent sequence.  Omega' reads P_n and Q_m from ``table``, a fresh
    ``Lattice`` for this one pair by default."""
    table = Lattice(seq, pairs=[(n, m)]) if table is None else table
    lhs = seq.ell(m) * seq.jet(n + 1, 1) + seq.ell(n) * seq.jet(m + 1, 1)
    rhs = table.omega_prime(n, m)
    return seq.ring.zero() if lhs == rhs else lhs - rhs


def shift_identity_residual(seq: LenardSequence, n: int, m: int, *,
                            table: Lattice | None = None) -> Poly:
    """l_m l_n' - l_{m+1} l_{n-1}' - B_{n-1,m}', the transport residual T(m, n, 1)."""
    if n < 1:
        raise IndexOutOfRange("shift identity needs n >= 1")
    return transport_residual(seq, m, n, 1, table=table)


def transport_residual(seq: LenardSequence, m: int, n: int, r: int, *,
                       table: Lattice | None = None) -> Poly:
    """Residual of moving l_m l_n' a distance r along an anti-diagonal,
    T(m, n, r) = l_m l_n' - l_{m+r} l_{n-r}' - sum_{q<r} B_{n-q-1,m+q}'
    = G_{m+n}(m) - G_{m+n}(m+r), zero when both are one object, from exactly
    r B' of ``table``, a fresh ``Lattice`` for this one check by default."""
    table = Lattice(seq, [(m, n, r)]) if table is None else table
    start, end = table.sides(m, n, r)
    return seq.ring.zero() if start is end else start - end


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
