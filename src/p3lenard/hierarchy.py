"""The k-th hierarchy ODE system and its constants of motion.

``build_p3_system`` emits, for p = 1..k,

    sum_{q=0}^{p} ( l_{k-p+q+1} l_{k-q} - (l_{k-p+q} l_{k-q})''
                    + 3 l_{k-p+q}' l_{k-q}' - 4 u l_{k-p+q} l_{k-q} ) - tau_p

that is, the constant of motion tau_p of ``conserved_tau`` minus the
parameter tau_p, with the boundary entries l_0 = s/2 and l_{k+1} = 0, after
eliminating u through the same sum at p = 0, -Omega_{k,k} - tau_0 = 0,
which is linear in u:

    u = -((l_k^2)'' - 3 (l_k')^2 + tau_0) / (4 l_k^2).

The constants of motion tau_p and sigma_p = -l_0 l_p + sum_{q<p}
B_{p-1-q,q} are sums of brackets B_{a,b} = Omega_{a,b} - l_a l_{b+1} over a
whole anti-diagonal of a Lenard sequence in the u-jet ring;
``conserved_tau`` builds tau_p, and sigma_p enters only through its
conservation residual.  Omega_{a,b} = Omega_{b,a}, because products
commute, so ``lenard.bracket_diagonal`` lists the jet products of each
mirrored pair once, ceil((p+1)/2) Omegas for tau_p and ceil(p/2) + 1 lifts
l_a l_{b+1}, and sums tau_p in two accumulates, one for its u terms.
Each conservation residual is, up to sign, one transport residual
T(m, n, r) = ``transport_residual(seq, m, n, r)``, a sum of the r unit
steps kept on the sequence, and vanishes for any seed, by the recursion
alone:

    D(tau_p) + 2 l_{k-p} D(l_{k+1}) =  T(k-p, k+1, p+1),
    D(sigma_p) + 2 l_p D(l_0)       = -T(0, p, p).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .jetring import Poly, RatExpr, Ring
from .lenard import (IndexOutOfRange, LenardSequence, bracket_diagonal,
                     transport_residual)


def hierarchy_ring(k: int) -> Ring:
    """Ring in the unknowns l_1..l_k, the symbol u, and parameters tau_0..tau_k."""
    return Ring(("u",) + tuple(f"l{p}" for p in range(1, k + 1)),
                tuple(f"tau{p}" for p in range(k + 1)))


class HierarchySystem(namedtuple("HierarchySystem", "equations u_expr ring")):
    """Equations (= 0) of the k-th member, k = ``len(equations)``, with u
    already eliminated; ``equations[p - 1]`` is the RatExpr of equation p."""

    __slots__ = ()


def boundary_jet_sequence(k: int) -> LenardSequence:
    """l_0 = s/2, l_1..l_k as independent jet unknowns, l_{k+1} = 0.

    Derivatives are plain jet shifts: this is the hierarchy's view of the
    sequence, where the l_p are unknown functions rather than recursion
    output."""
    ring = hierarchy_ring(k)
    ells = [ring.s() * Fraction(1, 2)]
    for p in range(1, k + 1):
        ells.append(ring.var(f"l{p}", 0))
    ells.append(ring.zero())
    return LenardSequence(ells, ring)


def build_p3_system(k: int) -> HierarchySystem:
    if k < 1:
        raise ValueError("k must be positive")
    seq = boundary_jet_sequence(k)
    ring = seq.ring
    # l_{k+1} = 0 in seq, so the boundary term of conserved_tau vanishes.
    sums = [conserved_tau(seq, k, p) - ring.param(f"tau{p}")
            for p in range(k + 1)]
    part = sums[0].collect("u", 0)      # -Omega_{k,k} - tau_0, linear in u
    u_expr = RatExpr(-part[0], part[1])
    equations = [RatExpr(acc).subs_var("u", 0, u_expr) for acc in sums[1:]]
    return HierarchySystem(equations, u_expr, ring)


# -- constants of motion -------------------------------------------------------

def conserved_tau(seq: LenardSequence, k: int, p: int) -> Poly:
    """-(l_{k+1} l_{k-p} + sum_{q=0}^{p} B_{k-q,k-p+q}), the anti-diagonal
    sum that ``transport_residual`` differentiates with (m, n, r) =
    (k-p, k+1, p+1); sigma_p is the one with (m, n, r) = (0, p, p)."""
    if not 0 <= p <= k:
        raise IndexOutOfRange(f"tau index {p} outside 0..{k}")
    if len(seq) < k + 2:
        raise IndexOutOfRange(f"sequence must extend through index {k + 1}")
    return -(bracket_diagonal(seq, k, k - p) + seq.ell(k + 1) * seq.ell(k - p))


def conservation_residual(seq: LenardSequence, k: int, p: int, kind: str) -> Poly:
    """D(tau_p) + 2 l_{k-p} D(l_{k+1}) = T(k-p, k+1, p+1) or D(sigma_p) +
    2 l_p D(l_0) = -T(0, p, p); zero for every recursion-consistent sequence."""
    if kind == "tau":
        if not 0 <= p <= k:
            raise IndexOutOfRange(f"tau index {p} outside 0..{k}")
        return transport_residual(seq, k - p, k + 1, p + 1)
    if kind == "sigma":
        return -transport_residual(seq, 0, p, p)
    raise ValueError(f"unknown kind {kind!r}")
