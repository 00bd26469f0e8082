"""The k-th hierarchy ODE system and its constants of motion.

``build_p3_system`` emits, for p = 1..k,

    sum_{q=0}^{p} ( l_{k-p+q+1} l_{k-q} - (l_{k-p+q} l_{k-q})''
                    + 3 l_{k-p+q}' l_{k-q}' - 4 u l_{k-p+q} l_{k-q} ) - tau_p

that is, the constant of motion tau_p of ``conserved_tau`` minus the
parameter tau_p, with the boundary entries l_0 = s/2 and l_{k+1} = 0, after
eliminating u via

    u = -((l_k^2)'' - 3 (l_k')^2 + tau_0) / (4 l_k^2).

The constants of motion tau_p / sigma_p are built from a Lenard sequence in
the u-jet ring; their conservation residuals vanish identically for any
seed, because they follow from the recursion alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jetring import Poly, RatExpr, Ring, ZeroDenominator
from .lenard import (IndexOutOfRange, LenardSequence, SeedCondition,
                     bracket, omega)

__all__ = [
    "HierarchySystem", "ConservedQuantity", "hierarchy_ring",
    "build_p3_system", "equation_equivalent", "boundary_jet_sequence",
    "conserved_tau", "conserved_sigma", "conservation_residual",
    "ZeroDenominator",
]


def hierarchy_ring(k: int) -> Ring:
    """Ring in the unknowns l_1..l_k, the symbol u, and parameters tau_0..tau_k."""
    return Ring(("u",) + tuple(f"l{p}" for p in range(1, k + 1)),
                tuple(f"tau{p}" for p in range(k + 1)))


@dataclass
class HierarchySystem:
    """Equations (= 0) of the k-th member, with u already eliminated."""

    k: int
    tau_names: tuple
    equations: list          # RatExpr, index p-1 holds equation p
    u_expr: RatExpr
    ring: Ring

    def equation(self, p: int) -> RatExpr:
        if not 1 <= p <= self.k:
            raise IndexOutOfRange(f"equation index {p} outside 1..{self.k}")
        return self.equations[p - 1]


def boundary_jet_sequence(k: int, ring: Ring | None = None) -> LenardSequence:
    """l_0 = s/2, l_1..l_k as independent jet unknowns, l_{k+1} = 0.

    Derivatives are plain jet shifts: this is the hierarchy's view of the
    sequence, where the l_p are unknown functions rather than recursion
    output."""
    ring = ring or hierarchy_ring(k)
    ells = [ring.s() * Fraction(1, 2)]
    for p in range(1, k + 1):
        ells.append(ring.var(f"l{p}", 0))
    ells.append(ring.zero())
    return LenardSequence(SeedCondition.painleve3(), ells, [], ring)


def u_elimination(k: int, ring: Ring) -> RatExpr:
    lk = ring.var(f"l{k}", 0)
    lk2 = lk * lk
    num = (lk2.total_derivative().total_derivative()
           - 3 * lk.total_derivative() ** 2
           + ring.param("tau0"))
    return RatExpr(-num, 4 * lk2)


def build_p3_system(k: int) -> HierarchySystem:
    if k < 1:
        raise ValueError("k must be positive")
    ring = hierarchy_ring(k)
    seq = boundary_jet_sequence(k, ring)
    u_expr = u_elimination(k, ring)
    equations = []
    for p in range(1, k + 1):
        # l_{k+1} = 0 in seq, so the boundary term of conserved_tau vanishes.
        acc = conserved_tau(seq, k, p).expr - ring.param(f"tau{p}")
        equations.append(RatExpr(acc).subs_var("u", 0, u_expr))
    return HierarchySystem(k, ring.params, equations, u_expr, ring)


def equation_equivalent(e1: RatExpr, e2: RatExpr) -> bool:
    """Whether two equations ``e = 0`` cut the same locus.

    Denominators are cleared and the resulting polynomials compared after
    stripping monomial and rational content, so display forms that differ by
    a factor like s or 4*l_k**2 compare equal while any change to a
    coefficient or parameter does not."""
    a = (e1.num * e2.den).primitive_core()
    b = (e2.num * e1.den).primitive_core()
    return a == b


# -- constants of motion -------------------------------------------------------

@dataclass(frozen=True)
class ConservedQuantity:
    p: int
    kind: str            # "tau" | "sigma"
    expr: Poly


def conserved_tau(seq: LenardSequence, k: int, p: int) -> ConservedQuantity:
    """-l_{k+1} l_{k-p} + sum_{q=0}^{p} (l_{k-q} l_{k-p+q+1} - Omega_{k-p+q,k-q})."""
    if not 0 <= p <= k:
        raise IndexOutOfRange(f"tau index {p} outside 0..{k}")
    if len(seq) < k + 2:
        raise IndexOutOfRange(f"sequence must extend through index {k + 1}")
    acc = -seq.ell(k + 1) * seq.ell(k - p)
    for q in range(p + 1):
        acc += (seq.ell(k - q) * seq.ell(k - p + q + 1)
                - omega(seq, k - p + q, k - q))
    return ConservedQuantity(p, "tau", acc)


def conserved_sigma(seq: LenardSequence, p: int) -> ConservedQuantity:
    """-l_0 l_p + sum_{q=0}^{p-1} (Omega_{p-1-q,q} - l_{p-1-q} l_{q+1})."""
    if p < 0:
        raise IndexOutOfRange("sigma index must be nonnegative")
    if len(seq) < p + 1:
        raise IndexOutOfRange(f"sequence must extend through index {p}")
    acc = -seq.ell(0) * seq.ell(p)
    for q in range(p):
        acc += bracket(seq, p - 1 - q, q)
    return ConservedQuantity(p, "sigma", acc)


def conservation_residual(seq: LenardSequence, k: int, p: int, kind: str) -> Poly:
    """D(tau_p) + 2 l_{k-p} D(l_{k+1})  or  D(sigma_p) + 2 l_p D(l_0);
    normalizes to zero for every recursion-consistent sequence."""
    if kind == "tau":
        expr = conserved_tau(seq, k, p).expr
        return seq.D(expr) + 2 * seq.ell(k - p) * seq.D(seq.ell(k + 1))
    if kind == "sigma":
        expr = conserved_sigma(seq, p).expr
        return seq.D(expr) + 2 * seq.ell(p) * seq.D(seq.ell(0))
    raise ValueError(f"unknown kind {kind!r}")
