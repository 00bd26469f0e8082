"""Lax-pair coefficients as Laurent polynomials in z over jet polynomials.

The off-diagonal coefficient b(z, s) is the generating series of a Lenard
sequence,

    b = 4 / (4z)^(k+1) * sum_{j=0}^{k} l_{k-j} (4z)^j,

and matching powers of z in

    z b' = (b''' + 4 u b' + 2 u' b) / 4 + 1/2

reproduces the recursion coefficient by coefficient.  Because multiplying by
z shifts powers, the check at order z^(-(k+1)) needs the next series term
l_{k+1}; ``compatibility_residual`` therefore works with the series through
l_{k+1} and truncates below the order the expansion supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jetring import Poly, Ring
from .lenard import IndexOutOfRange, LenardSequence


class SeedMismatch(ValueError):
    """The constant term of the compatibility relation needs l_0 = s/2."""


@dataclass
class LaurentPoly:
    """Finite map from integer z-power to a jet-polynomial coefficient."""

    ring: Ring
    coeffs: dict

    def __post_init__(self):
        self.coeffs = {n: p for n, p in self.coeffs.items() if not p.is_zero()}

    @classmethod
    def zero(cls, ring: Ring) -> "LaurentPoly":
        return cls(ring, {})

    @classmethod
    def z(cls, ring: Ring, power: int = 1) -> "LaurentPoly":
        return cls(ring, {power: ring.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Poly:
        return self.coeffs.get(n, self.ring.zero())

    def powers(self) -> list:
        return sorted(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for n, p in other.coeffs.items():
            out[n] = out.get(n, self.ring.zero()) + p
        return LaurentPoly(self.ring, out)

    def __neg__(self):
        return LaurentPoly(self.ring, {n: -p for n, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Multiply by a scalar or a jet polynomial (z-degree preserving)."""
        if isinstance(other, (int, Fraction, Poly)):
            return LaurentPoly(self.ring, {n: p * other for n, p in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by z**n."""
        return LaurentPoly(self.ring, {m + n: p for m, p in self.coeffs.items()})

    def derivative(self, seq: LenardSequence | None = None) -> "LaurentPoly":
        rules = seq.rules or None if seq is not None else None
        return LaurentPoly(self.ring,
                           {n: p.total_derivative(rules) for n, p in self.coeffs.items()})

    def truncate(self, min_power: int) -> "LaurentPoly":
        return LaurentPoly(self.ring,
                           {n: p for n, p in self.coeffs.items() if n >= min_power})


@dataclass
class LaxMatrices:
    """A = a*sigma3 + b*sigma+ + c*sigma-;  B = (z - u)*sigma- + sigma+."""

    A: tuple
    B: tuple

    def trace_A(self) -> LaurentPoly:
        return self.A[0][0] + self.A[1][1]


def build_b(seq: LenardSequence, k: int) -> LaurentPoly:
    """Coefficient of z^(j-k-1) is 4^(j-k) * l_{k-j}, for j = 0..k."""
    if len(seq) < k + 1:
        raise IndexOutOfRange(f"sequence must provide l_0..l_{k}")
    coeffs = {}
    for j in range(k + 1):
        coeffs[j - k - 1] = seq.ell(k - j) * Fraction(4) ** (j - k)
    return LaurentPoly(seq.ring, coeffs)


def derive_a_c(b: LaurentPoly, u: Poly, seq: LenardSequence | None = None):
    """a = -b'/2;  c = (z - u) b - b''/2, coefficient-wise in z."""
    db = b.derivative(seq)
    a = db * Fraction(-1, 2)
    c = b.shift(1) - b * u - db.derivative(seq) * Fraction(1, 2)
    return a, c


def _half(ring: Ring) -> Poly:
    return ring.const(Fraction(1, 2))


def compatibility_residual(seq: LenardSequence, k: int) -> LaurentPoly:
    """z b' - (b''' + 4 u b' + 2 u' b)/4 - 1/2, expanded through l_{k+1} and
    truncated to the orders z^(-(k+1))..z^0 the series determines.

    Zero iff every recursion step l_0 -> ... -> l_{k+1} holds and l_0 = s/2
    (the z^0 coefficient is l_0' - 1/2)."""
    if len(seq) < k + 2:
        raise IndexOutOfRange(f"sequence must provide l_0..l_{k + 1}")
    ring = seq.ring
    if seq.ell(0) != ring.s() * Fraction(1, 2):
        raise SeedMismatch(
            f"compatibility needs l_0 = s/2, got l_0 = {seq.ell(0)!s}")
    return _b_relation_residual(seq, k)


def _b_relation_residual(seq: LenardSequence, k: int) -> LaurentPoly:
    ring = seq.ring
    b_ext = build_b(seq, k + 1)
    db = b_ext.derivative(seq)
    lin = (db.derivative(seq).derivative(seq)
           + db * (4 * seq.u)
           + b_ext * (2 * seq.D(seq.u)))
    resid = db.shift(1) - lin * Fraction(1, 4) - LaurentPoly(ring, {0: _half(ring)})
    return resid.truncate(-(k + 1))


def c_relation_residual(seq: LenardSequence, k: int) -> LaurentPoly:
    """c' - 1 - 2 (z - u) a with a, c derived from b; twice the b-relation
    residual, so it vanishes under the same conditions."""
    if len(seq) < k + 2:
        raise IndexOutOfRange(f"sequence must provide l_0..l_{k + 1}")
    ring = seq.ring
    b_ext = build_b(seq, k + 1)
    a, c = derive_a_c(b_ext, seq.u, seq)
    za = a.shift(1) - a * seq.u
    resid = c.derivative(seq) - LaurentPoly(ring, {0: ring.one()}) - za * 2
    return resid.truncate(-(k + 1))


def build_lax_matrices(seq: LenardSequence, k: int, u: Poly | None = None) -> LaxMatrices:
    ring = seq.ring
    u = u if u is not None else seq.u
    b = build_b(seq, k)
    a, c = derive_a_c(b, u, seq)
    zero = LaurentPoly.zero(ring)
    one = LaurentPoly(ring, {0: ring.one()})
    z_minus_u = LaurentPoly(ring, {1: ring.one(), 0: -u})
    return LaxMatrices(A=((a, b), (c, -a)),
                       B=((zero, one), (z_minus_u, zero)))
