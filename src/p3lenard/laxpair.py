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

from collections import namedtuple
from fractions import Fraction

from .jetring import Poly, Ring
from .lenard import IndexOutOfRange, LenardSequence


class SeedMismatch(ValueError):
    """The constant term of the compatibility relation needs l_0 = s/2."""


class LaurentPoly(namedtuple("LaurentPoly", "ring coeffs")):
    """Finite map from integer z-power to a jet-polynomial coefficient; zero
    coefficients are dropped on construction."""

    __slots__ = ()

    def __new__(cls, ring: Ring, coeffs: dict):
        return super().__new__(
            cls, ring, {n: p for n, p in coeffs.items() if not p.is_zero()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Poly:
        return self.coeffs.get(n, self.ring.zero())

    def powers(self) -> list:
        return sorted(self.coeffs)

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

    def truncate(self, min_power: int) -> "LaurentPoly":
        return LaurentPoly(self.ring,
                           {n: p for n, p in self.coeffs.items() if n >= min_power})


def build_b(seq: LenardSequence, k: int) -> LaurentPoly:
    """Coefficient of z^(j-k-1) is 4^(j-k) * l_{k-j}, for j = 0..k."""
    if len(seq) < k + 1:
        raise IndexOutOfRange(f"sequence must provide l_0..l_{k}")
    return _b_jet(seq, range(-k - 1, 0), 0)


def _b_jet(seq: LenardSequence, powers, i: int) -> LaurentPoly:
    """D^i of the series of ``build_b``: z^p coefficient 4^(p+1) D^i(l_{-p-1})."""
    return LaurentPoly(seq.ring, {p: seq.jet(-p - 1, i) * Fraction(4) ** (p + 1)
                                  for p in powers})


def derive_a_c(b: LaurentPoly, seq: LenardSequence):
    """a = -b'/2;  c = (z - u) b - b''/2 for b = build_b(seq, k), by its jets."""
    a = _b_jet(seq, b.powers(), 1) * Fraction(-1, 2)
    c = b.shift(1) - b * seq.u - _b_jet(seq, b.powers(), 2) * Fraction(1, 2)
    return a, c


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
    b_ext = build_b(seq, k + 1)
    db = _b_jet(seq, b_ext.powers(), 1)
    lin = (_b_jet(seq, b_ext.powers(), 3) + db * (4 * seq.u)
           + b_ext * (2 * seq.du))
    half = LaurentPoly(ring, {0: ring.const(Fraction(1, 2))})
    resid = db.shift(1) - lin * Fraction(1, 4) - half
    return resid.truncate(-(k + 1))


def c_relation_residual(seq: LenardSequence, k: int) -> LaurentPoly:
    """c' - 1 - 2 (z - u) a with a, c of ``derive_a_c``; twice the b-relation
    residual, so it vanishes under the same conditions.  a = -b'/2 reads the
    b' that c' takes by Leibniz from the jets of b: c' = z b' - u b' - u' b
    - b'''/2."""
    ring = seq.ring
    b_ext = build_b(seq, k + 1)  # raises unless seq provides l_0..l_{k+1}
    db = _b_jet(seq, b_ext.powers(), 1)
    a = db * Fraction(-1, 2)
    dc = (db.shift(1) - db * seq.u - b_ext * seq.du
          - _b_jet(seq, b_ext.powers(), 3) * Fraction(1, 2))
    za = a.shift(1) - a * seq.u
    resid = dc - LaurentPoly(ring, {0: ring.one()}) - za * 2
    return resid.truncate(-(k + 1))

