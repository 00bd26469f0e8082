"""Reference implementations that tests compare the package with.

No command runs these, so they live here, not in ``p3lenard``.  Each is
written against the package's public API: terms are read through
``Poly.rows()`` and polynomials built through ``Poly(ring, mapping)``.
"""

from fractions import Fraction
from math import gcd

from p3lenard import lenard
from p3lenard.jetring import Poly, RatExpr
from p3lenard.lenard import IndexOutOfRange, LenardSequence


class MissingJetValue(KeyError):
    """Numeric evaluation referenced a jet order or a parameter with no
    supplied value."""


def sorted_terms(p: Poly) -> list:
    """(monomial, Fraction coefficient) pairs of ``p.rows()``, greatest first."""
    return [(m, Fraction(c, p.den)) for m, c in p.rows()]


def evaluate(e, s_value, jet_values=None, param_values=None) -> float:
    """Floating-point value of a ``Poly``, summed term by term in sorted
    monomial order, or of a ``RatExpr`` as the quotient of those values; a
    vanishing denominator raises ``ZeroDivisionError``."""
    if isinstance(e, RatExpr):
        d = evaluate(e.den, s_value, jet_values, param_values)
        if d == 0.0:
            raise ZeroDivisionError("denominator vanished at evaluation point")
        return evaluate(e.num, s_value, jet_values, param_values) / d
    jet_values = jet_values or {}
    param_values = param_values or {}
    total = 0.0
    for (s_pow, jets, pars), c in sorted_terms(e):
        v = float(c) * s_value ** s_pow
        for (d, o), k in jets:
            name = e.ring.dependents[d]
            values = jet_values.get(name)
            if values is None or o >= len(values):
                raise MissingJetValue(f"missing value for {name}^({o})")
            v *= values[o] ** k
        for p, k in pars:
            name = e.ring.params[p]
            if name not in param_values:
                raise MissingJetValue(f"missing value for parameter {name}")
            v *= param_values[name] ** k
        total += v
    return total


def primitive_core(p: Poly) -> Poly:
    """``p`` over its monomial and rational content, with a positive leading
    coefficient.  Two polynomials cut the same zero set away from the
    coordinate hyperplanes iff their cores coincide."""
    rows = p.rows()
    if not rows:
        return p
    monos = [m for m, _ in rows]

    def least(i):
        """{variable: least exponent over all terms} for the jets (i = 1) or
        parameters (i = 2) of the first term; any other variable's is 0."""
        return {var: min(dict(m[i]).get(var, 0) for m in monos)
                for var, _ in monos[0][i]}

    def strip(exps, low):
        return tuple((var, e - low.get(var, 0)) for var, e in exps
                     if e > low.get(var, 0))

    low_s, low_jets, low_pars = min(m[0] for m in monos), least(1), least(2)
    g = gcd(*(c for _, c in rows))
    core = Poly(p.ring, {(s_pow - low_s, strip(jets, low_jets), strip(pars, low_pars)):
                         Fraction(c, g) for (s_pow, jets, pars), c in rows})
    # Stripping the monomial content can change which term leads, so the
    # sign is read off the core, not off p.
    return -core if core.rows()[0][1] < 0 else core


def equation_equivalent(e1: RatExpr, e2: RatExpr) -> bool:
    """Whether two equations ``e = 0`` cut the same locus.

    Denominators are cleared and the resulting polynomials compared after
    stripping monomial and rational content, so display forms that differ by
    a factor like s or 4*l_k**2 compare equal while any change to a
    coefficient or parameter does not."""
    return primitive_core(e1.num * e2.den) == primitive_core(e2.num * e1.den)


def conserved_sigma(seq: LenardSequence, p: int) -> Poly:
    """-l_0 l_p + sum_{q=0}^{p-1} (Omega_{p-1-q,q} - l_{p-1-q} l_{q+1}), from
    the package's one diagonal sum, ``lenard.bracket_diagonal``, looked up
    when called, so that a test that replaces it reaches sigma_p too."""
    if p < 0:
        raise IndexOutOfRange("sigma index must be nonnegative")
    if len(seq) < p + 1:
        raise IndexOutOfRange(f"sequence must extend through index {p}")
    return lenard.bracket_diagonal(seq, p - 1, 0) - seq.ell(0) * seq.ell(p)
