"""Exact-rational polynomials in s, jet variables, and constant parameters.

A monomial is a triple (s_power, jets, params) where jets maps the jet
variable of dependent d at derivative order i to a positive exponent, and
params maps constant symbols (which the total derivative kills) to positive
exponents.  A polynomial maps monomials to nonzero int numerators over one
positive int denominator ``den`` with ``gcd(den, *numerators) == 1`` (zero
has ``den == 1``), so every element has exactly one representation, identity
checks reduce to dict equality, and the arithmetic runs on ints.
Coefficients leave the kernel as Fractions (``sorted_terms``, ``leading``).

The single-u ring used for Lenard polynomials and the multi-unknown ring
used for the hierarchy equations are both instances of :class:`Ring`; they
differ only in their dependent/parameter name tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping


class ZeroDenominator(ZeroDivisionError):
    """A rational expression was built with a denominator equal to zero."""


class MissingJetValue(KeyError):
    """Numeric evaluation referenced a jet order beyond the supplied values."""


# Monomial layout: (s_pow, jets, pars)
#   jets: tuple of ((dep_index, order), exponent), sorted
#   pars: tuple of (param_index, exponent), sorted
Monomial = tuple

UNIT_MONOMIAL: Monomial = (0, (), ())


def _monomial_degree(m: Monomial) -> int:
    s_pow, jets, pars = m
    return s_pow + sum(e for _, e in jets) + sum(e for _, e in pars)


def monomial_sort_key(m: Monomial):
    """Graded order: total degree, then jets by (dependent, order descending),
    then parameters, with s_power as the final tie-break."""
    s_pow, jets, pars = m
    jet_key = tuple(((d, -o), e) for (d, o), e in jets)
    return (_monomial_degree(m), jet_key, pars, s_pow)


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    sa, ja, pa = a
    sb, jb, pb = b
    jets = dict(ja)
    for k, e in jb:
        jets[k] = jets.get(k, 0) + e
    pars = dict(pa)
    for k, e in pb:
        pars[k] = pars.get(k, 0) + e
    return (sa + sb, tuple(sorted(jets.items())), tuple(sorted(pars.items())))


def _accumulate(out: dict, pairs) -> dict:
    """Add (monomial, numerator) pairs into ``out``, dropping zero sums."""
    for m, c in pairs:
        if m in out:
            c += out[m]
        if c:
            out[m] = c
        else:
            out.pop(m, None)
    return out


def _make(ring: "Ring", nums: dict, den: int) -> "Poly":
    """The polynomial ``nums / den`` (nonzero int numerators, positive int
    ``den``) in canonical form: one gcd removes the common factor."""
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    p = object.__new__(Poly)
    p.ring, p.terms, p.den = ring, nums, den
    return p


def _divide_exponents(exponents: tuple, divisor: dict) -> tuple:
    """Sorted (key, exponent) pairs less those of ``divisor``, zeros dropped."""
    out = []
    for k, e in exponents:
        e -= divisor.get(k, 0)
        if e < 0:
            raise ValueError("monomial does not divide")
        if e:
            out.append((k, e))
    return tuple(out)


def _monomial_content(monomials: list) -> Monomial:
    """Componentwise minimum monomial dividing every one of ``monomials``."""
    if not monomials:
        return UNIT_MONOMIAL
    (s_min, jets, pars), *rest = monomials
    jets, pars = dict(jets), dict(pars)
    for s_pow, mj, mp in rest:
        s_min = min(s_min, s_pow)
        mj, mp = dict(mj), dict(mp)
        jets = {k: min(e, mj[k]) for k, e in jets.items() if k in mj}
        pars = {k: min(e, mp[k]) for k, e in pars.items() if k in mp}
    return (s_min, tuple(sorted(jets.items())), tuple(sorted(pars.items())))


class Ring:
    """A polynomial ring fixed by its dependent and parameter name tuples."""

    __slots__ = ("dependents", "params")

    def __init__(self, dependents: Iterable[str], params: Iterable[str] = ()):
        self.dependents = tuple(dependents)
        self.params = tuple(params)
        if len(set(self.dependents) | set(self.params)) != len(self.dependents) + len(self.params):
            raise ValueError("dependent and parameter names must be distinct")

    def __eq__(self, other):
        return (isinstance(other, Ring)
                and self.dependents == other.dependents
                and self.params == other.params)

    def __hash__(self):
        return hash((self.dependents, self.params))

    def __repr__(self):
        return f"Ring(dependents={self.dependents!r}, params={self.params!r})"

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Poly":
        return _make(self, {}, 1)

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _make(self, {UNIT_MONOMIAL: c.numerator} if c else {}, c.denominator)

    def s(self, power: int = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative s power")
        return _make(self, {(power, (), ()): 1}, 1)

    def var(self, name: str, order: int = 0) -> "Poly":
        """The jet variable ``name^(order)`` as a polynomial."""
        d = self.dependents.index(name)
        return _make(self, {(0, (((d, order), 1),), ()): 1}, 1)

    def param(self, name: str) -> "Poly":
        p = self.params.index(name)
        return _make(self, {(0, (), ((p, 1),)): 1}, 1)

    def embed(self, poly: "Poly") -> "Poly":
        """Map a polynomial from another ring into this one by symbol names."""
        src = poly.ring
        dep_map = {i: self.dependents.index(n) for i, n in enumerate(src.dependents)}
        par_map = {i: self.params.index(n) for i, n in enumerate(src.params)}
        terms = {}
        for (s_pow, jets, pars), c in poly.terms.items():
            jets2 = tuple(sorted(((dep_map[d], o), e) for (d, o), e in jets))
            pars2 = tuple(sorted((par_map[p], e) for p, e in pars))
            terms[(s_pow, jets2, pars2)] = c
        return _make(self, terms, poly.den)


class Poly:
    """Immutable polynomial: nonzero int numerators ``terms`` over one
    positive int ``den`` sharing no factor with them (``den == 1`` for zero).
    ``Poly(ring, mapping)`` takes int or Fraction coefficients."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Fraction]):
        coeffs = [(m, Fraction(c)) for m, c in terms.items() if c]
        self.ring, self.den = ring, lcm(*(c.denominator for _, c in coeffs))
        self.terms = {m: c.numerator * (self.den // c.denominator) for m, c in coeffs}

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.den == other.den and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.den, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        """(monomial, Fraction coefficient) pairs, greatest monomial first."""
        return [(m, Fraction(c, self.den)) for m, c in sorted(
            self.terms.items(), key=lambda t: monomial_sort_key(t[0]), reverse=True)]

    def leading(self):
        """(monomial, Fraction coefficient) of the greatest monomial, or None
        if zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=monomial_sort_key)
        return m, Fraction(self.terms[m], self.den)

    def max_order(self, dep: str) -> int | None:
        """Highest derivative order of ``dep`` occurring, or None if absent."""
        d = self.ring.dependents.index(dep)
        orders = [o for (_, jets, _) in self.terms
                  for (dd, o), _e in jets if dd == d]
        return max(orders) if orders else None

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("mixed rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = dict(self.terms) if fa == 1 else {m: c * fa for m, c in self.terms.items()}
        pairs = other.terms.items() if fb == 1 else ((m, c * fb) for m, c in other.terms.items())
        return _make(self.ring, _accumulate(out, pairs), den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            if not n:
                return self.ring.zero()
            return _make(self.ring, {m: c * n for m, c in self.terms.items()},
                         self.den * other.denominator)
        self._check(other)
        pairs = ((_mul_monomials(ma, mb), ca * cb)
                 for ma, ca in self.terms.items()
                 for mb, cb in other.terms.items())
        return _make(self.ring, _accumulate({}, pairs), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus ------------------------------------------------------------

    def total_derivative(self, rules: Mapping[str, "Poly"] | None = None) -> "Poly":
        """d/ds with s' = 1 and dep^(i) -> dep^(i+1).

        ``rules`` may give the derivative of a dependent's order-0 symbol as a
        polynomial (used for recursion-defined sequence entries); higher jets
        of such a dependent must not occur.  The rule polynomials are scaled
        to one common denominator ``rule_den``.
        """
        rules = rules or {}
        for poly in rules.values():
            self._check(poly)
        rule_den = lcm(*(poly.den for poly in rules.values()))
        rule_idx = {self.ring.dependents.index(name):
                    [(m, c * (rule_den // poly.den)) for m, c in poly.terms.items()]
                    for name, poly in rules.items()}

        def leibniz_terms():
            for (s_pow, jets, pars), c in self.terms.items():
                cl = c * rule_den
                if s_pow:
                    yield (s_pow - 1, jets, pars), cl * s_pow
                # jet parts, one factor at a time (Leibniz)
                for (d, o), e in jets:
                    rest = dict(jets)
                    if e == 1:
                        del rest[(d, o)]
                    else:
                        rest[(d, o)] = e - 1
                    if d in rule_idx:
                        if o != 0:
                            raise ValueError(
                                f"jet order {o} of rule-defined dependent "
                                f"{self.ring.dependents[d]!r}")
                        m = (s_pow, tuple(sorted(rest.items())), pars)
                        ce = c * e
                        for mr, cr in rule_idx[d]:
                            yield _mul_monomials(m, mr), ce * cr
                    else:
                        rest[(d, o + 1)] = rest.get((d, o + 1), 0) + 1
                        yield (s_pow, tuple(sorted(rest.items())), pars), cl * e

        return _make(self.ring, _accumulate({}, leibniz_terms()), self.den * rule_den)

    # -- substitution ---------------------------------------------------------

    def collect(self, name: str, order: int) -> dict[int, "Poly"]:
        """Split into coefficient polynomials of powers of one jet variable."""
        d = self.ring.dependents.index(name)
        key = (d, order)
        out: dict[int, dict] = {}
        for (s_pow, jets, pars), c in self.terms.items():
            jets_d = dict(jets)
            e = jets_d.pop(key, 0)
            m = (s_pow, tuple(sorted(jets_d.items())), pars)
            out.setdefault(e, {})[m] = c
        return {e: _make(self.ring, t, self.den) for e, t in out.items()}

    def subs_param(self, name: str, value) -> "Poly":
        """Replace a constant parameter by an exact rational value vn / vd: a
        term with the parameter to the power e gains vn**e / vd**e."""
        p = self.ring.params.index(name)
        value = Fraction(value)
        vn, vd = value.numerator, value.denominator

        def substituted(m):
            s_pow, jets, pars = m
            pars_d = dict(pars)
            e = pars_d.pop(p, 0)
            return (s_pow, jets, tuple(sorted(pars_d.items()))), vn ** e, vd ** e

        return self.map_terms(substituted)

    def map_terms(self, fn) -> "Poly":
        """The sum of c * q / k times m2 over the terms c * m, where
        ``fn(m) = (m2, q, k)`` with int q and positive int k; terms that land
        on one monomial add."""
        triples = [(fn(m), c) for m, c in self.terms.items()]
        scale = lcm(*(k for (_, _, k), _ in triples))
        return _make(self.ring, _accumulate({}, ((m, c * q * (scale // k))
                                                 for (m, q, k), c in triples)),
                     self.den * scale)

    # -- content and normalization ---------------------------------------------

    def rational_content(self) -> Fraction:
        """gcd of the numerators over ``den`` (positive), 0 for zero."""
        return Fraction(gcd(*self.terms.values()), self.den)

    def monomial_content(self) -> Monomial:
        """Componentwise minimum monomial dividing every term."""
        return _monomial_content(list(self.terms))

    def divide_monomial(self, m: Monomial) -> "Poly":
        s_div, jets_div, pars_div = m
        jd, pd = dict(jets_div), dict(pars_div)
        out = {(s_pow - s_div, _divide_exponents(jets, jd), _divide_exponents(pars, pd)): c
               for (s_pow, jets, pars), c in self.terms.items()}
        return _make(self.ring, out, self.den)

    def primitive_core(self) -> "Poly":
        """Strip monomial and rational content; make the leading coefficient
        positive.  Two polynomials cut the same zero set away from coordinate
        hyperplanes iff their cores coincide."""
        if not self.terms:
            return self
        p = self.divide_monomial(self.monomial_content())
        c = p.rational_content()
        p = p * (1 / c)
        if p.leading()[1] < 0:
            p = -p
        return p

    # -- evaluation -------------------------------------------------------------

    def eval(self,
             s_value: float,
             jet_values: Mapping[str, list] | None = None,
             param_values: Mapping[str, float] | None = None) -> float:
        """Floating-point evaluation, summed in sorted monomial order."""
        jet_values = jet_values or {}
        param_values = param_values or {}
        total = 0.0
        for m, c in self.sorted_terms():
            s_pow, jets, pars = m
            v = float(c) * s_value ** s_pow
            for (d, o), e in jets:
                name = self.ring.dependents[d]
                vals = jet_values.get(name)
                if vals is None or o >= len(vals):
                    raise MissingJetValue(
                        f"missing value for {name}^({o})")
                v *= vals[o] ** e
            for p, e in pars:
                name = self.ring.params[p]
                if name not in param_values:
                    raise MissingJetValue(f"missing value for parameter {name}")
                v *= param_values[name] ** e
            total += v
        return total

    # -- display ------------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self!s})"

    def __str__(self):
        from .render import poly_ascii
        return poly_ascii(self)


class RatExpr:
    """Ratio of two polynomials, reduced by joint content on construction.

    The denominator's leading coefficient is normalized positive.  Equality
    is tested by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce_content: bool = True):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise ValueError("mixed rings")
        if den.is_zero():
            raise ZeroDenominator("denominator normalizes to zero")
        if reduce_content and not num.is_zero():
            mc = _monomial_content([*num.terms, *den.terms])
            num = num.divide_monomial(mc)
            den = den.divide_monomial(mc)
            # num / den == (num.terms * den.den) / (den.terms * num.den):
            # cross-scale, then divide both by the gcd of all those numerators
            fn, fd = den.den, num.den
            g = gcd(fn * gcd(*num.terms.values()), fd * gcd(*den.terms.values()))
            num = _make(num.ring, {m: c * fn // g for m, c in num.terms.items()}, 1)
            den = _make(den.ring, {m: c * fd // g for m, c in den.terms.items()}, 1)
        if den.leading()[1] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def ring(self) -> Ring:
        return self.num.ring

    @classmethod
    def of(cls, value, ring: Ring) -> "RatExpr":
        if isinstance(value, RatExpr):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(ring.const(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatExpr):
            other = RatExpr.of(other, self.ring)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RatExpr is unhashable")

    def __add__(self, other):
        other = RatExpr.of(other, self.ring)
        return RatExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatExpr(-self.num, self.den, reduce_content=False)

    def __sub__(self, other):
        return self + (-RatExpr.of(other, self.ring))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatExpr.of(other, self.ring)
        return RatExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatExpr.of(other, self.ring)
        if other.num.is_zero():
            raise ZeroDenominator("division by zero expression")
        return RatExpr(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatExpr.of(other, self.ring) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatExpr(self.den, self.num) ** (-n)
        return RatExpr(self.num ** n, self.den ** n)

    def total_derivative(self, rules=None) -> "RatExpr":
        n, d = self.num, self.den
        return RatExpr(n.total_derivative(rules) * d - n * d.total_derivative(rules),
                       d * d)

    def subs_param(self, name: str, value) -> "RatExpr":
        return RatExpr(self.num.subs_param(name, value), self.den.subs_param(name, value))

    def subs_var(self, name: str, order: int, repl: "RatExpr") -> "RatExpr":
        """Replace one jet variable (polynomial occurrences in the numerator
        and denominator) by a rational expression."""
        splits = [p.collect(name, order) for p in (self.num, self.den)]
        highest = max(max(parts, default=0) for parts in splits)
        num_pows, den_pows = [self.ring.one()], [self.ring.one()]
        for _ in range(highest):
            num_pows.append(num_pows[-1] * repl.num)
            den_pows.append(den_pows[-1] * repl.den)

        def subs_poly(parts: dict) -> "RatExpr":
            top = max(parts, default=0)
            num = self.ring.zero()
            for e, coeff in parts.items():
                num += coeff * num_pows[e] * den_pows[top - e]
            return RatExpr(num, den_pows[top])

        num, den = map(subs_poly, splits)
        return num / den

    def eval(self, s_value, jet_values=None, param_values=None) -> float:
        d = self.den.eval(s_value, jet_values, param_values)
        if d == 0.0:
            raise ZeroDivisionError("denominator vanished at evaluation point")
        return self.num.eval(s_value, jet_values, param_values) / d

    def __repr__(self):
        return f"RatExpr(({self.num!s}) / ({self.den!s}))"

