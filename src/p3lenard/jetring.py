"""Exact-rational polynomials in s, jet variables, and constant parameters.

Inside the kernel a monomial is one packed int.  Slot i holds an exponent
in bits [16*i, 16*i + 16).  Slot 0 is s, slots 1..P are the ring's P
parameters, and slot 1 + P + order*D + dep is the jet variable of
dependent ``dep`` (one of D) at derivative ``order``.  A product of
monomials is one integer addition; d/ds of a jet takes one unit from its
slot and adds one D slots up; integrating a term in one variable adds one
unit to that variable's slot; dividing every term by the monomial content
is one subtraction per term.  Exponents stay below 2**15, so the top bit of
every slot is a guard that no valid monomial sets: one ``&`` with the
module's guard mask finds an exponent that reached 2**15, and the operation
raises :class:`ExponentOverflow`.  The mask covers 4096 slots; a jet variable
beyond them raises the same error where its slot is created.

One walk, ``_occupied``, reads the nonzero slots of a key by its lowest set
bit, so decoding or differentiating a monomial takes one step per variable
present, not one per slot (the k = 32 hierarchy ring spans 133 slots).

A polynomial maps monomials to nonzero int numerators over one positive int
denominator ``den`` with ``gcd(den, *numerators) == 1`` (zero has
``den == 1``), so every element has exactly one representation, identity
checks reduce to dict equality, and the arithmetic runs on ints.

Outside the kernel a monomial is the triple (s_power, jets, params): jets
is a sorted tuple of ((dependent, order), exponent), params a sorted tuple
of (parameter, exponent), every exponent positive.  ``_ordered``, the one
definition of the monomial order, reads each term's triple and its order
key, a flat tuple of ints, from one ``_occupied`` walk.  Terms leave the
kernel as ``rows``, (triple, int numerator over ``den``) sorted on that key,
so neither a renderer nor the code generator builds a Fraction; ``leading``
gives the Fraction coefficient of the greatest term.

The single-u ring used for Lenard polynomials and the multi-unknown ring
used for the hierarchy equations are both instances of :class:`Ring`; they
differ only in their dependent/parameter name tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from operator import or_


class ZeroDenominator(ZeroDivisionError):
    """A rational expression was built with a denominator equal to zero."""


class ExponentOverflow(OverflowError):
    """An exponent reached 2**15, or a jet variable lies beyond the slots of
    the packed monomial layout."""


# Monomial at the boundary: (s_pow, jets, pars)
#   jets: tuple of ((dep_index, order), exponent), sorted
#   pars: tuple of (param_index, exponent), sorted
Monomial = tuple

_W = 16                                    # bits per slot
_SLOT = (1 << _W) - 1
_SLOTS = 4096                              # slots the guard mask covers
_GUARD = int.from_bytes(b"\x00\x80" * _SLOTS, "little")   # top bit of each


def _overflow(what) -> ExponentOverflow:
    return ExponentOverflow(f"{what}: packed monomials hold exponents below "
                            f"2**15 in {_SLOTS} slots")


def _occupied(key: int, start: int = 0):
    """Yield (slot, exponent) for each nonzero slot of ``key`` from slot
    ``start`` up, lowest first, jumping to the next by its lowest set bit."""
    key >>= start * _W
    while key:
        skip = ((key & -key).bit_length() - 1) // _W
        key >>= skip * _W
        start += skip
        yield start, key & _SLOT
        key >>= _W
        start += 1


def _encode(ring: "Ring", m: Monomial) -> int:
    """The packed key of the triple ``m``."""
    s_pow, jets, pars = m
    n_par, n_dep = len(ring.params), len(ring.dependents)
    if not (all(0 <= p < n_par for p, _ in pars)
            and all(0 <= d < n_dep and o >= 0 for (d, o), _ in jets)):
        raise ValueError(f"monomial {m!r} names a symbol outside {ring!r}")
    key = 0
    for slot, e in chain(((0, s_pow),), ((1 + p, e) for p, e in pars),
                         ((1 + n_par + o * n_dep + d, e) for (d, o), e in jets)):
        if not 0 <= e < 1 << (_W - 1) or slot >= _SLOTS:
            raise _overflow(f"exponent {e} in slot {slot}")
        key += e << (slot * _W)
    return _guarded((key,))[0]            # a slot given twice may overflow


def _ordered(ring: "Ring", items):
    """(order, triple, numerator) of each (packed key, numerator) of
    ``items``, from one ``_occupied`` walk per key.  The order is the
    monomial order as a flat tuple of ints, (degree, d1, -o1, e1, ..., -1,
    p1, e1, ..., -1, s_power): total degree, then the jets by dependent and
    descending order, then the parameters, then the s power; a -1 lies
    below every index, so jets or parameters that end first sort lower."""
    first, n_dep = 1 + len(ring.params), len(ring.dependents)
    for key, c in items:
        s_pow = degree = key & _SLOT
        pars, jets = [], []
        for j, e in _occupied(key, 1):
            degree += e
            if j < first:
                pars.append((j - 1, e))
            else:
                o, d = divmod(j - first, n_dep)
                jets.append(((d, o), e))
        if n_dep > 1:                     # the walk reads jets order-major
            jets.sort()
        order = [degree]
        for (d, o), e in jets:
            order += d, -o, e
        order.append(-1)
        for pe in pars:
            order += pe
        order += -1, s_pow
        yield tuple(order), (s_pow, tuple(jets), tuple(pars)), c


def _decode(ring: "Ring", key: int) -> Monomial:
    """The triple of the packed ``key``."""
    return next(_ordered(ring, ((key, 0),)))[1]


def _guarded(keys):
    """``keys``, after one ``&`` of their union with the guard mask."""
    if reduce(or_, keys, 0) & _GUARD:
        raise _overflow("an exponent reached 2**15")
    return keys


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


def _content_key(keys: Iterable[int]) -> int:
    """Slotwise minimum of packed ``keys`` (0 for none): the greatest
    monomial dividing every one of them."""
    keys = iter(keys)
    c = next(keys, 0)
    low = (1 << ((c.bit_length() + _W - 1) // _W * _W)) - 1
    guard = _GUARD & low
    for k in keys:
        if not c:
            break
        k &= low
        ge = ((c | guard) - k) & guard        # guard bit set where c >= k
        c ^= (c ^ k) & (ge - (ge >> (_W - 1)))
    return c


def _primitive(*polys: "Poly") -> list:
    """Nonzero ``polys`` of one ring over their joint monomial content, and
    all scaled by the one positive rational that leaves their numerators
    integer with no common factor: each result has ``den == 1``, and
    quotients of the inputs are unchanged."""
    c = _content_key(chain.from_iterable(p.terms for p in polys))
    den = lcm(*(p.den for p in polys))
    scales = [den // p.den for p in polys]
    g = gcd(*(f * gcd(*p.terms.values()) for f, p in zip(scales, polys)))
    return [_make(p.ring, {k - c: v * f // g for k, v in p.terms.items()}, 1)
            for f, p in zip(scales, polys)]


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
        return _make(self, {0: c.numerator} if c else {}, c.denominator)

    def s(self, power: int = 1) -> "Poly":
        if power < 0:
            raise ValueError("negative s power")
        return _make(self, {_encode(self, (power, (), ())): 1}, 1)

    def var(self, name: str, order: int = 0) -> "Poly":
        """The jet variable ``name^(order)`` as a polynomial."""
        d = self.dependents.index(name)
        return _make(self, {_encode(self, (0, (((d, order), 1),), ())): 1}, 1)

    def param(self, name: str) -> "Poly":
        p = self.params.index(name)
        return _make(self, {_encode(self, (0, (), ((p, 1),))): 1}, 1)

    def sum_products(self, triples) -> "Poly":
        """Sum of w * a * b over the (int w, Poly a, Poly b) of ``triples``:
        every term pair added into one dict over the lcm of the products'
        denominators, one guard check and one normalization, no ``Poly`` per
        product.  An exponent of 2**15 raises where it survives the sum."""
        triples = [(w, a, b) for w, a, b in triples if w and a.terms and b.terms]
        if not all(a.ring is self is b.ring or a.ring == self == b.ring
                   for _, a, b in triples):
            raise ValueError("mixed rings")
        den = lcm(*(a.den * b.den for _, a, b in triples))
        scaled = [(w * (den // (a.den * b.den)), a.terms.items(), b.terms.items())
                  for w, a, b in triples]
        nums = _accumulate({}, ((ka + kb, f * ca * cb) for f, a, b in scaled
                                for ka, ca in a for kb, cb in b))
        return _make(self, _guarded(nums), den)

    def embed(self, poly: "Poly") -> "Poly":
        """Map a polynomial from another ring into this one by symbol names."""
        src = poly.ring
        dep_map = {i: self.dependents.index(n) for i, n in enumerate(src.dependents)}
        par_map = {i: self.params.index(n) for i, n in enumerate(src.params)}
        terms = {}
        for key, c in poly.terms.items():
            s_pow, jets, pars = _decode(src, key)
            m = (s_pow, [((dep_map[d], o), e) for (d, o), e in jets],
                 [(par_map[p], e) for p, e in pars])
            terms[_encode(self, m)] = c
        return _make(self, terms, poly.den)


class Poly:
    """Immutable polynomial: nonzero int numerators ``terms`` over one
    positive int ``den`` sharing no factor with them (``den == 1`` for zero).
    ``terms`` is keyed by packed monomials (see the module docstring):
    exponents in 16-bit slots, s first, then the parameters, then the jet
    variables by order and dependent.  An operation whose result has an
    exponent of 2**15 or more raises :class:`ExponentOverflow`.
    ``Poly(ring, mapping)`` takes triple monomials with int or Fraction
    coefficients."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Fraction]):
        coeffs = [(_encode(ring, m), Fraction(c)) for m, c in terms.items() if c]
        den = lcm(*(c.denominator for _, c in coeffs))
        p = _make(ring, _accumulate({}, ((k, c.numerator * (den // c.denominator))
                                         for k, c in coeffs)), den)
        self.ring, self.terms, self.den = ring, p.terms, p.den

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

    def rows(self):
        """(monomial, int numerator over ``den``) pairs, greatest first."""
        rows = sorted(_ordered(self.ring, self.terms.items()), reverse=True)
        return [(m, c) for _, m, c in rows]

    def leading(self):
        """(monomial, Fraction coefficient) of the greatest monomial, or None
        if zero."""
        if not self.terms:
            return None
        _, m, c = max(_ordered(self.ring, self.terms.items()))
        return m, Fraction(c, self.den)

    def max_order(self, dep: str) -> int | None:
        """Highest derivative order of ``dep`` occurring, or None if absent."""
        ring = self.ring
        d, n_dep = ring.dependents.index(dep), len(ring.dependents)
        first = 1 + len(ring.params)
        used = [j for j, _ in _occupied(reduce(or_, self.terms, 0), first)
                if (j - first) % n_dep == d]     # nonzero where any term is
        return (used[-1] - first) // n_dep if used else None

    def height(self) -> int:
        """The largest of ``den`` and the absolute numerators."""
        return max([self.den, *map(abs, self.terms.values())])

    def by_top_order(self) -> dict[int, "Poly"]:
        """{order: part} by the highest jet order in each term, of any
        dependent; -1 holds the terms free of jets."""
        first, n_dep, out = 1 + len(self.ring.params), len(self.ring.dependents), {}
        for key, c in self.terms.items():
            j = (key.bit_length() - 1) // _W          # the top nonzero slot
            out.setdefault((j - first) // n_dep if j >= first else -1, {})[key] = c
        return {o: _make(self.ring, t, self.den) for o, t in out.items()}

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed rings")

    def __add__(self, other):
        if other.__class__ is not Poly and isinstance(other, (int, Fraction)):
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

    def __mul__(self, other):
        if other.__class__ is not Poly and isinstance(other, (int, Fraction)):
            n = other.numerator
            if not n:
                return self.ring.zero()
            return _make(self.ring, {m: c * n for m, c in self.terms.items()},
                         self.den * other.denominator)
        self._check(other)
        a, b = self.terms, other.terms
        if not (a and b):
            return self.ring.zero()
        one, many = (b, a) if len(b) == 1 else (a, b)
        if len(one) == 1:           # no two keys collide, no product is zero
            (kb, cb), = one.items()
            nums = {ka + kb: ca * cb for ka, ca in many.items()}
        else:
            nums = _accumulate({}, ((ka + kb, ca * cb) for ka, ca in a.items()
                                    for kb, cb in b.items()))
        return _make(self.ring, _guarded(nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        if n >> (_W - 1) and any(self.terms):     # refused before any product
            raise _overflow("an exponent reached 2**15")
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
        ring = self.ring
        rule_idx = {ring.dependents.index(name): poly.terms.items() if poly.den == rule_den
                    else [(k, c * (rule_den // poly.den)) for k, c in poly.terms.items()]
                    for name, poly in rules.items()}
        n_dep = len(ring.dependents)
        first = 1 + len(ring.params)
        last = _SLOTS - n_dep          # a jet in a slot from here on has no next order
        up = n_dep * _W                # shift from one order to the next

        def leibniz_terms():
            for key, c in self.terms.items():
                cl = c * rule_den
                s_pow = key & _SLOT
                if s_pow:
                    yield key - 1, cl * s_pow
                # jet parts, one factor at a time (Leibniz)
                for j, e in _occupied(key, first):
                    unit, d = 1 << (j * _W), (j - first) % n_dep
                    if d in rule_idx:
                        if j - first >= n_dep:
                            raise ValueError(
                                f"jet order {(j - first) // n_dep} of rule-defined "
                                f"dependent {ring.dependents[d]!r}")
                        rest, ce = key - unit, c * e
                        for kr, cr in rule_idx[d]:
                            yield rest + kr, ce * cr
                    elif j < last:
                        yield key - unit + (unit << up), cl * e
                    else:
                        raise _overflow(f"the derivative of slot {j}")

        return _make(ring, _guarded(_accumulate({}, leibniz_terms())), self.den * rule_den)

    # -- substitution ---------------------------------------------------------

    def collect(self, name: str, order: int) -> dict[int, "Poly"]:
        """Split into coefficient polynomials of powers of one jet variable."""
        ring = self.ring
        d = ring.dependents.index(name)
        shift = (1 + len(ring.params) + order * len(ring.dependents) + d) * _W
        out: dict[int, dict] = {}
        for key, c in self.terms.items():
            e = (key >> shift) & _SLOT
            out.setdefault(e, {})[key - (e << shift)] = c
        return {e: _make(ring, t, self.den) for e, t in out.items()}

    def subs_param(self, name: str, value) -> "Poly":
        """Replace a constant parameter by an exact rational value vn / vd: a
        term with the parameter to the power e gains vn**e / vd**e."""
        shift = (1 + self.ring.params.index(name)) * _W
        value = Fraction(value)
        vn, vd = value.numerator, value.denominator

        def substituted(key):
            e = (key >> shift) & _SLOT
            return key - (e << shift), vn ** e, vd ** e

        return self._map_keys(substituted)

    def integrate_power(self, var: "Poly") -> "Poly":
        """The sum of c / (a + 1) * m * x over the terms c * m, where x is
        the variable ``var`` and a its exponent in m: each term integrated
        in x alone, by one slot addition per key."""
        unit = next(iter(var.terms), 0)
        shift = unit.bit_length() - 1
        if var.terms != {unit: 1} or var.den != 1 or shift % _W or unit != 1 << shift:
            raise ValueError(f"{var!s} is not a single variable")
        p = self._map_keys(lambda key: (key + unit, 1, ((key >> shift) & _SLOT) + 1))
        _guarded(p.terms)
        return p

    def _map_keys(self, fn) -> "Poly":
        """The sum of c * q / k times m2 over the terms c * m, where
        ``fn(m) = (m2, q, k)`` with packed keys m and m2, int q and positive
        int k; terms that land on one key add."""
        triples = [(fn(m), c) for m, c in self.terms.items()]
        scale = lcm(*(k for (_, _, k), _ in triples))
        return _make(self.ring, _accumulate({}, ((m, c * q * (scale // k))
                                                 for (m, q, k), c in triples)),
                     self.den * scale)

    # -- display ------------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self!s})"

    def __str__(self):
        from .render import poly_ascii
        return poly_ascii(self)


class RatExpr:
    """Ratio of two polynomials, reduced by joint content on construction;
    a zero numerator keeps the denominator it is given.

    The denominator's leading coefficient is normalized positive.  Equality
    is tested by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise ValueError("mixed rings")
        if den.is_zero():
            raise ZeroDenominator("denominator normalizes to zero")
        if not num.is_zero():
            num, den = _primitive(num, den)
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

    def __eq__(self, other):
        if not isinstance(other, RatExpr):
            other = RatExpr.of(other, self.ring)
        return (self.num * other.den - other.num * self.den).is_zero()

    def __add__(self, other):
        other = RatExpr.of(other, self.ring)
        return RatExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = RatExpr.of(other, self.ring)
        return RatExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def total_derivative(self) -> "RatExpr":
        n, d = self.num, self.den
        return RatExpr(n.total_derivative() * d - n * d.total_derivative(), d * d)

    def subs_param(self, name: str, value) -> "RatExpr":
        return RatExpr(self.num.subs_param(name, value), self.den.subs_param(name, value))

    def subs_var(self, name: str, order: int, repl: "RatExpr") -> "RatExpr":
        """Replace one jet variable x (polynomial occurrences in the numerator
        and denominator) by a rational expression p / q.  Each side is
        collected in x and cleared by q to its own top degree: with N and D
        of top degrees n and d, the result is the one ``RatExpr``
        (q^n N(p/q) * q^d) / (q^d D(p/q) * q^n), whose construction strips
        the joint content that intermediate quotients would have."""
        splits = [p.collect(name, order) for p in (self.num, self.den)]
        tops = [max(parts, default=0) for parts in splits]
        num_pows, den_pows = [self.ring.one()], [self.ring.one()]
        for _ in range(max(tops)):
            num_pows.append(num_pows[-1] * repl.num)
            den_pows.append(den_pows[-1] * repl.den)
        num, den = (self.ring.sum_products((1, coeff, num_pows[e] * den_pows[top - e])
                                           for e, coeff in parts.items())
                    for parts, top in zip(splits, tops))
        return RatExpr(num * den_pows[tops[1]], den * den_pows[tops[0]])

    def __repr__(self):
        return f"RatExpr(({self.num!s}) / ({self.den!s}))"

