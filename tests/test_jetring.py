"""The integer kernel of ``jetring`` against a plain reference.

Every ``Poly`` holds integer numerators over one common denominator, keyed
by packed monomials.  Each operation is compared here with the same
operation on plain ``{triple monomial: Fraction}`` dicts, written out in
this file, and every result is checked for the canonical form: int
numerators, none zero, a positive int ``den`` sharing no factor with them,
and ``den == 1`` for zero.  The packed layout is checked against the triples
on a wide ring, with parameters, jet orders and exponents far beyond the
first slots, and every way an exponent can reach 2**15 must raise.
"""

import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import p3lenard
from p3lenard import jetring
from p3lenard.hierarchy import hierarchy_ring
from p3lenard.jetring import (ExponentOverflow, Poly, RatExpr, Ring,
                              ZeroDenominator, _accumulate, _decode, _encode,
                              _guarded, _make, _occupied)

from oracles import primitive_core, sorted_terms

RING = Ring(("u", "v"), ("a", "b"))
U, V = 0, 1
A, B = 0, 1


# -- the reference: dicts from monomials to nonzero Fractions -----------------

def mono(s_pow=0, jets=None, pars=None):
    return (s_pow, tuple(sorted((jets or {}).items())),
            tuple(sorted((pars or {}).items())))


def mono_mul(a, b):
    """The product of two triples, as the kernel formed it before monomials
    were packed: dicts of exponents, then sorted tuples."""
    jets, pars = dict(a[1]), dict(a[2])
    for k, e in b[1]:
        jets[k] = jets.get(k, 0) + e
    for k, e in b[2]:
        pars[k] = pars.get(k, 0) + e
    return mono(a[0] + b[0], jets, pars)


def ref_clean(pairs):
    out = {}
    for m, c in pairs:
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def ref_add(r, q):
    return ref_clean([*r.items(), *q.items()])


def ref_neg(r):
    return {m: -c for m, c in r.items()}


def ref_mul(r, q):
    return ref_clean([(mono_mul(ma, mb), ca * cb)
                      for ma, ca in r.items() for mb, cb in q.items()])


def ref_scale(r, c):
    return ref_clean([(m, k * Fraction(c)) for m, k in r.items()])


def ref_pow(r, n):
    out = {mono(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, r)
    return out


def ref_derivative(r, rules=None):
    """d/ds term by term; ``rules`` maps a dependent index to the reference
    of the derivative of its order-0 symbol."""
    rules = rules or {}
    pairs = []
    for (s_pow, jets, pars), c in r.items():
        if s_pow:
            pairs.append(((s_pow - 1, jets, pars), c * s_pow))
        for (d, o), e in jets:
            rest = dict(jets)
            rest[(d, o)] -= 1
            rest = {k: x for k, x in rest.items() if x}
            if d in rules:
                pairs.extend((mono_mul((s_pow, tuple(sorted(rest.items())), pars), mr),
                              c * e * cr) for mr, cr in rules[d].items())
            else:
                rest[(d, o + 1)] = rest.get((d, o + 1), 0) + 1
                pairs.append((mono(s_pow, rest, dict(pars)), c * e))
    return ref_clean(pairs)


def ref_subs_param(r, p, value):
    pairs = []
    for (s_pow, jets, pars), c in r.items():
        pars = dict(pars)
        e = pars.pop(p, 0)
        pairs.append((mono(s_pow, dict(jets), pars), c * Fraction(value) ** e))
    return ref_clean(pairs)


def ref_collect(r, key):
    out = {}
    for (s_pow, jets, pars), c in r.items():
        jets = dict(jets)
        e = jets.pop(key, 0)
        out.setdefault(e, {})[mono(s_pow, jets, dict(pars))] = c
    return out


def ref_monomial_content(monomials):
    s_min = min(m[0] for m in monomials)
    jets = dict(monomials[0][1])
    pars = dict(monomials[0][2])
    for _, mj, mp in monomials[1:]:
        mj, mp = dict(mj), dict(mp)
        jets = {k: min(e, mj[k]) for k, e in jets.items() if k in mj}
        pars = {k: min(e, mp[k]) for k, e in pars.items() if k in mp}
    return mono(s_min, jets, pars)


def ref_divide(r, m):
    out = {}
    for (s_pow, jets, pars), c in r.items():
        jets, pars = dict(jets), dict(pars)
        for k, e in m[1]:
            jets[k] -= e
        for k, e in m[2]:
            pars[k] -= e
        out[mono(s_pow - m[0], {k: e for k, e in jets.items() if e},
                 {k: e for k, e in pars.items() if e})] = c
    return out


def monomial_sort_key(m):
    """The monomial order on triples, as a nested tuple: total degree, then
    jets by (dependent, order descending), then parameters, with the s
    power as the final tie-break.  The kernel once sorted by this key; it
    now reads the same order from one walk of the packed key, and this is
    the oracle it is checked against."""
    s_pow, jets, pars = m
    degree = s_pow + sum(e for _, e in jets) + sum(e for _, e in pars)
    jet_key = tuple(((d, -o), e) for (d, o), e in jets)
    return (degree, jet_key, pars, s_pow)


def ref_content(coeffs):
    num, den = 0, 1
    for c in coeffs:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def ref_leading(r):
    return r[max(r, key=monomial_sort_key)]


def ref_primitive_core(r):
    if not r:
        return {}
    r = ref_divide(r, ref_monomial_content(list(r)))
    c = ref_content(r.values())
    r = {m: k / c for m, k in r.items()}
    return ref_neg(r) if ref_leading(r) < 0 else r


def ref_ratexpr(n, d):
    """(numerator, denominator) as ``RatExpr(n, d)`` reduces them."""
    if n:
        mc = ref_monomial_content([*n, *d])
        n, d = ref_divide(n, mc), ref_divide(d, mc)
        c = ref_content([*n.values(), *d.values()])
        n = {m: k / c for m, k in n.items()}
        d = {m: k / c for m, k in d.items()}
    if ref_leading(d) < 0:
        n, d = ref_neg(n), ref_neg(d)
    return n, d


# -- strategies and checks ----------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-12, 12).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
scalars = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8)))


@st.composite
def monomials(draw, max_v_order=2):
    jets = {}
    for d in draw(st.lists(st.sampled_from([U, V]), max_size=2, unique=True)):
        top = max_v_order if d == V else 2
        jets[(d, draw(st.integers(0, top)))] = draw(st.integers(1, 2))
    pars = {p: draw(st.integers(1, 2))
            for p in draw(st.lists(st.sampled_from([A, B]), max_size=2, unique=True))}
    return mono(draw(st.integers(0, 2)), jets, pars)


def refs(max_v_order=2, max_size=4):
    return st.lists(st.tuples(monomials(max_v_order), coefficients),
                    max_size=max_size).map(ref_clean)


def map_terms(p: Poly, fn) -> Poly:
    """The sum of c * q / k times m2 over the terms c * m of ``p``, where
    ``fn(m) = (m2, q, k)`` on triple monomials: the body of the former
    ``Poly.map_terms``, which ``formal_integral`` called with
    :func:`raise_power` before ``Poly.integrate_power`` replaced it."""
    out = {}
    for m, c in sorted_terms(p):
        m2, q, k = fn(m)
        out[m2] = out.get(m2, 0) + c * Fraction(q, k)
    return Poly(p.ring, out)


def raise_power(x: Poly):
    """m -> (m x, 1, a + 1) on triples, where a is the exponent in m of the
    variable ``x``, as ``formal_integral`` spelled it on triples."""
    (s_pow, jets, pars), _ = x.leading()

    def fn(m):
        if s_pow:
            return (m[0] + 1, m[1], m[2]), 1, m[0] + 1
        (key, _), = jets or pars
        grown = dict(m[1] if jets else m[2])
        a = grown.get(key, 0)
        grown[key] = a + 1
        grown = tuple(sorted(grown.items()))
        return (m[0], grown, m[2]) if jets else (m[0], m[1], grown), 1, a + 1

    return fn


def as_ref(p: Poly) -> dict:
    return dict(sorted_terms(p))


def assert_canonical(p: Poly):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    if not p.terms:
        assert p.den == 1


def check(p: Poly, want: dict):
    assert_canonical(p)
    assert as_ref(p) == want


EXAMPLES = settings(max_examples=150, deadline=None)


class TestConstruction:
    @EXAMPLES
    @given(r=refs())
    def test_public_constructor(self, r):
        check(Poly(RING, r), r)

    def test_zero_and_int_coefficients(self):
        p = Poly(RING, {mono(1): 4, mono(): Fraction(0)})
        check(p, {mono(1): Fraction(4)})
        assert p.den == 1
        check(Poly(RING, {}), {})
        check(RING.const(Fraction(-6, 4)), {mono(): Fraction(-3, 2)})
        check(RING.const(0), {})

    def test_boundary_yields_fractions(self):
        p = Poly(RING, {mono(1): Fraction(2, 3), mono(): 1})
        assert (p.rows(), p.den) == ([(mono(1), 2), (mono(), 3)], 3)
        assert sorted_terms(p) == [(mono(1), Fraction(2, 3)), (mono(), Fraction(1))]
        assert all(type(c) is Fraction for _, c in sorted_terms(p))
        assert p.leading() == (mono(1), Fraction(2, 3))


class TestArithmetic:
    @EXAMPLES
    @given(r=refs(), q=refs())
    def test_add_sub_neg(self, r, q):
        p, o = Poly(RING, r), Poly(RING, q)
        check(p + o, ref_add(r, q))
        check(p - o, ref_add(r, ref_neg(q)))
        check(-p, ref_neg(r))

    @EXAMPLES
    @given(r=refs())
    def test_difference_with_itself_is_canonical_zero(self, r):
        p = Poly(RING, r)
        check(p - p, {})
        check(p + (-p), {})
        check(p * 0, {})

    @EXAMPLES
    @given(r=refs(), c=scalars)
    def test_scalars(self, r, c):
        p = Poly(RING, r)
        check(p * c, ref_scale(r, c))
        check(c * p, ref_scale(r, c))
        check(p + c, ref_add(r, ref_clean([(mono(), Fraction(c))])))

    @EXAMPLES
    @given(r=refs(), q=refs())
    def test_mul(self, r, q):
        check(Poly(RING, r) * Poly(RING, q), ref_mul(r, q))

    @settings(max_examples=60, deadline=None)
    @given(r=refs(max_size=3), n=st.integers(0, 3))
    def test_pow(self, r, n):
        check(Poly(RING, r) ** n, ref_pow(r, n))

    @EXAMPLES
    @given(r=refs(), q=refs())
    def test_equality(self, r, q):
        p, o = Poly(RING, r), Poly(RING, q)
        assert (p == o) == (r == q)
        assert p == (p * 3) * Fraction(1, 3)

    def test_equal_numerators_over_other_denominators_differ(self):
        half = Poly(RING, {mono(1): Fraction(1, 2)})
        whole = Poly(RING, {mono(1): 1})
        assert half.terms == whole.terms
        assert half != whole and half * 2 == whole


class TestCalculus:
    @EXAMPLES
    @given(r=refs())
    def test_total_derivative(self, r):
        check(Poly(RING, r).total_derivative(), ref_derivative(r))

    @EXAMPLES
    @given(r=refs(max_v_order=0), rule=refs())
    def test_total_derivative_with_rule(self, r, rule):
        got = Poly(RING, r).total_derivative({"v": Poly(RING, rule)})
        check(got, ref_derivative(r, {V: rule}))

    @EXAMPLES
    @given(r=refs(max_v_order=0), ru=refs(max_v_order=0), rv=refs())
    def test_total_derivative_with_two_rules(self, r, ru, rv):
        # u^(i) for i > 0 may not occur once u has a rule
        r = {m: c for m, c in r.items()
             if all(o == 0 for (d, o), _ in m[1] if d == U)}
        got = Poly(RING, r).total_derivative({"u": Poly(RING, ru),
                                              "v": Poly(RING, rv)})
        check(got, ref_derivative(r, {U: ru, V: rv}))


class TestSubstitutionAndContent:
    @EXAMPLES
    @given(r=refs(), name=st.sampled_from(["a", "b"]), value=scalars)
    def test_subs_param(self, r, name, value):
        got = Poly(RING, r).subs_param(name, value)
        check(got, ref_subs_param(r, RING.params.index(name), value))

    @EXAMPLES
    @given(r=refs(), var=st.sampled_from([("s", 0), ("u", 0), ("u", 2), ("v", 1),
                                          ("a", 0)]))
    def test_integrate_power(self, r, var):
        name, order = var
        x = (RING.s() if name == "s" else RING.param(name) if name in RING.params
             else RING.var(name, order))
        got = Poly(RING, r).integrate_power(x)
        check(got, as_ref(map_terms(Poly(RING, r), raise_power(x))))

    def test_integrate_power_refuses_all_but_one_variable(self):
        u, v = RING.var("u"), RING.var("v", 1)
        for x in (RING.zero(), RING.one(), u * 2, u * Fraction(1, 2), u * u, u * v, u + v):
            with pytest.raises(ValueError, match="not a single variable"):
                RING.s().integrate_power(x)

    @EXAMPLES
    @given(r=refs(), name=st.sampled_from(["u", "v"]), order=st.integers(0, 2))
    def test_collect(self, r, name, order):
        got = Poly(RING, r).collect(name, order)
        want = ref_collect(r, (RING.dependents.index(name), order))
        assert sorted(got) == sorted(want)
        for e, part in got.items():
            check(part, want[e])

    @EXAMPLES
    @given(r=refs())
    # Stripping u moves the lead from s u^2 v (coefficient 1) to s^2 v
    # (coefficient -1), so the core's sign is not p's.
    @example(r={(0, (((0, 0), 1),), ()): Fraction(1),
                (1, (((0, 0), 2), ((1, 0), 1)), ()): Fraction(1),
                (2, (((0, 0), 1), ((1, 0), 1)), ()): Fraction(-1)})
    def test_primitive_core_and_content(self, r):
        p = Poly(RING, r)
        check(primitive_core(p), ref_primitive_core(r))

    @EXAMPLES
    @given(n=refs(), d=refs().filter(bool))
    def test_ratexpr_construction(self, n, d):
        """Joint content is stripped unless the numerator is zero, which
        keeps its denominator."""
        e = RatExpr(Poly(RING, n), Poly(RING, d))
        want_n, want_d = ref_ratexpr(n, d)
        if n:
            assert e.num.den == 1 and e.den.den == 1
        check(e.num, want_n)
        check(e.den, want_d)

    def test_ratexpr_reduces_across_denominators(self):
        x = Poly(RING, {mono(1): 1})
        e = RatExpr(x * Fraction(-2, 3), x * x * Fraction(4, 9) + x * Fraction(2, 3))
        assert (e.num, e.den) == (RING.const(-3), x * 2 + 3)
        with pytest.raises(ZeroDivisionError):
            RatExpr(x, RING.zero())


# -- substituting a jet variable ----------------------------------------------

def ref_subs_var(e: RatExpr, name: str, order: int, repl: RatExpr) -> RatExpr:
    """The body of ``RatExpr.subs_var`` before it built one ``RatExpr``: each
    side substituted into a ``RatExpr`` of its own, then their quotient."""
    splits = [p.collect(name, order) for p in (e.num, e.den)]
    highest = max(max(parts, default=0) for parts in splits)
    num_pows, den_pows = [e.ring.one()], [e.ring.one()]
    for _ in range(highest):
        num_pows.append(num_pows[-1] * repl.num)
        den_pows.append(den_pows[-1] * repl.den)

    def subs_poly(parts: dict) -> RatExpr:
        top = max(parts, default=0)
        num = e.ring.zero()
        for k, coeff in parts.items():
            num += coeff * num_pows[k] * den_pows[top - k]
        return RatExpr(num, den_pows[top])

    num, den = map(subs_poly, splits)
    return RatExpr(num.num * den.den, num.den * den.num)


# the substituted variable: two jet orders of u and one of v
SUBS_VARS = [("u", 0), ("u", 2), ("v", 1)]


@st.composite
def in_powers_of(draw, x: Poly):
    """sum_{e<=3} c_e x^e with reference coefficients c_e, which may hold x
    themselves, other jets, s and the parameters."""
    coeffs = draw(st.lists(refs(max_size=3), min_size=1, max_size=4))
    return sum((Poly(RING, c) * x ** e for e, c in enumerate(coeffs)), RING.zero())


@st.composite
def substitutions(draw):
    """(expression, name, order, replacement): the variable up to the cube
    on both sides, replaced by a quotient whose denominator is not a
    constant."""
    name, order = draw(st.sampled_from(SUBS_VARS))
    x = RING.var(name, order)
    num = draw(in_powers_of(x))
    den = draw(in_powers_of(x).filter(bool))
    repl_den = draw(refs(max_size=3).filter(lambda r: any(m != mono() for m in r)))
    repl = RatExpr(Poly(RING, draw(refs(max_size=3))), Poly(RING, repl_den))
    return RatExpr(num, den), name, order, repl


def ratexprs_built(subs, e, name, order, repl, monkeypatch) -> int:
    """How many ``RatExpr`` the substitution ``subs`` constructs."""
    built = []
    init = RatExpr.__init__

    def counted(self, num, den=None):
        built.append(None)
        init(self, num, den)

    monkeypatch.setattr(RatExpr, "__init__", counted)
    subs(e, name, order, repl)
    return len(built)


class TestSubsVar:
    @settings(max_examples=200, deadline=None)
    @given(case=substitutions())
    def test_matches_the_quotient_of_substituted_sides(self, case):
        """A nonzero result is the oracle's canonical pair; a zero one
        compares equal (its denominator may carry other content)."""
        e, name, order, repl = case
        try:
            want = ref_subs_var(e, name, order, repl)
        except ZeroDenominator:
            with pytest.raises(ZeroDenominator):
                e.subs_var(name, order, repl)
            return
        got = e.subs_var(name, order, repl)
        assert got == want
        if want.num.is_zero():
            assert got.num.is_zero()
        else:
            check(got.num, as_ref(want.num))
            check(got.den, as_ref(want.den))

    def test_each_side_cleared_to_its_own_top_degree(self):
        x, a, s = RING.var("u", 1), RING.param("a"), RING.s()
        q = s + 1
        got = RatExpr(x * x + a, s * x).subs_var("u", 1, RatExpr(a, q))
        # (a^2 + a q^2) / q^2 over s a / q: the numerator cleared by q^2 and
        # the denominator by q, each then multiplied by the other's power,
        # and the joint content a divided out; no polynomial gcd is taken
        assert (got.num, got.den) == ((a + q * q) * q, s * q * q)

    CASE = (RatExpr(RING.var("u") ** 2 + RING.s(), RING.var("v", 1) * RING.var("u")),
            "u", 0, RatExpr(RING.param("a"), RING.s() + 1))

    def test_builds_one_ratexpr(self, monkeypatch):
        assert ratexprs_built(RatExpr.subs_var, *self.CASE, monkeypatch) == 1

    def test_quotient_of_sides_fails_the_count(self, monkeypatch):
        # the former body: one RatExpr per side and a third for the quotient
        assert ratexprs_built(ref_subs_var, *self.CASE, monkeypatch) == 3


# -- the packed layout --------------------------------------------------------

# 9 parameters and 5 dependents: a jet of order o sits in slot 10 + 5*o + d
WIDE = Ring(tuple(f"x{d}" for d in range(5)), tuple(f"c{p}" for p in range(9)))
LIMIT = 2 ** 15


@st.composite
def wide_monomials(draw, top=LIMIT - 1, max_order=800):
    exponents = st.integers(1, top)
    jets = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, max_order)),
                                exponents, max_size=4))
    pars = draw(st.dictionaries(st.integers(0, 8), exponents, max_size=3))
    return mono(draw(st.integers(0, top)), jets, pars)


def wide_refs(top):
    return st.lists(st.tuples(wide_monomials(top), coefficients),
                    max_size=4).map(ref_clean)


class TestPackedLayout:
    @settings(max_examples=300, deadline=None)
    @given(m=wide_monomials())
    def test_decode_inverts_encode(self, m):
        assert _decode(WIDE, _encode(WIDE, m)) == m

    @EXAMPLES
    @given(a=wide_monomials(LIMIT // 2 - 1), b=wide_monomials(LIMIT // 2 - 1))
    def test_product_of_keys_is_the_triple_product(self, a, b):
        assert _decode(WIDE, _encode(WIDE, a) + _encode(WIDE, b)) == mono_mul(a, b)
        check(Poly(WIDE, {a: 1}) * Poly(WIDE, {b: 1}), {mono_mul(a, b): Fraction(1)})

    @EXAMPLES
    @given(r=wide_refs(LIMIT // 2 - 1), q=wide_refs(LIMIT // 2 - 1))
    def test_mul_and_derivative_on_a_wide_ring(self, r, q):
        p, o = Poly(WIDE, r), Poly(WIDE, q)
        check(p * o, ref_mul(r, q))
        check(p.total_derivative(), ref_derivative(r))

    @EXAMPLES
    @given(n=wide_refs(LIMIT - 1).filter(bool), d=wide_refs(LIMIT - 1).filter(bool))
    def test_primitive_core_on_a_wide_ring(self, n, d):
        """The monomial content over every slot and exponent of the wide
        ring: ``RatExpr`` strips the joint one from two polynomials, a
        slotwise minimum of packed keys, and the ``primitive_core`` oracle
        strips it from one."""
        check(primitive_core(Poly(WIDE, n)), ref_primitive_core(n))
        e = RatExpr(Poly(WIDE, n), Poly(WIDE, d))
        want_n, want_d = ref_ratexpr(n, d)
        check(e.num, want_n)
        check(e.den, want_d)

    def test_max_order_reads_every_term(self):
        p = Poly(WIDE, {mono(jets={(3, 700): 1}): 1, mono(jets={(2, 799): 2}): 1})
        assert [p.max_order(f"x{d}") for d in range(5)] == [None, None, 799, 700, None]

    def test_a_symbol_outside_the_ring_is_refused(self):
        for m in (mono(jets={(5, 0): 1}), mono(pars={9: 1}), mono(jets={(0, -1): 1})):
            with pytest.raises(ValueError, match="outside"):
                Poly(WIDE, {m: 1})


# -- the occupied-slot walk against slot-by-slot reading -----------------------

SLOTS = 4096                              # the slots the guard mask covers


def ref_slots(key, start=0):
    """(slot, exponent) of each nonzero slot of ``key`` from ``start`` up,
    read one 16-bit slot at a time."""
    out, slot = [], start
    while key >> (16 * slot):
        e = (key >> (16 * slot)) & 0xFFFF
        if e:
            out.append((slot, e))
        slot += 1
    return out


def ref_decode(ring, key):
    """The triple of ``key`` from :func:`ref_slots`."""
    first, n_dep = 1 + len(ring.params), len(ring.dependents)
    slots = dict(ref_slots(key))
    pars = tuple((j - 1, e) for j, e in sorted(slots.items()) if 1 <= j < first)
    jets = tuple(sorted((((j - first) % n_dep, (j - first) // n_dep), e)
                        for j, e in slots.items() if j >= first))
    return slots.get(0, 0), jets, pars


def ref_key_derivative(ring, key, rules):
    """(key, multiplier) pairs of d/ds of one packed monomial, read slot by
    slot; ``rules`` maps a dependent index to the (key, numerator) pairs of
    its derivative."""
    first, n_dep = 1 + len(ring.params), len(ring.dependents)
    out = []
    for j, e in ref_slots(key):
        unit = 1 << (16 * j)
        if j == 0:
            out.append((key - 1, e))
        elif j >= first and (j - first) % n_dep in rules:
            out += [(key - unit + kr, e * cr) for kr, cr in rules[(j - first) % n_dep]]
        elif j >= first:
            out.append((key - unit + (unit << (16 * n_dep)), e))
    return out


def packed_keys(max_slot=SLOTS - 1):
    """Packed monomials with up to five occupied slots, among the first 20
    (s, the parameters, the low jets) or anywhere up to ``max_slot``, the
    last guarded slot by default, each exponent below 2**15."""
    slots = st.one_of(st.integers(0, min(20, max_slot)), st.integers(0, max_slot))
    return st.dictionaries(slots, st.integers(1, LIMIT - 1), max_size=5).map(
        lambda slots: sum(e << (16 * j) for j, e in slots.items()))


def ring_of(n_par, n_dep):
    return Ring(tuple(f"x{d}" for d in range(n_dep)), tuple(f"c{p}" for p in range(n_par)))


shapes = st.tuples(st.integers(0, 9), st.integers(1, 6))


class TestOccupiedSlots:
    @settings(max_examples=300, deadline=None)
    @given(key=packed_keys(), start=st.integers(0, SLOTS))
    def test_walk_matches_slot_by_slot_reading(self, key, start):
        assert list(_occupied(key, start)) == ref_slots(key, start)

    def test_walk_reaches_the_last_guarded_slot(self):
        key = (LIMIT - 1) << (16 * (SLOTS - 1)) | 1 << 16 | LIMIT - 1
        assert list(_occupied(key)) == [(0, LIMIT - 1), (1, 1), (SLOTS - 1, LIMIT - 1)]
        assert list(_occupied(key, SLOTS - 1)) == [(SLOTS - 1, LIMIT - 1)]
        assert list(_occupied(0)) == [] and list(_occupied(key, SLOTS)) == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=shapes)
    def test_decode_matches_slot_by_slot_reading(self, data, shape):
        ring = ring_of(*shape)
        key = data.draw(packed_keys())
        assert _decode(ring, key) == ref_decode(ring, key)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=shapes, ruled=st.sets(st.integers(0, 5)))
    def test_total_derivative_matches_slot_by_slot_reading(self, data, shape, ruled):
        """With and without rules; a rule-defined dependent occurs at order 0
        only, and no jet sits in a slot without a next order."""
        n_par, n_dep = shape
        ring = ring_of(n_par, n_dep)
        ruled = {d for d in ruled if d < n_dep}
        first, top = 1 + n_par, SLOTS - n_dep - 1
        keys = data.draw(st.lists(packed_keys(top), max_size=4))
        keys = [k for k in keys if all(j < first or (j - first) % n_dep not in ruled
                                       or j - first < n_dep for j, _ in ref_slots(k))]
        nums = {k: data.draw(st.integers(-9, 9).filter(bool)) for k in keys}
        rules = {d: {data.draw(packed_keys(40)): 1} for d in ruled}
        want = {}
        for key, c in nums.items():
            for k2, f in ref_key_derivative(ring, key, {d: r.items() for d, r in rules.items()}):
                want[k2] = want.get(k2, 0) + c * f
        want = {k: c for k, c in want.items() if c}
        poly = jetring._make(ring, dict(nums), 1)
        rule_polys = {f"x{d}": jetring._make(ring, r, 1) for d, r in rules.items()}
        if any(k2 & jetring._GUARD for k2 in want):     # an exponent reached 2**15
            with pytest.raises(ExponentOverflow):
                poly.total_derivative(rule_polys or None)
        else:
            got = poly.total_derivative(rule_polys or None)
            assert (got.terms, got.den) == (want, 1)

    def test_a_highest_first_walk_fails_the_parity_checks(self, monkeypatch):
        """The walk's order is what ``_decode`` reads parameters in, so
        walking the slots highest-first must fail both checks above."""
        ring = ring_of(3, 2)
        key = 2 << 16 | 3 << 48 | 5 << (16 * 700)
        monkeypatch.setattr(jetring, "_occupied",
                            lambda key, start=0: reversed(ref_slots(key, start)))
        assert list(jetring._occupied(key)) != ref_slots(key)
        assert _decode(ring, key) != ref_decode(ring, key)


# -- the monomial order against the triple oracle ------------------------------

def oracle_terms(p: Poly):
    """The terms of ``p`` sorted by :func:`monomial_sort_key` on the triples
    of :func:`ref_decode`, greatest first."""
    return sorted(((ref_decode(p.ring, k), Fraction(c, p.den)) for k, c in p.terms.items()),
                  key=lambda t: monomial_sort_key(t[0]), reverse=True)


def order_mismatches(p: Poly) -> list:
    """Which of ``rows``, read through ``sorted_terms``, and ``leading``
    disagree with the oracle."""
    want = oracle_terms(p)
    return [name for name, got, ref in (("sorted_terms", sorted_terms(p), want),
                                        ("leading", p.leading(), want[0] if want else None))
            if got != ref]


ORDERED = jetring._ordered
low_keys = st.dictionaries(st.integers(0, 12), st.integers(1, 2), max_size=4).map(
    lambda slots: sum(e << (16 * j) for j, e in slots.items()))


def slot_order(ring, items):
    """``jetring._ordered`` with the jets of its order key taken in slot
    order, order-major, as the walk reads them, instead of by dependent."""
    for order, m, c in ORDERED(ring, items):
        s_pow, jets, pars = m
        jets = sorted(jets, key=lambda jet: jet[0][::-1])
        yield ((order[0], *[x for (d, o), e in jets for x in (d, -o, e)], -1,
                *[x for pe in pars for x in pe], -1, s_pow), m, c)


class TestMonomialOrder:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), shape=shapes)
    def test_sorted_terms_and_leading_follow_the_oracle(self, data, shape):
        """Keys anywhere in the guarded slots, or in the first 13 with small
        exponents so that degrees and jet prefixes tie, on rings of 1 to 6
        dependents and 0 to 9 parameters, with terms that tie on every
        field but the s power."""
        ring = ring_of(*shape)
        keys = data.draw(st.lists(st.one_of(packed_keys(), low_keys), max_size=6))
        s_pows = data.draw(st.lists(st.integers(0, LIMIT - 1), max_size=3))
        keys += [k - (k & 0xFFFF) + s for k in keys[:2] for s in s_pows]
        nums = {k: data.draw(st.integers(-9, 9).filter(bool)) for k in keys}
        p = jetring._make(ring, nums, data.draw(st.integers(1, 12)))
        assert order_mismatches(p) == []

    def test_zero_and_constant_polynomials(self):
        for ring in (RING, ring_of(0, 1), ring_of(9, 6)):
            assert sorted_terms(ring.zero()) == [] and ring.zero().leading() is None
            c = ring.const(Fraction(-3, 4))
            assert sorted_terms(c) == [((0, (), ()), Fraction(-3, 4))]
            assert order_mismatches(c) == order_mismatches(ring.zero()) == []

    def test_ties_but_for_the_s_power(self):
        """The s power moves the degree, which decides before the jets."""
        x = RING.var("u", 1) * RING.var("v") * RING.param("b")
        p = x + 2 * RING.s(3) * x + 3 * RING.s() * x
        assert [m[0] for m, _ in sorted_terms(p)] == [3, 1, 0]
        assert order_mismatches(p) == []

    def test_jets_that_end_first_sort_lower(self):
        """u v and u b tie on degree and on their first jet; u b has no
        second jet, so it sorts below u v whatever parameter follows."""
        u, v, b = RING.var("u"), RING.var("v"), RING.param("b")
        p = u * b + u * v + u * RING.var("u", 1)
        assert sorted_terms(p)[-1][0] == mono(jets={(U, 0): 1}, pars={B: 1})
        assert order_mismatches(p) == []

    def test_an_order_major_key_fails_on_two_dependents(self, monkeypatch):
        """u' v and u v' differ in which dependent carries the derivative:
        by dependent u v' sorts first, order-major u' v does."""
        monkeypatch.setattr(jetring, "_ordered", slot_order)
        one = Ring(("u",), ("a",))
        assert order_mismatches(one.var("u", 1) * one.var("u") + one.var("u", 2)) == []
        two = RING.var("u", 1) * RING.var("v") + RING.var("u") * RING.var("v", 1)
        assert order_mismatches(two) == ["sorted_terms", "leading"]


# -- exponents that reach 2**15 -------------------------------------------------

def single(ring, m):
    return Poly(ring, {m: 1})


class TestExponentOverflow:
    def test_is_an_overflow_error_exported_by_the_package(self):
        assert p3lenard.ExponentOverflow is ExponentOverflow
        assert issubclass(ExponentOverflow, OverflowError)

    @pytest.mark.parametrize("slot", ["s", "jet", "param"])
    def test_product(self, slot):
        def power(e):
            return {"s": mono(e), "jet": mono(jets={(V, 3): e}),
                    "param": mono(pars={B: e})}[slot]

        half = single(RING, power(LIMIT // 2))
        with pytest.raises(ExponentOverflow):
            half * half
        check(half * single(RING, power(LIMIT // 2 - 1)), {power(LIMIT - 1): 1})

    def test_power(self):
        with pytest.raises(ExponentOverflow):
            RING.var("u", 2) ** LIMIT
        check(RING.var("u", 2) ** (LIMIT - 1), {mono(jets={(U, 2): LIMIT - 1}): 1})

    def test_power_is_refused_before_any_product(self, monkeypatch):
        # squaring (1 + u)^16384 would take minutes; a constant has no bound
        monkeypatch.setattr(Poly, "__mul__", None)
        for n in (LIMIT, 10 ** 20):
            with pytest.raises(ExponentOverflow, match="an exponent reached 2"):
                (RING.one() + RING.var("u")) ** n
        assert RING.one() ** 0 == RING.one()
        monkeypatch.undo()
        assert RING.const(-1) ** (10 ** 20 + 1) == RING.const(-1)

    def test_constructor(self):
        for m in (mono(LIMIT), mono(jets={(U, 0): LIMIT}), mono(pars={A: LIMIT}),
                  mono(jets={(U, 0): 2 * LIMIT}), (0, (((U, 1), LIMIT - 1), ((U, 1), 1)), ())):
            with pytest.raises(ExponentOverflow):
                Poly(RING, {m: 1})
        with pytest.raises(ExponentOverflow):
            RING.s(LIMIT)
        check(single(RING, mono(pars={A: LIMIT - 1})), {mono(pars={A: LIMIT - 1}): 1})

    def test_rule_substitution(self):
        # with the rule u' = v, d/ds of u * v^(2**15 - 1) holds v^(2**15)
        r = {mono(jets={(U, 0): 1, (V, 0): LIMIT - 1}): Fraction(1)}
        with pytest.raises(ExponentOverflow):
            Poly(RING, r).total_derivative({"u": RING.var("v")})
        check(Poly(RING, r).total_derivative({"u": RING.s()}),
              ref_derivative(r, {U: {mono(1): Fraction(1)}}))

    def test_integral(self):
        x = single(RING, mono(LIMIT - 2, {(V, 1): LIMIT - 1}))
        check(x.integrate_power(RING.s()),
              {mono(LIMIT - 1, {(V, 1): LIMIT - 1}): Fraction(1, LIMIT - 1)})
        with pytest.raises(ExponentOverflow):
            x.integrate_power(RING.var("v", 1))

    def test_order_shift(self):
        # d/ds turns one factor u^(2) into u^(3); beside u^(3) to the power
        # 2**15 - 1 that makes 2**15
        fine = {mono(jets={(U, 1): LIMIT - 1, (U, 2): 1}): Fraction(1)}
        check(Poly(RING, fine).total_derivative(), ref_derivative(fine))
        with pytest.raises(ExponentOverflow):
            single(RING, mono(jets={(U, 2): 1, (U, 3): LIMIT - 1})).total_derivative()

    def test_order_beyond_the_last_slot(self):
        ring = Ring(("u",))               # order o sits in slot 1 + o
        top = ring.var("u", 4094)         # the last slot the guard covers
        with pytest.raises(ExponentOverflow):
            top.total_derivative()
        with pytest.raises(ExponentOverflow):
            ring.var("u", 4095)
        assert ring.var("u", 4093).total_derivative() == top

    def test_equal_rings_built_apart_share_the_guard(self):
        a, b = hierarchy_ring(3), hierarchy_ring(3)
        assert a == b and a is not b
        l3 = a.dependents.index("l3")
        x = single(a, mono(jets={(l3, 900): LIMIT // 2}))
        y = single(b, mono(jets={(l3, 900): LIMIT // 2}))
        with pytest.raises(ExponentOverflow):
            x * y
        with pytest.raises(ExponentOverflow):
            y * x
        z = single(b, mono(jets={(l3, 900): LIMIT // 2 - 1}))
        check(x * z, {mono(jets={(l3, 900): LIMIT - 1}): 1})

    def test_raises_under_python_O(self):
        script = (
            "from p3lenard.jetring import ExponentOverflow, Ring\n"
            "print('debug', __debug__)\n"
            "ring = Ring(('u',))\n"
            "u2, u3 = ring.var('u', 2), ring.var('u', 3)\n"
            "x = u3 ** (2 ** 14)\n"
            "for step in (lambda: x * x, lambda: x * x.total_derivative(),\n"
            "             lambda: (u2 * x * u3 ** (2 ** 14 - 1)).total_derivative()):\n"
            "    try:\n"
            "        step()\n"
            "        print('passed')\n"
            "    except ExponentOverflow:\n"
            "        print('raised')\n")
        src = os.path.dirname(os.path.dirname(p3lenard.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.splitlines() == [
            "debug False", "raised", "passed", "raised"], done.stderr


# -- one accumulate for a sum of products -----------------------------------------

@st.composite
def product_triples(draw, operands=refs(max_size=3)):
    """(int weight, ref, ref) triples, zero weights and zero operands
    included; a drawn number of them come again with the factors swapped
    and the weight negated, so that whole products cancel."""
    triples = draw(st.lists(st.tuples(st.integers(-3, 3), operands, operands), max_size=5))
    return triples + [(-w, q, r) for w, r, q in triples[:draw(st.integers(0, len(triples)))]]


def ref_sum_products(triples):
    return ref_clean([pair for w, r, q in triples
                      for pair in ref_scale(ref_mul(r, q), w).items()])


@st.composite
def tall_monomials(draw):
    """Monomials whose exponents lie near 2**14, so that a product of two
    may reach 2**15 in s, a jet or a parameter."""
    e = st.sampled_from([1, LIMIT // 2 - 1, LIMIT // 2])
    jets = {j: draw(e) for j in draw(st.lists(st.sampled_from([(U, 0), (V, 1)]),
                                              max_size=2, unique=True))}
    return mono(draw(st.sampled_from([0, 1, LIMIT // 2])), jets,
                {A: draw(e)} if draw(st.booleans()) else {})


class TestSumProducts:
    """``Ring.sum_products`` against the sum of plain ``Poly`` products and
    against the reference dicts."""

    @EXAMPLES
    @given(triples=product_triples())
    def test_equals_the_sum_of_plain_products(self, triples):
        polys = [(w, Poly(RING, r), Poly(RING, q)) for w, r, q in triples]
        got = RING.sum_products(iter(polys))
        check(got, ref_sum_products(triples))
        assert got == sum((w * (a * b) for w, a, b in polys), RING.zero())

    @EXAMPLES
    @given(triples=product_triples(st.lists(st.tuples(tall_monomials(), coefficients),
                                            max_size=3).map(ref_clean)))
    def test_an_exponent_of_2_15_raises_where_it_survives(self, triples):
        want = ref_sum_products(triples)
        polys = [(w, Poly(RING, r), Poly(RING, q)) for w, r, q in triples]
        if any(e >= LIMIT for s_pow, jets, pars in want
               for e in (s_pow, *(e for _, e in jets + pars))):
            with pytest.raises(ExponentOverflow):
                RING.sum_products(polys)
        else:
            check(RING.sum_products(polys), want)

    def test_cancelled_products_and_zero_operands(self):
        half = single(RING, mono(jets={(V, 1): LIMIT // 2}))
        x = Poly(RING, {mono(1): Fraction(2, 3), mono(pars={A: 1}): Fraction(-1, 4)})
        with pytest.raises(ExponentOverflow):
            RING.sum_products([(1, half, half), (1, x, x)])
        check(RING.sum_products([(1, half, half), (1, x, x), (-1, half, half)]),
              as_ref(x * x))
        check(RING.sum_products([(2, x, half), (-1, half, 2 * x)]), {})
        check(RING.sum_products([(0, x, x), (5, RING.zero(), x), (3, x, RING.zero())]), {})
        check(RING.sum_products([]), {})

    def test_mixed_rings_are_refused(self):
        other = Ring(("u", "v"), ("a",))
        for a, b in ((RING.s(), other.s()), (other.s(), RING.s()), (other.s(), other.s())):
            with pytest.raises(ValueError, match="mixed rings"):
                RING.sum_products([(1, a, b)])
        assert RING.sum_products([(1, Ring(("u", "v"), ("a", "b")).s(), RING.s())]) == RING.s(2)


def test_rule_defined_dependent_above_order_zero_is_refused():
    ring = Ring(("u", "l1", "l2"))
    rules = {"l1": ring.var("u", 1), "l2": ring.var("l1") * ring.var("u")}
    with pytest.raises(ValueError, match="jet order 1 of rule-defined dependent 'l2'"):
        (ring.var("l2", 1) * ring.var("l1")).total_derivative(rules)
    with pytest.raises(ValueError, match="jet order 3 of rule-defined dependent 'l1'"):
        ring.var("l1", 3).total_derivative(rules)


# -- products with a one-term factor ---------------------------------------------

def merge_mul(p: Poly, q: Poly) -> Poly:
    """The product as ``Poly.__mul__`` formed every one before products with
    a one-term factor took their own path: the merge of every pair of terms.
    Bound at import, so a test that patches the kernel leaves it alone."""
    pairs = ((ka + kb, ca * cb) for ka, ca in p.terms.items()
             for kb, cb in q.terms.items())
    return _make(p.ring, _guarded(_accumulate({}, pairs)), p.den * q.den)


def one_term_refs():
    return st.tuples(monomials(), coefficients).map(lambda t: {t[0]: t[1]})


def one_term_faults():
    """The cases where ``*`` departs from the merge: a product whose
    denominator the gcd must cancel, and one whose s power reaches 2**15."""
    faults = []
    half, x = RING.var("u", 1) * Fraction(1, 2), RING.var("u", 1) * 4
    many = RING.param("b") * 2 + x
    got, want = half * many, merge_mul(half, many)
    if (got.terms, got.den) != (want.terms, want.den):
        faults.append("canonical")
    high = single(RING, mono(LIMIT // 2))
    try:
        high * (high + x)
        faults.append("overflow")
    except ExponentOverflow:
        pass
    return faults


def ungcd_make(ring, nums, den):
    """``_make`` without the gcd: ``nums / den`` as given."""
    p = object.__new__(Poly)
    p.ring, p.terms, p.den = ring, nums, den if nums else 1
    return p


class TestOneTermProducts:
    @EXAMPLES
    @given(t=one_term_refs(), r=refs(), left=st.booleans())
    def test_matches_the_merge(self, t, r, left):
        a, b = Poly(RING, t), Poly(RING, r)
        if left:
            a, b = b, a
        got, want = a * b, merge_mul(a, b)
        assert_canonical(got)
        assert (list(got.terms.items()), got.den) == (list(want.terms.items()), want.den)

    @EXAMPLES
    @given(r=refs(), c=coefficients)
    def test_constant_factors(self, r, c):
        p = Poly(RING, r)
        assert list((p * RING.one()).terms.items()) == list(p.terms.items())
        assert list((RING.one() * p).terms.items()) == list(p.terms.items())
        k = RING.const(c)
        for got, want in ((p * k, merge_mul(p, k)), (k * p, merge_mul(k, p))):
            assert_canonical(got)
            assert (got.terms, got.den) == (want.terms, want.den)
        check(p * RING.zero(), {})
        check(RING.zero() * p, {})

    @EXAMPLES
    @given(e=st.integers(LIMIT // 2 - 2, LIMIT // 2 + 1), r=refs(),
           left=st.booleans())
    def test_a_slot_reaching_2_15_raises_as_in_the_merge(self, e, r, left):
        # s powers e and LIMIT/2 - 2 .. LIMIT/2 sum to LIMIT - 4 .. LIMIT + 1
        a = single(RING, mono(e, {(U, 1): 1}))
        b = Poly(RING, {(s + LIMIT // 2 - 2, jets, pars): c
                        for (s, jets, pars), c in r.items()})
        if left:
            a, b = b, a
        outcomes = []
        for mul in (operator.mul, merge_mul):
            try:
                outcomes.append(mul(a, b).terms)
            except ExponentOverflow:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1]

    def test_one_term_path_has_no_fault(self):
        assert one_term_faults() == []

    def test_an_unguarded_one_term_path_fails(self, monkeypatch):
        monkeypatch.setattr(jetring, "_guarded", lambda keys: keys)
        assert one_term_faults() == ["overflow"]

    def test_a_one_term_path_without_the_gcd_fails(self, monkeypatch):
        monkeypatch.setattr(jetring, "_make", ungcd_make)
        assert one_term_faults() == ["canonical"]
