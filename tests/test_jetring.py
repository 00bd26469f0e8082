"""The integer kernel of ``jetring`` against a plain reference.

Every ``Poly`` holds integer numerators over one common denominator.  Each
operation is compared here with the same operation on plain
``{monomial: Fraction}`` dicts, written out in this file, and every result
is checked for the canonical form: int numerators, none zero, a positive
int ``den`` sharing no factor with them, and ``den == 1`` for zero.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3lenard.jetring import Poly, RatExpr, Ring, monomial_sort_key

RING = Ring(("u", "v"), ("a", "b"))
U, V = 0, 1
A, B = 0, 1


# -- the reference: dicts from monomials to nonzero Fractions -----------------

def mono(s_pow=0, jets=None, pars=None):
    return (s_pow, tuple(sorted((jets or {}).items())),
            tuple(sorted((pars or {}).items())))


def mono_mul(a, b):
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


def as_ref(p: Poly) -> dict:
    return {m: Fraction(c, p.den) for m, c in p.terms.items()}


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
        assert p.sorted_terms() == [(mono(1), Fraction(2, 3)), (mono(), Fraction(1))]
        assert all(type(c) is Fraction for _, c in p.sorted_terms())
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
        check(c - p, ref_add(ref_neg(r), ref_clean([(mono(), Fraction(c))])))

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
    def test_equality_and_hash(self, r, q):
        p, o = Poly(RING, r), Poly(RING, q)
        assert (p == o) == (r == q)
        same = (p * 3) * Fraction(1, 3)
        assert p == same and hash(p) == hash(same)

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
    @given(r=refs())
    def test_map_terms(self, r):
        # s and the parameters are dropped, so distinct terms merge; q is
        # zero for s^1, so terms vanish as well
        def fn(m):
            return (0, m[1], ()), 1 - m[0], m[0] + 1

        want = ref_clean([((0, m[1], ()), c * Fraction(1 - m[0], m[0] + 1))
                          for m, c in r.items()])
        check(Poly(RING, r).map_terms(fn), want)

    @EXAMPLES
    @given(r=refs(), name=st.sampled_from(["u", "v"]), order=st.integers(0, 2))
    def test_collect(self, r, name, order):
        got = Poly(RING, r).collect(name, order)
        want = ref_collect(r, (RING.dependents.index(name), order))
        assert sorted(got) == sorted(want)
        for e, part in got.items():
            check(part, want[e])

    @EXAMPLES
    @given(r=refs(), m=monomials())
    def test_divide_monomial(self, r, m):
        shifted = {mono_mul(k, m): c for k, c in r.items()}
        check(Poly(RING, shifted).divide_monomial(m), r)

    @EXAMPLES
    @given(r=refs())
    def test_primitive_core_and_content(self, r):
        p = Poly(RING, r)
        check(p.primitive_core(), ref_primitive_core(r))
        assert p.rational_content() == ref_content(r.values())

    @EXAMPLES
    @given(n=refs(), d=refs().filter(bool), reduce_content=st.booleans())
    def test_ratexpr_construction(self, n, d, reduce_content):
        e = RatExpr(Poly(RING, n), Poly(RING, d), reduce_content=reduce_content)
        if reduce_content:
            want_n, want_d = ref_ratexpr(n, d)
            if n:
                assert e.num.den == 1 and e.den.den == 1
        else:
            want_n, want_d = (n, d) if ref_leading(d) > 0 else (ref_neg(n), ref_neg(d))
        check(e.num, want_n)
        check(e.den, want_d)

    def test_ratexpr_reduces_across_denominators(self):
        x = Poly(RING, {mono(1): 1})
        e = RatExpr(x * Fraction(-2, 3), x * x * Fraction(4, 9) + x * Fraction(2, 3))
        assert (e.num, e.den) == (RING.const(-3), x * 2 + 3)
        with pytest.raises(ZeroDivisionError):
            RatExpr(x, RING.zero())
