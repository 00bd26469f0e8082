"""Rendering from int rows against the Fraction renderers it replaced.

``render`` spells each coefficient from a polynomial's int numerator and its
one denominator, reduced by one gcd per term.  The renderers below are the
former ones, which read ``sorted_terms`` and built a ``Fraction`` per term;
they are the oracle for JSON, ASCII and LaTeX on polynomials with several
dependents, parameters, negative and +-1 coefficients and a common
denominator that some numerators share a factor with.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p3lenard import render
from p3lenard.jetring import Poly, Ring
from p3lenard.render import (_coef_ascii, _coef_latex, _jet_ascii, _jet_latex,
                             _power_latex, latex_symbol, poly_ascii, poly_latex,
                             poly_to_obj)

from oracles import sorted_terms

RINGS = [Ring(("u",)), Ring(("u",), ("a",)), Ring(("u", "l1", "l2"), ("tau0", "tau1"))]


def ref_poly_text(poly: Poly, symbol, jet, power, coef, sep: str) -> str:
    """``render._poly_text`` as it read ``sorted_terms``."""
    if poly.is_zero():
        return "0"
    deps, params = poly.ring.dependents, poly.ring.params
    jets, pars = {}, {}
    chunks = []
    for (s_pow, js, ps), c in sorted_terms(poly):
        parts = [power("s", s_pow) if s_pow > 1 else "s"] if s_pow else []
        for de, e in js:
            f = jets.get(de)
            if f is None:
                f = jets[de] = jet(symbol(deps[de[0]]), de[1])
            parts.append(power(f, e) if e > 1 else f)
        for p, e in ps:
            f = pars.get(p)
            if f is None:
                f = pars[p] = symbol(params[p])
            parts.append(power(f, e) if e > 1 else f)
        n, d = c.numerator, c.denominator
        if d != 1 or not parts or (n != 1 and n != -1):
            parts.insert(0, coef(abs(n), d))
        chunks.append(("- " if n < 0 else "+ ") + sep.join(parts))
    out = " ".join(chunks)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def ref_poly_to_obj(poly: Poly) -> dict:
    """``render.poly_to_obj`` as it read ``sorted_terms``."""
    deps, pars = poly.ring.dependents, poly.ring.params
    single = len(deps) == 1 and not pars
    terms = []
    for (s_pow, jets, ps), c in sorted_terms(poly):
        entry: dict = {"s": s_pow}
        if single:
            entry["jets"] = {str(o): e for (_, o), e in jets}
        else:
            nested: dict = {}
            for (d, o), e in jets:
                nested.setdefault(deps[d], {})[str(o)] = e
            entry["jets"] = nested
            if ps:
                entry["params"] = {pars[p]: e for p, e in ps}
        entry["coef"] = str(c)
        terms.append(entry)
    return {"terms": terms}


def mismatches(poly: Poly) -> list:
    """The renderings of ``poly`` that differ from the oracle's."""
    oracle = {
        "json": ref_poly_to_obj(poly),
        "ascii": ref_poly_text(poly, str, _jet_ascii, "{}^{}".format, _coef_ascii, "*"),
        "latex": ref_poly_text(poly, latex_symbol, _jet_latex, _power_latex,
                               _coef_latex, " "),
    }
    got = {"json": poly_to_obj(poly), "ascii": poly_ascii(poly), "latex": poly_latex(poly)}
    return [name for name in oracle if got[name] != oracle[name]]


coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 12])))


@st.composite
def polys(draw):
    ring = draw(st.sampled_from(RINGS))
    out = ring.zero()
    for _ in range(draw(st.integers(0, 6))):
        term = ring.s(draw(st.integers(0, 3))) * draw(coefficients)
        for _ in range(draw(st.integers(0, 3))):
            term *= ring.var(draw(st.sampled_from(ring.dependents)),
                             draw(st.integers(0, 5))) ** draw(st.integers(1, 3))
        for name in draw(st.lists(st.sampled_from(ring.params), max_size=2)
                         if ring.params else st.just([])):
            term *= ring.param(name) ** draw(st.integers(1, 2))
        out += term
    return out


def shared_factor() -> Poly:
    """1/2 u + 1/4 l1' tau0 - u l2: over the denominator 4, the numerator 2
    of u shares its factor 2."""
    ring = RINGS[2]
    u, l1, l2, tau0 = ring.var("u"), ring.var("l1", 1), ring.var("l2"), ring.param("tau0")
    return u * Fraction(1, 2) + l1 * tau0 * Fraction(1, 4) - u * l2


class TestRowsRender:
    @settings(max_examples=300, deadline=None)
    @given(poly=polys())
    @example(poly=shared_factor())
    @example(poly=RINGS[0].zero())
    @example(poly=RINGS[0].const(Fraction(-3, 4)))
    def test_matches_the_fraction_renderers(self, poly):
        assert mismatches(poly) == []

    def test_the_examples_have_a_reducible_term(self):
        poly = shared_factor()
        assert poly.den == 4 and 2 in poly.terms.values()

    def test_a_render_without_the_gcd_fails(self, monkeypatch):
        monkeypatch.setattr(render, "gcd", lambda n, d: 1)
        assert mismatches(shared_factor()) == ["json", "ascii", "latex"]
        assert mismatches(RINGS[0].const(7)) == []        # den 1 takes no gcd


class TestCheckDigits:
    """``check_digits`` refuses a polynomial exactly when one of its
    coefficients, in lowest terms, is longer than ``str`` writes an int."""

    LIMIT = sys.get_int_max_str_digits()

    def test_refuses_what_the_renderers_cannot_write(self):
        ring = RINGS[0]
        longest = ring.const(10 ** self.LIMIT - 1)
        render.check_digits([longest])
        assert poly_to_obj(longest)["terms"][0]["coef"] == "9" * self.LIMIT
        for poly in (ring.const(10 ** self.LIMIT), ring.const(-10 ** self.LIMIT),
                     ring.const(Fraction(1, 10 ** self.LIMIT)),
                     ring.var("u") * 10 ** self.LIMIT + 1):
            with pytest.raises(OverflowError, match=f"more than {self.LIMIT} digits"):
                render.check_digits([longest, poly])
            with pytest.raises(ValueError):
                poly_ascii(poly)

    def test_reads_lowest_terms(self):
        # over the common denominator 10^(LIMIT - 1) the numerator of u has
        # LIMIT + 999 digits; in lowest terms it has 1001
        ring = RINGS[0]
        poly = ring.const(Fraction(1, 10 ** (self.LIMIT - 1))) + ring.var("u") * 10 ** 1000
        assert poly.height() >= 10 ** self.LIMIT
        render.check_digits([poly])
        assert poly_ascii(poly) == f"{10 ** 1000}*u + 1/{10 ** (self.LIMIT - 1)}"


class TestCheckPower:
    """``check_power(p, n)`` refuses exactly when the n-th power of the
    coefficient of p's greatest or least monomial, in lowest terms, is one
    that ``check_digits`` refuses; it forms no power past the limit."""

    LIMIT = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("x", [2, 3, 10, 7 ** 50], ids=["2", "3", "10", "7^50"])
    def test_bound_is_exact(self, x):
        ring = RINGS[0]
        n = 1
        while x ** (n + 1) < 10 ** self.LIMIT:
            n += 1
        for const in (ring.const(x), ring.const(Fraction(-1, x))):
            render.check_digits([const ** n])
            with pytest.raises(OverflowError, match=f"more than {self.LIMIT} digits"):
                render.check_digits([const ** (n + 1)])
        # the greatest and the least monomial of a polynomial
        for poly in (ring.const(x), ring.const(Fraction(-1, x)),
                     ring.var("u") * x + 1, ring.var("u") + x):
            render.check_power(poly, n)
            with pytest.raises(OverflowError, match=f"more than {self.LIMIT} digits"):
                render.check_power(poly, n + 1)

    def test_reads_lowest_terms(self):
        # over the common denominator 6 the numerators are 3 and 2; in
        # lowest terms the coefficients are 1/2 and 1/3, and 3**5600 prints
        ring = RINGS[0]
        poly = ring.var("u") * Fraction(1, 2) + Fraction(1, 3)
        assert 6 ** 5600 >= 10 ** self.LIMIT > 3 ** 5600
        render.check_power(poly, 5600)

    def test_huge_exponents_end_at_once(self):
        ring = RINGS[0]
        for poly in (ring.const(2), ring.var("u") * 2 ** 14000):
            with pytest.raises(OverflowError, match=f"more than {self.LIMIT} digits"):
                render.check_power(poly, 10 ** 20)
        for poly in (ring.zero(), ring.one(), ring.const(-1), ring.var("u")):
            render.check_power(poly, 10 ** 20)
