"""Differential-polynomial kernel: ring laws, derivative, formal integral,
evaluation, and the serialization round trip."""

import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from p3lenard import diffpoly
from p3lenard.diffpoly import (U_RING, NotExactDerivative, ParseError, const,
                               formal_integral, parse, s, u)
from p3lenard.hierarchy import hierarchy_ring
from p3lenard.jetring import MissingJetValue
from p3lenard.render import poly_latex, poly_to_obj

from conftest import diffpolys


class TestNormalForm:
    def test_additive_cancellation(self):
        assert (u() + u() - 2 * u()).is_zero()

    def test_difference_of_squares(self):
        assert (u() + s()) * (u() - s()) == u() ** 2 - s() ** 2

    @given(p=diffpolys(), q=diffpolys())
    def test_uniqueness_matches_serialization(self, p, q):
        assert ((p - q).is_zero()) == (poly_to_obj(p) == poly_to_obj(q))


class TestRingLaws:
    @settings(max_examples=250)
    @given(p=diffpolys(), q=diffpolys())
    def test_add_commutative(self, p, q):
        assert p + q == q + p

    @settings(max_examples=250)
    @given(p=diffpolys(), q=diffpolys(), r=diffpolys())
    def test_add_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @settings(max_examples=250)
    @given(p=diffpolys(), q=diffpolys())
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @settings(max_examples=250)
    @given(p=diffpolys(), q=diffpolys(), r=diffpolys())
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=250)
    @given(p=diffpolys(), q=diffpolys(), r=diffpolys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(p=diffpolys())
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()


class TestTotalDerivative:
    def test_jet_shift(self):
        assert u().total_derivative() == u(1)

    def test_product_and_chain(self):
        assert ((s() * u(1) ** 2).total_derivative()
                == u(1) ** 2 + 2 * s() * u(1) * u(2))

    def test_constant(self):
        assert const(Fraction(7, 3)).total_derivative().is_zero()

    @settings(max_examples=200)
    @given(p=diffpolys(), q=diffpolys())
    def test_linear(self, p, q):
        assert ((p + q).total_derivative()
                == p.total_derivative() + q.total_derivative())

    @settings(max_examples=200)
    @given(p=diffpolys(), q=diffpolys())
    def test_leibniz(self, p, q):
        assert ((p * q).total_derivative()
                == p.total_derivative() * q + p * q.total_derivative())


class TestFormalIntegral:
    def test_power_rule_on_top_jet(self):
        assert formal_integral(u(1) * u(2)) == u(1) ** 2 * Fraction(1, 2)

    def test_product_rule(self):
        assert formal_integral(s() * u(1) + u()) == s() * u()

    def test_bare_u_fails(self):
        with pytest.raises(NotExactDerivative):
            formal_integral(u())

    def test_u_squared_fails(self):
        with pytest.raises(NotExactDerivative):
            formal_integral(u() ** 2)

    def test_pure_s_terms(self):
        assert formal_integral(s() ** 2 * 3) == s() ** 3

    @settings(max_examples=200)
    @given(q=diffpolys())
    def test_integral_of_derivative(self, q):
        # antiderivative is unique up to the additive constant, which
        # formal_integral fixes at zero
        recovered = formal_integral(q.total_derivative())
        assert (recovered - q).max_order("u") is None
        assert all(m == (0, (), ()) for m, _ in (recovered - q).sorted_terms())

    @settings(max_examples=200)
    @given(p=diffpolys())
    def test_derivative_of_integral(self, p):
        try:
            q = formal_integral(p)
        except NotExactDerivative:
            return
        assert q.total_derivative() == p


def ref_formal_integral(p):
    """``formal_integral`` as it was before it split its input by top order:
    it collected the whole remainder once per jet order."""
    result, work, r = U_RING.zero(), p, p.max_order("u")
    while r is not None:
        if r == 0:
            raise NotExactDerivative(
                f"no differential-polynomial antiderivative (leftover {work!s})")
        parts = work.collect("u", r)
        if any(e >= 2 for e in parts):
            raise NotExactDerivative(
                f"u^({r}) appears nonlinearly at top order")
        block = parts[1].integrate_power(u(r - 1))
        result += block
        work = work - block.total_derivative()
        top, r = r, work.max_order("u")
        if r is not None and r >= top:
            raise NotExactDerivative("integration by parts failed to reduce order")
    return result + work.integrate_power(s())


def outcome(integral, p):
    """The antiderivative of ``p``, or the message it was refused with."""
    try:
        return integral(p)
    except NotExactDerivative as exc:
        return str(exc)


def without_constant(q):
    return q - const(dict(q.sorted_terms()).get((0, (), ()), 0))


# q = s u' - u has D(q) = s u'': integrating s u'' leaves the remainder -u'
# at order 1, where D(q) has no terms.
EXACT_CASES = [s(), const(5), U_RING.zero(), s() * u(1) - u(), u(1) ** 2 * s() ** 2,
               u() * u(2) + s() * u(3) ** 2 - const(Fraction(1, 3))]


def integral_faults(integral):
    """The q of ``EXACT_CASES`` whose derivative ``integral`` does not take
    back to q less its constant term."""
    return [q for q in EXACT_CASES
            if outcome(integral, q.total_derivative()) != without_constant(q)]


def remainder_dropping_integral():
    """``formal_integral`` with a merge that drops each remainder whose
    order holds no part yet, built from its source."""
    source = inspect.getsource(diffpoly.formal_integral)
    mutant = source.replace("parts[j] - rest if j in parts else -rest",
                            "parts[j] - rest if j in parts else U_RING.zero()")
    assert mutant != source
    namespace = dict(vars(diffpoly))
    exec(mutant, namespace)
    return namespace["formal_integral"]


class TestFormalIntegralOracle:
    @settings(max_examples=300, deadline=None)
    @given(q=diffpolys())
    @example(q=s())
    @example(q=const(Fraction(-7, 2)))
    @example(q=s() * u(1) - u())
    def test_integral_of_derivative_is_q_less_its_constant(self, q):
        assert outcome(formal_integral, q.total_derivative()) == without_constant(q)

    @settings(max_examples=300, deadline=None)
    @given(p=diffpolys(), q=diffpolys())
    @example(p=s() * u(), q=U_RING.zero())
    @example(p=u() ** 2, q=u(2))
    def test_matches_the_reference_loop(self, p, q):
        """Mostly non-exact inputs: the same antiderivative or the same
        message, "leftover" quoting everything still unintegrated."""
        for f in (p, p + q.total_derivative()):
            assert outcome(formal_integral, f) == outcome(ref_formal_integral, f)

    def test_fixed_cases(self):
        assert integral_faults(formal_integral) == []
        assert integral_faults(ref_formal_integral) == []

    def test_a_merge_that_drops_a_remainder_fails(self):
        assert integral_faults(remainder_dropping_integral()) == [s() * u(1) - u()]


class TestEvalNumeric:
    def test_direct_arithmetic(self):
        assert (u() ** 2 + s()).eval(2.0, {"u": [3.0]}) == 11.0

    def test_missing_jet(self):
        with pytest.raises(MissingJetValue):
            u(2).eval(1.0, {"u": [1.0, 1.0]})

    def test_zero_polynomial(self):
        assert U_RING.zero().eval(5.0, {"u": []}) == 0.0


class TestSerializeParse:
    def test_json_golden(self):
        obj = json.loads(json.dumps(poly_to_obj(u(2) + 3 * u() ** 2)))
        assert sorted(obj["terms"], key=str) == sorted(
            [{"s": 0, "jets": {"2": 1}, "coef": "1"},
             {"s": 0, "jets": {"0": 2}, "coef": "3"}], key=str)

    def test_latex(self):
        assert poly_latex(u(1) ** 2) == "(u')^{2}"

    @pytest.mark.parametrize("poly, ascii, latex", [
        (U_RING.zero(), "0", "0"),
        (const(7), "7", "7"),
        (const(Fraction(-3, 4)), "-3/4", r"-\frac{3}{4}"),
        (const(Fraction(5, 2)) * u(1), "5/2*u'", r"\frac{5}{2} u'"),
        (-u(2) + s(), "-u'' + s", "-u'' + s"),
        (-u() ** 2 * s() ** 3, "-s^3*u^2", "-s^{3} u^{2}"),
        (u(3) - 1 + u() * s() - s() ** 2 * u(1) ** 3 * Fraction(2, 3),
         "-2/3*s^2*u'^3 + s*u + D3(u) - 1",
         r"-\frac{2}{3} s^{2} (u')^{3} + s u + u''' - 1"),
        (s() * u(4) ** 2 * Fraction(1, 2) - u(2),
         "1/2*s*D4(u)^2 - u''", r"\frac{1}{2} s (u^{(4)})^{2} - u''"),
    ], ids=["zero", "constant", "rational-constant", "rational-coefficient",
            "leading-minus-one", "leading-minus-powers", "mixed", "fourth-jet"])
    def test_ascii_and_latex_text(self, poly, ascii, latex):
        """``str(Poly)`` is the ASCII text that CLI error messages quote."""
        assert (str(poly), poly_latex(poly)) == (ascii, latex)

    def test_ascii_text_of_a_multi_unknown_ring_with_parameters(self):
        ring = hierarchy_ring(2)
        poly = (ring.param("tau1") ** 2 * ring.var("l2", 1) * Fraction(-5, 2)
                + ring.var("l1", 0) ** 2 * ring.var("u", 3) * ring.s()
                - ring.param("tau0") + 3)
        assert str(poly) == "s*D3(u)*l1^2 - 5/2*l2'*tau1^2 - tau0 + 3"
        assert poly_latex(poly) == (r"s u''' (\ell_1)^{2} - \frac{5}{2} "
                                    r"\ell_2' (\tau_1)^{2} - \tau_0 + 3")

    @settings(max_examples=500)
    @given(p=diffpolys())
    def test_json_round_trip(self, p):
        assert parse(json.dumps(poly_to_obj(p))) == p

    def test_ascii_grammar(self):
        assert parse("u''") == u(2)
        assert parse("D3(u)") == u(3)
        assert parse("1/2*s^2") == s() ** 2 * Fraction(1, 2)
        assert parse("-(u + s)*u'") == -(u() + s()) * u(1)
        assert parse("2 - 3") == const(-1)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("u^^2")
        assert exc.value.position >= 0
        assert exc.value.expected

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse("u @ s")

    def test_parse_error_trailing(self):
        with pytest.raises(ParseError):
            parse("u u")
