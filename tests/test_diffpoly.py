"""Differential-polynomial kernel: ring laws, derivative, formal integral,
evaluation, and the serialization round trip."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from p3lenard.diffpoly import (U_RING, MissingJetValue, NotExactDerivative,
                               ParseError, const, eval_numeric,
                               formal_integral, parse, s, serialize,
                               total_derivative, u)

from conftest import diffpolys


class TestNormalForm:
    def test_additive_cancellation(self):
        assert (u() + u() - 2 * u()).is_zero()

    def test_difference_of_squares(self):
        assert (u() + s()) * (u() - s()) == u() ** 2 - s() ** 2

    @given(p=diffpolys(), q=diffpolys())
    def test_uniqueness_matches_serialization(self, p, q):
        assert ((p - q).is_zero()) == (serialize(p) == serialize(q))


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
        assert total_derivative(u()) == u(1)

    def test_product_and_chain(self):
        assert (total_derivative(s() * u(1) ** 2)
                == u(1) ** 2 + 2 * s() * u(1) * u(2))

    def test_constant(self):
        assert total_derivative(const(Fraction(7, 3))).is_zero()

    @settings(max_examples=200)
    @given(p=diffpolys(), q=diffpolys())
    def test_linear(self, p, q):
        assert (total_derivative(p + q)
                == total_derivative(p) + total_derivative(q))

    @settings(max_examples=200)
    @given(p=diffpolys(), q=diffpolys())
    def test_leibniz(self, p, q):
        assert (total_derivative(p * q)
                == total_derivative(p) * q + p * total_derivative(q))


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
        recovered = formal_integral(total_derivative(q))
        assert (recovered - q).max_order("u") is None
        assert all(m == (0, (), ()) for m, _ in (recovered - q).sorted_terms())

    @settings(max_examples=200)
    @given(p=diffpolys())
    def test_derivative_of_integral(self, p):
        try:
            q = formal_integral(p)
        except NotExactDerivative:
            return
        assert total_derivative(q) == p


class TestEvalNumeric:
    def test_direct_arithmetic(self):
        assert eval_numeric(u() ** 2 + s(), 2.0, [3.0]) == 11.0

    def test_missing_jet(self):
        with pytest.raises(MissingJetValue):
            eval_numeric(u(2), 1.0, [1.0, 1.0])

    def test_zero_polynomial(self):
        assert eval_numeric(U_RING.zero(), 5.0, []) == 0.0


class TestSerializeParse:
    def test_json_golden(self):
        obj = json.loads(serialize(u(2) + 3 * u() ** 2))
        assert sorted(obj["terms"], key=str) == sorted(
            [{"s": 0, "jets": {"2": 1}, "coef": "1"},
             {"s": 0, "jets": {"0": 2}, "coef": "3"}], key=str)

    def test_latex(self):
        assert serialize(u(1) ** 2, "latex") == "(u')^{2}"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize(u(), "xml")

    @settings(max_examples=500)
    @given(p=diffpolys())
    def test_json_round_trip(self, p):
        assert parse(serialize(p)) == p

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
