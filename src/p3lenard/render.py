"""Text renderings of jet polynomials: ASCII, LaTeX, and JSON.

The JSON layout for the single-u ring is the interchange format used by the
CLI and the parser round trip:

    {"terms": [{"s": 0, "jets": {"2": 1}, "coef": "1"},
               {"s": 0, "jets": {"0": 2}, "coef": "3"}]}

Jet keys are derivative orders as strings; coefficients are exact rational
strings.  Rings with several unknowns nest jets under the dependent's name.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .jetring import Poly, Ring, RatExpr

_GREEK = {"l": r"\ell", "tau": r"\tau", "sigma": r"\sigma"}
_NAME_RE = re.compile(r"^([A-Za-z]+?)(\d+)$")


def latex_symbol(name: str) -> str:
    """Map a symbol name like ``l2`` or ``tau0`` to LaTeX (\\ell_2, \\tau_0)."""
    m = _NAME_RE.match(name)
    if m:
        stem, idx = m.groups()
        stem = _GREEK.get(stem, stem)
        return f"{stem}_{idx}"
    return _GREEK.get(name, name)


def _jet_ascii(name: str, order: int) -> str:
    if order == 0:
        return name
    if order <= 2:
        return name + "'" * order
    return f"D{order}({name})"


def _jet_latex(name: str, order: int) -> str:
    sym = latex_symbol(name)
    if order == 0:
        return sym
    if order <= 3:
        return sym + "'" * order
    return f"{sym}^{{({order})}}"


def _coef_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def _poly_text(poly: Poly, jet, power, coef, sep: str) -> str:
    """The terms of ``poly``, greatest first, joined by their signs: each is
    its coefficient (left out before factors when it is 1) and its factors,
    ``sep`` between them.  ``jet(name, order)`` spells a symbol,
    ``power(symbol, exponent)`` a factor and ``coef(c)`` a positive
    coefficient."""
    if poly.is_zero():
        return "0"
    ring = poly.ring
    chunks = []
    for (s_pow, jets, pars), c in poly.sorted_terms():
        factors = [("s", s_pow)] if s_pow else []
        factors += [(jet(ring.dependents[d], o), e) for (d, o), e in jets]
        factors += [(jet(ring.params[p], 0), e) for p, e in pars]
        parts = [power(f, e) if e > 1 else f for f, e in factors]
        if abs(c) != 1 or not parts:
            parts.insert(0, coef(abs(c)))
        chunks.append(("- " if c < 0 else "+ ") + sep.join(parts))
    out = " ".join(chunks)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _power_latex(f: str, e: int) -> str:
    return f"({f})^{{{e}}}" if len(f) > 1 else f"{f}^{{{e}}}"


def poly_ascii(poly: Poly) -> str:
    return _poly_text(poly, _jet_ascii, "{}^{}".format, str, "*")


def poly_latex(poly: Poly) -> str:
    return _poly_text(poly, _jet_latex, _power_latex, _coef_latex, " ")


def ratexpr_latex(expr: RatExpr) -> str:
    if expr.den == expr.ring.one():
        return poly_latex(expr.num)
    return rf"\frac{{{poly_latex(expr.num)}}}{{{poly_latex(expr.den)}}}"


def poly_to_obj(poly: Poly) -> dict:
    """JSON-ready dict.  Single-dependent rings use flat jet keys."""
    single = len(poly.ring.dependents) == 1 and not poly.ring.params
    terms = []
    for m, c in poly.sorted_terms():
        s_pow, jets, pars = m
        entry: dict = {"s": s_pow}
        if single:
            entry["jets"] = {str(o): e for (_, o), e in jets}
        else:
            nested: dict = {}
            for (d, o), e in jets:
                nested.setdefault(poly.ring.dependents[d], {})[str(o)] = e
            entry["jets"] = nested
            if pars:
                entry["params"] = {poly.ring.params[p]: e for p, e in pars}
        entry["coef"] = str(c)
        terms.append(entry)
    return {"terms": terms}


def _whole(value) -> int:
    """A JSON exponent, s power or jet order, never truncated to an int."""
    if isinstance(value, float) and not value.is_integer():    # 2.7, 1e400, NaN
        raise ValueError(f"exponent or order {value!r} is not a whole number")
    return int(value)


def poly_from_obj(obj: dict, ring: Ring) -> Poly:
    single = len(ring.dependents) == 1 and not ring.params
    out = ring.zero()
    for entry in obj["terms"]:
        try:
            coef = Fraction(entry["coef"])
        except OverflowError as exc:       # an infinite JSON number
            raise ValueError(f"coefficient {entry['coef']!r}: {exc}") from exc
        term = ring.s(_whole(entry.get("s", 0))) * coef
        jets = entry.get("jets", {})
        if single:
            for o, e in jets.items():
                term = term * ring.var(ring.dependents[0], _whole(o)) ** _whole(e)
        else:
            for name, orders in jets.items():
                for o, e in orders.items():
                    term = term * ring.var(name, _whole(o)) ** _whole(e)
            for name, e in entry.get("params", {}).items():
                term = term * ring.param(name) ** _whole(e)
        out += term
    return out


def poly_from_json(text: str, ring: Ring) -> Poly:
    return poly_from_obj(json.loads(text), ring)


def ratexpr_to_obj(expr: RatExpr) -> dict:
    return {"num": poly_to_obj(expr.num), "den": poly_to_obj(expr.den)}
