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


def _jet_ascii(sym: str, order: int) -> str:
    if order <= 2:
        return sym + "'" * order
    return f"D{order}({sym})"


def _jet_latex(sym: str, order: int) -> str:
    if order <= 3:
        return sym + "'" * order
    return f"{sym}^{{({order})}}"


def _coef_ascii(n: int, d: int) -> str:
    return f"{n}/{d}" if d != 1 else str(n)


def _coef_latex(n: int, d: int) -> str:
    return rf"\frac{{{n}}}{{{d}}}" if d != 1 else str(n)


def _poly_text(poly: Poly, symbol, jet, power, coef, sep: str) -> str:
    """The terms of ``poly``, greatest first, joined by their signs: each is
    its coefficient (left out before factors when it is 1) and its factors,
    ``sep`` between them.  ``symbol(name)`` spells a dependent or parameter,
    ``jet(symbol, order)`` a derivative of it, ``power(text, exponent)`` a
    factor and ``coef(n, d)`` the positive coefficient n/d.  Each jet and
    parameter is spelled once per call, on its first use."""
    if poly.is_zero():
        return "0"
    deps, params = poly.ring.dependents, poly.ring.params
    jets, pars = {}, {}                   # (dependent, order), parameter -> text
    chunks = []
    for (s_pow, js, ps), c in poly.sorted_terms():
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


def _power_latex(f: str, e: int) -> str:
    return f"({f})^{{{e}}}" if len(f) > 1 else f"{f}^{{{e}}}"


def poly_ascii(poly: Poly) -> str:
    return _poly_text(poly, str, _jet_ascii, "{}^{}".format, _coef_ascii, "*")


def poly_latex(poly: Poly) -> str:
    return _poly_text(poly, latex_symbol, _jet_latex, _power_latex, _coef_latex, " ")


def ratexpr_latex(expr: RatExpr) -> str:
    if expr.den == expr.ring.one():
        return poly_latex(expr.num)
    return rf"\frac{{{poly_latex(expr.num)}}}{{{poly_latex(expr.den)}}}"


def poly_to_obj(poly: Poly) -> dict:
    """JSON-ready dict.  Single-dependent rings use flat jet keys."""
    deps, pars = poly.ring.dependents, poly.ring.params
    single = len(deps) == 1 and not pars
    terms = []
    for (s_pow, jets, ps), c in poly.sorted_terms():
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


def _whole(value) -> int:
    """A JSON exponent or s power: a number, never truncated to an int and
    never read from a string or from a JSON ``true`` or ``false``."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):    # 2.7, 1e400, NaN
        raise ValueError(f"exponent {value!r} is not a whole number")
    return int(value)


def poly_from_obj(obj: dict, ring: Ring) -> Poly:
    """The polynomial of a JSON term list: each coefficient a rational
    string or a JSON number, never a boolean; each exponent and s power a
    whole JSON number; each jet order an object key, so a string."""
    single = len(ring.dependents) == 1 and not ring.params
    out = ring.zero()
    for entry in obj["terms"]:
        if isinstance(entry["coef"], bool):
            raise ValueError(f"coefficient {entry['coef']!r} is not a rational")
        try:
            coef = Fraction(entry["coef"])
        except OverflowError as exc:       # an infinite JSON number
            raise ValueError(f"coefficient {entry['coef']!r}: {exc}") from exc
        term = ring.s(_whole(entry.get("s", 0))) * coef
        jets = entry.get("jets", {})
        if single:
            for o, e in jets.items():
                term = term * ring.var(ring.dependents[0], int(o)) ** _whole(e)
        else:
            for name, orders in jets.items():
                for o, e in orders.items():
                    term = term * ring.var(name, int(o)) ** _whole(e)
            for name, e in entry.get("params", {}).items():
                term = term * ring.param(name) ** _whole(e)
        out += term
    return out


def poly_from_json(text: str, ring: Ring) -> Poly:
    return poly_from_obj(json.loads(text), ring)


def ratexpr_to_obj(expr: RatExpr) -> dict:
    return {"num": poly_to_obj(expr.num), "den": poly_to_obj(expr.den)}
