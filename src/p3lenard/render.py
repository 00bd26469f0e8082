"""Text renderings of jet polynomials: ASCII, LaTeX, and JSON.

The JSON layout for the single-u ring is the interchange format used by the
CLI and the parser round trip:

    {"terms": [{"s": 0, "jets": {"2": 1}, "coef": "1"},
               {"s": 0, "jets": {"0": 2}, "coef": "3"}]}

Jet keys are derivative orders as strings; coefficients are exact rational
strings.  Rings with several unknowns nest jets under the dependent's name
and list a term's parameters under ``"params"``.  Coefficients are spelled
from each polynomial's int rows, not Fractions.  The CLI prints this layout
with ``poly_json`` and ``ratexpr_json``, which spell the text of
``json.dumps`` term by term from those rows; ``poly_to_obj`` and
``ratexpr_to_obj`` build the same layout as dicts, the reference that the
writers are tested against.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .jetring import Poly, Ring, RatExpr

_GREEK = {"l": r"\ell", "tau": r"\tau", "sigma": r"\sigma"}
_NAME_RE = re.compile(r"^([A-Za-z]+?)(\d+)$")


def latex_symbol(name: str) -> str:
    """Map a symbol name like ``l2`` or ``tau0`` to LaTeX (\\ell_2, \\tau_0)."""
    m = _NAME_RE.match(name)
    if m:
        return f"{_GREEK.get(m[1], m[1])}_{m[2]}"
    return _GREEK.get(name, name)


def _jet_ascii(sym: str, order: int) -> str:
    return sym + "'" * order if order <= 2 else f"D{order}({sym})"


def _jet_latex(sym: str, order: int) -> str:
    return sym + "'" * order if order <= 3 else f"{sym}^{{({order})}}"


def _coef_ascii(n: int, d: int) -> str:
    return f"{n}/{d}" if d != 1 else str(n)


def _coef_latex(n: int, d: int) -> str:
    return rf"\frac{{{n}}}{{{d}}}" if d != 1 else str(n)


def _rows(poly: Poly) -> list:
    """(monomial, n, d) per term, greatest first: n/d is its coefficient in
    lowest terms, its numerator over ``poly.den`` less one gcd."""
    den = poly.den
    return [(m, n, 1) for m, n in poly.rows()] if den == 1 else [
        (m, n // g, den // g) for m, n in poly.rows() for g in (gcd(n, den),)]


def check_digits(polys) -> None:
    """Raise OverflowError if a coefficient of ``polys``, in lowest terms,
    has more decimal digits than the interpreter writes an int with
    (``sys.get_int_max_str_digits``), so that a command can refuse its
    result before it prints the first byte."""
    limit = sys.get_int_max_str_digits()
    bound = 10 ** limit
    for poly in polys:
        # lowest terms are never larger, so most results skip the gcds
        if limit and poly.height() >= bound and any(
                max(abs(n), d) >= bound for _, n, d in _rows(poly)):
            raise _too_many_digits(limit)


def check_power(poly: Poly, n: int) -> None:
    """Raise ``check_digits``'s OverflowError before ``poly ** n`` is formed
    if the n-th power of the coefficient of the greatest or least monomial of
    ``poly``, in lowest terms, passes the limit: the power holds that
    coefficient at its own greatest or least monomial."""
    limit = sys.get_int_max_str_digits()
    if limit and poly:
        rows, bound = _rows(poly), 10 ** limit
        if any(_power_reaches(max(abs(c), d), n, bound)
               for _, c, d in (rows[0], rows[-1])):
            raise _too_many_digits(limit)


def _power_reaches(x: int, n: int, bound: int) -> bool:
    """Whether x ** n >= bound, for x >= 1 and bound >= 2, by squarings that
    stop before a factor passes ``bound``."""
    power = 1
    while n:
        n, odd = divmod(n, 2)
        if odd:
            power *= x
        if power >= bound or (n and x >= bound):
            return True
        x *= x
    return False


def _too_many_digits(limit: int) -> OverflowError:
    return OverflowError(f"a coefficient has more than {limit} digits, "
                         "the most an int is printed with")


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
    for (s_pow, js, ps), n, d in _rows(poly):
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


def poly_json(poly: Poly, names: tuple) -> str:
    """The text of ``json.dumps(poly_to_obj(poly))``, spelled term by term
    from the int rows with no dict built.  ``names`` is the ring's
    (dependents, parameters), each name already a JSON string."""
    deps, pars = names
    single = len(deps) == 1 and not pars
    spelled, spelled_params = {}, {}      # jets, params -> their object's body
    terms = []
    for (s_pow, js, ps), n, d in _rows(poly):
        jets = spelled.get(js)
        if jets is None:
            if single:
                jets = ", ".join([f'"{o}": {e}' for (_, o), e in js])
            else:                         # sorted, so each dependent's jets are a run
                groups, last = [], None
                for (dep, o), e in js:
                    if dep == last:
                        groups[-1] += f', "{o}": {e}'
                    else:
                        groups.append(f'{deps[dep]}: {{"{o}": {e}')
                        last = dep
                jets = "}, ".join(groups) + "}" if groups else ""
            spelled[js] = jets
        coef = _coef_ascii(n, d)
        if ps:
            params = spelled_params.get(ps)
            if params is None:
                params = spelled_params[ps] = ", ".join([f"{pars[p]}: {e}" for p, e in ps])
            terms.append(f'{{"s": {s_pow}, "jets": {{{jets}}}, "params": {{{params}}}, '
                         f'"coef": "{coef}"}}')
        else:
            terms.append(f'{{"s": {s_pow}, "jets": {{{jets}}}, "coef": "{coef}"}}')
    return f'{{"terms": [{", ".join(terms)}]}}'


def ratexpr_json(expr: RatExpr, names: tuple) -> str:
    """The text of ``json.dumps(ratexpr_to_obj(expr))``, as ``poly_json``."""
    return f'{{"num": {poly_json(expr.num, names)}, "den": {poly_json(expr.den, names)}}}'


def poly_to_obj(poly: Poly) -> dict:
    """JSON-ready dict.  Single-dependent rings use flat jet keys."""
    deps, pars = poly.ring.dependents, poly.ring.params
    single = len(deps) == 1 and not pars
    terms = []
    for (s_pow, jets, ps), n, d in _rows(poly):
        entry: dict = {"s": s_pow}
        if single:
            entry["jets"] = {str(o): e for (_, o), e in jets}
        else:
            nested: dict = {}
            for (dep, o), e in jets:
                nested.setdefault(deps[dep], {})[str(o)] = e
            entry["jets"] = nested
            if ps:
                entry["params"] = {pars[p]: e for p, e in ps}
        entry["coef"] = _coef_ascii(n, d)
        terms.append(entry)
    return {"terms": terms}


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_ORDER = re.compile(r"[0-9]+")


def _matched(pattern, text, what: str) -> str:
    """``text``, if it is a string that ``pattern`` matches in full."""
    if not isinstance(text, str) or not pattern.fullmatch(text):
        raise ValueError(f"{what} {text!r} does not match {pattern.pattern}")
    return text


def _whole(value, least: int = 1) -> int:
    """A JSON exponent, or an s power with ``least`` 0: a number >= ``least``,
    never truncated to an int, nor read from a string or a boolean."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())    # 2.7, 1e400, NaN
            or value < least):
        raise ValueError(f"exponent {value!r} is not a whole number >= {least}")
    return int(value)


def poly_from_obj(obj: dict, ring: Ring) -> Poly:
    """The polynomial of a JSON term list, read by ``$defs/poly`` of
    ``schemas/expression.schema.json``: rational-string coefficients, digit
    jet orders, whole exponents >= 1 and s powers >= 0 (``2.0`` reads as 2),
    and then, so that a bad value is named first, its keys and parameters."""
    single = len(ring.dependents) == 1 and not ring.params
    out = ring.zero()
    for entry in obj["terms"]:
        coef = Fraction(_matched(_RATIONAL, entry["coef"], "coefficient"))
        term = ring.s(_whole(entry.get("s", 0), 0)) * coef
        jets = entry.get("jets", {})
        if single:
            jets = {ring.dependents[0]: jets}
        else:
            for name, e in entry.get("params", {}).items():
                term = term * ring.param(name) ** _whole(e)
        for name, orders in jets.items():
            for o, e in orders.items():
                order = int(_matched(_ORDER, o, "jet order"))
                term = term * ring.var(name, order) ** _whole(e)
        out += term
    if set(obj) != {"terms"} or any(set(e) - {"params"} != {"s", "jets", "coef"}
                                    or single and e.get("params") for e in obj["terms"]):
        raise ValueError("keys other than terms, or term keys other than s, jets, "
                         f"coef and params of {ring!r}")
    return out


def ratexpr_to_obj(expr: RatExpr) -> dict:
    return {"num": poly_to_obj(expr.num), "den": poly_to_obj(expr.den)}
