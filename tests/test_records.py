"""The package's record types: construction by position and by keyword,
defaults, equality, repr, and which fields are read-only.  A
``LenardSequence`` is constructed and defaulted like the others, but has no
equality or repr of its own."""

from fractions import Fraction

import pytest

from p3lenard.diffpoly import U_RING
from p3lenard.hierarchy import HierarchySystem
from p3lenard.jetring import RatExpr
from p3lenard.laxpair import LaurentPoly
from p3lenard.lenard import LenardSequence, SeedCondition
from p3lenard.odesolve import CompiledSystem, SolverConfig, _ExactSystem

from test_odesolve import collect

HALF = U_RING.const(Fraction(1, 2))
U = U_RING.var("u", 0)


def _zero_field(s, y):
    return (0.0,)


# record, its fields in order, values of the fields without a default, and
# the defaults of the rest
RECORDS = [
    (SeedCondition, ("variant", "poly"), ("standard", HALF), {}),
    (LenardSequence, ("ells", "ring", "rules"), ([HALF, U], U_RING), {"rules": {}}),
    (HierarchySystem, ("equations", "u_expr", "ring"),
     ([RatExpr(U)], RatExpr(HALF), U_RING), {}),
    (LaurentPoly, ("ring", "coeffs"), (U_RING, {-1: U}), {}),
    (CompiledSystem,
     ("state_names", "rhs", "monitors", "constants", "source"),
     (("y0",), _zero_field),
     {"monitors": {}, "constants": {}, "source": ""}),
    (SolverConfig, ("s_start", "s_end", "step", "decimate"), (1.0, 2.0, 0.1),
     {"decimate": 1}),
    (_ExactSystem,
     ("state_names", "layout", "guarded", "det", "second", "monitors",
      "constants"),
     (("l1", "l1p"), {("l1", 0): 0, ("l1", 1): 1}, ("l1",), U,
      (RatExpr(U),), {"u": RatExpr(U)}, {"tau1": Fraction(2)}), {}),
]


COMPARABLE = [row for row in RECORDS if row[0] is not LenardSequence]


@pytest.mark.parametrize("record, fields, required, defaults", COMPARABLE,
                         ids=[row[0].__name__ for row in COMPARABLE])
def test_record_construction_equality_and_repr(record, fields, required, defaults):
    keywords = dict(zip(fields, required))
    built = [record(*required), record(**keywords),
             record(*required, *defaults.values()),
             record(*required, **defaults), record(**keywords, **defaults)]
    assert all(rec == built[0] for rec in built)
    values = {**keywords, **defaults}
    assert all(getattr(rec, name) == values[name]
               for rec in built for name in fields)
    text = repr(built[0])
    assert text.startswith(f"{record.__name__}(")
    positions = [text.find(f"{name}=") for name in fields]
    assert -1 not in positions and positions == sorted(positions)
    changed = dict(values, **{fields[0]: "other"})
    assert record(**changed) != built[0]


@pytest.mark.parametrize("record, field", [
    (LenardSequence, "rules"), (CompiledSystem, "monitors"),
    (CompiledSystem, "constants")])
def test_default_dicts_are_not_shared(record, field):
    _, _, required, _ = next(row for row in RECORDS if row[0] is record)
    a, b = record(*required), record(*required)
    assert getattr(a, field) == {} and getattr(a, field) is not getattr(b, field)
    getattr(a, field)["x"] = 1
    assert getattr(b, field) == {}


@pytest.mark.parametrize("record", [SeedCondition, SolverConfig, _ExactSystem])
def test_frozen_records_refuse_assignment(record):
    fields, required = next(row[1:3] for row in RECORDS if row[0] is record)
    rec = record(*required)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert rec == record(*required)


def test_laurent_poly_drops_zero_coefficients():
    series = LaurentPoly(U_RING, {-2: U_RING.zero(), 0: U})
    assert series.coeffs == {0: U}


def test_compiled_system_fields_can_be_reassigned():
    """A wrapper may replace ``rhs`` and ``monitors`` after compilation, and
    ``integrate`` then calls the replacements."""
    system = CompiledSystem(("y0",), _zero_field)
    calls = []

    def growth(s, y):
        calls.append(s)
        return (y[0],)

    system.rhs = growth
    system.monitors = {"twice": lambda s, y: 2 * y[0]}
    traj = collect(system, (1.0,), SolverConfig(1.0, 1.5, 0.1))
    assert len(calls) == 4 * 5
    s_end, (y_end,), (twice,) = traj.samples[-1]
    assert s_end == 1.5 and y_end > 1.6 and twice == 2 * y_end
