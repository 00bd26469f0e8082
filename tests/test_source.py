"""Rules on the package source itself."""

import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import p3lenard
from p3lenard import cli, hierarchy, jetring, laxpair, lenard, odesolve, render
from p3lenard.odesolve import compile_k1, compile_k2

PACKAGE = Path(p3lenard.__file__).parent


def test_no_assert_statements():
    """Program checks must raise real errors: ``python -O`` strips asserts."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "lenard.py" in modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _int_literal(node) -> bool:
    """An integer literal, or a tuple, list or set display of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_int_literal(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _k_literal_comparisons(tree):
    """Line numbers of comparisons between the name ``k`` and an integer
    literal, such as ``k == 1`` or ``k in (1, 2)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Name) and o.id == "k" for o in operands)
                    and any(_int_literal(o) for o in operands)):
                found.append(node.lineno)
    return sorted(found)


def test_odesolve_has_one_compile_path_for_every_k():
    """No branch on a particular k in ``odesolve``: every k takes the same
    solve, guard, monitors and CSV columns."""
    path = Path(odesolve.__file__)
    assert _k_literal_comparisons(ast.parse(path.read_text(), str(path))) == []


def test_k_literal_rule_can_fail():
    sample = "if k == 1:\n    pass\nelif 2 == k:\n    pass\nok = k in (1, 2)\n"
    assert _k_literal_comparisons(ast.parse(sample)) == [1, 3, 5]
    assert _k_literal_comparisons(ast.parse("ok = len(t) != k + 1\n")) == []


# The jetring kernel's hot paths: they work on int numerators only.
INTEGER_PATHS = ("_accumulate", "_make", "Ring.sum_products", "Poly.__add__",
                 "Poly.__mul__", "Poly.total_derivative", "Poly.rows")
# The renderers: each coefficient is spelled from ints.
RENDER_INTEGER_PATHS = ("_rows", "_poly_text", "poly_to_obj")


def _functions(body, prefix=""):
    """(qualified name, node) of the module-level functions and class
    methods in ``body``."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


def _fraction_uses(tree, qualnames):
    """{qualified name: line numbers of references to ``Fraction``} for the
    module-level functions and class methods of ``tree`` named in
    ``qualnames``, nested functions included.  A ``Fraction`` in the type
    argument of ``isinstance`` is a type test, not arithmetic, and is not
    counted."""
    def uses(fn):
        type_tests = {id(node) for call in ast.walk(fn)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id == "isinstance" and len(call.args) == 2
                      for node in ast.walk(call.args[1])}
        return sorted(node.lineno for node in ast.walk(fn)
                      if id(node) not in type_tests
                      and ((isinstance(node, ast.Name) and node.id == "Fraction")
                           or (isinstance(node, ast.Attribute)
                               and node.attr == "Fraction")))

    return {name: uses(fn) for name, fn in _functions(tree.body) if name in qualnames}


def test_jetring_hot_paths_have_no_fraction():
    """Term merging, normalization, +, * and d/ds run on integer numerators
    over one denominator: no Fraction arithmetic."""
    path = Path(jetring.__file__)
    assert _fraction_uses(ast.parse(path.read_text(), str(path)), INTEGER_PATHS) == {
        name: [] for name in INTEGER_PATHS}


def test_render_builds_no_fraction():
    path = Path(render.__file__)
    assert _fraction_uses(ast.parse(path.read_text(), str(path)), RENDER_INTEGER_PATHS) == {
        name: [] for name in RENDER_INTEGER_PATHS}


def test_fraction_rule_can_fail():
    sample = ("class Poly:\n"
              "    def __add__(self, other):\n"
              "        return Fraction(1) + other\n"
              "    def __mul__(self, other):\n"
              "        if isinstance(other, (int, Fraction)):\n"
              "            return other\n"
              "        return isinstance(other, int) and Fraction(other)\n"
              "    def sorted_terms(self):\n"
              "        return Fraction(2)\n"
              "def _make(ring, nums, den):\n"
              "    def inner():\n"
              "        return fractions.Fraction(3)\n"
              "    return inner\n")
    assert _fraction_uses(ast.parse(sample), INTEGER_PATHS) == {
        "Poly.__add__": [3], "Poly.__mul__": [7], "_make": [12]}


# Term merging, products and d/ds work on packed int monomials: no
# container of exponents is rebuilt or sorted per term.
PACKED_PATHS = ("_accumulate", "Ring.sum_products", "Poly.__mul__",
                "Poly.total_derivative")
CONTAINER_CALLS = ("sorted", "dict", "tuple")


def _container_calls(tree, qualnames):
    """{qualified name: line numbers of calls to sorted, dict or tuple} for
    the functions and methods of ``tree`` named in ``qualnames``, nested
    functions included."""
    return {name: sorted(node.lineno for node in ast.walk(fn)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id in CONTAINER_CALLS)
            for name, fn in _functions(tree.body) if name in qualnames}


def test_jetring_packed_paths_build_no_containers():
    path = Path(jetring.__file__)
    assert _container_calls(ast.parse(path.read_text(), str(path)), PACKED_PATHS) == {
        name: [] for name in PACKED_PATHS}


def test_container_rule_can_fail():
    sample = ("def _accumulate(out, pairs):\n"
              "    return dict(out)\n"
              "class Poly:\n"
              "    def __mul__(self, other):\n"
              "        return {**self.terms}, list(other)\n"
              "    def total_derivative(self, rules=None):\n"
              "        def leibniz_terms():\n"
              "            yield tuple(sorted(self.terms))\n"
              "        return leibniz_terms\n"
              "    def sorted_terms(self):\n"
              "        return sorted(self.terms)\n"
              "class Ring:\n"
              "    def sum_products(self, triples):\n"
              "        return [dict(a.terms) for _, a, _ in triples]\n")
    assert _container_calls(ast.parse(sample), PACKED_PATHS) == {
        "_accumulate": [2], "Poly.__mul__": [], "Poly.total_derivative": [8, 8],
        "Ring.sum_products": [14]}


# One slot walk: only ``jetring._occupied`` steps through the slots of a
# packed key, by its lowest set bit.  No other function takes a lowest set
# bit or unpacks a key into bytes or per-slot values.
SLOT_READERS = ("to_bytes", "memoryview", "cast", "compress")


def _slot_walkers(tree):
    """Sorted names of the functions and methods of ``tree`` that take a
    lowest set bit (``x & -x``) or call one of ``SLOT_READERS``, nested
    functions included."""
    def walks(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            return isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
        if isinstance(node, ast.Call):
            func = node.func
            return (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)) in SLOT_READERS
        return False

    return sorted(name for name, fn in _functions(tree.body)
                  if any(walks(node) for node in ast.walk(fn)))


def test_jetring_has_one_slot_walk():
    path = Path(jetring.__file__)
    assert _slot_walkers(ast.parse(path.read_text(), str(path))) == ["_occupied"]


def test_slot_walk_rule_can_fail():
    sample = ("def _occupied(key, start=0):\n"
              "    return key & -key\n"
              "def _exponents(key):\n"
              "    return memoryview(key.to_bytes(8, 'little')).cast('H')\n"
              "def _decode(ring, key):\n"
              "    return list(compress(range(9), _exponents(key)))\n"
              "class Poly:\n"
              "    def max_order(self, dep):\n"
              "        def top(key):\n"
              "            return (key & -key).bit_length()\n"
              "        return top\n"
              "    def collect(self, name, order):\n"
              "        return (self.key >> 16) & 0xFFFF, self.key & -1 + 2\n")
    assert _slot_walkers(ast.parse(sample)) == [
        "Poly.max_order", "_decode", "_exponents", "_occupied"]


# One monomial order: ``jetring._ordered`` builds the order key of every term
# in its walk, and ``Poly.rows`` and ``Poly.leading`` both sort or
# pick on its rows.  No other function of the package defines an order: none
# passes a ``key`` to ``sorted``, ``min``, ``max`` or ``.sort``, and none is
# named for a sort or order key.
ORDER_CALLS = ("sorted", "min", "max", "sort")
ORDER_KEY_NAME = re.compile(r"(sort|order)_?key", re.IGNORECASE)


def _order_definers(tree):
    """Sorted names of the functions and methods of ``tree`` that order by
    a key of their own, nested functions and lambdas included, or whose
    name says they build a sort or order key."""
    def keyed(node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in ORDER_CALLS and any(kw.arg == "key" for kw in node.keywords)

    return sorted(name for name, fn in _functions(tree.body)
                  if ORDER_KEY_NAME.search(fn.name)
                  or any(isinstance(node, ast.Call) and keyed(node) for node in ast.walk(fn)))


def _callers(tree, callee):
    """Sorted names of the functions and methods of ``tree`` that call
    ``callee`` by its bare name."""
    return sorted(name for name, fn in _functions(tree.body)
                  if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == callee for node in ast.walk(fn)))


def test_package_has_one_monomial_order():
    trees = _parsed(PACKAGE.rglob("*.py"))
    assert [name for tree in trees for name in _order_definers(tree)] == []
    path = Path(jetring.__file__)
    callers = _callers(ast.parse(path.read_text(), str(path)), "_ordered")
    assert {"Poly.rows", "Poly.leading"} <= set(callers)


def test_one_order_rule_can_fail():
    sample = ("def monomial_sort_key(m):\n"
              "    s_pow, jets, pars = m\n"
              "    return (s_pow + sum(e for _, e in jets), jets, pars, s_pow)\n"
              "class Poly:\n"
              "    def sorted_terms(self):\n"
              "        return sorted(self.terms.items(),\n"
              "                      key=lambda t: monomial_sort_key(t[0]))\n"
              "    def leading(self):\n"
              "        return max(_ordered(self.ring, self.terms.items()))\n"
              "    def max_order(self, dep):\n"
              "        return max(self.terms, default=None)\n"
              "def _pick(rows):\n"
              "    rows.sort(key=len)\n")
    tree = ast.parse(sample)
    assert _order_definers(tree) == ["Poly.sorted_terms", "_pick", "monomial_sort_key"]
    assert _callers(tree, "_ordered") == ["Poly.leading"]


# The packed layout stays inside ``jetring``: no other module reads the keys
# of ``.terms`` (it may take their number), calls ``bit_length`` or shifts or
# masks a value.
KEY_OPS = (ast.RShift, ast.LShift, ast.BitAnd)


def _packed_key_readers(tree):
    """Sorted names of the functions and methods of ``tree``, nested
    functions included, and ``<module>`` for its other statements, that
    read ``.terms`` other than as the one argument of ``len``, call
    ``bit_length``, or apply >>, << or &."""
    sized = {id(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "len" and len(node.args) == 1}

    def reads(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "terms" and id(node) not in sized) or node.attr == "bit_length"
        return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, KEY_OPS)

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {name for name, fn in _functions(tree.body)
             if any(reads(node) for node in ast.walk(fn))}
    if any(reads(node) for stmt in tree.body if not isinstance(stmt, defs)
           for node in ast.walk(stmt)):
        found.add("<module>")
    return sorted(found)


def test_packed_layout_stays_inside_jetring():
    paths = [path for path in sorted(PACKAGE.rglob("*.py")) if path.stem != "jetring"]
    assert len(paths) >= 8
    assert {path.stem: _packed_key_readers(tree)
            for path, tree in zip(paths, _parsed(paths))} == {
        path.stem: [] for path in paths}


def test_packed_layout_rule_can_fail():
    sample = ("TOP = (1 << 16) - 1\n"
              "def formal_integral(p):\n"
              "    buckets = {}\n"
              "    for key, c in p.terms.items():\n"
              "        r = (key.bit_length() - 1) // 16\n"
              "        buckets.setdefault(r, {})[key] = c\n"
              "    return buckets\n"
              "def _solve(pivot, b):\n"
              "    return len(pivot.terms) == 1 and len(b.terms) != 1\n"
              "def top_slot(key):\n"
              "    return key >> 16\n"
              "class Emitter:\n"
              "    def keys(self, p):\n"
              "        return [k for k in p.terms]\n"
              "    def mask(self, k):\n"
              "        k &= 0xFFFF\n"
              "        return k\n")
    assert _packed_key_readers(ast.parse(sample)) == [
        "<module>", "Emitter.keys", "Emitter.mask", "formal_integral", "top_slot"]


# Only the jet table differentiates.  Omega, the brackets, their
# derivatives, the lattice residuals, the constants of motion, the
# hierarchy system and the Lax series read the jets D^i(l_j) of
# ``LenardSequence.jet``; in ``lenard`` only ``LenardSequence.D`` and
# ``.jet`` take a derivative, and ``hierarchy`` and ``laxpair`` take none.
NO_DERIVATIVE_PATHS = {
    "hierarchy": ("conserved_tau", "conserved_sigma", "conservation_residual",
                  "build_p3_system"),
    "lenard": ("omega", "_omega_sum", "bracket_diagonal", "_factors",
               "Lattice.__init__",
               "Lattice.sides", "Lattice.omega_prime", "Lattice._factor",
               "Lattice._take", "Lattice._bracket", "Lattice._run", "Lattice._sum",
               "master_identity_residual", "shift_identity_residual",
               "transport_residual", "generate", "symbolic",
               "LenardSequence.recursion_rhs"),
    "laxpair": ("build_b", "derive_a_c", "compatibility_residual",
                "c_relation_residual"),
}
JET_TABLE = ["LenardSequence.D", "LenardSequence.jet"]
DERIVATIVE_CALLS = ("D", "derivative", "total_derivative")


def _derivative_calls(tree, qualnames):
    """{qualified name: line numbers of calls to ``D``, ``derivative`` or
    ``total_derivative``, bare or as a method} for the functions of
    ``tree`` named in ``qualnames``."""
    def called(node):
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))

    return {name: sorted(node.lineno for node in ast.walk(fn)
                         if isinstance(node, ast.Call)
                         and called(node) in DERIVATIVE_CALLS)
            for name, fn in _functions(tree.body) if name in qualnames}


def _differentiating(tree):
    """Sorted names of the functions and methods of ``tree`` that call
    ``D``, ``derivative`` or ``total_derivative``."""
    every = [name for name, _ in _functions(tree.body)]
    return sorted(name for name, lines in _derivative_calls(tree, every).items()
                  if lines)


def test_conservation_takes_no_derivative_of_its_own():
    for module in (hierarchy, lenard, laxpair):
        path = Path(module.__file__)
        tree = ast.parse(path.read_text(), str(path))
        paths = NO_DERIVATIVE_PATHS[path.stem]
        assert _derivative_calls(tree, paths) == {name: [] for name in paths}
        assert _differentiating(tree) == (JET_TABLE if module is lenard else [])


def test_derivative_rule_can_fail():
    sample = ("def conserved_tau(seq, k, p):\n"
              "    return seq.D(seq.ell(k))\n"
              "def conserved_sigma(seq, p):\n"
              "    return transport_residual(seq, 0, p, p)\n"
              "def conservation_residual(seq, k, p, kind):\n"
              "    acc = seq.ell(p).total_derivative(seq.rules)\n"
              "    return acc + D(acc)\n"
              "def boundary_jet_sequence(k):\n"
              "    return seq.D(k)\n"
              "class LenardSequence:\n"
              "    def jet(self, j, i):\n"
              "        return self.D(self.jet(j, i - 1))\n"
              "def omega(seq, n, m):\n"
              "    return seq.D(seq.D(seq.ell(n) * seq.ell(m)))\n"
              "def derive_a_c(b, seq):\n"
              "    return b.derivative(seq), b * seq.u\n"
              "def compatibility_residual(seq, k):\n"
              "    return build_b(seq, k) * seq.D(seq.u)\n")
    tree = ast.parse(sample)
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["hierarchy"]) == {
        "conserved_tau": [2], "conserved_sigma": [],
        "conservation_residual": [6, 7]}
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["lenard"]) == {
        "omega": [14, 14]}
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["laxpair"]) == {
        "derive_a_c": [16], "compatibility_residual": [18]}
    assert _differentiating(tree) == [
        "LenardSequence.jet", "boundary_jet_sequence", "compatibility_residual",
        "conservation_residual", "conserved_tau", "derive_a_c", "omega"]


# The factors P_j and Q_j come from l_j's own jets.  P_j = l_{j+1}' + 2 u' l_j
# holds only where the recursion does, which is what the checks that read
# P_j test, so the function that builds them reads no entry but its own.
FACTOR_BUILDERS = ("_factors",)
ENTRY_READS = ("jet", "ell", "ells", "recursion_rhs")


def _foreign_entry_reads(tree, qualnames):
    """{qualified name: line numbers of the reads of a sequence entry other
    than the function's own index parameter j} for the functions of ``tree``
    named in ``qualnames``: a ``jet``, ``ell`` or ``recursion_rhs`` call whose
    first argument is not the bare name j, and any ``ells``."""
    def foreign(fn):
        index = fn.args.args[1].arg
        return sorted(
            node.lineno for node in ast.walk(fn)
            if (isinstance(node, ast.Attribute) and node.attr == "ells")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ENTRY_READS
                and not (node.args and isinstance(node.args[0], ast.Name)
                         and node.args[0].id == index)))

    return {name: foreign(fn) for name, fn in _functions(tree.body) if name in qualnames}


def test_factors_read_their_own_entry_only():
    tree = ast.parse(Path(lenard.__file__).read_text())
    assert _foreign_entry_reads(tree, FACTOR_BUILDERS) == {"_factors": []}


def test_factor_rule_can_fail():
    sample = ("def _factors(seq, j):\n"
              "    q = seq.jet(j, 3) + 4 * seq.u * seq.jet(j, 1)\n"
              "    return seq.jet(j + 1, 1) + 2 * seq.du * seq.ell(j), q\n"
              "def _other(seq, j):\n"
              "    return seq.jet(j + 1, 1)\n")
    assert _foreign_entry_reads(ast.parse(sample), FACTOR_BUILDERS) == {"_factors": [3]}
    for body in ("seq.recursion_rhs(j - 1)", "seq.ells[j]", "seq.ell(k)", "seq.jet(i=j)"):
        sample = f"def _factors(seq, j, k=1):\n    return {body}, seq.jet(j, 3)\n"
        assert _foreign_entry_reads(ast.parse(sample), FACTOR_BUILDERS) == {
            "_factors": [2]}, body


# One content routine: only ``_make``, which normalizes every result, and
# ``_primitive`` take a gcd, and only ``_primitive`` reads ``_content_key``.
CONTENT_CALLERS = {"gcd": ("_make", "_primitive"), "_content_key": ("_primitive",)}


def _stray_content_calls(tree):
    """Sorted (callee, caller) of every call, bare or as an attribute, to a
    name in ``CONTENT_CALLERS`` from a function or method of ``tree`` that
    the table does not list for it, nested functions included."""
    def called(node):
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))

    return sorted({(called(node), name) for name, fn in _functions(tree.body)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and called(node) in CONTENT_CALLERS
                   and name not in CONTENT_CALLERS[called(node)]})


def test_jetring_has_one_content_routine():
    path = Path(jetring.__file__)
    assert _stray_content_calls(ast.parse(path.read_text(), str(path))) == []


def test_content_rule_can_fail():
    sample = ("def _make(ring, nums, den):\n"
              "    return gcd(den, *nums)\n"
              "def _primitive(*polys):\n"
              "    return _content_key(polys), math.gcd(1, 2)\n"
              "class Poly:\n"
              "    def rational_content(self):\n"
              "        return gcd(*self.terms.values())\n"
              "    def primitive_core(self):\n"
              "        return _divided(self, _content_key(self.terms))\n"
              "class RatExpr:\n"
              "    def __init__(self, num, den):\n"
              "        def scale():\n"
              "            return math.gcd(1, 2)\n"
              "        self.c = _content_key(chain(num.terms, den.terms))\n")
    assert _stray_content_calls(ast.parse(sample)) == [
        ("_content_key", "Poly.primitive_core"), ("_content_key", "RatExpr.__init__"),
        ("gcd", "Poly.rational_content"), ("gcd", "RatExpr.__init__")]


def _code_builtin_uses(tree):
    """(enclosing function, name) of every reference to exec, eval or
    compile, bare or through ``builtins``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("builtins", "__builtins__")):
            name = node.attr
        if name in ("exec", "eval", "compile"):
            found.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_generated_code_enters_through_one_helper():
    """Only ``odesolve._materialize`` turns source text into code."""
    uses = {str(path.relative_to(PACKAGE)): _code_builtin_uses(
                ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.rglob("*.py"))}
    uses = {path: found for path, found in uses.items() if found}
    assert uses == {"odesolve.py": [("_materialize", "exec"),
                                    ("_materialize", "compile")]}


def test_generated_source_has_no_assert():
    for system in (compile_k1(1, 2), compile_k2((1, 2, 3))):
        tree = ast.parse(system.source)
        functions = [node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        assert functions[0] == "rhs" and len(functions) == 1 + len(system.monitors)
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def _wrapped(system):
    """``system`` with its rhs and monitors behind plain wrappers."""
    def wrap(fn):
        return lambda s, y: fn(s, y)

    return odesolve.CompiledSystem(
        state_names=system.state_names, rhs=wrap(system.rhs),
        monitors={name: wrap(fn) for name, fn in system.monitors.items()})


def _run_sources(monkeypatch):
    """(system, init, source of every ``_materialize`` call while it is run)
    for the compiled k = 1 and k = 2 systems, as compiled and wrapped."""
    seen = []
    materialize = odesolve._materialize

    def record(source, **evaluators):
        seen.append(source)
        return materialize(source, **evaluators)

    systems = ((compile_k1(1, 2), (1.0, 0.0)),
               (compile_k2((1, 2, 3)), (1.0, 0.0, 1.0, 0.0)))
    monkeypatch.setattr(odesolve, "_materialize", record)
    runs = []
    for system, init in systems:
        for variant in (system, _wrapped(system)):
            seen.clear()
            list(odesolve.integrate(variant, init,
                                    odesolve.SolverConfig(1.0, 1.01, 1e-3)))
            runs.append((variant, list(seen)))
    monkeypatch.undo()
    return runs


def test_loop_source_enters_through_materialize(monkeypatch):
    """``integrate`` turns its generated RK4 loop into code only through
    ``_materialize``, once per run, and the loop holds no ``assert``."""
    for system, seen in _run_sources(monkeypatch):
        assert len(seen) == 1
        tree = ast.parse(seen[0])
        assert [node.name for node in tree.body] == ["run"]
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def _global_reads(source):
    """Names that ``source`` reads without assigning them anywhere: its
    globals and builtins."""
    tree = ast.parse(source)
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    bound |= {arg.arg for node in ast.walk(tree) if isinstance(node, ast.arguments)
              for arg in node.args}
    bound |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ExceptHandler)) and node.name}
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id not in bound}


def test_materialize_grants_only_the_builtins_generated_code_reads(monkeypatch):
    granted = set(odesolve._materialize("")["__builtins__"])
    assert granted == {"range", "ZeroDivisionError", "OverflowError"}
    runs = _run_sources(monkeypatch)
    sources = [system.source for system, _ in runs] + [seen[0] for _, seen in runs]
    reads = set().union(*map(_global_reads, sources))
    assert reads == granted | {"SingularMassMatrix", "rhs", "monitor_0"}


def _statement_loops(tree, name):
    """Line numbers of the ``for`` and ``while`` statements in the
    module-level function ``name`` of ``tree``."""
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return sorted(node.lineno for node in ast.walk(fn)
                  if isinstance(node, (ast.For, ast.While)))


def test_integrate_has_one_stage_loop():
    """The RK4 stages exist once, in the generated loop: ``integrate``
    holds no loop statement, and no step function is generated beside it."""
    path = Path(odesolve.__file__)
    tree = ast.parse(path.read_text(), str(path))
    assert _statement_loops(tree, "integrate") == []
    assert "_step_source" not in {node.name for node in tree.body
                                  if isinstance(node, ast.FunctionDef)}


def test_stage_loop_rule_can_fail():
    sample = ("def integrate(sys, init, cfg):\n"
              "    ok = all(v for v in init)\n"
              "    for i in range(3):\n"
              "        while i:\n"
              "            i -= 1\n")
    assert _statement_loops(ast.parse(sample), "integrate") == [3, 4]


# A JSON document is printed one element at a time by ``cli._print_json``.
# No other function of ``cli`` or ``render`` encodes JSON, so no command goes
# back to building and encoding its whole document at once.
JSON_WRITERS = ("_print_json",)


def _json_encodings(tree, allowed=()):
    """Sorted lines of the ``json.dump``/``json.dumps`` calls and ``from json
    import`` statements in ``tree``, outside the module-level functions
    named in ``allowed``."""
    found = []
    for top in tree.body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(node.lineno)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("dump", "dumps")
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"):
                found.append(node.lineno)
    return sorted(found)


def test_json_is_encoded_only_by_the_writer():
    trees = {module.__name__: ast.parse(Path(module.__file__).read_text())
             for module in (cli, render)}
    assert {name: _json_encodings(tree, JSON_WRITERS)
            for name, tree in trees.items()} == {"p3lenard.cli": [], "p3lenard.render": []}
    assert _json_encodings(trees["p3lenard.cli"]) != []


def test_json_rule_can_fail():
    sample = ("import json\n"
              "from json import dumps\n"
              "def _print_json(doc):\n"
              "    return json.dumps(doc)\n"
              "def emit(doc):\n"
              "    print(json.dumps({'terms': doc}))\n"
              "class Writer:\n"
              "    def out(self, doc, fh):\n"
              "        json.dump(doc, fh)\n")
    assert _json_encodings(ast.parse(sample), JSON_WRITERS) == [2, 6, 9]
    assert _json_encodings(ast.parse(sample)) == [2, 4, 6, 9]


# Importing the CLI loads only the standard-library modules it calls:
# ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
# and execs generated code per record, ``typing`` is not needed for
# annotations that are never evaluated, and ``argparse`` (with ``gettext``)
# costs more than the table walk that reads the command line.
STARTUP_FORBIDDEN = ("argparse", "dataclasses", "gettext", "inspect", "typing")


def _forbidden_imports(tree):
    """Sorted (line, module) of every import of a module in
    ``STARTUP_FORBIDDEN`` or one of its submodules, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in STARTUP_FORBIDDEN]
    return sorted(found)


def test_package_imports_no_startup_heavy_module():
    found = {str(path.relative_to(PACKAGE)): _forbidden_imports(
                 ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_startup_import_rule_can_fail():
    sample = ("from dataclasses import dataclass, field\n"
              "import typing, json\n"
              "from collections.abc import Mapping\n"
              "def late():\n"
              "    import inspect.signature\n"
              "from . import typing_helpers\n"
              "import argparse\n")
    assert _forbidden_imports(ast.parse(sample)) == [
        (1, "dataclasses"), (2, "typing"), (5, "inspect.signature"), (7, "argparse")]


def test_cli_import_leaves_startup_heavy_modules_unloaded():
    """Under ``python -S`` (no site hooks that load modules of their own),
    importing the CLI loads none of ``STARTUP_FORBIDDEN``."""
    probe = ("import sys\n"
             "import p3lenard.cli\n"
             f"print(sorted(set({STARTUP_FORBIDDEN!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout == "[]\n"


# Every function and method of the package, dunders included, is entered
# by one of the small commands of ``_reach_commands``, or is read by the test
# named for it here: the oracles a test compares against, the constructor
# that builds polynomials from triples, and the reprs that pytest prints in
# assertion output.  A name that a command enters is stale here.
READ_BY_TESTS = {
    "hierarchy.equation_equivalent":
        "test_hierarchy.py::TestBuildSystem::test_k1_golden",
    "hierarchy.conserved_sigma":
        "test_hierarchy.py::TestConservedQuantities::test_sigma0_standard",
    "jetring.Poly.__init__": "test_jetring.py::TestArithmetic::test_mul",
    "jetring.Poly.primitive_core":
        "test_jetring.py::TestSubstitutionAndContent::test_primitive_core_and_content",
    "jetring.Poly.eval": "test_odesolve.py::TestCompileK2::test_round_trip_residual",
    "jetring.RatExpr.eval": "test_odesolve.py::TestCompileK2::test_round_trip_residual",
    "jetring.Ring.__repr__": "test_records.py::test_record_construction_equality_and_repr",
    "jetring.Poly.__repr__": "test_records.py::test_record_construction_equality_and_repr",
    "jetring.RatExpr.__repr__":
        "test_records.py::test_record_construction_equality_and_repr",
    "lenard.LenardSequence.with_entry":
        "test_hierarchy.py::TestConservedQuantities::test_tau0_is_minus_omega_kk",
    "lenard.omega": "test_lenard.py::TestOmega::test_standard_base",
}


# Every function, class and method of the package is reached from the
# package itself, or is one of these: the names above other than dunders.
ORACLES = tuple(name.split(".", 1)[1] for name in READ_BY_TESTS
                if not name.endswith("__"))


def _definitions(body, prefix=""):
    """(qualified name, node) of the module-level functions and classes in
    ``body`` and of the methods of those classes, dunders excepted."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (prefix and node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}{node.name}", node
            if isinstance(node, ast.ClassDef) and not prefix:
                yield from _definitions(node.body, f"{node.name}.")


def _referenced_names(*trees) -> Counter:
    """How often each name occurs in ``trees`` as an ``ast.Name`` or as the
    attribute of an ``ast.Attribute``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _unreferenced(trees, allowed=()):
    """Sorted qualified names of the definitions in ``trees`` whose name
    occurs nowhere in ``trees`` outside the definition's own body, less
    ``allowed``."""
    everywhere = _referenced_names(*trees)
    return sorted(name for tree in trees
                  for name, node in _definitions(tree.body)
                  if name not in allowed
                  and not everywhere[node.name] - _referenced_names(node)[node.name])


def _uncalled(qualnames, trees):
    """The names in ``qualnames`` whose last part occurs nowhere in ``trees``."""
    everywhere = _referenced_names(*trees)
    return [name for name in qualnames if not everywhere[name.split(".")[-1]]]


def _parsed(paths):
    return [ast.parse(path.read_text(), str(path)) for path in sorted(paths)]


def test_package_has_no_unreferenced_api():
    assert _unreferenced(_parsed(PACKAGE.rglob("*.py")), ORACLES) == []


def test_allowed_unreferenced_names_still_have_callers():
    """An oracle no test reads is dead code too."""
    assert _uncalled(ORACLES, _parsed(Path(__file__).parent.glob("*.py"))) == []


def test_unreferenced_api_rule_can_fail():
    sample = ("def used():\n"
              "    return helper() + Box().size\n"
              "def helper():\n"
              "    return helper()\n"
              "def orphan():\n"
              "    return used()\n"
              "class Box:\n"
              "    def size(self):\n"
              "        return self.size\n"
              "    def lonely(self):\n"
              "        return self.lonely()\n"
              "    def __repr__(self):\n"
              "        return 'Box'\n"
              "class Unused:\n"
              "    pass\n")
    trees = [ast.parse(sample), ast.parse("from sample import orphan\n")]
    assert _unreferenced(trees) == ["Box.lonely", "Unused", "orphan"]
    assert _unreferenced(trees, ("orphan", "Box.lonely")) == ["Unused"]
    assert _uncalled(("Box.size", "Box.gone", "orphan"), trees) == [
        "Box.gone", "orphan"]


def _reach_commands(tmp_path):
    """Small golden commands: each subcommand in every format, custom seeds
    in both grammars and their error paths (powers past either bound among
    them), completed and aborted ``integrate`` runs (one stopped by a
    singular stage), and the reader's help and usage-error paths."""
    out = str(tmp_path / "run.csv")
    run = ("--s0", "1", "--s1", "1.01", "--step", "1e-3", "--out", out)
    return [
        ("gen-lenard", "--count", "3"),
        ("gen-lenard", "--count", "3", "--format", "latex"),
        ("gen-lenard", "--seed", "custom", "--custom", "-(u - 1/2)*(1 + 1)"),
        ("gen-lenard", "--seed", "custom", "--custom", "u^40000"),
        ("gen-lenard", "--seed", "custom", "--custom", "2^99999999999999999999"),
        ("gen-lenard", "--seed", "custom", "--custom", "(u"),
        ("gen-lenard", "--seed", "custom", "--custom",
         '{"terms":[{"coef":"1/2","s":0,"jets":{"0":1}}]}'),
        ("gen-lenard", "--seed", "custom"),
        ("gen-hierarchy", "--k", "2"),
        ("gen-hierarchy", "--k", "2", "--format", "latex"),
        ("gen-lax", "--k", "2"),
        ("gen-lax", "--k", "2", "--format", "latex"),
        ("verify", "--suite", "all", "--max-index", "2"),
        ("integrate", "--k", "2", "--tau", "1,2,3", "--init", "1,0,1,0", *run),
        ("integrate", "--k", "1", "--tau", "1,2", "--init", "0,0", *run),
        # stage 2 lands on l1 = 0: the STOPS case ("k1", "stage2", ...)
        ("integrate", "--k", "1", "--tau", "1,2", "--init=-1,4", "--s0", "1",
         "--s1", "2", "--step", "0.5", "--out", out),
        ("--help",),
        ("verify", "--help"),
        ("verify", "--suite", "nope"),
    ]


def _entered(run) -> set:
    """(resolved file, qualified name) of every Python function entered
    while ``run()`` runs."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(name).resolve()), qualname) for name, qualname in entered}


def _unreached(package: Path, entered: set, allowed=()) -> list:
    """Sorted ``module.qualified name`` of the module-level functions and
    class methods, dunders included, of the modules under ``package`` that
    ``entered`` does not hold, less ``allowed``."""
    found = []
    for path in sorted(package.resolve().rglob("*.py")):
        module = ".".join(path.relative_to(package.resolve()).with_suffix("").parts)
        names = {qualname for name, qualname in entered if name == str(path)}
        found += [f"{module}.{name}" for name, _ in _functions(_parsed([path])[0].body)
                  if name not in names]
    return sorted(name for name in found if name not in allowed)


def _run_commands(commands):
    """Run each command in-process, its output discarded; the first through
    ``cli.main``, as the console script does."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        argv = sys.argv
        sys.argv = ["p3lenard", *commands[0]]
        try:
            with contextlib.suppress(SystemExit):
                cli.main()
        finally:
            sys.argv = argv
        for command in commands[1:]:
            cli.run(list(command))


def test_every_function_is_entered_or_read_by_a_test(tmp_path):
    entered = _entered(lambda: _run_commands(_reach_commands(tmp_path)))
    assert _unreached(PACKAGE, entered, READ_BY_TESTS) == []
    # an allowed name that a command enters, or that names no function, is stale
    assert sorted(set(READ_BY_TESTS) - set(_unreached(PACKAGE, entered))) == []


def _test_exists(node_id: str) -> bool:
    """Whether ``file::[Class::]test`` names a test of this directory."""
    filename, *names = node_id.split("::")
    body = _parsed([Path(__file__).parent / filename])[0].body
    for name in names:
        node = next((node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_tests_read_by_name_exist():
    assert [node for node in READ_BY_TESTS.values() if not _test_exists(node)] == []
    assert not _test_exists("test_source.py::test_gone")


def test_reach_rule_can_fail(tmp_path, monkeypatch):
    package = tmp_path / "reach_sample"
    package.mkdir()
    (package / "__init__.py").write_text(
        "class Box:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "    def __mul__(self, other):\n"
        "        return Box(self.n * other)\n"
        "    def __rmul__(self, other):\n"
        "        return self * other\n"
        "def double(n):\n"
        "    return Box(n) * 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    sample = importlib.import_module("reach_sample")
    entered = _entered(lambda: sample.double(3))
    assert _unreached(package, entered) == ["__init__.Box.__rmul__"]
    assert _unreached(package, entered, {"__init__.Box.__rmul__": ""}) == []
    assert _unreached(package, _entered(lambda: 2 * sample.Box(3))) == [
        "__init__.double"]
