"""Rules on the package source itself."""

import ast
from pathlib import Path

import p3lenard
from p3lenard import hierarchy, jetring, laxpair, lenard, odesolve
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
INTEGER_PATHS = ("_accumulate", "_make", "Poly.__add__", "Poly.__mul__",
                 "Poly.total_derivative")


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
PACKED_PATHS = ("_accumulate", "Poly.__mul__", "Poly.total_derivative")
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
              "        return sorted(self.terms)\n")
    assert _container_calls(ast.parse(sample), PACKED_PATHS) == {
        "_accumulate": [2], "Poly.__mul__": [], "Poly.total_derivative": [8, 8]}


# Only the jet table differentiates.  Omega, the brackets, their
# derivatives, the lattice residuals, the constants of motion, the
# hierarchy system and the Lax series read the jets D^i(l_j) of
# ``LenardSequence.jet``; in ``lenard`` only ``LenardSequence.D`` and
# ``.jet`` take a derivative, and ``hierarchy`` and ``laxpair`` take none.
NO_DERIVATIVE_PATHS = {
    "hierarchy": ("conserved_tau", "conserved_sigma", "conservation_residual",
                  "build_p3_system"),
    "lenard": ("omega", "bracket", "_omega_prime", "_bracket_prime",
               "master_identity_residual", "shift_identity_residual",
               "transport_residual", "transport_residuals", "generate",
               "symbolic", "LenardSequence.recursion_rhs"),
    "laxpair": ("build_b", "derive_a_c", "compatibility_residual",
                "_b_relation_residual", "c_relation_residual"),
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
              "def derive_a_c(b, u, seq):\n"
              "    return b.derivative(seq), b * u\n"
              "def _b_relation_residual(seq, k):\n"
              "    return build_b(seq, k) * seq.D(seq.u)\n")
    tree = ast.parse(sample)
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["hierarchy"]) == {
        "conserved_tau": [2], "conserved_sigma": [],
        "conservation_residual": [6, 7]}
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["lenard"]) == {
        "omega": [14, 14]}
    assert _derivative_calls(tree, NO_DERIVATIVE_PATHS["laxpair"]) == {
        "derive_a_c": [16], "_b_relation_residual": [18]}
    assert _differentiating(tree) == [
        "LenardSequence.jet", "_b_relation_residual", "boundary_jet_sequence",
        "conservation_residual", "conserved_tau", "derive_a_c", "omega"]


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


def test_step_source_enters_through_materialize(monkeypatch):
    """``integrate`` turns the generated RK4 step into code only through
    ``_materialize``, once per run, and the step holds no ``assert``."""
    seen = []
    materialize = odesolve._materialize

    def record(source):
        seen.append(source)
        return materialize(source)

    monkeypatch.setattr(odesolve, "_materialize", record)
    for system, init in ((compile_k1(1, 2), (1.0, 0.0)),
                         (compile_k2((1, 2, 3)), (1.0, 0.0, 1.0, 0.0))):
        seen.clear()
        odesolve.integrate(system, init,
                           odesolve.SolverConfig(1.0, 1.01, 1e-3))
        assert seen == [odesolve._step_source(system.dimension)]
        tree = ast.parse(seen[0])
        assert [node.name for node in tree.body] == ["step"]
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
