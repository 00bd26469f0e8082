"""Independent reference for the ``rk4`` gate.

The k-th system is rebuilt here with sympy straight from its definition,

    sum_{q=0}^{p} ( l_{k-p+q+1} l_{k-q} - Omega_{k-p+q,k-q} ) - tau_p = 0,
    Omega_{a,b} = (l_a l_b)'' - 3 l_a' l_b' + 4 u l_a l_b,
    u = -((l_k^2)'' - 3 (l_k')^2 + tau_0) / (4 l_k^2),

with l_0 = s/2 and l_{k+1} = 0, solved for the second derivatives and
integrated with scipy's DOP853 at tight tolerances.  None of p3lenard's
code is used, so an error in its symbolic engine, its compiler or its RK4
stepper shows as a difference in the end state.
"""

from __future__ import annotations

import sympy as sp
from scipy.integrate import solve_ivp

RTOL = ATOL = 1e-12


def first_order_rhs(k: int, taus: list[str]):
    """Float callable f(s, y) of the k-th system in the state order
    (l1, l1', l2, l2', ...), with the tau values given as decimal strings."""
    s = sp.Symbol("s")
    tau = [sp.Rational(t) for t in taus]
    if len(tau) != k + 1:
        raise ValueError(f"k = {k} needs {k + 1} tau values")
    funcs = [sp.Function(f"l{p}")(s) for p in range(1, k + 1)]
    ell = [s / 2] + funcs + [sp.Integer(0)]
    lk = ell[k]
    u = -((lk ** 2).diff(s, 2) - 3 * lk.diff(s) ** 2 + tau[0]) / (4 * lk ** 2)

    def omega(a, b):
        return ((ell[a] * ell[b]).diff(s, 2) - 3 * ell[a].diff(s) * ell[b].diff(s)
                + 4 * u * ell[a] * ell[b])

    eqs = [sum(ell[k - p + q + 1] * ell[k - q] - omega(k - p + q, k - q)
               for q in range(p + 1)) - tau[p]
           for p in range(1, k + 1)]

    y = sp.symbols(f"y0:{2 * k}")
    acc = sp.symbols(f"a0:{k}")
    # highest derivatives first, so l_p is not replaced inside l_p''
    plain = ([(f.diff(s, 2), acc[p]) for p, f in enumerate(funcs)]
             + [(f.diff(s), y[2 * p + 1]) for p, f in enumerate(funcs)]
             + [(f, y[2 * p]) for p, f in enumerate(funcs)])
    eqs = [sp.together(e.subs(plain)) for e in eqs]
    numerators = [sp.numer(e) for e in eqs]
    (solution,) = sp.linsolve(numerators, acc)
    second = sp.lambdify((s, y), list(solution), "math")

    def rhs(t, state):
        dd = second(t, state)
        out = []
        for p in range(k):
            out.append(state[2 * p + 1])
            out.append(dd[p])
        return out

    return rhs


def end_state(k: int, taus: list[str], init: list[str], s0: float, s1: float):
    """State at s1 of the k-th system started from ``init`` at s0."""
    rhs = first_order_rhs(k, taus)
    y0 = [float(sp.Rational(v)) for v in init]
    sol = solve_ivp(rhs, (s0, s1), y0, method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return [float(v) for v in sol.y[:, -1]]
