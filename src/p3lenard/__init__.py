"""Exact symbolic engine and numerical verifier for the Lenard recursion,
the Painleve III hierarchy it generates, its constants of motion, and the
associated Lax-pair coefficient identities."""

from .jetring import ExponentOverflow, Poly, RatExpr, Ring, ZeroDenominator
from .diffpoly import U_RING, NotExactDerivative, ParseError, formal_integral, parse
from .lenard import (IndexOutOfRange, LenardSequence, SeedCondition,
                     closed_form_standard, generate, master_identity_residual,
                     omega, shift_identity_residual, symbolic,
                     transport_residual)
from .hierarchy import (HierarchySystem, build_p3_system, conservation_residual,
                        conserved_tau)
from .laxpair import (LaurentPoly, SeedMismatch, c_relation_residual, build_b,
                      compatibility_residual, derive_a_c)
from .odesolve import (CompiledSystem, ConstantMismatch, DomainError,
                       SingularMassMatrix, SolverConfig, compile_k1, compile_k2,
                       integrate, write_csv)

__version__ = "0.1.0"
