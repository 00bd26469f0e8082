"""Exact symbolic engine and numerical verifier for the Lenard recursion,
the Painleve III hierarchy it generates, its constants of motion, and the
associated Lax-pair coefficient identities."""

from .jetring import Poly, RatExpr, Ring, ZeroDenominator, MissingJetValue
from .diffpoly import (U_RING, NotExactDerivative, ParseError, eval_numeric,
                       formal_integral, parse, serialize, total_derivative)
from .lenard import (IndexOutOfRange, LenardSequence, SeedCondition, bracket,
                     closed_form_standard, generate, master_identity_residual,
                     omega, shift_identity_residual, symbolic,
                     transport_residual)
from .hierarchy import (ConservedQuantity, HierarchySystem, build_p3_system,
                        conservation_residual, conserved_sigma, conserved_tau,
                        equation_equivalent)
from .laxpair import (LaurentPoly, LaxMatrices, SeedMismatch, c_relation_residual,
                      build_b, build_lax_matrices, compatibility_residual,
                      derive_a_c)
from .odesolve import (CompiledSystem, ConstantMismatch, DomainError,
                       SingularMassMatrix, SolverConfig, StepSizeUnderflow,
                       Trajectory, compile_k1, compile_k2, integrate, write_csv)

__version__ = "0.1.0"
