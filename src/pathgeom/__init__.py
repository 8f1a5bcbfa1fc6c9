"""pathgeom: a symbolic-numeric engine for 3D path geometries presented as
pairs of second-order ODEs.

Computes the fundamental torsion/curvature invariants of ODE pairs, classifies
their binary-form root types, generates the chain / dancing / freestyling
systems attached to 2D path geometries, and verifies the structural claims
(closed quasi-symplectic forms, Einstein metrics on chain spaces, third-order
reductions) at desk scale.  See the `pg` command-line tool for the assembled
verification pipelines.
"""

__version__ = "0.1.0"

from .constructions import (DancingCurve, SolutionFunction, ThirdOrderODE,
                            catalog, catalog_names, chain_pair_from_scalar,
                            dancing_curve_numeric, freestyle_pair)
from .dsl import Document, parse, parse_expression, serialize
from .expr import (Expr, differentiate, evaluate, exprs_equal,
                   is_zero_probabilistic, num, sqrt_, substitute, var,
                   variables)
from .forms import (DifferentialForm, chain_pair_via_rho, d,
                    exterior_derivative, frobenius_integrable, one_form,
                    pullback, rho_chain, wedge)
from .integrate import (Trajectory, integrate_pair,
                        third_order_reduction_check)
from .invariants import (CurvatureQuartic, FelsInvariants, ScalarInvariants,
                         TorsionQuadric, curvature_quartic, fels_curvature,
                         fels_invariants, fels_torsion, scalar_invariants,
                         torsion_quadric)
from .jets import (PairODE, ScalarODE, prolong, total_derivative,
                   total_derivative_scalar)
from .metrics import (CoframeMetric, EinsteinReport, closedness_check,
                      conformal_equiv_check, conformal_from_pair,
                      einstein_check, null_planes_integrable)
from .roots import (AdmissibilityFlags, RootProfile, admissibility,
                    classify_quadric, classify_quartic)

__all__ = [name for name in dir() if not name.startswith("_")]
