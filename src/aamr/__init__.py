"""Best approximation onto intersections of convex sets.

The central tool is the averaged alternating modified reflections iteration,
which projects an arbitrary point onto an intersection given only the
individual projectors.  Classical comparison methods (alternating
projections, Douglas-Rachford, Haugazeau, Halpern-type anchoring, Combettes'
product-space scheme), subspace angle analytics, and a seeded benchmark
harness round out the package.
"""

from .sets import (ConvexSet, LinearSubspace, AffineSubspace, Ball, Halfspace,
                   Hyperplane, Box, Translate, ProductSet, Diagonal,
                   full_space, zero_subspace, as_vector, project,
                   project_intersection_oracle, load_problem, dump_problem,
                   DimensionMismatchError, NoOracleError, ProblemFormatError)
from .operators import (Status, SolveResult, StoppingPolicy, NumericalFailure,
                        modified_reflect, AamrOperator, DrOperator, iterate)
from .solvers import (aamr_solve, aamr_product_solve, map_solve, rap_solve,
                      dr_solve, haugazeau_solve, hlwb_solve, cm_solve,
                      cm_recurrence, combettes_beta, optimal_rap_mu,
                      recommended_beta, MethodSpec, solve_best_approximation)
from .geometry import (SubspacePair, orthonormal_columns, principal_angles,
                       subspace_intersection, friedrichs_angle,
                       random_subspace_pair)

__version__ = "0.1.0"
