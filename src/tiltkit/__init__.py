"""Exact first- and second-order generalized derivatives, regularity
moduli, and tilt-stability verdicts for quadratic-plus-polyhedral
functions on R^n.

The exact class keeps every object polyhedral: subdifferentials are
gradient-plus-normal-cone unions, subgradient graphs are finite unions of
polyhedra, and generalized Hessians are limiting normal cones to those
graphs, all in rational arithmetic.  Estimators for metric (sub)regularity
and quadratic growth run on deterministic float grids with refinement
convergence flags, and a verifier ties the two sides together on a fixture
corpus.
"""

from .cones import ConeUnion, PolyCone
from .copositive import cone_form_min_sign, orthant_min_sign, simplex_min
from .fixtures import CORPUS, Fixture, fixture, minimizer_fixtures
from .hessian import (DefinitenessVerdict, GraphLocalModel, KernelReport,
                      SecondOrderMap, build_graph_model, combined_second_order,
                      definiteness, hessian_sum_rule_check, kernel, second_order_contains,
                      second_order_map, second_order_subdifferential)
from .model import (ANALYTIC_REGISTRY, AnalyticFixture1D, FunctionSpec, Params,
                    ParseError, ProblemInstance, QuadraticForm, ValidationError,
                    evaluate, evaluate_exact, parse_problem, regularize)
from .polyhedra import ConvexPolyhedron, PolyUnion, critical_cone
from .regularity import (CheckOutcome, GrowthReport, LocalizationReport,
                         ModulusEstimate, TiltReport, check_condition_4_1,
                         check_growth, check_lower_prox_inequality,
                         check_single_valued_localization, check_uniform_growth,
                         estimate_metric_regularity_modulus,
                         estimate_subregularity_modulus, growth_alpha_hat,
                         minimal_prox_r, solve_tilt, tilt_stability_verdict)
from .subdiff import (EmptySliceError, ExactSubdifferential, Interval1D,
                      InverseSlice, analytic_inverse_points, distance_to_inverse,
                      frechet_subdifferential, inverse_image,
                      stationary_points_1d, subdifferential,
                      subdifferential_distance)
from .verifier import SUITES, SuiteResult, conjecture_probe, emit_report, run_suite

__version__ = "0.1.0"
