"""Ordered median location toolkit.

Exact solving by enumeration, two LP relaxations with a self-contained
simplex core, dual certificates that decide when the relaxation recovers
the integral optimum, structural non-recovery predictions, dip-based
clusterability diagnostics, benchmark ingestion, and a batch harness.
"""

from .bench_io import (EdgeGraph, ExperimentRow, data_path, floyd_warshall,
                       generate_ball, generate_uniform, parse_pmed,
                       prefix_subsample, rows_to_csv, run_experiment)
from .certificates import (MEDIAN_SINGLE_RECOVERS, NEVER_RECOVERS, UNKNOWN,
                           DualCertificate, CertificateVerdict, Prediction,
                           check_single_center, conic_combine,
                           has_collinear_triple, make_certificate,
                           ordered_contribution, predict_non_recovery,
                           search_certificate, strictness_margin,
                           verify_certificate)
from .clusterability import (DipResult, classify_collection,
                             clusterability_sample, dip_pvalue, dip_statistic,
                             mds_1d)
from .errors import (ConvergenceError, OrdmedError, ParameterError,
                     ParseError, SizeGuardError)
from .exact import (RecoveryReport, recovery_status, solve_enumeration)
from .formulations import (DompModel, FractionalityReport, build_bep,
                           build_ot, embed_integral, fractionality_report)
from .instance import (CenterSolution, DistanceMatrix, Instance, PointSet,
                       ValidationReport, WeightClass, WeightVector,
                       classify_weights, fixture_t1, is_free_of_equidistance,
                       read_instance, resolve_weights, validate_metric,
                       write_instance)
from .lp_core import (LinearProgram, LpSolution, ResidualReport,
                      check_solution, solve_lp)
from .ordered_median import (SortPermutation, closest_allocation, om_evaluate,
                             restrict_instance, sorting_permutation)

__version__ = "0.1.0"
