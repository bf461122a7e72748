"""Exact-arithmetic toolkit for gap spectra, sumsets and torus censuses.

Everything numeric in the core runs on rationals; floats appear only in
logged ratios and timings.
"""

from .exact_torus import (TorusPoint, TorusVector, as_rational, ccw_arc,
                          circular_sort, embed_reals, point, reduce_mod1,
                          signed_mod1, torus_dist_sq, torus_norm,
                          torus_norm_sq_d)
from .extremal_constructions import (ConstructionRangeError, CoverForcingReport,
                                     DigitSphereReport, LatticeProjectionReport,
                                     ap_free_check, behrend_set,
                                     build_cover_forcing_set, exact_ap_free,
                                     greedy_ap_free, lattice_projection,
                                     max_ap_free_sizes)
from .gap_spectrum import (APUnionGapReport, APUnionSpec, ArcCountingReport,
                           CircularSet, CollisionError, GapBoundReport,
                           GapSpectrum, InsufficientDenominatorError,
                           SubsetViolationError, ThreeGapReport,
                           TooFewPointsError, Wrap, ap_union_gap_check,
                           ap_union_points, arc_counting_diagnostic,
                           fractional_orbit, gap_bound_check,
                           greedy_max_distinct, sidon_subset, spectrum,
                           three_gap_check)
from .generator_decomposition import (DecompositionCertificate, GenerationReport,
                                      GeneratorReport, NonMemberTargetError,
                                      OracleScaleError, PremiseViolationError,
                                      Side, SpanOracle, decompose,
                                      neighbour_gaps, verify_generation)
from .nn_census import (BallDepthReport, CensusReport, CoreExtractionTrace,
                        EpsilonRangeError, GramKissingReport, GreedyStallError,
                        InvalidConfigurationError, KissingReport,
                        KroneckerReport, NNRecord, PointCloud, TightnessReport,
                        ball_depth, cloud_sumset, extract_core,
                        gram_kissing_check, hexagon_gram, kissing_check,
                        kronecker_census, max_ball_depth, nn_census,
                        pentagon_cloud, tightness_example)
from .reports import (SCHEMA_VERSION, canonical_json, identity_view, to_csv,
                      to_jsonable)
from .sumset_engine import (CoverResult, Domain, DomainMismatchError,
                            FiniteExactSet, difference_set, doubling_ratio,
                            minimal_difference_cover, negate, sumset)
from .verify import CHECKS, CheckResult, run_checks

__version__ = "0.1.0"
