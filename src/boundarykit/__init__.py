"""Numerical toolkit for boundary configurations of hyperbolic and flag
geometries: cross-ratio arithmetic, genericity predicates, cochain calculus,
volume cocycles, and boundedness certification by the doubling recursion."""

from .version import __version__

from .errors import (ArityTooLarge, BoundaryKitError, DegenerateArguments,
                     DegenerateTuple, EvaluationError, IterationOverflow,
                     MissingAlternation, MixedModels, NotGeneric, NotOpposite,
                     SamplerExhausted, SignatureError, SingularMatrix,
                     UnboundedDefect, UnencodableReport, UnknownInvariant)
from .projective import (INFINITY, MoebiusMap, ProjectivePoint, apply_moebius,
                         cross_ratio, is_infinite, normalize_to_standard)
from .hyperbolic import (ComplexBoundaryPoint, H3Embedding, HyperbolicPoint,
                         RealBoundaryPoint, barycenter_ideal_triangle,
                         boundary_to_chart, cartan_invariant, chart_to_boundary,
                         gram_ratio, halfplane_to_hyperboloid,
                         hyperboloid_to_halfplane, is_generic_tuple,
                         restrict_to_h3)
from .flags import (Flag3, FlatBoundary, flat_boundary, is_generic_triple,
                    is_opposite, random_flag, triple_ratio)
from .cochains import (Cochain, DefectReport, alternate, alternating_projection,
                       alternation_spot_check, coboundary, cone_homotopy,
                       empirical_sup_defect, model_coboundary)
from .volume import MAX_VOL3, lobachevsky, vol2, vol3, vol3_from_cross_ratio
from .certifier import (BoundCertificate, GridConfig, RegionSpec, ScalarFunction,
                        alternating_bump_function, certify_complex_region,
                        certify_interval, const_function, doubling_defect,
                        extend_by_symmetry, five_term_defect, pole_function,
                        vol3_slice)
from .reports import (ReportEnvelope, ResultColumns, SamplerConfig, compactness_probe,
                      emit_report, invariant_values, read_report_csv,
                      read_report_json, sample_tuples, sampling_stats)

__all__ = [name for name in dir() if not name.startswith("_")]
