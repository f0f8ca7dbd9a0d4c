"""serwalk: rearranged conditionally convergent series as walks.

Construct out-and-back partial-sum walks whose limit sets realize
prescribed chainable targets, certify prefix-balancing constants
empirically, and verify limit-set claims (dichotomy, chainability,
Hausdorff proximity, convergence) at desk scale.
"""

from .core import (PointSample, distance, gap_chainable, gap_components,
                   hausdorff_distance, norm)
from .walks import (PartialPermutation, SignedSeries, Walk,
                    build_chainable_walk, build_unbounded_components_walk,
                    build_xwalk, gen_halflines, gen_two_lines, series_to_walk,
                    walk_to_series)
from .seqspace import (THETA, SparseVec, VectorFamily, block_vectors, e,
                       gen_c0_singleton_divergent, gen_c0_two_point,
                       gen_no_rp_series, gen_vector_family,
                       per_coordinate_profile, sign_patterns)
from .rearrange import (RPConstants, RPWitness, alternating_harmonic,
                        certify_rp_family, check_stage_invariants,
                        find_balanced_permutation, full_range_series,
                        rearrange_to_limit_set)
from .analysis import (ALL_COMPONENTS_ESCAPE, COMPACT_CONNECTED, VIOLATION,
                       LimitEstimate, cauchy_diagnostic, estimate_limit_set,
                       singleton_convergence_check, verify_dichotomy)
from .traceio import (read_sample_csv, read_terms_json, read_walk_csv,
                      read_walk_jsonl, render_scalar, write_terms_json,
                      write_walk_csv, write_walk_jsonl, write_walk_svg)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
