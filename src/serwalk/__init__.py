"""serwalk: rearranged conditionally convergent series as walks.

Construct out-and-back partial-sum walks whose limit sets realize
prescribed chainable targets, certify prefix-balancing constants
empirically, and verify limit-set claims (dichotomy, chainability,
Hausdorff proximity, convergence) at desk scale.

The package exports what the README quick start and the demos import;
everything else is imported from its module (``serwalk.walks.Walk``,
``serwalk.core.norm``, ...).
"""

from .core import PointSample, hausdorff_distance
from .walks import gen_two_lines
from .seqspace import (block_vectors, gen_c0_singleton_divergent, gen_c0_two_point,
                       gen_no_rp_series, per_coordinate_profile)
from .rearrange import (RPConstants, alternating_harmonic, certify_rp_family,
                        check_stage_invariants, full_range_series,
                        rearrange_to_limit_set)
from .analysis import cauchy_diagnostic, estimate_limit_set, verify_dichotomy
from .traceio import write_walk_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
