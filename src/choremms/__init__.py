"""Fair division of indivisible chores under additive costs: FFD, MultiFit
and HFFD packing, First-Fit-Valid verification, swap-transcript reductions,
and maximin-share solvers with exact rational arithmetic."""

from .analysis import subset_sums
from .core import (Allocation, Instance, InstanceClass, LiftingMap, bundle_cost,
                   classify, format_rational, parse_rational, to_ido, universal_ordering)
from .ffv import (SwapStep, SwapTranscript, is_ffv, reduce_bivalued, reduce_factored,
                  transform_mms_to_ffd)
from .io import format_allocation, format_instance, parse_allocation, parse_instance
from .mms import (MMSResult, SolveResult, min_success_threshold, mms_brute,
                  mms_factored, mms_value, solve_auto, solve_bivalued,
                  solve_factored, solve_ordinal)
from .packing import PackOutcome, ffd, hffd, multifit

# the names above and no submodule, so a star import leaves the standard
# library's `io` bound as it was
__all__ = ["subset_sums", "Allocation", "Instance", "InstanceClass", "LiftingMap", "bundle_cost",
           "classify", "format_rational", "parse_rational", "to_ido", "universal_ordering",
           "SwapStep", "SwapTranscript", "is_ffv", "reduce_bivalued", "reduce_factored",
           "transform_mms_to_ffd", "format_allocation", "format_instance", "parse_allocation",
           "parse_instance", "MMSResult", "SolveResult", "min_success_threshold", "mms_brute",
           "mms_factored", "mms_value", "solve_auto", "solve_bivalued", "solve_factored",
           "solve_ordinal", "PackOutcome", "ffd", "hffd", "multifit"]
