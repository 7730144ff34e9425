"""Signed blocky decompositions of bounded-norm integer matrices.

A blocky matrix is a boolean matrix whose support is a disjoint union of
combinatorial rectangles (equivalently: no 2x2 submatrix has exactly three
ones).  This package decomposes integer matrices with a bounded
factorization norm into short signed sums of blocky matrices, exactly and
with verified certificates, and ships the supporting machinery: the norm
solver and its lower bounds, exact (weighted) mistake-tree dimensions,
column stabilizers, greedy partitions, a brute-force complexity oracle,
deterministic generators, and a seven-criterion verification battery.
"""

from .config import RunConfig
from .core import (
    BlockyCheck,
    BlockyMatrix,
    SignedBlockySum,
    is_blocky,
    round_half_down,
)
from .factorize import (
    GammaFactorization,
    NormBracket,
    VerificationReport,
    factorization_from_blocky_sum,
    gamma2_bracket,
    gamma2_lower,
    gamma2_upper,
    verify_factorization,
)
from .generators import GeneratedInstance, GeneratorSpec, generate
from .littlestone import (
    BudgetExceeded,
    StabilizationResult,
    bucket_stabilize,
    ldim,
    ldim_alpha,
    majority_stabilize,
)
from .partition import (
    AverageSplit,
    GreedyPartition,
    PartitionClass,
    greedy_l1_decompose,
    greedy_partition,
    peel_term_count,
    subtract_average,
)
from .pipeline import (
    DecrementStep,
    PipelineReport,
    ReconstructionError,
    RoundingDriftError,
    decompose,
    exact_block_complexity,
    norm_decrement_step,
    term_count_floor,
)
from .suite import SuiteContext, run_suite

__version__ = "0.1.0"

__all__ = [
    "AverageSplit",
    "BlockyCheck",
    "BlockyMatrix",
    "BudgetExceeded",
    "DecrementStep",
    "GammaFactorization",
    "GeneratedInstance",
    "GeneratorSpec",
    "GreedyPartition",
    "NormBracket",
    "PartitionClass",
    "PipelineReport",
    "ReconstructionError",
    "RoundingDriftError",
    "RunConfig",
    "SignedBlockySum",
    "StabilizationResult",
    "SuiteContext",
    "VerificationReport",
    "bucket_stabilize",
    "decompose",
    "exact_block_complexity",
    "factorization_from_blocky_sum",
    "gamma2_bracket",
    "gamma2_lower",
    "gamma2_upper",
    "generate",
    "greedy_l1_decompose",
    "greedy_partition",
    "is_blocky",
    "ldim",
    "ldim_alpha",
    "majority_stabilize",
    "norm_decrement_step",
    "peel_term_count",
    "round_half_down",
    "run_suite",
    "subtract_average",
    "term_count_floor",
    "verify_factorization",
    "__version__",
]
