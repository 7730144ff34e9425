"""Run configuration shared by the library entry points, the CLI and the suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .littlestone import DEFAULT_BUDGET


@dataclass(frozen=True)
class RunConfig:
    """Knobs threaded through every randomized or budgeted code path.

    ``max_iter`` caps the SVDs of the norm solver's one weight ascent from
    the row/column energy, the SVDs at its Newton and extrapolated weights
    included; the Newton solves take no SVD and are not counted.  The
    ascent stops once its certificate is within 1e-7 relative of its dual
    bound; on 511 3×3 booleans, 84 dense 8²–32² matrices and 54 blocky sums
    of 16²–32² that takes at most 984 SVDs (at most 25 on the dense
    matrices within the Newton window, 12²–24²), so the default 10,000 is
    reached only where the gap never closes.  ``seed`` drives the suite's
    random trials; the solver draws no random numbers.  ``tol`` is the
    certificate residual tolerance, an absolute bound on max|A − UV| that
    does not scale with the entries: at entries near 1e155 a residual of
    1e-16 relative exceeds the default.  ``littlestone_budget`` caps exact
    dimension-recursion node expansions.  The field defaults are the
    package defaults.  Output paths are carried by the CLI flags, not here.
    """

    seed: int = 0
    tol: float = 1e-9
    max_iter: int = 10_000
    littlestone_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        for name, low in (("seed", 0), ("max_iter", 1), ("littlestone_budget", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


# What calls made without a config run with: built and validated once, at import.
DEFAULT_CONFIG = RunConfig()
