"""Run configuration shared by the library entry points, the CLI and the suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .littlestone import DEFAULT_BUDGET


@dataclass(frozen=True)
class RunConfig:
    """Knobs threaded through every randomized or budgeted code path.

    ``seed``, ``restarts`` and ``max_iter`` drive the norm solver: it
    ascends the uniform start alone, and only when that leaves the dual gap
    open does it ascend again with ``restarts`` random starts seeded by
    ``seed``; ``max_iter`` caps each ascent, so a solve makes at most
    2 · ``max_iter`` stacked SVDs.  ``tol``
    is the certificate residual tolerance; ``littlestone_budget`` caps exact
    dimension-recursion node expansions; ``oracle_depth`` caps the
    brute-force complexity search.  The field defaults are the package
    defaults.  Output paths are carried by the CLI flags, not here.
    """

    seed: int = 0
    tol: float = 1e-9
    restarts: int = 16
    max_iter: int = 400
    littlestone_budget: int = DEFAULT_BUDGET
    oracle_depth: int = 6

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        for name, low in (
            ("seed", 0),
            ("restarts", 0),
            ("max_iter", 1),
            ("littlestone_budget", 1),
            ("oracle_depth", 1),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
