"""Run configuration shared by the library entry points, the CLI and the suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """The options a caller sets for a run.

    ``seed`` drives the suite's random trials; the solver draws no random
    numbers.  ``tol`` is the certificate residual tolerance, an absolute
    bound on max|A − UV| that does not scale with the entries: at entries
    near 1e155 a residual of 1e-16 relative exceeds the default.  It is also
    how ``decompose`` accepts a looser certificate.  The field defaults are
    the package defaults.  The work caps are constants of their modules:
    the solver's SVDs (``factorize._MAX_SVDS``) and the exact dimension
    recursions' node expansions (``littlestone.DEFAULT_BUDGET``).  Output
    paths are carried by the CLI flags, not here.
    """

    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


# What calls made without a config run with: built and validated once, at import.
DEFAULT_CONFIG = RunConfig()
