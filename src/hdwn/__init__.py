"""High-dimensional white-noise tests built on spatial signs.

The package bundles five portmanteau-style tests (ss, flm, pv, max, fc),
generators for the null and alternative designs they are usually judged on,
a deterministic Monte Carlo harness for empirical size and power tables, and
closed-form asymptotic power and efficiency formulas. Each module keeps its
own export list; the package exports their union, and not the cli module.
"""

from . import core, dgp, errors, montecarlo, power_theory, stats_tests
from .core import *
from .dgp import *
from .errors import *
from .montecarlo import *
from .power_theory import *
from .stats_tests import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (core, dgp, errors, montecarlo, power_theory, stats_tests)
                 for name in module.__all__)
