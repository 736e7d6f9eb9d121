"""Persistence of replicated data in churned peer-to-peer systems.

Analytic miss probabilities for core/probe intersection, solvers that
invert them (core sizing, probe deadlines, churn budgets), and a Monte
Carlo simulator that checks the closed forms independently.
"""

from . import persistence, simulator, solvers
from .persistence import *  # noqa: F403
from .simulator import *  # noqa: F403
from .solvers import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*persistence.__all__, *solvers.__all__, *simulator.__all__, "__version__"]
