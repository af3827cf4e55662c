"""Unified session API: one validated config, one owner for every resource.

* :class:`SessionConfig` — backend, parallelism, coverage strategy, and
  saturation policy in one validated dataclass (replaces the ``backend=``
  / ``parallelism=`` / ``saturation_store=`` / ``presaturate=`` knob soup);
* :class:`LearningSession` — owns backend + saturation-store lifecycle,
  hands out learners (``session.learner("castor", schema, params)``) and
  drives the experiment harness (``session.run(...)``).

See ``docs/session.md`` for the tour and the old-kwarg migration table.
"""

from .config import COVERAGE_STRATEGIES, SessionConfig
from .session import LearningSession, SessionLearner

__all__ = [
    "COVERAGE_STRATEGIES",
    "LearningSession",
    "SessionConfig",
    "SessionLearner",
]
