"""Unified session API: one validated config, one owner for every resource.

* :class:`SessionConfig` — backend, parallelism and tracing in one
  validated dataclass;
* :class:`LearningSession` — owns backend + saturation-store lifecycle and
  is the one route a config takes into a learner: it hands out learners
  (``session.learner("castor", schema, params)``) and is the ``session=``
  of every harness call (``run_variant(..., session=session)``).

See ``docs/session.md`` for the tour.
"""

from .config import SessionConfig
from .session import LearningSession, SessionLearner

__all__ = [
    "LearningSession",
    "SessionConfig",
    "SessionLearner",
]
