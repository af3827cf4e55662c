"""Unified session API: one validated config, one owner for every resource.

* :class:`SessionConfig` — backend, parallelism and tracing in one
  validated dataclass: the only way evaluation settings reach a learner
  (``context=``) or a harness call (``session=``);
* :class:`LearningSession` — owns backend + saturation-store lifecycle,
  hands out learners (``session.learner("castor", schema, params)``) and
  drives the experiment harness (``session.run(...)``).

See ``docs/session.md`` for the tour.
"""

from .config import SessionConfig
from .session import LearningSession, SessionLearner

__all__ = [
    "LearningSession",
    "SessionConfig",
    "SessionLearner",
]
