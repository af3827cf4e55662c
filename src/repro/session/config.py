"""`SessionConfig`: the evaluation settings of a learning session.

Two evaluation settings never change what is learned: where coverage tests
run (the backend) and how many snapshot connections FOIL's batched scoring
fans out over on ``sqlite-pooled`` (parallelism).  :class:`SessionConfig`
carries both, plus the per-run tracing switch.  Construction **validates
coherence**: ``parallelism=4`` on ``memory`` or the single-connection
``sqlite`` backend is a configuration error with an actionable message,
not a warning buried in a log.

A config reaches the learning stack only through a
:class:`~repro.session.session.LearningSession`: it converts instances
onto ``backend`` and its :meth:`~repro.session.session.LearningSession.bind`
gives a learner the rest, for ``session.learner(...).learn`` and for every
harness call made with ``session=``::

    config = SessionConfig(backend="sqlite-pooled", parallelism=4)
    with LearningSession(config) as session:
        learner = session.learner("foil", schema)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..database.backend import backend_names

#: Why a backend cannot fan one batch out over more than one connection.
_NO_FAN_OUT = {
    "memory": "evaluation runs on the caller's thread",
    "sqlite": "every statement serializes on its one connection",
}


@dataclass(frozen=True)
class SessionConfig:
    """Validated evaluation configuration for a learning session.

    Parameters
    ----------
    backend:
        Storage/evaluation backend instances are materialized on
        (``memory``/``sqlite``/``sqlite-pooled``); ``None`` leaves instances
        as given.
    parallelism:
        How many snapshot connections FOIL's batched query coverage fans
        its candidate clauses out over on ``sqlite-pooled``, the one
        backend that accepts more than 1.  The subsumption learners run
        coverage on the caller's thread and have no such knob.  Results
        are identical for every value; only wall-clock time changes.
    trace:
        Enable span tracing for this session (see :mod:`repro.obs`).  Every
        harness call made with the session then records a span tree
        covering the learner phases under one trace id.  Dump with
        :meth:`LearningSession.trace_dump`.  Off by default: the disabled
        path costs one attribute check per would-be span.
    """

    backend: Optional[str] = None
    parallelism: Optional[int] = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.parallelism is not None:
            object.__setattr__(self, "parallelism", int(self.parallelism))
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject incoherent combinations with actionable messages."""
        if self.backend is not None and self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"available: {list(backend_names())}"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if (
            self.parallelism is not None
            and self.parallelism > 1
            and self.backend in _NO_FAN_OUT
        ):
            raise ValueError(
                f"parallelism={self.parallelism} cannot fan out on the "
                f"{self.backend!r} backend ({_NO_FAN_OUT[self.backend]}); "
                "use 'sqlite-pooled' (snapshot read pool)"
            )
