"""`SessionConfig`: the one way evaluation settings reach a learner.

Two evaluation settings never change what is learned: where coverage tests
run (the backend) and how many snapshot connections FOIL's batched scoring
fans out over on ``sqlite-pooled`` (parallelism).  :class:`SessionConfig`
carries both, plus the per-run tracing switch, and is the only route they
take into the learning stack:

* construction **validates coherence** (e.g. ``parallelism=4`` on
  ``memory`` or the single-connection ``sqlite`` backend is a configuration
  error with an actionable message, not a warning buried in a log);
* :meth:`SessionConfig.apply` is the single normalization path that pushes
  the settings onto a learner, warning once about any setting a learner
  cannot honor.

Learners take a config (or a session) through their ``context=`` keyword::

    config = SessionConfig(backend="sqlite-pooled", parallelism=4)
    learner = FoilLearner(schema, context=config)

or, preferably, come from a :class:`~repro.session.session.LearningSession`,
which also owns the prepared instances and shared saturation stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..database.backend import backend_names, warn_once

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
        ``session.run`` then records a span tree covering the learner
        phases under one trace id.  Dump with
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

    # ------------------------------------------------------------------ #
    # Normalization
    # ------------------------------------------------------------------ #
    def apply(self, learner: Any, saturation_store: Any = None) -> Any:
        """Push this config onto a learner.

        The single normalization path shared by sessions and the
        experiment harness.  Settings land on learners that expose the
        matching attribute; an explicit setting a learner cannot honor
        warns once per distinct situation — never silently ignored, never
        an error (these knobs only move work; results are identical for
        every value).  ``parallelism=1`` asks for no fan-out, so a learner
        without the knob honors it as is.

        ``saturation_store`` is handed to learners with the knob (learners
        without saturations — FOIL's query coverage — skip it silently, as
        there is nothing a store could change).
        """
        if self.parallelism is not None:
            if hasattr(learner, "parallelism"):
                learner.parallelism = self.parallelism
            elif self.parallelism > 1:
                warn_once(
                    f"learner {type(learner).__name__} has no "
                    "'parallelism' knob; ignoring "
                    f"parallelism={self.parallelism}"
                )
        if self.backend is not None:
            # Pushed on the session path too: a learner built with
            # context=<session> but driven outside session.learner must
            # still honor the configured backend (its learn() then converts
            # per call; prepared instances already match, so the push is a
            # no-op there).
            if hasattr(learner, "backend"):
                learner.backend = self.backend
            else:
                warn_once(
                    f"learner {type(learner).__name__} has no 'backend' "
                    f"knob; ignoring backend={self.backend!r}"
                )
        if saturation_store is not None and hasattr(learner, "saturation_store"):
            learner.saturation_store = saturation_store
        return learner
