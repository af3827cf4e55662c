"""Shared evaluation-knob plumbing for the learner family.

A learner's evaluation settings — ``backend``, FOIL's ``parallelism`` and,
for the subsumption learners, ``saturation_store`` — are attributes that only
:meth:`SessionConfig.apply <repro.session.config.SessionConfig.apply>` and
the session write; constructors take them through the uniform ``context=``
keyword and nothing else.  :class:`EvaluationKnobs` is that plumbing plus
the shared ``learn()`` preamble (convert the instance), in exactly one place.
"""

from __future__ import annotations

from typing import Optional

from ..database.instance import DatabaseInstance


class EvaluationKnobs:
    """Mixin: uniform evaluation knobs + ``context=`` + learn() preamble.

    Learners whose engines have no saturations (FOIL's query coverage) use
    only :meth:`_apply_context` and :meth:`_prepare_instance`, declaring
    ``backend`` themselves — a phantom store attribute would make
    ``SessionConfig.apply`` silently hand them a store they cannot use.
    """

    def _init_evaluation_knobs(self) -> None:
        # Storage/evaluation backend the learner wants the instance on
        # (None = use the instance as given); it only moves work, never
        # changes results.
        self.backend: Optional[str] = None
        # Optional shared SaturationStore for the compiled coverage path
        # (sessions hand one out so repeated runs start warm).
        self.saturation_store = None

    def _apply_context(self, context) -> None:
        """Uniform construction path: ``context`` is a SessionConfig or a
        LearningSession; its ``apply`` pushes every knob it carries.  Call
        last in ``__init__``, once the defaults are in place."""
        if context is not None:
            context.apply(self)

    def _prepare_instance(self, instance: DatabaseInstance) -> DatabaseInstance:
        """The shared ``learn()`` preamble: backend conversion."""
        if self.backend is not None and self.backend != instance.backend_name:
            instance = instance.with_backend(self.backend)
        return instance

