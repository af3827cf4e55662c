"""Shared evaluation-knob plumbing for the learner family.

Every learner carries the same three evaluation settings — ``backend``,
``saturation_store``, ``compiled_coverage`` — plus the uniform ``context=``
construction hook and the same ``learn()`` preamble (convert the
instance).  :class:`EvaluationKnobs` is that plumbing in exactly one place,
so a change to backend normalization lands everywhere at once instead of in
per-learner copies.
"""

from __future__ import annotations

from typing import Optional

from ..database.instance import DatabaseInstance


class EvaluationKnobs:
    """Mixin: uniform evaluation knobs + ``context=`` + learn() preamble.

    Learners whose engines have no saturations (FOIL's query coverage) use
    only :meth:`_apply_context` and :meth:`_prepare_instance`, declaring
    ``backend`` themselves — phantom store/compiled attributes would make
    ``SessionConfig.apply`` silently accept settings they cannot honor.
    """

    def _init_evaluation_knobs(
        self,
        backend: Optional[str] = None,
        saturation_store=None,
    ) -> None:
        # Storage/evaluation backend the learner wants the instance on
        # (None = use the instance as given); it only moves work, never
        # changes results.
        self.backend = backend
        # Optional shared SaturationStore for the compiled coverage path
        # (sessions hand one out so repeated runs start warm).
        self.saturation_store = saturation_store
        # Compiled-subsumption override: True/False force the SQL/Python
        # decision procedure, None keeps the engine's backend-based default.
        self.compiled_coverage: Optional[bool] = None

    def _apply_context(self, context) -> None:
        """Uniform construction path: ``context`` is a SessionConfig or a
        LearningSession; its ``apply`` pushes every knob it carries.  Call
        last in ``__init__`` so the context overrides the plain kwargs."""
        if context is not None:
            context.apply(self)

    def _prepare_instance(self, instance: DatabaseInstance) -> DatabaseInstance:
        """The shared ``learn()`` preamble: backend conversion."""
        if self.backend is not None and self.backend != instance.backend_name:
            instance = instance.with_backend(self.backend)
        return instance


class ThreadsAsParallelism:
    """Mixin for learners whose only fan-out is the engine thread pool."""

    @property
    def parallelism(self) -> int:
        return self.threads

    @parallelism.setter
    def parallelism(self, value: int) -> None:
        self.threads = max(1, int(value))
