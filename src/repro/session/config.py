"""`SessionConfig`: one validated object replacing the knob soup.

Before this module existed every entry point re-threaded ``backend=``,
``parallelism=``, ``saturation_store=``, ``presaturate=`` independently —
the same four keywords on every learner constructor, every harness
function, and every benchmark, each with its own silent-typo surface.
:class:`SessionConfig` is the single place those settings live:

* construction **validates coherence** (e.g. ``parallelism=4`` on the
  single-connection ``sqlite`` backend is a configuration error with an
  actionable message, not a warning buried in a log);
* :meth:`SessionConfig.apply` is the single normalization path that pushes
  the settings onto a learner, warning once about any setting a learner
  cannot honor;
* the config is immutable; :meth:`merged` derives variations.

Learners accept a config directly via their uniform ``context=`` keyword::

    config = SessionConfig(backend="sqlite-pooled", parallelism=4)
    learner = CastorLearner(schema, context=config)

or, preferably, through a :class:`~repro.session.session.LearningSession`
that also owns the engine/store lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..database.backend import backend_names, warn_once

#: Coverage strategies a config may pin.  ``auto`` keeps every learner's own
#: default (subsumption for the bottom-up family, query coverage for FOIL);
#: the ``subsumption-*`` values force the compiled (SQL saturation-store) or
#: pure-Python decision procedure on learners that expose the knob.
COVERAGE_STRATEGIES = (
    "auto",
    "subsumption",
    "subsumption-compiled",
    "subsumption-python",
    "query",
)

_COMPILED_BY_STRATEGY = {
    "subsumption-compiled": True,
    "subsumption-python": False,
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
        Clause-scoring fan-out on learners that expose the knob.  Results
        are identical for every value; only wall-clock time changes.
    coverage:
        One of :data:`COVERAGE_STRATEGIES`; ``auto`` (default) keeps each
        learner's own engine choice.
    reuse_saturation_store:
        Share one warm :class:`~repro.database.sqlite_backend.SaturationStore`
        across the folds/runs a session drives over one instance.
    presaturate:
        Materialize every example's saturation into the shared store before
        learning starts (one batched call).
    trace:
        Enable span tracing for this session (see :mod:`repro.obs`).  Every
        ``session.run`` then records a span tree covering the learner
        phases under one trace id.  Dump with
        :meth:`LearningSession.trace_dump`.  Off by default: the disabled
        path costs one attribute check per would-be span.
    """

    backend: Optional[str] = None
    parallelism: Optional[int] = None
    coverage: str = "auto"
    reuse_saturation_store: bool = True
    presaturate: bool = False
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
        if self.coverage not in COVERAGE_STRATEGIES:
            raise ValueError(
                f"unknown coverage strategy {self.coverage!r}; "
                f"available: {list(COVERAGE_STRATEGIES)}"
            )
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if (
            self.parallelism is not None
            and self.parallelism > 1
            and self.backend == "sqlite"
        ):
            raise ValueError(
                f"parallelism={self.parallelism} cannot fan out on the "
                "single-connection 'sqlite' backend (every statement "
                "serializes on one connection); use 'sqlite-pooled' "
                "(snapshot read pool) or 'memory'"
            )
        if self.presaturate and not self.reuse_saturation_store:
            raise ValueError(
                "presaturate=True warms the shared saturation store, which "
                "reuse_saturation_store=False disables; enable the shared "
                "store or drop presaturate"
            )
        if self.presaturate and self.coverage == "query":
            raise ValueError(
                "coverage='query' has no saturations to warm; drop "
                "presaturate=True or use a subsumption strategy"
            )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def merged(self, **overrides: object) -> "SessionConfig":
        """A copy with the non-``None`` overrides applied (re-validated)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        if not changes:
            return self
        return replace(self, **changes)

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
        every value).

        ``saturation_store`` is handed to learners with the knob (learners
        without saturations — FOIL's query coverage — skip it silently, as
        there is nothing a store could change).
        """
        if self.parallelism is not None:
            if hasattr(learner, "parallelism"):
                learner.parallelism = self.parallelism
            else:
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
        if self.coverage != "auto":
            compiled = _COMPILED_BY_STRATEGY.get(self.coverage)
            native_subsumption = hasattr(learner, "compiled_coverage")
            if compiled is not None:
                if native_subsumption:
                    learner.compiled_coverage = compiled
                else:
                    warn_once(
                        f"learner {type(learner).__name__} has no "
                        "compiled-subsumption knob; ignoring coverage="
                        f"{self.coverage!r}"
                    )
            else:
                # 'subsumption'/'query' name an engine family; each
                # learner's family is fixed, so the value is honored
                # when it matches and warned about when it cannot be.
                native = "subsumption" if native_subsumption else "query"
                if self.coverage != native:
                    warn_once(
                        f"learner {type(learner).__name__} always uses "
                        f"{native} coverage; ignoring coverage="
                        f"{self.coverage!r}"
                    )
        if saturation_store is not None and hasattr(learner, "saturation_store"):
            learner.saturation_store = saturation_store
        return learner
