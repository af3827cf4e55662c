"""`LearningSession`: the single front door to the learning stack.

A session owns everything a learning run used to assemble by hand — the
instances it converted onto the configured backend and the shared
saturation stores — and is the only thing that puts an instance on a
backend or gives a learner its evaluation settings::

    from repro import LearningSession, SessionConfig
    from repro.experiments.harness import run_variant

    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("castor", schema, parameters)
        definition = learner.learn(instance, examples)
        result = run_variant(bundle, "original", spec, folds=3, session=session)

``learner.learn`` and every harness call given ``session=`` prepare the
instance (:meth:`LearningSession.prepare`) and hand the learner its
settings (:meth:`LearningSession.bind`).  Repeated runs through one
session reuse the prepared instances and the saturation stores — the
second run starts warm.

Lifecycle: sessions are context managers and ``close()`` is idempotent.
"""

from __future__ import annotations

import pickle  # repro: noqa[REP001] -- dumps-only structural fingerprint for store sharing; bytes never cross a process boundary and nothing is ever unpickled
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..database.backend import warn_once
from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..database.sqlite_backend import SaturationStore
from ..obs import registry as obs_registry, tracer as obs_tracer
from .config import SessionConfig

if TYPE_CHECKING:  # resolved lazily at runtime; annotations only
    from ..learning.examples import ExampleSet

#: ``(source, prepared, (source token, prepared token))``.
_Entry = Tuple[DatabaseInstance, DatabaseInstance, Tuple[object, object]]


def _tokens(
    source: DatabaseInstance, prepared: DatabaseInstance
) -> Tuple[object, object]:
    return (source.data_token(), prepared.data_token())


def _learner_kinds() -> Dict[str, type]:
    """Name -> class registry for ``session.learner("castor", ...)``.

    Resolved lazily so importing :mod:`repro.session` does not drag in
    every learner package.
    """
    from ..castor.castor import CastorLearner
    from ..foil.foil import FoilLearner
    from ..progol.progol import AlephFoilLearner, ProgolLearner
    from ..progolem.progolem import ProGolemLearner

    return {
        "castor": CastorLearner,
        "foil": FoilLearner,
        "progolem": ProGolemLearner,
        "progol": ProgolLearner,
        "aleph-foil": AlephFoilLearner,
    }


def _resolve_kind(kind: str) -> type:
    kinds = _learner_kinds()
    try:
        return kinds[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown learner kind {kind!r}; available: {sorted(kinds)}"
        ) from exc


class SessionLearner:
    """A learner bound to its session: ``learn()`` rides the session's
    prepared instances and shared stores.

    Everything else (parameters, name, knobs) delegates to the wrapped
    learner, so the wrapper stays invisible to code that inspects it.
    """

    def __init__(self, session: "LearningSession", learner: Any) -> None:
        self._session = session
        self._learner = learner

    @property
    def wrapped(self) -> Any:
        """The underlying learner object."""
        return self._learner

    def learn(self, instance: DatabaseInstance, examples: "ExampleSet") -> Any:
        prepared = self._session.prepare(instance)
        return self._session.bind(self._learner, prepared).learn(
            prepared, examples
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._learner, name)

    def __setattr__(self, name: str, value: Any) -> None:
        # Writes configure the wrapped learner (a wrapper-local attribute
        # would shadow reads while learn() ignored the setting).
        if name in ("_session", "_learner"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._learner, name, value)

    def __repr__(self) -> str:
        return f"SessionLearner({self._learner!r})"


class LearningSession:
    """Owner of backend + saturation-store lifecycle."""

    def __init__(self, config: Optional[SessionConfig] = None) -> None:
        if config is None:
            config = SessionConfig()
        self.config = config
        self._lock = threading.RLock()
        # id(source) -> entry; the source reference pins the id so Python
        # cannot recycle it for a different instance, and the two data
        # tokens notice writes to either copy that bypass update().
        self._instances: Dict[int, _Entry] = {}
        # id(source bundle) -> (source, converted) — same pinning trick, so
        # repeated sweeps over one bundle reuse one converted bundle (and
        # therefore one set of materialized instances and warm stores).
        self._bundles: Dict[int, Tuple[Any, Any]] = {}
        self._stores: Dict[object, SaturationStore] = {}
        self._closed = False
        if config.trace:
            self.enable_tracing()

    # ------------------------------------------------------------------ #
    # Instances and stores
    # ------------------------------------------------------------------ #
    def prepare(self, instance: DatabaseInstance) -> DatabaseInstance:
        """The instance on this session's backend (cached per source).

        The instance is converted onto ``config.backend`` once — repeated
        runs over the same source instance reuse the converted one.

        The cache watches the :meth:`~DatabaseInstance.data_token` of the
        source and of the converted copy: a write to either that bypassed
        :meth:`update` re-converts the instance and drops its saturation
        stores (whose clauses describe the old data), so session runs
        always see the source's current contents.
        """
        self._ensure_open()
        with self._lock:
            key = id(instance)
            entry = self._fresh_entry_locked(key)
            if entry is None:
                prepared = self._prepare_uncached(instance)
                entry = (instance, prepared, _tokens(instance, prepared))
                self._instances[key] = entry
            return entry[1]

    def _fresh_entry_locked(self, key: int) -> Optional[_Entry]:
        """The cached entry for ``key``, or ``None`` once either copy's data
        token moved since :meth:`prepare` or :meth:`update` recorded it.
        A stale entry is dropped with its stores: they describe data that
        no longer matches the source."""
        entry = self._instances.get(key)
        if entry is None or entry[2] == _tokens(entry[0], entry[1]):
            return entry
        del self._instances[key]
        stale = id(entry[1])
        for store_key in [k for k in self._stores if k[0] == stale]:
            del self._stores[store_key]
        return None

    def _prepare_uncached(self, instance: DatabaseInstance) -> DatabaseInstance:
        """Convert onto the session backend (no-op when it already matches)."""
        if (
            self.config.backend is not None
            and self.config.backend != instance.backend_name
        ):
            return instance.with_backend(self.config.backend)
        return instance

    def prepare_bundle(self, bundle: Any) -> Any:
        """The bundle converted onto this session's backend (cached).

        ``DatasetBundle.with_backend`` returns a *fresh* bundle with an
        empty per-variant instance cache, so converting on every harness
        call would make repeat sweeps fully cold (and grow the session's
        id-keyed caches without bound).  Caching the conversion per source
        bundle keeps the variant instances — and everything keyed on their
        identity: prepared instances, saturation stores — stable across
        calls.
        """
        self._ensure_open()
        backend = self.config.backend
        if backend is None:
            return bundle
        with self._lock:
            key = id(bundle)
            entry = self._bundles.get(key)
            if entry is None:
                entry = self._bundles[key] = (bundle, bundle.with_backend(backend))
            return entry[1]

    def saturation_store_for(
        self, instance: DatabaseInstance, learner: Any = None
    ) -> SaturationStore:
        """The shared warm store for a prepared instance.

        Stores are keyed per (instance, learner configuration): the store
        dedups saturations by example only, so two learners whose builders
        construct *different* saturations for one example (Castor's IND
        chase vs ProGolem at another depth) must never share one — the
        second learner would answer compiled coverage from the first's
        clauses.  Same-configured learners (cross-validation folds, repeat
        runs of one spec) land on the same warm store.
        """
        key = (id(instance), self._learner_fingerprint(learner))
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = SaturationStore()
            return store

    @staticmethod
    def _learner_fingerprint(learner: Any) -> object:
        """Everything saturation-relevant about a learner, hashable.

        Over-keying is safe (it only loses sharing); under-keying answers
        coverage from a foreign builder's saturations.  The parameters
        object carries the bottom-clause config plus Castor's IND options;
        unpicklable parameters fall back to no sharing at all.
        """
        if learner is None:
            return None
        try:
            return pickle.dumps(
                (type(learner).__qualname__, getattr(learner, "parameters", None)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:  # noqa: BLE001 - exotic parameters: isolate, don't fail
            return id(learner)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def update(self, instance: DatabaseInstance, delta: Delta) -> Delta:
        """Apply a :class:`~repro.database.delta.Delta` through the session.

        The one route for a change: where a write that bypasses it makes
        :meth:`prepare` throw away the converted instance and every
        saturation store keyed on it, this patches each of those in
        place —

        * the source *and* the session's converted instance replay the
          delta;
        * shared :class:`SaturationStore`\\ s drop exactly the saturations
          whose footprint the delta touches (untouched examples stay warm;
          dropped ones rebuild lazily on next use);
        * the cached data tokens advance, so the next :meth:`prepare` is a
          cache hit instead of a wholesale invalidation.

        An instance the session has not prepared yet, or whose copies took
        a write that bypassed this method, just replays the delta onto the
        source (the stale conversion and its stores are dropped first).
        Returns ``delta`` for chaining.
        """
        self._ensure_open()
        if not isinstance(delta, Delta):
            raise TypeError(
                f"update() takes a Delta, got {type(delta).__name__}; "
                "build one with Delta.add/Delta.remove"
            )
        with self._lock:
            key = id(instance)
            entry = self._fresh_entry_locked(key)
            instance.apply_delta(delta)
            if entry is None:
                return delta
            prepared = entry[1]
            if prepared is not instance:
                prepared.apply_delta(delta)
            self._instances[key] = (instance, prepared, _tokens(instance, prepared))
            touched = delta.touched_values()
            for (instance_id, _), store in self._stores.items():
                if instance_id == id(prepared):
                    store.invalidate_touching(touched)
        return delta

    # ------------------------------------------------------------------ #
    # Learners
    # ------------------------------------------------------------------ #
    def bind(self, learner: Any, instance: DatabaseInstance) -> Any:
        """Give ``learner`` this session's evaluation settings for a run on
        the prepared ``instance``, and return it.

        A subsumption learner gets the shared warm store, keyed by its
        saturation config so folds and repeat runs of one spec share it;
        FOIL, whose query coverage has no store, gets ``parallelism``.  A
        ``parallelism`` above 1 that a learner has no knob for warns once:
        it only moves work, so it is never an error.
        """
        if hasattr(learner, "saturation_store"):
            learner.saturation_store = self.saturation_store_for(instance, learner)
        parallelism = self.config.parallelism
        if parallelism is not None:
            if hasattr(learner, "parallelism"):
                learner.parallelism = parallelism
            elif parallelism > 1:
                warn_once(
                    f"learner {type(learner).__name__} has no 'parallelism' "
                    f"knob; ignoring parallelism={parallelism}"
                )
        return learner

    def learner(
        self, kind: str, schema: Any, parameters: Any = None, **kwargs: Any
    ) -> SessionLearner:
        """Construct a learner bound to this session.

        ``kind`` is a registry name (``"castor"``, ``"progolem"``,
        ``"foil"``, ``"progol"``, ``"aleph-foil"``).  The learner is
        wrapped so that ``learn()`` runs on the session's prepared
        instances and shared stores.
        """
        self._ensure_open()
        cls = _resolve_kind(kind)
        if parameters is not None:
            # By keyword: positionally it would land in e.g.
            # AlephFoilLearner's clause_length slot.
            kwargs["parameters"] = parameters
        return SessionLearner(self, cls(schema, **kwargs))

    # ------------------------------------------------------------------ #
    # Observability (see docs/observability.md)
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, object]:
        """This process's metrics registry snapshot under ``local``
        (``name{labels} -> value`` for counters/gauges, summary dicts for
        histograms)."""
        self._ensure_open()
        return {"local": obs_registry().snapshot()}

    def enable_tracing(self, process: str = "main") -> None:
        """Start recording spans (idempotent; ``config.trace=True`` calls
        this at construction).  ``process`` labels this process's spans in
        dumps."""
        obs_tracer().enable(process=process)

    def trace_dump(self, path: str, chrome: bool = False) -> str:
        """Write the recorded trace to ``path`` and return the path.

        Default format is the ``repro-trace`` JSON consumed by
        ``python -m repro.obs.report``; ``chrome=True`` writes Chrome
        ``trace_event`` JSON instead (load in chrome://tracing or
        Perfetto).
        """
        tracer = obs_tracer()
        if chrome:
            return tracer.dump_chrome(path)
        return tracer.dump_json(path)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this LearningSession is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every owned resource; idempotent.

        Releases the instances of bundles this session converted.  Bundles
        and instances that were passed in are never touched.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            converted = [
                target for source, target in self._bundles.values()
                if target is not source
            ]
            self._instances.clear()
            self._bundles.clear()
            self._stores.clear()
        for bundle in converted:
            bundle.close()

    def __enter__(self) -> "LearningSession":
        self._ensure_open()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"LearningSession(backend={self.config.backend!r}, "
            f"{len(self._instances)} instances, {state})"
        )
