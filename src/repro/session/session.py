"""`LearningSession`: the single front door to the learning stack.

A session owns everything a learning run used to assemble by hand — the
storage backend instances are materialized on and the shared saturation
store — and hands out learners already normalized onto one validated
:class:`~repro.session.config.SessionConfig`::

    from repro import LearningSession, SessionConfig

    with LearningSession(SessionConfig(backend="sqlite-pooled", parallelism=4)) as session:
        learner = session.learner("castor", schema, parameters)
        definition = learner.learn(instance, examples)
        result = session.run(bundle, "original", "progolem", folds=3)

Repeated runs through one session reuse the prepared instances and the
saturation stores — the second run starts warm.

Lifecycle: sessions are context managers and ``close()`` is idempotent.
"""

from __future__ import annotations

import copy
import pickle  # repro: noqa[REP001] -- dumps-only structural fingerprint for store sharing; bytes never cross a process boundary and nothing is ever unpickled
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..database.delta import Delta
from ..database.instance import DatabaseInstance
from ..database.sqlite_backend import SaturationStore
from ..obs import registry as obs_registry, span as obs_span, tracer as obs_tracer
from .config import SessionConfig, warn_once

if TYPE_CHECKING:  # resolved lazily at runtime; annotations only
    from ..learning.examples import ExampleSet


def _learner_kinds() -> Dict[str, type]:
    """Name -> class registry for ``session.learner("castor", ...)``.

    Resolved lazily so importing :mod:`repro.session` does not drag in
    every learner package.
    """
    from ..castor.castor import CastorLearner
    from ..foil.foil import FoilLearner
    from ..golem.golem import GolemLearner
    from ..progol.progol import AlephFoilLearner, ProgolLearner
    from ..progolem.progolem import ProGolemLearner

    return {
        "castor": CastorLearner,
        "foil": FoilLearner,
        "golem": GolemLearner,
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
    prepared instances, shared stores, and presaturation policy.

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
        session = self._session
        prepared = session.prepare(instance)
        # Lazy like the harness path: no SQLite-backed store is ever opened
        # for learners without the knob (FOIL's query coverage).
        store = (
            session.saturation_store_for(prepared, self._learner)
            if hasattr(self._learner, "saturation_store")
            else None
        )
        session.apply(self._learner, saturation_store=store)
        if session.config.presaturate:
            session.presaturate(self._learner, prepared, examples)
        return self._learner.learn(prepared, examples)

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

    def __init__(
        self, config: Optional[SessionConfig] = None, **overrides: object
    ) -> None:
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = config.merged(**overrides)
        self.config = config
        self._lock = threading.RLock()
        # id(source) -> (source, prepared, data token); the source reference
        # pins the id so Python cannot recycle it for a different instance,
        # and the token notices mutations.
        self._instances: Dict[
            int, Tuple[DatabaseInstance, DatabaseInstance, object]
        ] = {}
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

        The cache watches the source's :meth:`~DatabaseInstance.data_token`:
        a mutation between runs re-converts the instance and drops its
        saturation stores (whose clauses describe the old data), so
        session runs always see current contents — same semantics as the
        legacy per-``learn()`` conversion, minus the cost when nothing
        changed.
        """
        self._ensure_open()
        with self._lock:
            key = id(instance)
            token = instance.data_token()
            entry = self._instances.get(key)
            if entry is not None and entry[2] != token:
                self._invalidate_locked(key, entry)
                entry = None
            if entry is None:
                prepared = self._prepare_uncached(instance)
                entry = self._instances[key] = (instance, prepared, token)
                # From here on, direct add/remove on the prepared instance
                # warns once (it forces the wholesale re-conversion above);
                # transaction()/update() mutations are patched in place.
                prepared.mark_managed()
            return entry[1]

    def _invalidate_locked(
        self, key: int, entry: Tuple[DatabaseInstance, DatabaseInstance, object]
    ) -> None:
        """Drop a stale prepared instance: its conversion and its stores
        describe the pre-mutation data."""
        del self._instances[key]
        stale = id(entry[1])
        for store_key in [k for k in self._stores if k[0] == stale]:
            del self._stores[store_key]

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
    ) -> Optional[SaturationStore]:
        """The shared warm store for a prepared instance (or ``None`` when
        ``reuse_saturation_store=False``).

        Stores are keyed per (instance, learner configuration): the store
        dedups saturations by example only, so two learners whose builders
        construct *different* saturations for one example (Castor's IND
        chase vs ProGolem at another depth) must never share one — the
        second learner would answer compiled coverage from the first's
        clauses.  Same-configured learners (cross-validation folds, repeat
        runs of one spec) land on the same warm store.
        """
        if not self.config.reuse_saturation_store:
            return None
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

    def store_supplier(
        self, instance: DatabaseInstance
    ) -> Optional[Callable[..., SaturationStore]]:
        """Lazy-store variant of :meth:`saturation_store_for` (no SQLite
        connection is opened for learners that never ask).  Callers pass
        the learner so stores stay keyed per saturation configuration."""
        if not self.config.reuse_saturation_store:
            return None
        return lambda learner=None: self.saturation_store_for(instance, learner)

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    def update(self, instance: DatabaseInstance, delta: Delta) -> Delta:
        """Apply a :class:`~repro.database.delta.Delta` through the session.

        The streaming-update front door: where a direct mutation between
        runs makes :meth:`prepare` throw away the converted instance and
        every saturation store keyed on it, this patches each of those in
        place —

        * the source *and* the session's converted instance replay the
          delta (one transaction each);
        * shared :class:`SaturationStore`\\ s drop exactly the saturations
          whose footprint the delta touches (untouched examples stay warm;
          dropped ones rebuild lazily on next use);
        * the cached data token advances, so the next :meth:`prepare` is a
          cache hit instead of a wholesale invalidation.

        An instance the session has not prepared yet just replays the delta
        onto the source.  Returns ``delta`` for chaining.
        """
        self._ensure_open()
        if not isinstance(delta, Delta):
            raise TypeError(
                f"update() takes a Delta, got {type(delta).__name__}; "
                "build one with Delta.add/Delta.remove or session.feed()"
            )
        with self._lock:
            entry = self._instances.get(id(instance))
        if entry is None:
            instance.apply_delta(delta)
            return delta
        source, prepared, _token = entry
        source.apply_delta(delta)
        if prepared is not source:
            prepared.apply_delta(delta)
        touched = delta.touched_values()
        with self._lock:
            stale = id(prepared)
            stores = [
                store for key, store in self._stores.items() if key[0] == stale
            ]
            # Advance the token under the lock BEFORE patching stores: a
            # concurrent prepare() must either see the old token (and
            # invalidate wholesale — correct, just cold) or the new one
            # (and reuse state this update is about to finish patching).
            self._instances[id(instance)] = (
                source, prepared, source.data_token()
            )
        for store in stores:
            store.invalidate_touching(touched)
        return delta

    def feed(
        self,
        instance: DatabaseInstance,
        add: Optional[Dict[str, object]] = None,
        remove: Optional[Dict[str, object]] = None,
    ) -> Delta:
        """Streaming shorthand for :meth:`update`.

        ``add``/``remove`` map relation names to iterables of rows::

            session.feed(instance,
                         add={"advisedBy": [("p1", "s9")]},
                         remove={"student": [("s3",)]})

        builds one coalesced :class:`Delta` (removes after adds, matching
        keyword order here: adds first) and routes it through
        :meth:`update`.
        """
        ops = []
        for op_name, mapping in (("add", add), ("remove", remove)):
            for relation, rows in (mapping or {}).items():
                ops.append(
                    (op_name, relation, tuple(tuple(row) for row in rows))
                )
        return self.update(instance, Delta(ops).coalesced())

    # ------------------------------------------------------------------ #
    # Learners
    # ------------------------------------------------------------------ #
    def apply(
        self, learner: Any, saturation_store: Optional[SaturationStore] = None
    ) -> Any:
        """Normalize a learner onto this session's config (see
        :meth:`SessionConfig.apply`); lets a session double as the
        ``context=`` argument of any learner constructor."""
        return self.config.apply(learner, saturation_store=saturation_store)

    def learner(
        self,
        kind: "str | type",
        schema: Any,
        parameters: Any = None,
        **kwargs: Any,
    ) -> SessionLearner:
        """Construct a learner bound to this session.

        ``kind`` is a registry name (``"castor"``, ``"progolem"``,
        ``"golem"``, ``"foil"``, ``"progol"``, ``"aleph-foil"``) or a
        learner class.  The learner is built with the uniform
        ``context=`` path and wrapped so that ``learn()`` runs on the
        session's prepared instances and shared stores.
        """
        self._ensure_open()
        cls = _resolve_kind(kind) if isinstance(kind, str) else kind
        # The session itself is the context.  ``parameters`` goes by
        # keyword: positionally it would land in e.g. AlephFoilLearner's
        # clause_length slot.
        if parameters is None:
            learner = cls(schema, context=self, **kwargs)
        else:
            learner = cls(schema, parameters=parameters, context=self, **kwargs)
        return SessionLearner(self, learner)

    def presaturate(
        self, learner: Any, instance: DatabaseInstance, examples: "ExampleSet"
    ) -> None:
        """Warm the shared saturation store for a whole example set.

        Builds the learner's coverage engine once and materializes every
        example's saturation through the batched entry point — one call —
        so learning starts from a warm store.  Warns once (never errors) for
        learners/engines without the machinery.
        """
        make_engine = getattr(learner, "make_coverage_engine", None)
        if make_engine is None:
            warn_once(
                f"learner {type(learner).__name__} has no coverage-engine "
                "factory; ignoring presaturate=True"
            )
            return
        store = self.saturation_store_for(instance, learner)
        if store is None:
            warn_once(
                "presaturate=True has no effect with "
                "reuse_saturation_store=False; ignoring it"
            )
            return
        self.apply(learner, saturation_store=store)
        engine = make_engine(instance)
        materialize = getattr(engine, "materialize", None)
        if materialize is None or not getattr(engine, "compiled_enabled", False):
            # Without the compiled store the warm-up would only fill this
            # throwaway engine's private cache — skip instead of double-paying.
            warn_once(
                "presaturate=True has no shared store to warm on "
                f"{type(engine).__name__} (backend "
                f"{getattr(instance, 'backend_name', '?')!r}); ignoring it"
            )
            return
        materialize(examples.all_examples())

    # ------------------------------------------------------------------ #
    # Harness entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        bundle: Any,
        variant_name: str,
        learner: Any,
        folds: int = 3,
        seed: int = 0,
        parameters: Any = None,
    ) -> Any:
        """Cross-validate one learner on one schema variant (see
        :func:`repro.experiments.harness.run_variant`)."""
        from ..experiments.harness import run_variant

        spec = self._as_spec(learner, parameters)
        # The root of the trace tree: every learner-phase span of this run
        # hangs off it under one trace id.
        with obs_span(
            "session.run",
            variant=str(variant_name),
            learner=spec.name,
            folds=int(folds),
        ):
            return run_variant(
                bundle, variant_name, spec, folds=folds, seed=seed, session=self
            )

    def sweep(
        self,
        bundle: Any,
        learners: "list[Any] | tuple[Any, ...]",
        variants: Optional[List[str]] = None,
        folds: int = 3,
        seed: int = 0,
    ) -> Any:
        """Every learner on every schema variant (one of the paper's tables)."""
        from ..experiments.harness import run_schema_sweep

        specs = [self._as_spec(learner) for learner in learners]
        with obs_span("session.sweep", learners=len(specs)):
            return run_schema_sweep(
                bundle, specs, variants=variants, folds=folds, seed=seed,
                session=self,
            )

    def check_schema_independence(
        self,
        bundle: Any,
        learner: Any,
        variants: Optional[List[str]] = None,
        seed: int = 0,
    ) -> Any:
        """Direct empirical schema-independence check (Definition 3.10)."""
        from ..experiments.harness import check_schema_independence

        return check_schema_independence(
            bundle, self._as_spec(learner), variants=variants, seed=seed,
            session=self,
        )

    def _as_spec(self, learner: Any, parameters: Any = None) -> Any:
        from ..experiments.harness import LearnerSpec

        if isinstance(learner, LearnerSpec):
            return learner
        if isinstance(learner, SessionLearner):
            learner = learner.wrapped
        if isinstance(learner, str) or isinstance(learner, type):
            cls = _resolve_kind(learner) if isinstance(learner, str) else learner
            name = learner if isinstance(learner, str) else cls.__name__
            if parameters is None:
                return LearnerSpec(name, lambda schema: cls(schema))
            # By keyword: positionally it would land in e.g.
            # AlephFoilLearner's clause_length slot.
            return LearnerSpec(
                name, lambda schema: cls(schema, parameters=parameters)
            )
        # A constructed learner object: reused for every fold (learners
        # rebuild their engines per learn(), so this is re-entrant).  The
        # schema must follow the variant being learned — keeping the
        # construction-time schema would silently run e.g. Castor's IND
        # chase against the wrong relation set on every other variant of a
        # sweep — but the caller's object is never mutated: a different
        # variant gets a shallow per-variant clone (config state only;
        # engines are built per learn()).
        name = getattr(learner, "name", type(learner).__name__)

        def rebind(schema: Any) -> Any:
            if (
                schema is None
                or not hasattr(learner, "schema")
                or schema is learner.schema
            ):
                return learner
            clone = copy.copy(learner)
            clone.schema = schema
            return clone

        return LearnerSpec(name, rebind)

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

    def disable_tracing(self) -> None:
        obs_tracer().disable()

    def trace_records(self) -> List[Dict[str, object]]:
        """Every span recorded so far, as plain dicts."""
        return [record.to_dict() for record in obs_tracer().records()]

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

    def clear_trace(self) -> None:
        """Drop recorded spans (e.g. between runs being dumped separately)."""
        obs_tracer().clear()

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
