"""The benchmark's workloads: inputs made from the seed, work, and gates.

Every workload runs in one process with ``parallelism=1`` and no shards.
:meth:`Workload.dataset` does the work on one dataset of the workload's
fixed corpus, with an update stream drawn from the workload seed;
``run.py`` orders the corpus by the workload seed and reports medians over
its datasets.  Each dataset starts cold: it is generated, its schema
variants are materialized and prepared in fresh :class:`LearningSession`
objects (the set-up), then the measured work runs.  The program only ever
sees the generated datasets, example splits and delta streams.

The learning problems are fixed because their cost is not steady: over 40
datasets drawn at random, Castor's learning time ranged 0.6–3.5 s (the
example split alone moves it fivefold), so a median over the twenty
datasets a run has time for moved by 20% from seed to seed.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import contextmanager
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional

from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.castor.castor import CastorCoverageEngine, CastorParameters
from repro.database import Delta
from repro.datasets import uwcse
from repro.foil.foil import FoilParameters
from repro.learning import evaluation
from repro.learning.coverage import BatchCoverageEngine, QueryCoverageEngine
from repro.session import LearningSession, SessionConfig
from repro.transform import equivalence

#: UW-CSE at the scale where Castor learns the planted rule on every seed
#: tried: 150 students, professors and courses scaled with them (the
#: generator's default 40/12/18 ratio).  At 300 students with the default
#: 12 professors Castor learned clauses tied to the advisor's courses and
#: terms instead.  Every advised student co-authors with the advisor, so
#: one clause defines the target exactly; at the default 0.9 the covering
#: loop fits the uncovered tenth with long clauses whose reduction differs
#: between variants (see README.md).
UWCSE_CONFIG = {
    "num_students": 150,
    "num_professors": 45,
    "num_courses": 68,
    "coauthor_probability": 1.0,
}
#: The Table 10 variants the workloads learn on; update rounds run on the
#: first.  ``original`` is left out: on two of about 130 datasets tried,
#: Castor's ARMG on it kept the advisor's courses and terms (the literals
#: of the original schema's inclusion-dependency classes), and then either
#: learned the empty definition or added a 30-literal clause whose
#: held-out evaluation ran for minutes.  The other variants learned the
#: planted clause on every dataset tried.
VARIANTS = ("4nf", "denormalized1", "denormalized2")
#: Held-out share of the examples (the harness's 70/30 split).
TEST_FRACTION = 0.3
#: Relation the update streams churn.  It is the same relation in all four
#: UW-CSE variants, so one delta applies to every variant unchanged.
STREAM_RELATION = "publication"
#: Share of the tuples one update round changes.
CHURN = 0.01
#: Seed of the corpus: the dataset seeds every run of a workload covers.
CORPUS_SEED = 2017
#: Update rounds over a workload's corpus: 12 of them lie beyond p90.
CORPUS_ROUNDS = 120


def castor_parameters() -> CastorParameters:
    """The paper's Castor settings (minprec 0.67, minpos 2, beam 2,
    depth 3, 15 variables) with two changes, each needed for the
    workload to be non-vacuous and schema independent on every seed:

    * the per-tuple caps are raised from 5 and 10 to 50.  At the lower
      caps the saturations of composed and decomposed relations are cut at
      different places, and the definitions disagree across variants on 4
      of 7 seeds tried;
    * ARMG samples 10 positives for up to 10 rounds instead of 3 for 5.
      With 3 samples the search can stop while the clause still carries
      the seed advisor's courses and terms; the covering loop then adds a
      30-literal clause whose held-out evaluation takes minutes.

    The background saturation prefetch is off: on ``memory`` it only
    competes for the GIL, and it made repeat learning times on one dataset
    vary by 30% instead of 10%.
    """
    return CastorParameters(
        sample_size=10,
        beam_width=2,
        max_armg_rounds=10,
        prefetch=False,
        bottom_clause=CastorBottomClauseConfig(
            max_depth=3,
            max_distinct_variables=15,
            max_literals_per_relation_per_tuple=50,
            max_joining_tuples_per_ind=50,
        ),
    )


def foil_parameters() -> FoilParameters:
    """FOIL as in the Table 10 driver (clause length 5)."""
    return FoilParameters(max_clause_length=5)


class Operations:
    """Counts attempted and failed operations; failures are printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def run(self, name: str, function: Callable[[], object]) -> object:
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return function()
        except Exception:  # noqa: BLE001 - counted and reported, never hidden
            self.failed += 1
            self.messages.append(f"{name} raised:\n{traceback.format_exc()}")
            return None


class DatasetRun:
    """What the work on one dataset measured."""

    def __init__(self, data_seed: int) -> None:
        self.data_seed = data_seed
        self.setup_s = 0.0
        self.wall_s = 0.0
        #: Wall time of each learner ``learn()`` call, in variant order.
        self.learn_calls: List[float] = []
        #: Wall time of each held-out evaluation, in order.
        self.eval_calls: List[float] = []
        self.f1: List[float] = []
        self.refresh_s: List[float] = []
        self.definitions: Dict[str, str] = {}
        self.pairs = 0
        self.pairs_agreeing = 0
        self.clauses = 0
        self.empty_definitions = 0

    @property
    def learn_s(self) -> float:
        return sum(self.learn_calls)

    @property
    def eval_s(self) -> float:
        return sum(self.eval_calls)

    def parts(self) -> List[float]:
        """The measured work split into parts that add up to ``wall_s``:
        each learning call, held-out evaluation and update round, then the
        rest.  Passes over one dataset split alike."""
        timed = self.learn_calls + self.eval_calls + self.refresh_s
        return timed + [self.wall_s - sum(timed)]


class Clock:
    """Accumulated time of one phase, paused around gate checks.

    With a tracer, the tracer attributes layer self time exactly while the
    measured-phase clock runs.
    """

    def __init__(self, tracer=None) -> None:
        self.total = 0.0
        self._tracer = tracer
        self._start: Optional[float] = None

    def start(self) -> None:
        if self._start is not None:
            return
        if self._tracer is not None:
            self._tracer.measuring = True
        self._start = time.perf_counter()

    def stop(self) -> None:
        if self._start is not None:
            self.total += time.perf_counter() - self._start
            self._start = None
        if self._tracer is not None:
            self._tracer.measuring = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        running = self._start is not None
        self.stop()
        try:
            yield
        finally:
            if running:
                self.start()


def dataset_seeds(seed: int) -> Iterator[int]:
    """Independent dataset seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def corpus(size: int) -> List[int]:
    """The first ``size`` dataset seeds of the fixed corpus."""
    seeds = dataset_seeds(CORPUS_SEED)
    return [next(seeds) for _ in range(size)]


def make_stream(instance, rounds: int, churn: float, seed: int) -> List[Delta]:
    """``rounds`` deltas, each changing about ``churn`` of the tuples.

    Inserts give a fresh title to a random junior student; removals take
    back titles minted in earlier rounds, so the deltas compose like a real
    stream of new and withdrawn papers.  Junior students are those with no
    paper and no TA post in the generated data: a delta naming them
    invalidates only the saturations of their own examples.  Streaming over
    every student instead invalidates a third to a half of all saturations
    in each round, and the round latency then varies twofold between
    datasets.
    """
    rng = random.Random(seed)
    busy = {row[1] for row in instance.relation("ta").rows}
    busy.update(row[1] for row in instance.relation(STREAM_RELATION).rows)
    students = sorted(
        str(row[0]) for row in instance.relation("student").rows
        if row[0] not in busy
    )
    budget = max(2, int(instance.total_tuples() * churn))
    minted: List[tuple] = []
    deltas: List[Delta] = []
    for round_index in range(rounds):
        ops = []
        removals = min(budget // 2, len(minted))
        for _ in range(removals):
            row = minted.pop(rng.randrange(len(minted)))
            ops.append(("remove", STREAM_RELATION, (row,)))
        for i in range(budget - removals):
            row = (f"stream{seed}_{round_index}_{i}", rng.choice(students))
            ops.append(("add", STREAM_RELATION, (row,)))
            minted.append(row)
        deltas.append(Delta(ops).coalesced())
    return deltas


class Workload:
    """A named workload: learner, backend and the work on one dataset."""

    def __init__(
        self,
        name: str,
        learner: str,
        backend: str,
        serve_backend: str,
        corpus_size: int,
    ) -> None:
        self.name = name
        self.learner = learner
        self.backend = backend
        self.serve_backend = serve_backend
        self.corpus = corpus(corpus_size)
        self.rounds = CORPUS_ROUNDS // corpus_size

    def parameters(self):
        if self.learner == "castor":
            return castor_parameters()
        return foil_parameters()

    def describe(self, seed: int) -> Dict[str, object]:
        return {
            "workload": self.name,
            "learner": self.learner,
            "backend": self.backend,
            "update_backend": self.serve_backend,
            "seed": seed,
            "dataset": "uwcse",
            "dataset_config": dict(UWCSE_CONFIG),
            "corpus_seed": CORPUS_SEED,
            "corpus": list(self.corpus),
            "variants": list(VARIANTS),
            "update_rounds_per_dataset": self.rounds,
            "churn": CHURN,
            "parallelism": 1,
            "shards": None,
        }

    # ------------------------------------------------------------------ #
    def dataset(self, ops: Operations, data_seed: int, stream_seed: int,
                tracer=None, learn_only: bool = False) -> DatasetRun:
        """Set up one dataset and do the workload's work on it, with an
        update stream made from ``stream_seed``.

        ``learn_only`` stops after learning (the warm-up).
        """
        run = DatasetRun(data_seed)
        setup, wall = Clock(), Clock(tracer)
        setup.start()
        bundle = uwcse.load(uwcse.UwCseConfig(**UWCSE_CONFIG), seed=data_seed)
        session = LearningSession(
            SessionConfig(backend=self.backend, parallelism=1)
        )
        serving = session
        if self.serve_backend != self.backend:
            serving = LearningSession(
                SessionConfig(backend=self.serve_backend, parallelism=1)
            )
        try:
            variants = VARIANTS
            sources = {v: bundle.instance(v) for v in variants}
            prepared = {v: session.prepare(sources[v]) for v in variants}
            served = serving.prepare(sources[variants[0]])
            train, test = bundle.examples.train_test_split(
                test_fraction=TEST_FRACTION, seed=data_seed
            )
            setup.stop()
            wall.start()
            learned = self._learn_all(run, ops, session, bundle, sources, train)
            if learn_only:
                return run
            self._evaluate(run, ops, learned, prepared, test)
            self._agreement(run, ops, learned, prepared, wall)
            engine = self._warm_engine(serving, learned, served, bundle)
            self._refresh(run, ops, serving, learned, sources, served, bundle,
                          engine, test, stream_seed, wall)
            return run
        finally:
            setup.stop()
            wall.stop()
            run.setup_s = setup.total
            run.wall_s = wall.total
            session.close()
            serving.close()

    def _learn_all(self, run, ops, session, bundle, sources, train) -> Dict[str, tuple]:
        learned: Dict[str, tuple] = {}
        for variant in VARIANTS:
            learner = session.learner(
                self.learner, bundle.schema(variant), self.parameters()
            )
            start = time.perf_counter()
            definition = ops.run(
                f"learn {variant}", lambda: learner.learn(sources[variant], train)
            )
            run.learn_calls.append(time.perf_counter() - start)
            if definition is None:
                continue
            learned[variant] = (learner, definition)
            run.definitions[variant] = str(definition)
            run.clauses += len(definition)
            run.empty_definitions += int(len(definition) == 0)
        return learned

    def _warm_engine(self, serving, learned, served, bundle):
        """The coverage engine the update rounds keep fresh, warmed up."""
        variant = VARIANTS[0]
        if variant not in learned:
            return None
        learner, definition = learned[variant]
        store = None
        if self.learner == "castor":
            store = serving.saturation_store_for(served, learner.wrapped)
        engine = self._engine(learner, served, store)
        examples = bundle.examples.all_examples()
        engine.covered_masks_batch(list(definition), examples)
        return engine

    def _engine(self, learner, instance, store=None) -> BatchCoverageEngine:
        """The learner's coverage engine for the update rounds.

        Castor's engine decides coverage in SQL over the saturation store
        on SQLite backends (the default there).
        """
        if self.learner == "castor":
            castor = learner.wrapped
            return BatchCoverageEngine(
                CastorCoverageEngine(
                    instance,
                    castor.working_schema_for(instance),
                    castor.parameters.bottom_clause,
                    saturation_store=store,
                )
            )
        return BatchCoverageEngine(QueryCoverageEngine(instance))

    def _evaluate(self, run, ops, learned, prepared, test) -> None:
        for variant, (_, definition) in learned.items():
            start = time.perf_counter()
            result = ops.run(
                f"evaluate {variant}",
                lambda: evaluation.evaluate_definition(
                    definition, prepared[variant], test
                ),
            )
            run.eval_calls.append(time.perf_counter() - start)
            if result is not None:
                run.f1.append(result.f1)

    def _agreement(self, run, ops, learned, prepared, clock) -> None:
        """Definition 3.10: do the variants' definitions return the same,
        non-empty result relation?  Empty results count as disagreement."""
        results = {}
        for variant, (_, definition) in learned.items():
            results[variant] = ops.run(
                f"results {variant}",
                lambda: frozenset(
                    equivalence.definition_results(definition, prepared[variant])
                ),
            )
        with clock.paused():
            self._check_agreement(run, ops, results)

    def _check_agreement(self, run, ops, results) -> None:
        agreeing = 0
        pairs = list(combinations(sorted(results), 2))
        for first, second in pairs:
            a, b = results[first], results[second]
            agreeing += int(a is not None and a == b and len(a) > 0)
        run.pairs += len(pairs)
        run.pairs_agreeing += agreeing
        if self.learner == "castor":
            sizes = {v: (len(r) if r is not None else None) for v, r in results.items()}
            ops.check(
                agreeing == len(pairs) and len(pairs) > 0,
                f"Castor results differ or are empty across variants: {sizes}",
            )

    def _refresh(self, run, ops, session, learned, sources, served, bundle,
                 engine, test, stream_seed, clock) -> None:
        """Update rounds on the first variant: apply a delta through the
        session and the engine, then recompute the definition's coverage
        masks over every example.  After each round the definition is
        evaluated again on the held-out examples of the updated instance."""
        variant = VARIANTS[0]
        if engine is None or variant not in learned:
            return
        learner, definition = learned[variant]
        clauses = list(definition)
        examples = bundle.examples.all_examples()
        source = sources[variant]
        with clock.paused():
            # Inputs, not work: the stream is made before the rounds start.
            deltas = make_stream(source, self.rounds, CHURN, stream_seed)
        masks: Optional[List[int]] = None
        for round_index, delta in enumerate(deltas):

            def round_trip() -> List[int]:
                session.update(source, delta)
                engine.apply_delta(delta)
                return engine.covered_masks_batch(clauses, examples)

            start = time.perf_counter()
            masks = ops.run(f"update round {round_index}", round_trip)
            run.refresh_s.append(time.perf_counter() - start)
            self._evaluate(run, ops, {variant: learned[variant]},
                           {variant: served}, test)
        with clock.paused():
            fresh = source.copy().with_backend(self.serve_backend)
            try:
                cold = self._engine(learner, fresh).covered_masks_batch(
                    clauses, examples
                )
            finally:
                close = getattr(fresh.backend, "close", None)
                if close is not None:
                    close()
            ops.check(
                masks == cold,
                f"maintained coverage masks differ from a cold engine's on {variant}",
            )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Castor learns on ``memory``; its definition is then served from
        # ``sqlite-pooled`` through the update rounds.  Learning on
        # ``sqlite-pooled`` itself ran one compiled coverage statement (no
        # backtrack budget) for minutes on a long ARMG candidate, and with
        # Python coverage there its time varied by a third between runs of
        # the same seed.
        # A run does each corpus dataset many times and keeps each part's
        # fastest pass.  FOIL's learn() calls last about a second, five
        # times longer than Castor's, so its corpus is one dataset: that
        # doubles its passes.
        Workload("castor-uwcse", "castor", "memory",
                 serve_backend="sqlite-pooled", corpus_size=2),
        Workload("foil-uwcse", "foil", "memory", serve_backend="memory",
                 corpus_size=1),
    )
}
