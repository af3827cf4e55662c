"""Quickstart: learn advisedBy over the synthetic UW-CSE database with Castor.

Run with::

    python examples/quickstart.py

The script generates a small UW-CSE-style department, splits the labeled
advisedBy pairs into train/test, learns a Horn definition with Castor
through a :class:`LearningSession` (the unified front door: one validated
config instead of per-learner knobs), and prints the definition together
with its precision and recall.
"""

from __future__ import annotations

from repro import CastorParameters, LearningSession, SessionConfig, evaluate_definition
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.datasets import uwcse


def main() -> None:
    # A small department keeps the run under a few seconds.
    config = uwcse.UwCseConfig(num_students=25, num_professors=8, num_courses=12)
    bundle = uwcse.load(config, seed=7)
    print("Schema variants:", ", ".join(bundle.variant_names))

    schema = bundle.schema("original")
    instance = bundle.instance("original")
    print(f"Database: {len(schema)} relations, {instance.total_tuples()} tuples")
    print(
        f"Examples: +{len(bundle.examples.positives)} / -{len(bundle.examples.negatives)}"
    )

    train, test = bundle.examples.train_test_split(test_fraction=0.3, seed=0)
    parameters = CastorParameters(
        sample_size=3,
        beam_width=2,
        bottom_clause=CastorBottomClauseConfig(max_depth=3, max_distinct_variables=15),
    )
    with LearningSession(SessionConfig(backend="sqlite")) as session:
        learner = session.learner("castor", schema, parameters)
        definition = learner.learn(instance, train)

    print("\nLearned definition for advisedBy(stud, prof):")
    print(definition if len(definition) else "  (no clause satisfied the acceptance thresholds)")

    evaluation = evaluate_definition(definition, instance, test)
    print(f"\nTest precision: {evaluation.precision:.2f}")
    print(f"Test recall:    {evaluation.recall:.2f}")


if __name__ == "__main__":
    main()
