"""Schema-independence demo: Castor vs. a top-down learner across schema variants.

Run with::

    python examples/schema_independence_demo.py

The script learns the same target (advisedBy) over every UW-CSE schema
variant — the highly decomposed Original schema, the 4NF schema, and two
denormalized schemas — once with Castor and once with the Aleph-FOIL
emulation.  It then compares the *outputs*: a schema-independent learner
returns definitions whose results agree on corresponding instances
(Definition 3.10 of the paper), a schema-dependent one does not.

Both checks share one :class:`LearningSession`, so every variant's instance
is prepared exactly once and reused across the two learners.
"""

from __future__ import annotations

from repro import LearningSession, SessionConfig
from repro.datasets import uwcse
from repro.experiments import aleph_foil_spec, castor_spec, check_schema_independence


def main() -> None:
    config = uwcse.UwCseConfig(num_students=20, num_professors=6, num_courses=10)
    bundle = uwcse.load(config, seed=3)

    with LearningSession(SessionConfig()) as session:
        for spec in (castor_spec(), aleph_foil_spec(clause_length=6, name="Aleph-FOIL")):
            report = check_schema_independence(bundle, spec, session=session)
            print(f"\n=== {spec.name} ===")
            print("result-set size per schema variant:", report.result_sizes)
            for pair, equivalent in report.pairwise_equivalent.items():
                print(f"  {pair:35s} equivalent: {equivalent}")
            print("schema independent on this dataset:", report.is_schema_independent)
            for variant, definition in report.definitions.items():
                first_clause = definition.clauses[0] if len(definition) else "(empty)"
                print(f"  [{variant}] {first_clause}")


if __name__ == "__main__":
    main()
