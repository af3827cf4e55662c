"""Domain example: learn anti-HIV activity from molecular structure.

Run with::

    python examples/hiv_activity.py

The synthetic HIV dataset mirrors the NCI AIDS antiviral screen used in the
paper: compounds are bags of typed atoms connected by typed bonds, and the
target ``hivActive(comp)`` holds exactly when a nitrogen atom carrying
property ``p2_1`` is bonded to an oxygen atom.  The script learns the target
over the three schema variants of Table 3 (Initial, 4NF-1, 4NF-2) with Castor
and reports precision/recall per variant, illustrating that the IND-aware
learner keeps working when the bond relation is composed with its type
relations or split into source/target halves.

All three variants run through **one** :class:`LearningSession`: the
pooled-SQLite backend and the per-variant saturation stores are owned by the
session, so a second pass over a variant would start warm.
"""

from __future__ import annotations

import time

from repro import CastorParameters, LearningSession, SessionConfig, evaluate_definition
from repro.castor.bottom_clause import CastorBottomClauseConfig
from repro.datasets import hiv


def main() -> None:
    bundle = hiv.load(hiv.HivConfig(num_compounds=50, min_atoms=3, max_atoms=6), seed=11)
    print(
        f"Molecules: {bundle.base_instance.total_tuples()} tuples, "
        f"+{len(bundle.examples.positives)} active / -{len(bundle.examples.negatives)} inactive"
    )

    parameters = CastorParameters(
        sample_size=3,
        beam_width=2,
        bottom_clause=CastorBottomClauseConfig(max_depth=3, max_distinct_variables=15),
    )
    train, test = bundle.examples.train_test_split(test_fraction=0.3, seed=0)
    with LearningSession(SessionConfig(backend="sqlite-pooled")) as session:
        for variant in bundle.variant_names:
            schema = bundle.schema(variant)
            instance = bundle.instance(variant)
            learner = session.learner("castor", schema, parameters)
            start = time.perf_counter()
            definition = learner.learn(instance, train)
            elapsed = time.perf_counter() - start
            evaluation = evaluate_definition(definition, instance, test)
            print(f"\n--- schema variant: {variant} ({len(schema)} relations) ---")
            for clause in definition:
                print(f"  {clause}")
            print(
                f"  precision={evaluation.precision:.2f} recall={evaluation.recall:.2f} "
                f"time={elapsed:.1f}s"
            )


if __name__ == "__main__":
    main()
