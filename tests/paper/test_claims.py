"""The paper's headline claims at the table drivers' scale (Section 9).

Castor learns the planted definition on every schema variant of HIV,
HIV-Large, UW-CSE and IMDb, and its definitions return one non-empty result
relation across the variants of each dataset (Definition 3.10).  A top-down
baseline's results differ across the variants of UW-CSE and IMDb: its
output depends on the schema.  The datasets use the table drivers'
configurations and seed (``benchmarks/conftest.py``) and the sweeps the
drivers run (``run_schema_sweep(..., folds=1, seed=0)``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

import pytest

from benchmarks.conftest import HIV_CONFIG, HIV_LARGE_CONFIG, IMDB_CONFIG, SEED, UWCSE_CONFIG
from repro.datasets import hiv, imdb, uwcse
from repro.datasets.base import DatasetBundle
from repro.experiments.harness import LearnerSpec, VariantResult, run_schema_sweep
from repro.experiments.tables import aleph_foil_spec, castor_spec
from repro.transform.equivalence import definition_results

LOADERS = {
    "hiv": lambda: hiv.load(HIV_CONFIG, seed=SEED),
    "hiv-large": lambda: hiv.load(HIV_LARGE_CONFIG, seed=SEED),
    "uwcse": lambda: uwcse.load(UWCSE_CONFIG, seed=SEED),
    "imdb": lambda: imdb.load(IMDB_CONFIG, seed=SEED),
}
#: Castor's held-out F1 floor on every variant.
F1_FLOOR = 0.9

Sweep = Dict[str, Tuple[VariantResult, FrozenSet[tuple]]]


def sweep(bundle: DatasetBundle, spec: LearnerSpec) -> Sweep:
    """Each variant's sweep result and its definition's result relation on
    the variant's instance."""
    return {
        result.variant: (
            result,
            frozenset(definition_results(result.definition, bundle.instance(result.variant))),
        )
        for result in run_schema_sweep(bundle, [spec], folds=1, seed=0)
    }


def result_sizes(results: Sweep) -> Dict[str, int]:
    return {variant: len(rows) for variant, (_, rows) in results.items()}


@pytest.fixture(scope="module")
def bundles() -> Dict[str, DatasetBundle]:
    return {name: load() for name, load in LOADERS.items()}


@pytest.fixture(scope="module", params=sorted(LOADERS))
def castor_sweep(request, bundles) -> Sweep:
    return sweep(bundles[request.param], castor_spec())


def test_castor_reaches_the_f1_floor_on_every_variant(castor_sweep):
    scores = {variant: result.f1 for variant, (result, _) in castor_sweep.items()}
    assert all(f1 >= F1_FLOOR for f1 in scores.values()), scores


def test_castor_results_are_non_empty_and_identical_across_variants(castor_sweep):
    sizes = result_sizes(castor_sweep)
    assert all(sizes.values()), sizes
    assert len({rows for _, rows in castor_sweep.values()}) == 1, sizes


@pytest.mark.parametrize("name", ["uwcse", "imdb"])
def test_aleph_foil_results_differ_across_variants(bundles, name):
    results = sweep(bundles[name], aleph_foil_spec(clause_length=6))
    assert len({rows for _, rows in results.values()}) > 1, result_sizes(results)
