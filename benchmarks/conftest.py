"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper at reduced
scale: the dataset configurations below stand in for the paper's datasets
(docs/experiments.md lists the drivers and their results).  ``pytest-benchmark`` is
used in pedantic mode with a single round so that a full
``pytest benchmarks/ --benchmark-only`` sweep stays laptop-friendly; crank
the dataset configs and fold counts up for a longer, closer-to-paper run.
"""

from __future__ import annotations

import pytest

from repro.datasets import hiv, imdb, uwcse

# Reduced-scale dataset configurations shared by the benchmarks.
UWCSE_CONFIG = uwcse.UwCseConfig(num_students=20, num_professors=6, num_courses=10)
HIV_CONFIG = hiv.HivConfig(num_compounds=30, min_atoms=3, max_atoms=5)
HIV_LARGE_CONFIG = hiv.HivConfig(num_compounds=60, min_atoms=3, max_atoms=6)
IMDB_CONFIG = imdb.ImdbConfig(
    num_movies=30, num_directors=12, num_producers=8, num_companies=8, num_actors=20
)
SEED = 1


@pytest.fixture(scope="session")
def uwcse_bundle():
    return uwcse.load(UWCSE_CONFIG, seed=SEED)


@pytest.fixture(scope="session")
def hiv_bundle():
    return hiv.load(HIV_CONFIG, seed=SEED)


@pytest.fixture(scope="session")
def hiv_large_bundle():
    return hiv.load(HIV_LARGE_CONFIG, seed=SEED)


@pytest.fixture(scope="session")
def imdb_bundle():
    return imdb.load(IMDB_CONFIG, seed=SEED)


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark's pedantic mode."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
