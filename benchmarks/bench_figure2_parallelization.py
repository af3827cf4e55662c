"""Figure 2: Castor running time vs. parallel evaluation resources.

The paper's reduced-scale thread-count curves via
``repro.experiments.figures.figure2_parallelization``.
"""

from __future__ import annotations

from repro.experiments.figures import figure2_parallelization

from .conftest import run_once


def test_figure2_hiv(benchmark):
    series = run_once(
        benchmark, figure2_parallelization, dataset="hiv", thread_counts=(1, 2, 4), seed=1
    )
    print("\nFigure 2 (HIV): " + ", ".join(f"{p['threads']:.0f}T={p['seconds']:.2f}s" for p in series))
    assert len(series) == 3


def test_figure2_uwcse(benchmark):
    series = run_once(
        benchmark, figure2_parallelization, dataset="uwcse", thread_counts=(1, 2), seed=1
    )
    print(
        "\nFigure 2 (UW-CSE): "
        + ", ".join(f"{p['threads']:.0f}T={p['seconds']:.2f}s" for p in series)
    )
    assert len(series) == 2
