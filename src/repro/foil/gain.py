"""FOIL's information-gain scoring.

The classic FOIL gain of refining clause ``C`` into ``C'`` is::

    gain(C, C') = p1 * (log2(p1 / (p1 + n1)) - log2(p0 / (p0 + n0)))

where ``p0/n0`` are the positive/negative examples covered by ``C`` and
``p1/n1`` those covered by ``C'``.  The implementation scores coverage at the
example level (rather than the binding level of the original system), which
preserves the greedy ranking behaviour the paper's analysis relies on while
keeping evaluation costs proportional to the number of examples.
"""

from __future__ import annotations

import math


def information_content(positives: int, negatives: int) -> float:
    """``-log2`` of the fraction of covered examples that are positive."""
    total = positives + negatives
    if positives == 0 or total == 0:
        return float("inf")
    return -math.log2(positives / total)


def foil_gain(
    positives_before: int,
    negatives_before: int,
    positives_after: int,
    negatives_after: int,
) -> float:
    """FOIL gain of a refinement, at example granularity.

    Returns ``-inf`` when the refined clause covers no positives (useless
    refinement), and treats a clause that covers positives but no negatives
    as maximally informative for its coverage.
    """
    if positives_after == 0:
        return float("-inf")
    info_before = information_content(positives_before, negatives_before)
    info_after = information_content(positives_after, negatives_after)
    if math.isinf(info_before):
        # The parent covered nothing positive; any positive coverage is a gain.
        info_before = 0.0
    return positives_after * (info_before - info_after)


def coverage_score(positives: int, negatives: int, length: int = 0) -> float:
    """Aleph's default "coverage/compression" score: P - N - length."""
    return positives - negatives - length


def precision(positives: int, negatives: int) -> float:
    """Training precision of a clause; 0 when nothing is covered."""
    total = positives + negatives
    return positives / total if total else 0.0


def laplace_accuracy(positives: int, negatives: int) -> float:
    """Laplace-corrected accuracy, a smoother tie-breaking score."""
    return (positives + 1) / (positives + negatives + 2)
