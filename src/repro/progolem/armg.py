"""The asymmetric relative minimal generalization (ARMG) operator (Algorithm 3).

Given an ordered bottom clause ``⊥e = T :- L1, ..., Ln`` and another positive
example ``e'``, ARMG drops *blocking atoms* — the first literal ``Li`` such
that the prefix clause ``T :- L1..Li`` no longer covers ``e'`` — and then any
literals left head-disconnected, until the whole clause covers ``e'``.  The
result is more general than ``⊥e`` and covers both examples.

The operator is schema *dependent* (Example 6.5): removing one literal of a
decomposed schema does not remove the information that a single composed
literal carries, so ProGolem produces non-equivalent generalizations across
(de)compositions.  Castor's variant (in :mod:`repro.castor.armg`) repairs
this using INDs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..learning.coverage import BatchCoverageEngine, SubsumptionCoverageEngine
from ..learning.examples import Example
from ..logic.atoms import Atom
from ..logic.clauses import HornClause


def find_blocking_atom(
    clause: HornClause,
    example: Example,
    coverage: SubsumptionCoverageEngine,
    batch: Optional[BatchCoverageEngine] = None,
    probe_width: Optional[int] = None,
) -> Optional[int]:
    """Index of the first blocking atom of ``clause`` w.r.t. ``example``.

    ``Li`` is blocking iff ``i`` is the least index such that the prefix
    clause ``T :- L1..Li`` does not cover the example.  Returns None when the
    full clause already covers the example (no blocking atom).

    Because prefix coverage is anti-monotone in the prefix length (adding
    literals can only lose coverage), the least failing prefix is bracketed
    by section search.  With ``batch`` supplied, each round's ``probe_width``
    prefix probes go through the batch seam as ONE batched evaluation
    (poolable); without it, probes are direct subsumption tests
    and width defaults to 1, which is exactly the classic binary search.
    """
    saturation = coverage.saturation(example)
    saturation_index = coverage.saturation_index(example)
    if probe_width is None:
        probe_width = batch.parallelism if batch is not None else 1
    probe_width = max(1, int(probe_width))
    covers: Dict[int, bool] = {}

    def probe(lengths: List[int]) -> None:
        pending = [length for length in dict.fromkeys(lengths) if length not in covers]
        if not pending:
            return
        prefixes = [
            HornClause(clause.head, clause.body[:length]) for length in pending
        ]
        if batch is None:
            for length, prefix in zip(pending, prefixes):
                covers[length] = coverage.subsumption.covers_example(
                    prefix, saturation, saturation_index
                )
        else:
            masks = batch.covered_masks_batch(prefixes, [example])
            for length, mask in zip(pending, masks):
                covers[length] = bool(mask & 1)

    total = len(clause.body)
    probe([total])
    if covers[total]:
        return None
    low, high = 1, total
    # Invariant: prefix of length high does NOT cover; prefix of length low-1 covers.
    while low < high:
        width = high - low
        sections = min(probe_width, width)
        points = sorted(
            {low + (width * (j + 1)) // (sections + 1) for j in range(sections)}
        )
        probe(points)
        for length in points:
            if covers[length]:
                low = max(low, length + 1)
            else:
                high = min(high, length)
    return low - 1


def armg(
    bottom_clause: HornClause,
    example: Example,
    coverage: SubsumptionCoverageEngine,
    post_removal_hook: Optional[Callable[[HornClause, Atom], HornClause]] = None,
    max_iterations: int = 1000,
    batch: Optional[BatchCoverageEngine] = None,
    probe_width: Optional[int] = None,
) -> HornClause:
    """Asymmetric relative minimal generalization of ``bottom_clause`` w.r.t. ``example``.

    ``post_removal_hook`` is called after each blocking-atom removal with the
    partially reduced clause and the removed atom, and must return the clause
    to continue with — Castor uses it to enforce IND consistency (Section
    7.2.1).  The standard ProGolem behaviour passes no hook.  ``batch`` /
    ``probe_width`` forward to :func:`find_blocking_atom`'s batched prefix
    probes.
    """
    current = bottom_clause
    for _ in range(max_iterations):
        blocking_index = find_blocking_atom(
            current, example, coverage, batch=batch, probe_width=probe_width
        )
        if blocking_index is None:
            break
        removed_atom = current.body[blocking_index]
        current = current.remove_literal_at(blocking_index)
        if post_removal_hook is not None:
            current = post_removal_hook(current, removed_atom)
        current = HornClause(current.head, current.head_connected_body())
        if not current.body:
            break
    return current
