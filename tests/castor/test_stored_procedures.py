"""Table 13 timing: ``compare_stored_procedure_modes`` runs both modes in
every round, on fresh runners, and reports each mode's fastest round."""

from __future__ import annotations

import pytest

from repro.castor.stored_procedures import (
    StoredProcedureRunner,
    compare_stored_procedure_modes,
)

#: Scripted seconds per mode, one per round: the stored-procedure mode is
#: fastest in the last round, the client mode in the middle one.
SECONDS = {True: [0.5, 0.4, 0.2], False: [0.9, 0.6, 0.7]}


@pytest.mark.parametrize("repeats", [1, 3])
def test_compare_modes_reports_the_fastest_round_of_each_mode(
    monkeypatch, decomposed_instance, advised_examples, repeats
):
    remaining = {mode: list(seconds) for mode, seconds in SECONDS.items()}
    modes = []

    def timed_run(self, examples):
        modes.append(self.use_stored_procedures)
        seconds = remaining[self.use_stored_procedures].pop(0)
        return {"seconds": seconds, "examples": float(len(examples))}

    monkeypatch.setattr(StoredProcedureRunner, "timed_run", timed_run)
    result = compare_stored_procedure_modes(
        decomposed_instance, advised_examples.all_examples(), repeats=repeats
    )

    assert modes == [True, False] * repeats
    with_sp = min(SECONDS[True][:repeats])
    without_sp = min(SECONDS[False][:repeats])
    assert result == {
        "with_stored_procedures_seconds": with_sp,
        "without_stored_procedures_seconds": without_sp,
        "speedup": without_sp / with_sp,
    }
