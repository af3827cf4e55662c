"""``DatabaseInstance.data_token()`` moves exactly when the contents change.

Sessions key their prepared-instance and saturation-store caches on this
token: a mutation that leaves it unchanged would serve stale coverage,
and a no-op that moves it would throw warm state away.  The SQLite
backends bump their version through the relations' mutation hook, the
memory backend through its own counter; every case runs on every backend
(the conftest ``backend`` fixture).
"""

from __future__ import annotations

import pytest

from repro.database import DatabaseInstance, Delta, RelationSchema, Schema


def make_instance(backend: str) -> DatabaseInstance:
    instance = DatabaseInstance(
        Schema(
            [RelationSchema("r", ["a", "b"]), RelationSchema("s", ["a", "c"])],
            name="token",
        ),
        backend=backend,
    )
    instance.add_tuples("r", [("x", 1), ("y", 2)])
    instance.add_tuples("s", [("x", "c")])
    return instance


def transaction_add_then_remove(instance: DatabaseInstance) -> None:
    with instance.transaction():
        instance.add_tuple("s", ("y", "d"))
        instance.remove_tuple("s", ("y", "d"))


def transaction_readding_a_row(instance: DatabaseInstance) -> None:
    with instance.transaction():
        instance.add_tuple("r", ("x", 1))


#: ``id -> (mutation, whether the token must move)``.
MUTATIONS = {
    "add-new-row": (lambda i: i.add_tuple("r", ("z", 3)), True),
    "add-duplicate-row": (lambda i: i.add_tuple("r", ("x", 1)), False),
    "add-all-new": (lambda i: i.add_tuples("r", [("z", 3), ("w", 4)]), True),
    "add-all-duplicates": (lambda i: i.add_tuples("r", [("x", 1), ("y", 2)]), False),
    "add-all-mixed": (lambda i: i.add_tuples("r", [("x", 1), ("w", 4)]), True),
    "remove-present-row": (lambda i: i.remove_tuple("r", ("x", 1)), True),
    "remove-absent-missing-ok": (
        lambda i: i.remove_tuple("r", ("nope", 0), missing_ok=True),
        False,
    ),
    "delta-adds-row": (lambda i: i.apply_delta(Delta.add("s", [("y", "d")])), True),
    "delta-readds-row": (lambda i: i.apply_delta(Delta.add("s", [("x", "c")])), False),
    "delta-removes-row": (
        lambda i: i.apply_delta(Delta.remove("s", [("x", "c")])),
        True,
    ),
    "delta-removes-absent-row": (
        lambda i: i.apply_delta(Delta.remove("s", [("q", "q")])),
        False,
    ),
    "empty-delta": (lambda i: i.apply_delta(Delta()), False),
    # A row inserted and deleted again did change the data in between:
    # conservative, never stale.
    "transaction-add-then-remove": (transaction_add_then_remove, True),
    "transaction-readding-a-row": (transaction_readding_a_row, False),
}


@pytest.mark.parametrize("case", list(MUTATIONS))
def test_token_moves_exactly_on_content_changes(backend, case):
    mutate, moves = MUTATIONS[case]
    instance = make_instance(backend)
    before = instance.data_token()
    assert before is not None, "every registered backend tracks a version"
    mutate(instance)
    assert (instance.data_token() != before) is moves


def test_failed_remove_leaves_the_token(backend):
    instance = make_instance(backend)
    before = instance.data_token()
    with pytest.raises(KeyError):
        instance.remove_tuple("r", ("nope", 0))
    assert instance.data_token() == before


def test_conversion_starts_a_fresh_token_per_instance(backend):
    """A converted copy tracks its own version: mutating the copy leaves
    the source's token where it was."""
    source = make_instance("memory")
    copy = source.with_backend(backend)
    source_token = source.data_token()
    copy.add_tuple("r", ("z", 3))
    assert source.data_token() == source_token
    assert ("z", 3) not in source.relation("r")
