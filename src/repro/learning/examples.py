"""Training examples, splits, and cross-validation.

Examples are ground tuples of the target relation (Definition 3.1).  The
:class:`ExampleSet` keeps positives and negatives apart, supports stratified
train/test splitting and k-fold cross-validation, and can sample negatives
under the closed-world assumption the way the paper does for UW-CSE and IMDb
("generate negatives by the closed-world assumption, then sample to obtain
twice as many negatives as positives").
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..logic.atoms import Atom
from ..logic.terms import Constant


class Example:
    """A labeled ground tuple of the target relation."""

    __slots__ = ("target", "values", "positive")

    def __init__(self, target: str, values: Sequence[object], positive: bool):
        self.target = str(target)
        self.values: Tuple[object, ...] = tuple(values)
        self.positive = bool(positive)

    def as_atom(self) -> Atom:
        """The example as a ground atom ``target(values...)``."""
        return Atom(self.target, [Constant(v) for v in self.values])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Example)
            and other.target == self.target
            and other.values == self.values
            and other.positive == self.positive
        )

    def __hash__(self) -> int:
        return hash((self.target, self.values, self.positive))

    def __repr__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"Example({sign}{self.target}{self.values!r})"


class ExampleSet:
    """Positive and negative examples of one target relation."""

    def __init__(
        self,
        target: str,
        positives: Iterable[Sequence[object]] = (),
        negatives: Iterable[Sequence[object]] = (),
    ):
        self.target = str(target)
        self.positives: List[Example] = [
            Example(target, values, True) for values in positives
        ]
        self.negatives: List[Example] = [
            Example(target, values, False) for values in negatives
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def all_examples(self) -> List[Example]:
        return [*self.positives, *self.negatives]

    def positive_tuples(self) -> Set[Tuple[object, ...]]:
        return {e.values for e in self.positives}

    def negative_tuples(self) -> Set[Tuple[object, ...]]:
        return {e.values for e in self.negatives}

    def is_empty(self) -> bool:
        return not self.positives and not self.negatives

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #
    def shuffled(self, seed: int = 0) -> "ExampleSet":
        """Return a copy with positives and negatives independently shuffled."""
        rng = random.Random(seed)
        positives = [e.values for e in self.positives]
        negatives = [e.values for e in self.negatives]
        rng.shuffle(positives)
        rng.shuffle(negatives)
        return ExampleSet(self.target, positives, negatives)

    def train_test_split(
        self, test_fraction: float = 0.3, seed: int = 0
    ) -> Tuple["ExampleSet", "ExampleSet"]:
        """Stratified split into (train, test)."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        shuffled = self.shuffled(seed)
        cut_pos = max(1, int(len(shuffled.positives) * (1 - test_fraction)))
        cut_neg = max(1, int(len(shuffled.negatives) * (1 - test_fraction)))
        train = ExampleSet(
            self.target,
            [e.values for e in shuffled.positives[:cut_pos]],
            [e.values for e in shuffled.negatives[:cut_neg]],
        )
        test = ExampleSet(
            self.target,
            [e.values for e in shuffled.positives[cut_pos:]],
            [e.values for e in shuffled.negatives[cut_neg:]],
        )
        return train, test

    def k_folds(self, k: int, seed: int = 0) -> Iterator[Tuple["ExampleSet", "ExampleSet"]]:
        """Yield ``k`` (train, test) pairs for stratified cross-validation.

        The paper uses 5-fold CV for UW-CSE and 10-fold for HIV/IMDb.
        """
        if k < 2:
            raise ValueError("k must be at least 2")
        shuffled = self.shuffled(seed)
        positive_folds = _partition(shuffled.positives, k)
        negative_folds = _partition(shuffled.negatives, k)
        for fold in range(k):
            test_pos = positive_folds[fold]
            test_neg = negative_folds[fold]
            train_pos = list(
                itertools.chain.from_iterable(
                    positive_folds[i] for i in range(k) if i != fold
                )
            )
            train_neg = list(
                itertools.chain.from_iterable(
                    negative_folds[i] for i in range(k) if i != fold
                )
            )
            yield (
                ExampleSet(
                    self.target,
                    [e.values for e in train_pos],
                    [e.values for e in train_neg],
                ),
                ExampleSet(
                    self.target,
                    [e.values for e in test_pos],
                    [e.values for e in test_neg],
                ),
            )

    def subsample(
        self, max_positives: Optional[int] = None, max_negatives: Optional[int] = None, seed: int = 0
    ) -> "ExampleSet":
        """Randomly subsample positives/negatives down to the given caps."""
        shuffled = self.shuffled(seed)
        positives = shuffled.positives[: max_positives or len(shuffled.positives)]
        negatives = shuffled.negatives[: max_negatives or len(shuffled.negatives)]
        return ExampleSet(
            self.target, [e.values for e in positives], [e.values for e in negatives]
        )

    def __repr__(self) -> str:
        return (
            f"ExampleSet({self.target!r}, +{len(self.positives)}, -{len(self.negatives)})"
        )


def _partition(items: Sequence[Example], k: int) -> List[List[Example]]:
    """Deal items round-robin into k folds (keeps folds balanced)."""
    folds: List[List[Example]] = [[] for _ in range(k)]
    for index, item in enumerate(items):
        folds[index % k].append(item)
    return folds


def sample_closed_world_negatives(
    positives: Iterable[Tuple[object, ...]],
    candidate_values: Sequence[Sequence[object]],
    ratio: float = 2.0,
    seed: int = 0,
    max_attempts_factor: int = 50,
) -> List[Tuple[object, ...]]:
    """Sample negative tuples under the closed-world assumption.

    ``candidate_values[i]`` is the domain of the target's i-th argument;
    random combinations not in the positive set become negatives.  The paper
    samples "twice as many negatives as positives" (``ratio=2``).
    """
    rng = random.Random(seed)
    positive_set = set(positives)
    wanted = int(len(positive_set) * ratio)
    negatives: List[Tuple[object, ...]] = []
    seen: Set[Tuple[object, ...]] = set()
    attempts = 0
    max_attempts = max(1, wanted * max_attempts_factor)
    while len(negatives) < wanted and attempts < max_attempts:
        attempts += 1
        candidate = tuple(rng.choice(list(domain)) for domain in candidate_values)
        if candidate in positive_set or candidate in seen:
            continue
        seen.add(candidate)
        negatives.append(candidate)
    return negatives
