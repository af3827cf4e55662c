"""Drivers that regenerate every table of the paper's evaluation (Section 9).

Each ``table*`` function returns structured results and can render the
paper-style text table; the ``benchmarks/`` directory wraps them in
pytest-benchmark targets.  Dataset scale and cross-validation folds default to
laptop-friendly values (the synthetic datasets are orders of magnitude smaller
than the originals — see DESIGN.md), and every function accepts the knobs
needed to push them up.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

from ..castor.castor import CastorLearner, CastorParameters
from ..castor.bottom_clause import CastorBottomClauseConfig
from ..castor.stored_procedures import compare_stored_procedure_modes
from ..database.schema import Schema
from ..datasets import hiv, imdb, uwcse
from ..datasets.base import DatasetBundle, SchemaVariant
from ..foil.foil import FoilLearner, FoilParameters
from ..learning.bottom_clause import BottomClauseConfig
from ..progol.progol import AlephFoilLearner, ProgolLearner, ProgolParameters
from ..progolem.progolem import ProGolemLearner, ProGolemParameters
from .harness import LearnerSpec, VariantResult, run_schema_sweep
from .reporting import format_paper_table


# --------------------------------------------------------------------- #
# Learner factories (shared parameter choices, Section 9.1.2)
# --------------------------------------------------------------------- #
def castor_spec(
    use_subset_inds: bool = False,
    promote_inds_from_data: bool = False,
    name: str = "Castor",
) -> LearnerSpec:
    """Castor with the paper's settings (minprec=0.67, minpos=2)."""

    def factory(schema: Schema) -> CastorLearner:
        return CastorLearner(
            schema,
            CastorParameters(
                sample_size=3,
                beam_width=2,
                max_armg_rounds=5,
                promote_inds_from_data=promote_inds_from_data,
                bottom_clause=CastorBottomClauseConfig(
                    max_depth=3,
                    max_distinct_variables=15,
                    use_subset_inds=use_subset_inds,
                ),
            ),
        )

    return LearnerSpec(name, factory)


def aleph_foil_spec(clause_length: int = 10, name: Optional[str] = None) -> LearnerSpec:
    """Aleph emulating FOIL: greedy search, gain scoring, given clauselength."""

    def factory(schema: Schema) -> AlephFoilLearner:
        return AlephFoilLearner(schema, clause_length=clause_length)

    return LearnerSpec(name or f"Aleph-FOIL (clauselength={clause_length})", factory)


def aleph_progol_spec(clause_length: int = 10, name: Optional[str] = None) -> LearnerSpec:
    """Aleph default (Progol-style): beam search, compression scoring."""

    def factory(schema: Schema) -> ProgolLearner:
        return ProgolLearner(
            schema,
            ProgolParameters(clause_length=clause_length, open_list_size=5),
        )

    return LearnerSpec(name or f"Aleph-Progol (clauselength={clause_length})", factory)


def foil_spec(name: str = "FOIL") -> LearnerSpec:
    """The original FOIL algorithm (schema-driven refinement, greedy gain)."""

    def factory(schema: Schema) -> FoilLearner:
        return FoilLearner(schema, FoilParameters(max_clause_length=5))

    return LearnerSpec(name, factory)


def progolem_spec(name: str = "ProGolem") -> LearnerSpec:
    """ProGolem with the paper's sampling/beam settings."""

    def factory(schema: Schema) -> ProGolemLearner:
        return ProGolemLearner(
            schema,
            ProGolemParameters(
                sample_size=3,
                beam_width=2,
                max_armg_rounds=5,
                bottom_clause=BottomClauseConfig(max_depth=3),
            ),
        )

    return LearnerSpec(name, factory)


# --------------------------------------------------------------------- #
# Tables 9-11: per-dataset schema sweeps
# --------------------------------------------------------------------- #
def table9_hiv(
    scale: str = "small",
    folds: int = 2,
    seed: int = 0,
    learners: Optional[Sequence[LearnerSpec]] = None,
) -> List[VariantResult]:
    """Table 9: HIV dataset, schemas Initial / 4NF-1 / 4NF-2.

    ``scale='small'`` is the HIV-2K4K stand-in, ``scale='large'`` the
    HIV-Large stand-in (bigger synthetic molecule set).
    """
    bundle = hiv.load_large(seed) if scale == "large" else hiv.load_small(seed)
    learners = list(
        learners
        or [
            aleph_foil_spec(clause_length=10),
            aleph_progol_spec(clause_length=10),
            castor_spec(),
        ]
    )
    return run_schema_sweep(bundle, learners, folds=folds, seed=seed)


def table10_uwcse(
    folds: int = 3,
    seed: int = 0,
    learners: Optional[Sequence[LearnerSpec]] = None,
    config: Optional[uwcse.UwCseConfig] = None,
) -> List[VariantResult]:
    """Table 10: UW-CSE dataset, schemas Original / 4NF / Denorm-1 / Denorm-2."""
    bundle = uwcse.load(config, seed)
    learners = list(
        learners
        or [
            foil_spec(),
            aleph_foil_spec(clause_length=6, name="Aleph-FOIL"),
            aleph_progol_spec(clause_length=6, name="Aleph-Progol"),
            progolem_spec(),
            castor_spec(),
        ]
    )
    return run_schema_sweep(bundle, learners, folds=folds, seed=seed)


def table11_imdb(
    folds: int = 2,
    seed: int = 0,
    learners: Optional[Sequence[LearnerSpec]] = None,
    config: Optional[imdb.ImdbConfig] = None,
) -> List[VariantResult]:
    """Table 11: IMDb dataset, schemas JMDB / Stanford / Denormalized."""
    bundle = imdb.load(config, seed)
    learners = list(
        learners
        or [
            aleph_foil_spec(clause_length=6, name="Aleph-FOIL"),
            aleph_progol_spec(clause_length=6, name="Aleph-Progol"),
            castor_spec(),
        ]
    )
    return run_schema_sweep(bundle, learners, folds=folds, seed=seed)


# --------------------------------------------------------------------- #
# Table 12: Castor with subset-form INDs only (general (de)composition)
# --------------------------------------------------------------------- #
def table12_general_inds(
    folds: int = 2, seed: int = 0, datasets: Sequence[str] = ("hiv", "uwcse", "imdb")
) -> Dict[str, List[VariantResult]]:
    """Table 12: Castor using only subset-form INDs over all three datasets.

    Every IND with equality in the schemas is downgraded to subset form, and
    Castor runs in its Section 7.4 direct-extension mode (chasing subset INDs
    without the preprocessing promotion).
    """
    results: Dict[str, List[VariantResult]] = {}
    loaders: Dict[str, Callable[[], DatasetBundle]] = {
        "hiv": lambda: hiv.load_small(seed),
        "uwcse": lambda: uwcse.load(seed=seed),
        "imdb": lambda: imdb.load(seed=seed),
    }
    spec = castor_spec(use_subset_inds=True, name="Castor (subset INDs)")
    for dataset_name in datasets:
        bundle = loaders[dataset_name]()
        downgraded = _downgrade_bundle_inds(bundle)
        results[dataset_name] = run_schema_sweep(downgraded, [spec], folds=folds, seed=seed)
    return results


def _downgrade_bundle_inds(bundle: DatasetBundle) -> DatasetBundle:
    """A copy of ``bundle`` whose variant schemas have subset-form INDs only.

    Every IND with equality is downgraded.  The underlying data is
    unchanged; only the constraint metadata visible to the learner is
    weakened, matching the Table 12 protocol.  ``bundle`` is left as it was:
    its variants, schemas and materialized instances are shared with other
    callers (``DatasetBundle.with_backend`` views, session-scoped fixtures).
    """
    variants = []
    for name in bundle.variant_names:
        transformation = copy.copy(bundle.transformation(name))
        schema = transformation.target_schema
        transformation.target_schema = schema.with_subset_inds_only(name=schema.name)
        variants.append(SchemaVariant(name, transformation))
    return DatasetBundle(
        bundle.name,
        bundle.base_instance,
        bundle.examples,
        variants,
        bundle.target,
        backend=bundle.backend,
    )


# --------------------------------------------------------------------- #
# Table 13: impact of stored procedures
# --------------------------------------------------------------------- #
def table13_stored_procedures(
    seed: int = 0, datasets: Sequence[str] = ("hiv", "imdb")
) -> Dict[str, Dict[str, float]]:
    """Table 13: Castor bottom-clause construction with vs without stored procedures."""
    results: Dict[str, Dict[str, float]] = {}
    if "hiv" in datasets:
        bundle = hiv.load_small(seed)
        results["hiv"] = compare_stored_procedure_modes(
            bundle.instance("initial"),
            bundle.examples.positives,
            bundle.schema("initial"),
        )
    if "imdb" in datasets:
        bundle = imdb.load(seed=seed)
        results["imdb"] = compare_stored_procedure_modes(
            bundle.instance("jmdb"),
            bundle.examples.positives,
            bundle.schema("jmdb"),
        )
    if "uwcse" in datasets:
        bundle = uwcse.load(seed=seed)
        results["uwcse"] = compare_stored_procedure_modes(
            bundle.instance("original"),
            bundle.examples.positives,
            bundle.schema("original"),
        )
    return results


# --------------------------------------------------------------------- #
# Rendering helpers
# --------------------------------------------------------------------- #
def render_table(results: Sequence[VariantResult], variants: Sequence[str], title: str) -> str:
    """Render any schema-sweep result in the paper's table layout."""
    return format_paper_table(results, variants, title)
