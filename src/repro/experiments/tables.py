"""Learner specs shared by the drivers of the paper's tables (Section 9).

``benchmarks/bench_table9_hiv.py`` … ``bench_table13_stored_procedures.py``
drive Tables 9–13.  The Table 9–12 drivers build their own sweeps with
``run_schema_sweep`` and the specs below, which carry the paper's parameter
choices (Section 9.1.2); ``_downgrade_bundle_inds`` weakens a bundle for
Table 12.  Table 13 times bottom-clause construction and needs no spec.
"""

from __future__ import annotations

import copy
from typing import Optional

from ..castor.castor import CastorLearner, CastorParameters
from ..castor.bottom_clause import CastorBottomClauseConfig
from ..database.schema import Schema
from ..datasets.base import DatasetBundle, SchemaVariant
from ..foil.foil import FoilLearner, FoilParameters
from ..learning.bottom_clause import BottomClauseConfig
from ..progol.progol import AlephFoilLearner, ProgolLearner, ProgolParameters
from ..progolem.progolem import ProGolemLearner, ProGolemParameters
from .harness import LearnerSpec


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
# Table 12: subset-form INDs only (general (de)composition)
# --------------------------------------------------------------------- #
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
