"""Synthetic IMDb dataset with the JMDB / Stanford / Denormalized schemas.

The real experiment uses a post-2000 subset of the JMDB relational export of
IMDb and learns ``dramaDirector(director)`` — directors who directed a drama
movie — a target with an exact Datalog definition.  This module generates a
synthetic movie database with the same relational shape (movie, entity
relations, ``movies2X`` link relations) and the INDs of Table 8 (restricted to
the entities kept here), and derives the paper's two alternative schemas:

* ``jmdb``          — base schema, one link relation per entity kind;
* ``stanford``      — the link relations for genre/color/production company/
                       director/producer composed into a wide ``movie``
                       relation (Table 6, right);
* ``denormalized``  — each ``movies2X`` link relation composed with its
                       entity relation (Table 7).

The entity inventory is reduced (genre, color, production company, director,
producer, actor) relative to the full 46-relation JMDB schema; the kept
relations are exactly the ones involved in the paper's compositions, so every
schema-transformation code path is exercised.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..database.constraints import FunctionalDependency, InclusionDependency
from ..database.instance import DatabaseInstance
from ..database.schema import RelationSchema, Schema
from ..learning.examples import ExampleSet
from ..transform.decomposition import ComposeOperation
from ..transform.transformation import SchemaTransformation
from .base import DatasetBundle, SchemaVariant, base_variant

TARGET = "dramaDirector"

GENRES = ("drama", "comedy", "action", "documentary", "horror")
COLORS = ("color", "black_and_white")


class ImdbConfig:
    """Size knobs of the synthetic movie database generator."""

    def __init__(
        self,
        num_movies: int = 80,
        num_directors: int = 30,
        num_producers: int = 25,
        num_companies: int = 15,
        num_actors: int = 60,
        actors_per_movie: int = 3,
        negative_ratio: float = 2.0,
    ):
        self.num_movies = int(num_movies)
        self.num_directors = int(num_directors)
        self.num_producers = int(num_producers)
        self.num_companies = int(num_companies)
        self.num_actors = int(num_actors)
        self.actors_per_movie = int(actors_per_movie)
        self.negative_ratio = float(negative_ratio)


def jmdb_schema() -> Schema:
    """The (reduced) JMDB schema with the INDs of Table 8."""
    relations = [
        RelationSchema("movie", ["id", "title", "year"]),
        RelationSchema("genre", ["genreid", "genre"]),
        RelationSchema("color", ["colorid", "color"]),
        RelationSchema("prodcompany", ["prodcompid", "cname"]),
        RelationSchema("director", ["directorid", "dname"]),
        RelationSchema("producer", ["producerid", "pname"]),
        RelationSchema("actor", ["actorid", "aname", "sex"]),
        RelationSchema("movies2genre", ["id", "genreid"]),
        RelationSchema("movies2color", ["id", "colorid"]),
        RelationSchema("movies2prodcomp", ["id", "prodcompid"]),
        RelationSchema("movies2director", ["id", "directorid"]),
        RelationSchema("movies2producer", ["id", "producerid"]),
        RelationSchema("movies2actor", ["id", "actorid", "character"]),
    ]
    fds = [
        FunctionalDependency("movie", ["id"], ["title", "year"]),
        FunctionalDependency("genre", ["genreid"], ["genre"]),
        FunctionalDependency("color", ["colorid"], ["color"]),
        FunctionalDependency("prodcompany", ["prodcompid"], ["cname"]),
        FunctionalDependency("director", ["directorid"], ["dname"]),
        FunctionalDependency("producer", ["producerid"], ["pname"]),
        FunctionalDependency("actor", ["actorid"], ["aname", "sex"]),
    ]
    # INDs with equality used by the Stanford composition (movies2X[id] = movie[id])
    # and by the Denormalized composition (movies2X[Xid] = X[Xid]).
    inds = [
        InclusionDependency("movies2genre", ["id"], "movie", ["id"], with_equality=True),
        InclusionDependency("movies2color", ["id"], "movie", ["id"], with_equality=True),
        InclusionDependency("movies2prodcomp", ["id"], "movie", ["id"], with_equality=True),
        InclusionDependency("movies2director", ["id"], "movie", ["id"], with_equality=True),
        InclusionDependency("movies2producer", ["id"], "movie", ["id"], with_equality=True),
        InclusionDependency("movies2genre", ["genreid"], "genre", ["genreid"], with_equality=True),
        InclusionDependency("movies2color", ["colorid"], "color", ["colorid"], with_equality=True),
        InclusionDependency(
            "movies2prodcomp", ["prodcompid"], "prodcompany", ["prodcompid"], with_equality=True
        ),
        InclusionDependency(
            "movies2director", ["directorid"], "director", ["directorid"], with_equality=True
        ),
        InclusionDependency(
            "movies2producer", ["producerid"], "producer", ["producerid"], with_equality=True
        ),
        InclusionDependency(
            "movies2actor", ["actorid"], "actor", ["actorid"], with_equality=True
        ),
        InclusionDependency("movies2actor", ["id"], "movie", ["id"]),
    ]
    return Schema(relations, fds, inds, name="imdb-jmdb")


def schema_variants(schema: Optional[Schema] = None) -> List[SchemaVariant]:
    """The three IMDb schema variants of Table 11."""
    schema = schema or jmdb_schema()
    jmdb = base_variant(schema, "jmdb")

    to_stanford = SchemaTransformation(
        schema,
        [
            ComposeOperation(
                [
                    "movie",
                    "movies2genre",
                    "movies2color",
                    "movies2prodcomp",
                    "movies2director",
                    "movies2producer",
                ],
                "movie",
                attribute_order=[
                    "id",
                    "title",
                    "year",
                    "genreid",
                    "colorid",
                    "prodcompid",
                    "directorid",
                    "producerid",
                ],
            )
        ],
        target_name="imdb-stanford",
    )

    to_denormalized = SchemaTransformation(
        schema,
        [
            ComposeOperation(
                ["movies2genre", "genre"],
                "movies2genre",
                attribute_order=["id", "genreid", "genre"],
            ),
            ComposeOperation(
                ["movies2color", "color"],
                "movies2color",
                attribute_order=["id", "colorid", "color"],
            ),
            ComposeOperation(
                ["movies2prodcomp", "prodcompany"],
                "movies2prodcomp",
                attribute_order=["id", "prodcompid", "cname"],
            ),
            ComposeOperation(
                ["movies2director", "director"],
                "movies2director",
                attribute_order=["id", "directorid", "dname"],
            ),
            ComposeOperation(
                ["movies2producer", "producer"],
                "movies2producer",
                attribute_order=["id", "producerid", "pname"],
            ),
            ComposeOperation(
                ["movies2actor", "actor"],
                "movies2actor",
                attribute_order=["id", "actorid", "character", "aname", "sex"],
            ),
        ],
        target_name="imdb-denormalized",
    )

    return [
        jmdb,
        SchemaVariant("stanford", to_stanford),
        SchemaVariant("denormalized", to_denormalized),
    ]


def generate_instance(
    config: Optional[ImdbConfig] = None, seed: int = 0
) -> Tuple[DatabaseInstance, List[Tuple[str]]]:
    """Generate a movie database plus the dramaDirector ground truth."""
    config = config or ImdbConfig()
    rng = random.Random(seed)
    schema = jmdb_schema()
    instance = DatabaseInstance(schema)

    drama_directors: Set[str] = set()
    genre_ids = {genre: f"g{i}" for i, genre in enumerate(GENRES)}
    for genre, genre_id in genre_ids.items():
        instance.add_tuple("genre", (genre_id, genre))
    color_ids = {color: f"col{i}" for i, color in enumerate(COLORS)}
    for color, color_id in color_ids.items():
        instance.add_tuple("color", (color_id, color))

    companies = [f"pc{i}" for i in range(config.num_companies)]
    for company in companies:
        instance.add_tuple("prodcompany", (company, f"company_{company}"))
    directors = [f"d{i}" for i in range(config.num_directors)]
    for director in directors:
        instance.add_tuple("director", (director, f"director_{director}"))
    producers = [f"p{i}" for i in range(config.num_producers)]
    for producer in producers:
        instance.add_tuple("producer", (producer, f"producer_{producer}"))
    actors = [f"a{i}" for i in range(config.num_actors)]
    for actor in actors:
        instance.add_tuple("actor", (actor, f"actor_{actor}", rng.choice(("m", "f"))))

    used: Dict[str, Set[str]] = {
        "genre": set(),
        "color": set(),
        "company": set(),
        "director": set(),
        "producer": set(),
        "actor": set(),
    }

    for movie_index in range(config.num_movies):
        movie_id = f"m{movie_index}"
        year = rng.randint(2001, 2016)
        instance.add_tuple("movie", (movie_id, f"title_{movie_id}", year))

        genre = rng.choice(GENRES)
        director = rng.choice(directors)
        producer = rng.choice(producers)
        company = rng.choice(companies)
        color = rng.choice(COLORS)

        instance.add_tuple("movies2genre", (movie_id, genre_ids[genre]))
        instance.add_tuple("movies2color", (movie_id, color_ids[color]))
        instance.add_tuple("movies2prodcomp", (movie_id, company))
        instance.add_tuple("movies2director", (movie_id, director))
        instance.add_tuple("movies2producer", (movie_id, producer))
        for actor in rng.sample(actors, min(config.actors_per_movie, len(actors))):
            instance.add_tuple("movies2actor", (movie_id, actor, f"char_{movie_id}_{actor}"))
            used["actor"].add(actor)

        used["genre"].add(genre_ids[genre])
        used["color"].add(color_ids[color])
        used["company"].add(company)
        used["director"].add(director)
        used["producer"].add(producer)
        if genre == "drama":
            drama_directors.add(director)

    # The equality INDs movies2X[Xid] = X[Xid] require every stored entity to
    # be linked to at least one movie; drop unlinked entities.
    _drop_unlinked(instance, "genre", "genreid", used["genre"])
    _drop_unlinked(instance, "color", "colorid", used["color"])
    _drop_unlinked(instance, "prodcompany", "prodcompid", used["company"])
    _drop_unlinked(instance, "director", "directorid", used["director"])
    _drop_unlinked(instance, "producer", "producerid", used["producer"])
    _drop_unlinked(instance, "actor", "actorid", used["actor"])

    return instance, [(director,) for director in sorted(drama_directors)]


def _drop_unlinked(
    instance: DatabaseInstance, relation: str, key_attribute: str, keep: Set[str]
) -> None:
    """Remove entity tuples never referenced by a link relation."""
    stored = instance.relation(relation)
    position = stored.schema.position_of(key_attribute)
    for row in list(stored.rows):
        if row[position] not in keep:
            instance.remove_tuple(relation, row)


def generate_examples(
    drama_directors: Sequence[Tuple[str]],
    instance: DatabaseInstance,
    config: Optional[ImdbConfig] = None,
    seed: int = 0,
) -> ExampleSet:
    """Positive dramaDirector tuples plus non-drama directors as negatives."""
    config = config or ImdbConfig()
    rng = random.Random(seed)
    all_directors = sorted(
        instance.relation("director").distinct_values("directorid"), key=str
    )
    positive_set = {values[0] for values in drama_directors}
    negatives = [(d,) for d in all_directors if d not in positive_set]
    rng.shuffle(negatives)
    cap = int(len(positive_set) * config.negative_ratio) or len(negatives)
    negatives = negatives[:cap]
    return ExampleSet(TARGET, list(drama_directors), negatives)


def load(
    config: Optional[ImdbConfig] = None, seed: int = 0, backend: str = "memory"
) -> DatasetBundle:
    """Generate the full IMDb bundle (instance, examples, schema variants)."""
    config = config or ImdbConfig()
    instance, drama_directors = generate_instance(config, seed)
    examples = generate_examples(drama_directors, instance, config, seed)
    return DatasetBundle(
        "imdb", instance, examples, schema_variants(), TARGET, backend=backend
    )
