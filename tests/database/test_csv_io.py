"""Tests for CSV persistence of database instances."""

from repro.database.csv_io import load_instance, load_schema, relation_counts, save_instance
from repro.database.instance import DatabaseInstance
from repro.database.schema import Schema


class TestCsvRoundTrip:
    def test_schema_round_trip(self, simple_instance, tmp_path):
        save_instance(simple_instance, tmp_path)
        loaded_schema = load_schema(tmp_path)
        assert set(loaded_schema.relation_names) == {"r1", "r2"}
        assert len(loaded_schema.functional_dependencies) == 1
        assert len(loaded_schema.inclusion_dependencies) == 1
        assert loaded_schema.inclusion_dependencies[0].with_equality

    def test_constant_attributes_round_trip(self, simple_instance, tmp_path):
        schema = simple_instance.schema
        declared = Schema(
            schema.relations,
            schema.functional_dependencies,
            schema.inclusion_dependencies,
            name=schema.name,
            constant_attributes=["b", "c"],
        )
        save_instance(DatabaseInstance(declared), tmp_path)
        loaded = load_schema(tmp_path)
        assert loaded.constant_attributes == {"b", "c"}
        assert loaded == declared

    def test_instance_round_trip(self, simple_instance, tmp_path):
        save_instance(simple_instance, tmp_path)
        loaded = load_instance(tmp_path)
        assert loaded.total_tuples() == simple_instance.total_tuples()
        assert loaded.relation("r1").rows == simple_instance.relation("r1").rows

    def test_relation_counts(self, simple_instance):
        counts = relation_counts(simple_instance)
        assert counts == {"r1": 3, "r2": 4}

    def test_missing_relation_file_tolerated(self, simple_instance, tmp_path):
        save_instance(simple_instance, tmp_path)
        (tmp_path / "r2.csv").unlink()
        loaded = load_instance(tmp_path)
        assert len(loaded.relation("r2")) == 0
        assert len(loaded.relation("r1")) == 3
