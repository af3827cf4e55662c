"""Per-rule good/bad fixtures: every rule must fire on its bad fixture and
stay silent on the corresponding good one."""

import textwrap

from repro.analysis.engine import run_analysis
from repro.analysis.rules import (
    CapabilityGuardRule,
    LockOrderRule,
    ObsDisciplineRule,
    TestsArePackagesRule,
    WireSafetyRule,
)


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _run(tmp_path, rule):
    return run_analysis(
        [str(tmp_path)], [rule], check_suppression_hygiene=False
    )


# --------------------------------------------------------------------- #
# REP001 wire-safety
# --------------------------------------------------------------------- #


def test_rep001_fires_on_pickle_import(tmp_path):
    _write(tmp_path, "mod.py", "import pickle\n")
    result = _run(tmp_path, WireSafetyRule())
    assert [f.rule for f in result.unsuppressed] == ["REP001"]


def test_rep001_fires_on_from_import_and_eval(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        from marshal import dumps

        def f(expr):
            return eval(expr)
        """,
    )
    result = _run(tmp_path, WireSafetyRule())
    assert len(result.unsuppressed) == 2


def test_rep001_reasoned_import_noqa_excuses_same_file_calls(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        import pickle  # repro: noqa[REP001] -- dumps-only fingerprint

        def fingerprint(obj):
            return pickle.dumps(obj)
        """,
    )
    result = _run(tmp_path, WireSafetyRule())
    assert result.ok
    assert len(result.suppressed) == 1


def test_rep001_unexcused_call_still_fires(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        import pickle

        def load(blob):
            return pickle.loads(blob)
        """,
    )
    result = _run(tmp_path, WireSafetyRule())
    assert len(result.unsuppressed) == 2  # the import and the call


# --------------------------------------------------------------------- #
# REP002 capability-guard
# --------------------------------------------------------------------- #


def test_rep002_fires_on_unguarded_gated_call(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Engine:
            def saturate(self, keys):
                return self.backend.neighbors_of_batch(keys)
        """,
    )
    result = _run(tmp_path, CapabilityGuardRule())
    assert [f.rule for f in result.unsuppressed] == ["REP002"]
    assert "supports_saturation_queries" in result.unsuppressed[0].message


def test_rep002_probe_before_call_is_clean(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Engine:
            def saturate(self, keys):
                if not self.backend.supports_saturation_queries:
                    return None
                return self.backend.neighbors_of_batch(keys)
        """,
    )
    assert _run(tmp_path, CapabilityGuardRule()).ok


def test_rep002_getattr_string_probe_counts(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Engine:
            def saturate(self, keys):
                if not getattr(self.backend, "supports_saturation_queries", False):
                    return None
                return self.backend.neighbors_of_batch(keys)
        """,
    )
    assert _run(tmp_path, CapabilityGuardRule()).ok


def test_rep002_declaring_class_is_exempt(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class WrappingBackend:
            supports_saturation_queries = True

            def neighbors(self, keys):
                return self.backend.neighbors_of_batch(keys)
        """,
    )
    assert _run(tmp_path, CapabilityGuardRule()).ok


def test_rep002_gated_constructor_needs_probe(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        def start(coverage):
            return SaturationPrefetcher(coverage)
        """,
    )
    result = _run(tmp_path, CapabilityGuardRule())
    assert [f.rule for f in result.unsuppressed] == ["REP002"]


def test_rep002_guard_helper_counts_as_probe(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        def start(coverage, instance):
            if not _prefetch_enabled(instance):
                return None
            return SaturationPrefetcher(coverage)
        """,
    )
    assert _run(tmp_path, CapabilityGuardRule()).ok


def test_rep002_instance_facade_calls_are_not_gated(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        def saturate(instance, keys):
            return instance.neighbors_of_batch(keys)
        """,
    )
    assert _run(tmp_path, CapabilityGuardRule()).ok


# --------------------------------------------------------------------- #
# REP003 obs-discipline
# --------------------------------------------------------------------- #


def test_rep003_fires_on_adhoc_counter(tmp_path):
    _write(
        tmp_path,
        "repro/learning/mod.py",
        """\
        class Engine:
            def record(self):
                self.cache_hits += 1
        """,
    )
    result = _run(tmp_path, ObsDisciplineRule())
    assert [f.rule for f in result.unsuppressed] == ["REP003"]
    assert "cache_hits" in result.unsuppressed[0].message


def test_rep003_fires_on_time_time(tmp_path):
    _write(
        tmp_path,
        "repro/database/mod.py",
        """\
        import time

        def stamp():
            return time.time()
        """,
    )
    result = _run(tmp_path, ObsDisciplineRule())
    assert [f.rule for f in result.unsuppressed] == ["REP003"]


def test_rep003_registry_counter_is_clean(tmp_path):
    _write(
        tmp_path,
        "repro/learning/mod.py",
        """\
        class Engine:
            def record(self):
                self._c_cache_hits.inc()
        """,
    )
    assert _run(tmp_path, ObsDisciplineRule()).ok


def test_rep003_out_of_scope_dirs_are_ignored(tmp_path):
    _write(
        tmp_path,
        "repro/logic/mod.py",
        """\
        class Engine:
            def record(self):
                self.cache_hits += 1
        """,
    )
    assert _run(tmp_path, ObsDisciplineRule()).ok


def test_rep003_span_name_must_be_dotted(tmp_path):
    _write(
        tmp_path,
        "repro/learning/mod.py",
        """\
        def run():
            with span("saturate"):
                pass
        """,
    )
    result = _run(tmp_path, ObsDisciplineRule())
    assert [f.rule for f in result.unsuppressed] == ["REP003"]
    assert "noun.verb" in result.unsuppressed[0].message


def test_rep003_good_span_names_pass(tmp_path):
    _write(
        tmp_path,
        "repro/learning/mod.py",
        """\
        def run(kind):
            with span("learn.saturate", examples=3):
                pass
            with span(f"rpc.{kind}"):
                pass
        """,
    )
    assert _run(tmp_path, ObsDisciplineRule()).ok


def test_rep003_dynamic_span_without_literal_prefix_fires(tmp_path):
    _write(
        tmp_path,
        "repro/learning/mod.py",
        """\
        def run(kind):
            with span(f"{kind}.go"):
                pass
        """,
    )
    result = _run(tmp_path, ObsDisciplineRule())
    assert [f.rule for f in result.unsuppressed] == ["REP003"]


# --------------------------------------------------------------------- #
# REP004 lock-order
# --------------------------------------------------------------------- #


def test_rep004_detects_lock_cycle_across_files(tmp_path):
    _write(
        tmp_path,
        "a.py",
        """\
        class Store:
            def ab(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass
        """,
    )
    _write(
        tmp_path,
        "b.py",
        """\
        class Store:
            def ba(self):
                with self.beta_lock:
                    with self.alpha_lock:
                        pass
        """,
    )
    result = _run(tmp_path, LockOrderRule())
    assert [f.rule for f in result.unsuppressed] == ["REP004"]
    assert "cycle" in result.unsuppressed[0].message


def test_rep004_consistent_order_is_clean(tmp_path):
    _write(
        tmp_path,
        "a.py",
        """\
        class Store:
            def ab(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass

            def ab_again(self):
                with self.alpha_lock:
                    with self.beta_lock:
                        pass
        """,
    )
    assert _run(tmp_path, LockOrderRule()).ok


def test_rep004_blocking_recv_under_lock_fires(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Client:
            def request(self, message):
                with self._lock:
                    self.transport.send(message)
                    return self.transport.recv()
        """,
    )
    result = _run(tmp_path, LockOrderRule())
    assert [f.rule for f in result.unsuppressed] == ["REP004"]
    assert ".recv()" in result.unsuppressed[0].message


def test_rep004_recv_outside_lock_is_clean(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Client:
            def request(self, message):
                with self._lock:
                    self.transport.send(message)
                return self.transport.recv()
        """,
    )
    assert _run(tmp_path, LockOrderRule()).ok


def test_rep004_queue_get_without_timeout_under_lock_fires(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Pump:
            def drain(self):
                with self._lock:
                    return self.queue.get()
        """,
    )
    result = _run(tmp_path, LockOrderRule())
    assert [f.rule for f in result.unsuppressed] == ["REP004"]


def test_rep004_dict_get_under_lock_is_clean(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Registry:
            def lookup(self, client):
                with self._lock:
                    return self._queues.get(client)
        """,
    )
    assert _run(tmp_path, LockOrderRule()).ok


def test_rep004_queue_get_with_timeout_is_clean(tmp_path):
    _write(
        tmp_path,
        "mod.py",
        """\
        class Pump:
            def drain(self):
                with self._lock:
                    return self.queue.get(timeout=1.0)
        """,
    )
    assert _run(tmp_path, LockOrderRule()).ok


# --------------------------------------------------------------------- #
# REP006 tests-are-packages
# --------------------------------------------------------------------- #


def test_rep006_missing_init_fires(tmp_path):
    _write(tmp_path, "tests/sub/test_x.py", "def test_x():\n    pass\n")
    result = _run(tmp_path, TestsArePackagesRule())
    assert [f.rule for f in result.unsuppressed] == ["REP006"]
    assert result.unsuppressed[0].path.endswith("tests/sub/__init__.py")


def test_rep006_package_test_dir_is_clean(tmp_path):
    _write(tmp_path, "tests/sub/__init__.py", "")
    _write(tmp_path, "tests/sub/test_x.py", "def test_x():\n    pass\n")
    assert _run(tmp_path, TestsArePackagesRule()).ok


def test_rep006_non_test_dirs_are_ignored(tmp_path):
    _write(tmp_path, "pkg/mod.py", "x = 1\n")
    assert _run(tmp_path, TestsArePackagesRule()).ok
