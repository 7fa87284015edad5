"""Tests for the persistent L2 similarity cache and its facade wiring."""

import pickle
import sqlite3

import pytest

from repro.core import telemetry
from repro.core.cache import CachedRunner
from repro.core.diskcache import DiskCache, corpus_fingerprint
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.resilience import injected_faults
from repro.core.results import QualifiedConcept

PROFESSOR = QualifiedConcept("univ", "Professor")
STUDENT = QualifiedConcept("univ", "Student")


@pytest.fixture
def cache(tmp_path) -> DiskCache:
    return DiskCache(tmp_path / "cache")


class TestDiskCache:
    def test_roundtrip(self, cache):
        assert cache.get("fp", "m", "o1", "a", "o2", "b") is None
        cache.put("fp", "m", "o1", "a", "o2", "b", 0.5)
        cache.flush()
        assert cache.get("fp", "m", "o1", "a", "o2", "b") == 0.5

    def test_pending_rows_not_visible_before_flush(self, cache):
        cache.put("fp", "m", "o1", "a", "o2", "b", 0.5)
        assert cache.stats()["pending"] == 1
        cache.flush()
        assert cache.stats()["pending"] == 0
        assert cache.stats()["entries"] == 1

    def test_fingerprint_scopes_entries(self, cache):
        cache.put("fp1", "m", "o", "a", "o", "b", 0.5)
        cache.flush()
        assert cache.get("fp2", "m", "o", "a", "o", "b") is None

    def test_measure_scopes_entries(self, cache):
        cache.put("fp", "m1", "o", "a", "o", "b", 0.5)
        cache.flush()
        assert cache.get("fp", "m2", "o", "a", "o", "b") is None

    def test_replace_updates_value(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.put("fp", "m", "o", "a", "o", "b", 0.75)
        cache.flush()
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.75
        assert cache.stats()["entries"] == 1

    def test_clear_all_and_by_fingerprint(self, cache):
        cache.put("fp1", "m", "o", "a", "o", "b", 0.1)
        cache.put("fp2", "m", "o", "a", "o", "b", 0.2)
        cache.flush()
        assert cache.clear("fp1") == 1
        assert cache.get("fp2", "m", "o", "a", "o", "b") == 0.2
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_stats_without_file(self, tmp_path):
        cache = DiskCache(tmp_path / "never-created")
        statistics = cache.stats()
        assert statistics["exists"] is False
        assert statistics["entries"] == 0

    def test_persists_across_instances(self, tmp_path):
        first = DiskCache(tmp_path / "cache")
        first.put("fp", "m", "o", "a", "o", "b", 0.5)
        first.close()
        second = DiskCache(tmp_path / "cache")
        assert second.get("fp", "m", "o", "a", "o", "b") == 0.5

    def test_pickle_drops_connection(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.flush()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("fp", "m", "o", "a", "o", "b") == 0.5

    def test_unusable_directory_never_breaks_lookups(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        cache = DiskCache(blocker / "cache")
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 0


class TestSelfHealing:
    def _corrupt(self, cache: DiskCache) -> None:
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path.write_bytes(b"torn write garbage\0" * 16)

    def test_corrupt_file_is_quarantined_and_rebuilt(self, cache):
        telemetry.reset()
        self._corrupt(cache)
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 1
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.5
        assert cache.quarantined == 1
        evidence = list(cache.directory.glob("*.corrupt-*"))
        assert len(evidence) == 1
        assert telemetry.get_registry().value("cache.l2.quarantined") == 1

    def test_schema_version_mismatch_is_quarantined(self, cache):
        cache.directory.mkdir(parents=True, exist_ok=True)
        foreign = sqlite3.connect(str(cache.path))
        foreign.execute("PRAGMA user_version = 99")
        foreign.commit()
        foreign.close()
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.quarantined == 1

    def test_repeated_quarantines_keep_all_evidence(self, cache):
        for _ in range(2):
            # Close first: a live WAL connection would checkpoint over
            # the scribbled bytes and accidentally repair the file.
            cache.close()
            self._corrupt(cache)
            cache.get("fp", "m", "o", "a", "o", "b")
        assert cache.quarantined == 2
        assert len(list(cache.directory.glob("*.corrupt-*"))) == 2

    def test_midrun_corruption_heals_on_next_access(self, cache):
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        cache.flush()

        class Broken:
            def execute(self, *args):
                raise sqlite3.DatabaseError("malformed")

            def close(self):
                pass

        cache._connection = Broken()
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.quarantined == 1
        assert cache._connection is None
        # The next access rebuilds a fresh, working database.
        cache.put("fp", "m", "o", "a", "o", "b", 0.25)
        assert cache.flush() == 1
        assert cache.get("fp", "m", "o", "a", "o", "b") == 0.25

    def test_breaker_fails_open_after_repeated_failures(self, tmp_path):
        telemetry.reset()
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        cache = DiskCache(blocker / "cache")
        for _ in range(cache.breaker.failure_threshold):
            assert cache.get("fp", "m", "o", "a", "o", "b") is None
        assert cache.breaker.state == cache.breaker.OPEN
        # Refused without touching the broken path; pending writes drop.
        assert cache.get("fp", "m", "o", "a", "o", "b") is None
        cache.put("fp", "m", "o", "a", "o", "b", 0.5)
        assert cache.flush() == 0
        registry = telemetry.get_registry()
        assert registry.value("cache.l2.failopen") >= 2
        assert registry.value("resilience.breaker.opened") == 1

    def test_cache_corrupt_fault_injection_heals(self, tmp_path):
        telemetry.reset()
        with injected_faults("cache.corrupt=1"):
            cache = DiskCache(tmp_path / "cache")
            cache.put("fp", "m", "o", "a", "o", "b", 0.5)
            assert cache.flush() == 1
            assert cache.get("fp", "m", "o", "a", "o", "b") == 0.5
        assert cache.quarantined <= 1  # nothing to quarantine pre-file
        registry = telemetry.get_registry()
        assert registry.value("faults.injected.cache.corrupt") == 1

    def test_pickle_resets_healing_state(self, cache):
        cache.breaker.record_failure()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.breaker.state == clone.breaker.CLOSED
        assert clone.quarantined == 0


class TestCorpusFingerprint:
    def test_stable_for_same_corpus(self, mini_soqa):
        assert (corpus_fingerprint(mini_soqa, "super_thing")
                == corpus_fingerprint(mini_soqa, "super_thing"))

    def test_changes_with_strategy(self, mini_soqa):
        assert (corpus_fingerprint(mini_soqa, "super_thing")
                != corpus_fingerprint(mini_soqa, "merged_thing"))

    def test_changes_with_content(self, mini_soqa):
        before = corpus_fingerprint(mini_soqa, "super_thing")
        mini_soqa.load_text("(defmodule \"X\")\n(in-module \"X\")\n"
                            "(defconcept THING)", "X", "PowerLoom")
        assert corpus_fingerprint(mini_soqa, "super_thing") != before


class TestCachedRunnerL2:
    def test_symmetric_canonicalization_applies_to_l2(self, mini_sst,
                                                      tmp_path):
        """The unordered pair shares one on-disk row (satellite 2)."""
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        first = CachedRunner(inner, l2=l2, fingerprint="fp")
        value = first.run(PROFESSOR, STUDENT)
        first.flush()
        # A fresh runner (empty L1) sees the swapped order: the
        # canonical key must hit the same disk row.
        second = CachedRunner(inner, l2=l2, fingerprint="fp")
        assert second.run(STUDENT, PROFESSOR) == value
        assert second.l2_hits == 1
        assert second.misses == 1  # L1 was cold; L2 served the value
        assert l2.stats()["entries"] == 1

    def test_l2_miss_falls_through_to_compute(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        cached = CachedRunner(
            mini_sst.registry.create(Measure.SHORTEST_PATH,
                                     mini_sst.wrapper),
            l2=l2, fingerprint="fp")
        cached.run(PROFESSOR, STUDENT)
        assert cached.l2_misses == 1
        assert cached.l2_hits == 0

    def test_different_fingerprint_invalidates(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        stale = CachedRunner(inner, l2=l2, fingerprint="old")
        stale.run(PROFESSOR, STUDENT)
        stale.flush()
        fresh = CachedRunner(inner, l2=l2, fingerprint="new")
        fresh.run(PROFESSOR, STUDENT)
        assert fresh.l2_hits == 0
        assert fresh.l2_misses == 1

    def test_merge_persists_worker_entries(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        inner = mini_sst.registry.create(Measure.SHORTEST_PATH,
                                         mini_sst.wrapper)
        cached = CachedRunner(inner, l2=l2, fingerprint="fp")
        key = cached.cache_key(PROFESSOR, STUDENT)
        cached.merge([(key, 0.25)], hits=0, misses=1)
        cached.flush()
        reader = CachedRunner(inner, l2=l2, fingerprint="fp")
        assert reader.run(PROFESSOR, STUDENT) == 0.25
        assert reader.l2_hits == 1

    def test_clear_resets_l2_counters(self, mini_sst, tmp_path):
        l2 = DiskCache(tmp_path / "cache")
        cached = CachedRunner(
            mini_sst.registry.create(Measure.SHORTEST_PATH,
                                     mini_sst.wrapper),
            l2=l2, fingerprint="fp")
        cached.run(PROFESSOR, STUDENT)
        cached.clear()
        assert cached.l2_hits == 0
        assert cached.l2_misses == 0


class TestFacadeWiring:
    def test_facade_runners_are_cached(self, mini_sst):
        runner = mini_sst.runner(Measure.TFIDF)
        assert isinstance(runner, CachedRunner)
        assert runner.l2 is not None  # SST_CACHE_DIR is set in tests

    def test_cache_false_returns_raw_runner(self, mini_soqa):
        sst = SOQASimPackToolkit(mini_soqa, cache=False)
        assert not isinstance(sst.runner(Measure.SHORTEST_PATH),
                              CachedRunner)
        assert sst.disk_cache is None

    def test_no_cache_environment_disables(self, mini_soqa, monkeypatch):
        monkeypatch.setenv("SST_NO_CACHE", "1")
        sst = SOQASimPackToolkit(mini_soqa)
        assert not isinstance(sst.runner(Measure.SHORTEST_PATH),
                              CachedRunner)

    def test_warm_start_across_facades(self, mini_soqa, tmp_path):
        directory = tmp_path / "shared"
        cold = SOQASimPackToolkit(mini_soqa, cache_dir=directory)
        value = cold.get_similarity("Professor", "univ", "Student", "univ",
                                    Measure.TFIDF)
        cold.flush_caches()
        warm = SOQASimPackToolkit(mini_soqa, cache_dir=directory)
        assert warm.get_similarity("Professor", "univ", "Student", "univ",
                                   Measure.TFIDF) == value
        runner = warm.runner(Measure.TFIDF)
        assert runner.l2_hits == 1

    def test_cache_statistics_shape(self, mini_sst):
        mini_sst.get_similarity("Professor", "univ", "Student", "univ",
                                Measure.TFIDF)
        statistics = mini_sst.cache_statistics()
        assert statistics["enabled"] is True
        assert statistics["l1"]["misses"] >= 1
        assert statistics["l2"] is not None
        assert "hit_rate" in statistics["l2"]

    def test_refresh_recomputes_fingerprint(self, mini_sst):
        before = mini_sst.fingerprint()
        mini_sst.load_ontology_text(
            "(defmodule \"Y\")\n(in-module \"Y\")\n(defconcept THING)",
            "Y", "PowerLoom")
        assert mini_sst.fingerprint() != before
