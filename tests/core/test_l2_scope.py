"""Differential test of the persistent tier's scope.

The nine kernel-batchable measures are served from the in-memory L1
only: the kernel recomputes a pair faster than sqlite reads it back.
Every path that can score them — serial and process strategies, a
second facade over the same cache directory, and ``/v1/similarity`` on
a live server — must therefore leave the L2 untouched and still return
the uncached naive engine's answer bit for bit.  Measures without a
batch kernel keep the L2 and must warm-start from it.
"""

from __future__ import annotations

import json

import pytest

from repro.core import telemetry
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.runners import ResnikRunner
from repro.core.server import serve_in_thread
from repro.core.shardedcache import ShardedDiskCache
from tests.core.test_kernel import BATCHABLE_MEASURES, PANEL
from tests.server.conftest import client_for

#: Distinct unordered pairs of the symmetric PANEL matrix.
PAIRS = len(PANEL) * (len(PANEL) + 1) // 2

#: The registered name of the Resnik runner retargeted at the
#: instance IC estimator (which the kernel does not batch).
INSTANCE_RESNIK = "Resnik (instance IC)"


def _instance_resnik(wrapper):
    runner = ResnikRunner(wrapper)
    runner.ic_source = "instances"
    return runner


def _toolkit(soqa, **options) -> SOQASimPackToolkit:
    sst = SOQASimPackToolkit(soqa, **options)
    sst.register_measure_runner(INSTANCE_RESNIK, _instance_resnik)
    return sst


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.set_enabled(True)
    telemetry.reset()
    yield
    telemetry.reset()
    telemetry.refresh_from_env()


def _l2_counters() -> dict:
    return {name: value for name, value
            in telemetry.get_registry().as_dict().items()
            if name.startswith("cache.l2.")}


def _scores(mini_soqa, directory, measure) -> dict:
    """The PANEL matrix along every path, plus each path's L2 hits."""
    oracle = _toolkit(mini_soqa, cache=False).get_similarity_matrix(
        PANEL, measure, engine="naive")
    serial = _toolkit(mini_soqa, cache_dir=directory)
    process = _toolkit(mini_soqa, cache_dir=directory)
    warm = _toolkit(mini_soqa, cache_dir=directory)
    served = _toolkit(mini_soqa, cache_dir=directory)
    matrices = {"serial": serial.get_similarity_matrix(PANEL, measure)}
    serial.flush_caches()
    matrices["process"] = process.get_similarity_matrix(
        PANEL, measure, workers=2, strategy="process")
    process.flush_caches()
    matrices["warm"] = warm.get_similarity_matrix(PANEL, measure)
    with serve_in_thread(served) as handle:
        measure_id = served.registry.resolve(measure)
        status, _, body = client_for(handle).post_json(
            "/v1/similarity", {"concepts": [list(ref) for ref in PANEL],
                               "measure": measure_id})
        assert status == 200, body
        matrices["serve"] = json.loads(body)["matrix"]
    served.flush_caches()
    l2_hits = {"serial": serial.runner(measure).l2_hits,
               "process": process.runner(measure).l2_hits,
               "warm": warm.runner(measure).l2_hits}
    return {"oracle": oracle, "matrices": matrices, "l2_hits": l2_hits}


@pytest.mark.parametrize("measure", BATCHABLE_MEASURES,
                         ids=[m.name for m in BATCHABLE_MEASURES])
def test_kernel_measures_never_touch_the_l2(mini_soqa, tmp_path, measure):
    directory = tmp_path / "l2"
    scores = _scores(mini_soqa, directory, measure)
    for path, matrix in scores["matrices"].items():
        assert matrix == scores["oracle"], path
    assert set(scores["l2_hits"].values()) == {0}
    statistics = ShardedDiskCache(directory).stats()
    assert statistics["entries"] == 0
    assert statistics["exists"] is False
    assert _l2_counters() == {}


@pytest.mark.parametrize("measure", [Measure.TFIDF, INSTANCE_RESNIK],
                         ids=["TFIDF", "Resnik-instances"])
def test_other_measures_warm_start_from_the_l2(mini_soqa, tmp_path,
                                               measure):
    directory = tmp_path / "l2"
    scores = _scores(mini_soqa, directory, measure)
    for path, matrix in scores["matrices"].items():
        assert matrix == scores["oracle"], path
    assert scores["l2_hits"] == {"serial": 0, "process": PAIRS,
                                 "warm": PAIRS}
    assert ShardedDiskCache(directory).stats()["entries"] == PAIRS
    counters = _l2_counters()
    assert counters["cache.l2.misses"] == PAIRS
    assert counters["cache.l2.hits"] == 3 * PAIRS
