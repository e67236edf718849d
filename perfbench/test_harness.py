"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import harness  # noqa: E402
from repro import Graph, PageRank, random_graph  # noqa: E402
from repro.core.api import VertexProgram  # noqa: E402


def _tiny(config, make_program=lambda: PageRank(supersteps=3),
          make_graph=lambda seed: random_graph(60, 3, seed=seed)):
    return harness.Workload("tiny", "test", make_graph, make_program, config)


def _raw(module_name, path):
    owner, attr = harness.resolve(module_name, path)
    return vars(owner)[attr]


def test_wrapped_restores_every_attribute_even_on_error():
    before = [_raw(m, p) for m, p, _s in harness.WRAP_POINTS]
    recorder = harness.SpanRecorder()
    with pytest.raises(RuntimeError):
        with harness.wrapped(recorder):
            during = [_raw(m, p) for m, p, _s in harness.WRAP_POINTS]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("boom")
    after = [_raw(m, p) for m, p, _s in harness.WRAP_POINTS]
    assert all(a is b for a, b in zip(before, after))


def test_staticmethod_stays_static_while_wrapped():
    from repro.storage.veblock import BlockLayout

    with harness.wrapped(harness.SpanRecorder()):
        assert isinstance(vars(BlockLayout)["build"], staticmethod)


def test_spans_partition_the_job_wall():
    workload = _tiny({"mode": "hybrid", "executor": "vectorized"})
    samples = harness.run_jobs(workload, workload.make_graph(1), 0,
                               traced=True, min_jobs=2)
    assert all(s.error is None for s in samples)
    # span bookkeeping around the root is the only time not covered
    assert all(abs(s.self_sum_s - s.wall_s) < 1e-3 for s in samples)
    assert all(s.layers["veblock.build_calls"] == 5 for s in samples)


def test_every_job_gets_a_graph_without_a_cached_csr():
    workload = _tiny({"mode": "bpull", "executor": "vectorized"})
    graph = workload.make_graph(1)
    samples = harness.run_jobs(workload, graph, 0, traced=True, min_jobs=2)
    assert graph._csr is None
    assert all(s.layers["graph.csr_s"] > 0 for s in samples)


def test_digest_mismatch_counts_as_failure():
    workload = _tiny({"mode": "push"})
    graph = workload.make_graph(2)
    samples = harness.run_jobs(workload, graph, 0, min_jobs=2)
    reference = harness.reference_digest(workload, graph)
    assert harness.count_failures(samples, reference) == 0
    assert harness.count_failures(samples, "not-the-reference") == 2
    layers = harness.per_layer(samples, samples, 2)
    assert layers["failed_frac"] == 0.5


class _Exploding(VertexProgram):
    name = "exploding"

    def initial_value(self, vid, ctx):
        return 0.0

    def update(self, vid, value, messages, ctx):
        raise ValueError("injected")

    def message_value(self, vid, value, dst, weight, ctx):
        return value


def test_injected_exception_counts_as_failure():
    workload = _tiny({"mode": "push"}, make_program=_Exploding)
    samples = harness.run_jobs(workload, workload.make_graph(3), 0,
                               min_jobs=3)
    assert harness.count_failures(samples, None) == 3
    assert all("ValueError: injected" in s.error for s in samples)


def test_executor_fallback_counts_as_failure():
    # the reference executor cannot run a pool: parallelism falls back
    workload = _tiny({"mode": "push", "executor": "reference",
                      "parallelism": 2})
    samples = harness.run_jobs(workload, workload.make_graph(4), 0,
                               min_jobs=1)
    assert samples[0].error.startswith("executor fallback")


@pytest.mark.skipif(harness.pool_unavailable_reason() is not None,
                    reason="no 2-process pool on this host")
def test_pool_run_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    workload = _tiny({"mode": "bpull", "executor": "vectorized",
                      "parallelism": 2})
    (sample,) = harness.run_jobs(workload, workload.make_graph(5), 0,
                                 min_jobs=1)
    assert sample.error is None
    assert resource_tracker._resource_tracker._pid is not None
    harness.stop_helper_processes()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_medges_per_s_matches_a_hand_count():
    # 4-cycle, push: every vertex responds in each of the 3 supersteps
    # and scans its single out-edge, so 3 x 4 = 12 edges.
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    workload = _tiny({"mode": "push"}, make_graph=lambda seed: ring)
    (sample,) = harness.run_jobs(workload, ring, 0, min_jobs=1)
    assert sample.edges_scanned == 12
    metrics = harness.end_to_end([sample], peak_rss_mb=1.0)
    assert metrics["medges_per_s"] == pytest.approx(
        12 / 1e6 / (sample.wall_s - sample.setup_s)
    )
    assert 0 < sample.setup_s < sample.wall_s


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in harness.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _layer in harness.PER_LAYER
    ]
